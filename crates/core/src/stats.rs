//! Retrieval measurement: wall-clock plus cost-model estimates.

use hgs_store::{CostModel, SimStore};

/// What one retrieval cost, in both real and modelled terms.
///
/// `wall_secs` is the measured in-process time (real deserialization
/// and thread parallelism, no network). `modeled_secs` runs the exact
/// access counts through the calibrated [`CostModel`] to estimate the
/// latency on a paper-like Cassandra cluster; the figure harnesses
/// report both, labelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchReport {
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Cost-model estimate in seconds (cluster-shaped).
    pub modeled_secs: f64,
    /// Point lookups issued.
    pub lookups: u64,
    /// Range scans issued.
    pub scans: u64,
    /// Rows (micro-deltas) returned.
    pub rows: u64,
    /// Value bytes moved (stored size).
    pub bytes: u64,
}

impl FetchReport {
    /// Total store requests (gets + scans) — the paper's `∑∆ 1`
    /// measure at the storage layer.
    pub fn requests(&self) -> u64 {
        self.lookups + self.scans
    }
}

/// Run `f` against the store, bracketing per-machine access counters,
/// and return its result together with a [`FetchReport`] computed for
/// `clients` parallel fetch clients.
pub fn measure<R>(
    store: &SimStore,
    model: &CostModel,
    clients: usize,
    f: impl FnOnce() -> R,
) -> (R, FetchReport) {
    let before = store.stats_snapshot();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = store.stats_snapshot();
    let diff = SimStore::stats_since(&after, &before);
    let report = FetchReport {
        wall_secs: wall,
        // Fault-plan latency multipliers (straggler machines) scale the
        // modelled server-side term; an empty slice is the no-op case.
        modeled_secs: model.estimate_seconds_with_latency(
            &diff,
            clients,
            &store.latency_multipliers(),
        ),
        lookups: diff.iter().map(|m| m.gets).sum(),
        scans: diff.iter().map(|m| m.scans).sum(),
        rows: diff.iter().map(|m| m.rows_read).sum(),
        bytes: diff.iter().map(|m| m.bytes_read).sum(),
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hgs_store::{PutRow, StoreConfig, Table};

    #[test]
    fn measure_brackets_only_inner_work() {
        let store = SimStore::new(StoreConfig::new(2, 1));
        let row = PutRow::new(Table::Graph, b"k".to_vec(), 0, Bytes::from_static(b"hello"));
        store.try_put_batch(vec![row]).unwrap();
        store.multi_get(Table::Graph, &[b"k"], 0).unwrap(); // outside bracket
        let model = CostModel::default();
        let ((), rep) = measure(&store, &model, 4, || {
            store.multi_get(Table::Graph, &[b"k"], 0).unwrap();
            store.multi_get(Table::Graph, &[b"missing"], 0).unwrap();
        });
        assert_eq!(rep.lookups, 2);
        assert_eq!(rep.rows, 1);
        assert_eq!(rep.bytes, 5);
        assert!(rep.modeled_secs > 0.0);
        assert!(rep.wall_secs >= 0.0);
    }
}
