//! Shared harness utilities: TSV output, timing, index construction.

use std::sync::Arc;

use hgs_core::{measure, FetchReport, TgiConfig, TgiService, TgiView};
use hgs_delta::{Event, Time};
use hgs_store::{CostModel, StoreConfig};

/// Print an experiment banner.
pub fn banner(fig: &str, what: &str, params: &str) {
    println!("# === {fig}: {what} ===");
    println!("# params: {params}");
}

/// Print a TSV header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Format seconds with stable precision.
pub fn secs(v: f64) -> String {
    format!("{v:.4}")
}

/// Build a TGI over `events` on a fresh cluster, with the read cache
/// **disabled**: the figure harnesses measure the raw fetch + decode
/// cost of the index *shape* (the paper's per-query numbers), which a
/// warm cache would flatten into clone-and-replay time.
pub fn build_tgi(cfg: TgiConfig, store: StoreConfig, events: &[Event]) -> Arc<TgiService> {
    let tgi = TgiService::try_build(cfg, store, events).expect("healthy store");
    tgi.set_read_cache_budget(0);
    tgi
}

/// Run `f` and report it through the cost model at client width `c`.
pub fn timed<R>(tgi: &TgiView, c: usize, f: impl FnOnce() -> R) -> (R, FetchReport) {
    measure(tgi.store(), &CostModel::default(), c, f)
}

/// Query times that produce growing snapshot sizes: `n` timepoints
/// spread over the trace.
pub fn growth_times(events: &[Event], n: usize) -> Vec<Time> {
    let end = events.last().map(|e| e.time).unwrap_or(0);
    (1..=n).map(|i| end * i as u64 / n as u64).collect()
}

/// Pick `n` node-ids that exist in the final state, spread across the
/// id space, preferring nodes with many changes when `min_changes` is
/// set.
pub fn sample_nodes(events: &[Event], n: usize, min_changes: usize) -> Vec<u64> {
    let mut counts: hgs_delta::FxHashMap<u64, usize> = hgs_delta::FxHashMap::default();
    for e in events {
        let (a, b) = e.kind.touched();
        *counts.entry(a).or_insert(0) += 1;
        if let Some(b) = b {
            *counts.entry(b).or_insert(0) += 1;
        }
    }
    let mut ids: Vec<(u64, usize)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_changes)
        .collect();
    ids.sort_unstable();
    let step = (ids.len() / n.max(1)).max(1);
    ids.into_iter()
        .step_by(step)
        .take(n)
        .map(|(id, _)| id)
        .collect()
}

/// The default TGI configuration used by the retrieval figures
/// (paper defaults: ps=500, l=500, ns=4).
pub fn paper_default_cfg() -> TgiConfig {
    TgiConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn growth_times_monotone() {
        let ev = WikiGrowth::sized(2_000).generate();
        let ts = growth_times(&ev, 5);
        assert_eq!(ts.len(), 5);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sample_nodes_respects_min_changes() {
        let ev = WikiGrowth::sized(5_000).generate();
        let nodes = sample_nodes(&ev, 20, 10);
        assert!(!nodes.is_empty());
        for id in nodes {
            let c = ev
                .iter()
                .filter(|e| {
                    let (a, b) = e.kind.touched();
                    a == id || b == Some(id)
                })
                .count();
            assert!(c >= 10);
        }
    }
}
