//! DeltaGraph — the authors' prior index (ICDE'13) — realized through
//! TGI's tunability (§4.2/§4.3: "This is the same as DeltaGraph, with
//! the exception of partitioning").
//!
//! One horizontal partition, monolithic (unbounded) micro-deltas, no
//! version chains: excellent snapshots via the intersection tree, but
//! node-version queries degrade to replay.

use std::sync::Arc;

use hgs_core::{TgiConfig, TgiService, TgiView};
use hgs_delta::{Delta, Event, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{SimStore, StoreConfig, StoreError};

use crate::traits::{node_events_in, HistoricalIndex};

/// DeltaGraph = TGI with the degenerate partitioning configuration.
pub struct DeltaGraphIndex {
    tgi: Arc<TgiView>,
    /// Retained trace for version queries (DeltaGraph has no version
    /// chains; the paper charges it `|G|` for those queries — we
    /// replay the kept trace, charging the same asymptotics in-memory).
    events: Vec<Event>,
}

impl DeltaGraphIndex {
    /// Build with eventlist size `l` and tree arity `arity`.
    pub fn build(
        store_cfg: StoreConfig,
        events: &[Event],
        l: usize,
        arity: usize,
    ) -> DeltaGraphIndex {
        let cfg = TgiConfig {
            eventlist_size: l,
            arity,
            ..TgiConfig::deltagraph()
        };
        let tgi = TgiService::try_build(cfg, store_cfg, events)
            .expect("a fresh simulated cluster accepts every write")
            .pin();
        DeltaGraphIndex {
            tgi,
            events: events.to_vec(),
        }
    }
}

impl HistoricalIndex for DeltaGraphIndex {
    fn name(&self) -> &'static str {
        "deltagraph"
    }

    fn store(&self) -> &Arc<SimStore> {
        self.tgi.store()
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        self.tgi.try_snapshot(t)
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        // Monolithic deltas: fetching a node still reads whole deltas
        // along the path; TGI's node fetch on a single-pid config does
        // exactly that.
        self.tgi.try_node_at(nid, t)
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        // No version chains: scan the history (the |G| cost of Table 1).
        Ok((
            self.try_node_at(nid, range.start)?,
            node_events_in(&self.events, nid, range),
        ))
    }
}

/// TGI itself — a pinned view — as a [`HistoricalIndex`], closing the
/// comparison set.
impl HistoricalIndex for TgiView {
    fn name(&self) -> &'static str {
        "tgi"
    }

    fn store(&self) -> &Arc<SimStore> {
        TgiView::store(self)
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        TgiView::try_snapshot(self, t)
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        TgiView::try_node_at(self, nid, t)
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        let h = TgiView::try_node_history(self, nid, range)?;
        Ok((h.initial, h.events))
    }

    fn try_one_hop(&self, nid: NodeId, t: Time) -> Result<Delta, StoreError> {
        TgiView::try_khop_with(self, nid, t, 1, hgs_core::KhopStrategy::Recursive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn deltagraph_matches_replay() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = DeltaGraphIndex::build(StoreConfig::new(2, 1), &events, 100, 2);
        let end = events.last().unwrap().time;
        for t in [0, end / 2, end] {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn deltagraph_stores_monolithic_deltas() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = DeltaGraphIndex::build(StoreConfig::new(2, 1), &events, 200, 2);
        // Exactly one pid per delta: scan counts and row counts match
        // the tree structure, far fewer rows than a partitioned TGI.
        let tgi_cfg = hgs_core::TgiConfig {
            eventlist_size: 200,
            partition_size: 50,
            ..hgs_core::TgiConfig::default()
        };
        let tgi = TgiService::try_build(tgi_cfg, StoreConfig::new(2, 1), &events)
            .unwrap()
            .pin();
        assert!(idx.store().row_count() < tgi.store().row_count() / 2);
    }

    #[test]
    fn tgi_as_historical_index() {
        let events = WikiGrowth::sized(800).generate();
        let tgi = TgiService::try_build(
            hgs_core::TgiConfig {
                events_per_timespan: 500,
                eventlist_size: 100,
                partition_size: 80,
                ..hgs_core::TgiConfig::default()
            },
            StoreConfig::new(2, 1),
            &events,
        )
        .unwrap()
        .pin();
        let idx: &dyn HistoricalIndex = &*tgi;
        let end = events.last().unwrap().time;
        assert_eq!(
            idx.try_snapshot(end).unwrap(),
            Delta::snapshot_by_replay(&events, end)
        );
        assert_eq!(idx.name(), "tgi");
    }

    /// The shared fallible trait surface: a healthy cluster answers
    /// through it, and a dead cluster turns into `Err` — through the
    /// trait object too.
    #[test]
    fn try_surface_is_shared_and_fallible_for_tgi() {
        let events = WikiGrowth::sized(800).generate();
        let tgi = TgiService::try_build(
            hgs_core::TgiConfig {
                events_per_timespan: 500,
                eventlist_size: 100,
                partition_size: 80,
                ..hgs_core::TgiConfig::default()
            },
            StoreConfig::new(2, 1),
            &events,
        )
        .unwrap()
        .pin();
        let log = crate::LogIndex::build(StoreConfig::new(2, 1), &events, 128);
        let end = events.last().unwrap().time;
        let oracle = Delta::snapshot_by_replay(&events, end / 2);
        for idx in [&*tgi as &dyn HistoricalIndex, &log] {
            assert_eq!(
                idx.try_snapshot(end / 2).expect("healthy cluster"),
                oracle,
                "{}",
                idx.name()
            );
            assert_eq!(
                idx.try_node_at(0, end / 2).expect("healthy cluster"),
                oracle.node(0).cloned(),
                "{}",
                idx.name()
            );
        }
        // Dead cluster: an error, not a panic.
        for m in 0..tgi.store().machine_count() {
            tgi.store().fail_machine(m);
        }
        let idx: &dyn HistoricalIndex = &*tgi;
        assert!(matches!(
            idx.try_snapshot(end / 2),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            idx.try_node_versions(0, hgs_delta::TimeRange::new(0, end)),
            Err(StoreError::Unavailable { .. })
        ));
    }
}
