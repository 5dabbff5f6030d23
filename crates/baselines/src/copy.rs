//! The Copy approach: "storing new copies of a snapshot upon every
//! point of change".
//!
//! A full materialized snapshot per distinct event timestamp: any
//! point query is a single direct fetch, but storage is
//! `O(|G| · |S|)` — the quadratic blow-up of Table 1's first column.
//! Only feasible for short histories, which is exactly the paper's
//! point.

use std::sync::Arc;

use hgs_delta::columnar::encode_columnar_delta;
use hgs_delta::{Delta, Event, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{PutRow, SimStore, StoreConfig, StoreError, Table};

use crate::traits::{node_events_in, HistoricalIndex};

/// Snapshot-per-change-point index.
pub struct CopyIndex {
    store: Arc<SimStore>,
    /// Distinct change timestamps, ascending.
    times: Vec<Time>,
    /// Retained events for version queries (the Copy approach can
    /// reconstruct them as state diffs; we keep the trace to avoid
    /// charging Copy for diffing work Table 1 does not charge it for).
    events: Vec<Event>,
}

impl CopyIndex {
    fn key(t: Time) -> [u8; 8] {
        t.to_be_bytes()
    }

    fn token(t: Time) -> u64 {
        hgs_delta::hash::hash_u64(t)
    }

    /// Materialize a snapshot at every distinct event timestamp.
    pub fn build(store_cfg: StoreConfig, events: &[Event]) -> CopyIndex {
        let store = Arc::new(SimStore::new(store_cfg));
        let mut rows = crate::BuildRows::new(&store);
        let mut state = Delta::new();
        let mut times = Vec::new();
        let mut i = 0usize;
        while i < events.len() {
            let t = events[i].time;
            while i < events.len() && events[i].time == t {
                state.apply_event(&events[i].kind);
                i += 1;
            }
            times.push(t);
            rows.put(PutRow::new(
                Table::Deltas,
                Self::key(t).to_vec(),
                Self::token(t),
                encode_columnar_delta(&state),
            ));
        }
        rows.finish();
        CopyIndex {
            store,
            times,
            events: events.to_vec(),
        }
    }

    /// Latest change point at or before `t`.
    fn change_point(&self, t: Time) -> Option<Time> {
        let i = self.times.partition_point(|&c| c <= t);
        (i > 0).then(|| self.times[i - 1])
    }
}

impl HistoricalIndex for CopyIndex {
    fn name(&self) -> &'static str {
        "copy"
    }

    fn store(&self) -> &Arc<SimStore> {
        &self.store
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        match self.change_point(t) {
            Some(c) => {
                let row = self
                    .store
                    .multi_get(Table::Deltas, &[&Self::key(c)], Self::token(c))?
                    .pop()
                    .flatten();
                crate::delta_row(crate::written_row(row)?)
            }
            None => Ok(Delta::new()),
        }
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        // Direct access, but the whole snapshot row is read — that is
        // the Copy approach's cost profile.
        Ok(self.try_snapshot(t)?.remove(nid))
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        Ok((
            self.try_node_at(nid, range.start)?,
            node_events_in(&self.events, nid, range),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn copy_matches_replay() {
        let events = WikiGrowth::sized(400).generate();
        let idx = CopyIndex::build(StoreConfig::new(2, 1), &events);
        let end = events.last().unwrap().time;
        for t in [0, end / 3, end] {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn point_queries_are_single_fetch() {
        let events = WikiGrowth::sized(400).generate();
        let idx = CopyIndex::build(StoreConfig::new(2, 1), &events);
        let before = idx.store().stats_snapshot();
        idx.try_snapshot(events.last().unwrap().time / 2).unwrap();
        let diff = SimStore::stats_since(&idx.store().stats_snapshot(), &before);
        let gets: u64 = diff.iter().map(|m| m.gets).sum();
        assert_eq!(gets, 1, "Copy = direct access");
    }

    #[test]
    fn storage_is_superlinear() {
        let e1 = WikiGrowth::sized(200).generate();
        let e2 = WikiGrowth::sized(400).generate();
        let i1 = CopyIndex::build(StoreConfig::new(1, 1), &e1);
        let i2 = CopyIndex::build(StoreConfig::new(1, 1), &e2);
        let ratio = i2.storage_bytes() as f64 / i1.storage_bytes() as f64;
        assert!(
            ratio > 3.0,
            "copy must blow up superlinearly, ratio {ratio}"
        );
    }

    #[test]
    fn before_first_event_is_empty() {
        let mut events = WikiGrowth::sized(100).generate();
        // Shift history so it starts at t=50.
        for e in &mut events {
            e.time += 50;
        }
        let idx = CopyIndex::build(StoreConfig::new(1, 1), &events);
        assert!(idx.try_snapshot(10).unwrap().is_empty());
    }
}
