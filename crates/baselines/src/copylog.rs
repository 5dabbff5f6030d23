//! The Copy+Log hybrid: periodic snapshots plus connecting eventlists.
//!
//! A snapshot delta every `k` events, and eventlist deltas capturing
//! the changes between successive snapshots: any point query costs one
//! snapshot fetch plus one eventlist replay (Table 1, row 3).

use std::sync::Arc;

use hgs_delta::columnar::{encode_columnar_delta, encode_columnar_eventlist};
use hgs_delta::{Delta, Event, Eventlist, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{PutRow, SimStore, StoreConfig, StoreError, Table};

use crate::traits::{node_events_in, HistoricalIndex};

/// Periodic-snapshot index.
pub struct CopyLogIndex {
    store: Arc<SimStore>,
    /// Checkpoint times: snapshot i is the state *before* eventlist i.
    checkpoints: Vec<Time>,
}

const SNAP_TAG: u8 = 0;
const ELIST_TAG: u8 = 1;

impl CopyLogIndex {
    fn key(tag: u8, i: usize) -> [u8; 9] {
        let mut k = [0u8; 9];
        k[0] = tag;
        k[1..9].copy_from_slice(&(i as u64).to_be_bytes());
        k
    }

    fn token(i: usize) -> u64 {
        hgs_delta::hash::hash_u64(i as u64)
    }

    /// Build with a snapshot every `k` events (timestamp groups are
    /// never split).
    pub fn build(store_cfg: StoreConfig, events: &[Event], k: usize) -> CopyLogIndex {
        assert!(k > 0);
        let store = Arc::new(SimStore::new(store_cfg));
        let mut rows = crate::BuildRows::new(&store);
        let mut state = Delta::new();
        let mut checkpoints = Vec::new();
        let mut start = 0usize;
        let mut i = 0usize;
        while start < events.len() {
            // Chunk [start, end) snapped to timestamp boundaries.
            let want = (start + k).min(events.len());
            let end = if want >= events.len() {
                events.len()
            } else {
                let t = events[want].time;
                let mut e = want;
                if events[want - 1].time == t {
                    while e < events.len() && events[e].time == t {
                        e += 1;
                    }
                }
                e
            };
            checkpoints.push(if start == 0 { 0 } else { events[start].time });
            rows.put(PutRow::new(
                Table::Deltas,
                Self::key(SNAP_TAG, i).to_vec(),
                Self::token(i),
                encode_columnar_delta(&state),
            ));
            let el = Eventlist::from_sorted(events[start..end].to_vec());
            rows.put(PutRow::new(
                Table::Deltas,
                Self::key(ELIST_TAG, i).to_vec(),
                Self::token(i),
                encode_columnar_eventlist(&el),
            ));
            for e in &events[start..end] {
                state.apply_event(&e.kind);
            }
            start = end;
            i += 1;
        }
        if checkpoints.is_empty() {
            checkpoints.push(0);
            rows.put(PutRow::new(
                Table::Deltas,
                Self::key(SNAP_TAG, 0).to_vec(),
                Self::token(0),
                encode_columnar_delta(&Delta::new()),
            ));
        }
        rows.finish();
        CopyLogIndex { store, checkpoints }
    }

    fn checkpoint_for(&self, t: Time) -> usize {
        self.checkpoints
            .partition_point(|&c| c <= t)
            .saturating_sub(1)
    }

    fn fetch_snapshot(&self, i: usize) -> Result<Delta, StoreError> {
        let row = self
            .store
            .multi_get(Table::Deltas, &[&Self::key(SNAP_TAG, i)], Self::token(i))?
            .pop()
            .flatten();
        // Every checkpoint has a snapshot row.
        crate::delta_row(crate::written_row(row)?)
    }

    fn fetch_elist(&self, i: usize) -> Result<Option<Eventlist>, StoreError> {
        self.store
            .multi_get(Table::Deltas, &[&Self::key(ELIST_TAG, i)], Self::token(i))?
            .pop()
            .flatten()
            .map(crate::eventlist_row)
            .transpose()
    }
}

impl HistoricalIndex for CopyLogIndex {
    fn name(&self) -> &'static str {
        "copy+log"
    }

    fn store(&self) -> &Arc<SimStore> {
        &self.store
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        let i = self.checkpoint_for(t);
        let mut state = self.fetch_snapshot(i)?;
        if let Some(el) = self.fetch_elist(i)? {
            for e in el.events().iter().take_while(|e| e.time <= t) {
                state.apply_event(&e.kind);
            }
        }
        Ok(state)
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        Ok(self.try_snapshot(t)?.remove(nid))
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        let initial = self.try_node_at(nid, range.start)?;
        // Replay eventlists from the range start's checkpoint on —
        // Copy+Log has no per-node access path (Table 1: |G| cost).
        let mut events = Vec::new();
        let from = self.checkpoint_for(range.start);
        for (i, &checkpoint) in self.checkpoints.iter().enumerate().skip(from) {
            if checkpoint >= range.end {
                break;
            }
            if let Some(el) = self.fetch_elist(i)? {
                events.extend(node_events_in(el.events(), nid, range));
            }
        }
        Ok((initial, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn copylog_matches_replay() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = CopyLogIndex::build(StoreConfig::new(2, 1), &events, 100);
        let end = events.last().unwrap().time;
        for t in [0, end / 3, end / 2, end] {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn point_queries_cost_two_fetches() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = CopyLogIndex::build(StoreConfig::new(2, 1), &events, 100);
        let before = idx.store().stats_snapshot();
        idx.try_snapshot(events.last().unwrap().time / 2).unwrap();
        let diff = SimStore::stats_since(&idx.store().stats_snapshot(), &before);
        let gets: u64 = diff.iter().map(|m| m.gets).sum();
        assert_eq!(gets, 2, "Copy+Log = snapshot + eventlist");
    }

    #[test]
    fn node_versions_match_filter() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = CopyLogIndex::build(StoreConfig::new(2, 1), &events, 128);
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 4, (3 * end) / 4);
        let (initial, evs) = idx.try_node_versions(0, range).unwrap();
        assert_eq!(
            initial.as_ref(),
            Delta::snapshot_by_replay(&events, range.start).node(0)
        );
        assert_eq!(evs, node_events_in(&events, 0, range));
    }

    #[test]
    fn storage_between_log_and_copy() {
        use crate::{CopyIndex, LogIndex};
        let events = WikiGrowth::sized(300).generate();
        let log = LogIndex::build(StoreConfig::new(1, 1), &events, 50);
        let cl = CopyLogIndex::build(StoreConfig::new(1, 1), &events, 50);
        let copy = CopyIndex::build(StoreConfig::new(1, 1), &events);
        assert!(log.storage_bytes() < cl.storage_bytes());
        assert!(cl.storage_bytes() < copy.storage_bytes());
    }
}
