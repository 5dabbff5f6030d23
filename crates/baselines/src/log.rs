//! The Log approach: "storing everything through changes".
//!
//! The whole history is one chronological event log, stored as fixed
//! size eventlist chunks (a single multi-gigabyte value would be
//! unusable in any real store). Every retrieval — snapshot, node,
//! versions — replays the log from the beginning: minimal storage,
//! maximal reconstruction cost (Table 1, row 1).

use std::sync::Arc;

use hgs_delta::columnar::encode_columnar_eventlist;
use hgs_delta::{Delta, Event, Eventlist, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{PutRow, SimStore, StoreConfig, StoreError, Table};

use crate::traits::HistoricalIndex;

/// Chunked chronological event log.
pub struct LogIndex {
    store: Arc<SimStore>,
    /// First event time of each chunk (chunk i covers
    /// `[starts[i], starts[i+1])`).
    starts: Vec<Time>,
    chunk: usize,
}

impl LogIndex {
    /// Store chunk key: big-endian chunk index under the Deltas table.
    fn key(i: usize) -> [u8; 8] {
        (i as u64).to_be_bytes()
    }

    fn token(i: usize) -> u64 {
        hgs_delta::hash::hash_u64(i as u64)
    }

    /// Build over `events` with `chunk`-sized eventlist values.
    pub fn build(store_cfg: StoreConfig, events: &[Event], chunk: usize) -> LogIndex {
        assert!(chunk > 0);
        let store = Arc::new(SimStore::new(store_cfg));
        let mut rows = crate::BuildRows::new(&store);
        let mut starts = Vec::new();
        for (i, c) in events.chunks(chunk).enumerate() {
            starts.push(c[0].time);
            let el = Eventlist::from_sorted(c.to_vec());
            rows.put(PutRow::new(
                Table::Deltas,
                Self::key(i).to_vec(),
                Self::token(i),
                encode_columnar_eventlist(&el),
            ));
        }
        rows.finish();
        LogIndex {
            store,
            starts,
            chunk,
        }
    }

    /// Fetch and replay all events with `time <= t` through `f`.
    fn replay_until(&self, t: Time, mut f: impl FnMut(&Event)) -> Result<(), StoreError> {
        for i in 0..self.starts.len() {
            if self.starts[i] > t {
                break;
            }
            let row = self
                .store
                .multi_get(Table::Deltas, &[&Self::key(i)], Self::token(i))?
                .pop()
                .flatten();
            let el = crate::eventlist_row(crate::written_row(row)?)?;
            for e in el.events() {
                if e.time > t {
                    return Ok(());
                }
                f(e);
            }
        }
        Ok(())
    }

    /// Configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }
}

impl HistoricalIndex for LogIndex {
    fn name(&self) -> &'static str {
        "log"
    }

    fn store(&self) -> &Arc<SimStore> {
        &self.store
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        let mut d = Delta::new();
        self.replay_until(t, |e| d.apply_event(&e.kind))?;
        Ok(d)
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        // The log has no per-node access path: full replay.
        Ok(self.try_snapshot(t)?.remove(nid))
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        let initial = self.try_node_at(nid, range.start)?;
        // Full scan of the remaining log for the node's events.
        let mut events = Vec::new();
        self.replay_until(range.end.saturating_sub(1), |e| {
            let (a, b) = e.kind.touched();
            if (a == nid || b == Some(nid)) && e.time > range.start {
                events.push(e.clone());
            }
        })?;
        Ok((initial, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::node_events_in;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn log_matches_replay() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = LogIndex::build(StoreConfig::new(2, 1), &events, 100);
        let end = events.last().unwrap().time;
        for t in [0, end / 2, end] {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t)
            );
        }
    }

    #[test]
    fn node_versions_match_filter() {
        let events = WikiGrowth::sized(1_000).generate();
        let idx = LogIndex::build(StoreConfig::new(2, 1), &events, 128);
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 4, end);
        let (initial, evs) = idx.try_node_versions(0, range).unwrap();
        assert_eq!(
            initial.as_ref(),
            Delta::snapshot_by_replay(&events, range.start).node(0)
        );
        assert_eq!(evs, node_events_in(&events, 0, range));
    }

    #[test]
    fn storage_is_linear_in_history() {
        let e1 = WikiGrowth::sized(500).generate();
        let e2 = WikiGrowth::sized(1_000).generate();
        let i1 = LogIndex::build(StoreConfig::new(1, 1), &e1, 100);
        let i2 = LogIndex::build(StoreConfig::new(1, 1), &e2, 100);
        let ratio = i2.storage_bytes() as f64 / i1.storage_bytes() as f64;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }
}
