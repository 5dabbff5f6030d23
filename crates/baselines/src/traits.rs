//! The common interface of all historical graph indexes.

use hgs_delta::{Delta, Event, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{SimStore, StoreError};
use std::sync::Arc;

/// A historical graph index: anything that can answer the paper's
/// retrieval primitives over an immutable event history.
///
/// Baselines and TGI share one error contract: every retrieval
/// primitive is fallible, and a read that needs a chunk whose replicas
/// are all down returns [`StoreError::Unavailable`] — never a panic,
/// never a silently smaller answer.
pub trait HistoricalIndex {
    /// Short name for experiment output ("log", "copy", ...).
    fn name(&self) -> &'static str;

    /// The backing store (for access accounting).
    fn store(&self) -> &Arc<SimStore>;

    /// Graph state as of `t`.
    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError>;

    /// One node's state as of `t`.
    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError>;

    /// One node's history over `range`: initial state plus in-range
    /// events touching it.
    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError>;

    /// 1-hop neighborhood of `nid` as of `t` (default: via snapshot).
    fn try_one_hop(&self, nid: NodeId, t: Time) -> Result<Delta, StoreError> {
        let snap = self.try_snapshot(t)?;
        let Some(center) = snap.node(nid) else {
            return Ok(Delta::new());
        };
        let mut keep: Vec<NodeId> = center.all_neighbors().collect();
        keep.push(nid);
        Ok(snap.restrict(|id| keep.contains(&id)))
    }

    /// Total stored bytes — the index-size column of Table 1.
    fn storage_bytes(&self) -> usize {
        self.store().stored_bytes()
    }
}

/// Filter `events` to those touching `nid` strictly inside `range`.
pub(crate) fn node_events_in(events: &[Event], nid: NodeId, range: TimeRange) -> Vec<Event> {
    events
        .iter()
        .filter(|e| {
            let (a, b) = e.kind.touched();
            (a == nid || b == Some(nid)) && e.time > range.start && e.time < range.end
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CopyIndex, CopyLogIndex, LogIndex, NodeCentricIndex};
    use hgs_datagen::WikiGrowth;
    use hgs_store::StoreConfig;

    /// One of two unreplicated machines down: every snapshot either
    /// needs a lost row and says so, or is the full graph — never a
    /// panic, never a quietly smaller answer.
    #[test]
    fn store_reading_baselines_surface_unavailability() {
        let events = WikiGrowth::sized(300).generate();
        let cfg = || StoreConfig::new(2, 1);
        let indexes: [Box<dyn HistoricalIndex>; 4] = [
            Box::new(LogIndex::build(cfg(), &events, 25)),
            Box::new(CopyIndex::build(cfg(), &events)),
            Box::new(CopyLogIndex::build(cfg(), &events, 25)),
            Box::new(NodeCentricIndex::build(cfg(), &events)),
        ];
        let end = events.last().unwrap().time;
        for idx in &indexes {
            idx.store().fail_machine(0);
            let mut unavailable = 0;
            for t in (0..=16).map(|i| end * i / 16) {
                match idx.try_snapshot(t) {
                    Ok(g) => assert_eq!(
                        g,
                        Delta::snapshot_by_replay(&events, t),
                        "{} shrank the graph at t={t}",
                        idx.name()
                    ),
                    Err(StoreError::Unavailable { .. }) => unavailable += 1,
                    Err(e) => panic!("{}: unexpected {e}", idx.name()),
                }
            }
            assert!(
                unavailable > 0,
                "{}: no sampled snapshot needed the failed machine",
                idx.name()
            );
        }
    }
}
