//! The vertex-centric approach: one eventlist per node.
//!
//! "A natural approach would be to maintain a set of partitioned
//! eventlist deltas, one for each node (with edge information
//! replicated with the endpoints)" (§4.2). Node-version queries are a
//! single direct fetch; snapshots must touch *every* node's list
//! (Table 1, row 4: `|S|` deltas).

use std::sync::Arc;

use hgs_delta::columnar::encode_columnar_eventlist;
use hgs_delta::{Delta, Event, Eventlist, NodeId, StaticNode, Time, TimeRange};
use hgs_store::key::{node_key, node_placement_token};
use hgs_store::{PutRow, SimStore, StoreConfig, StoreError, Table};

use crate::traits::HistoricalIndex;

/// Per-node eventlist index.
pub struct NodeCentricIndex {
    store: Arc<SimStore>,
    /// Every node that ever existed, sorted (the snapshot access
    /// path must enumerate them).
    nodes: Vec<NodeId>,
}

impl NodeCentricIndex {
    /// Build: partition the trace by touched node (edge events are
    /// replicated to both endpoints' lists).
    pub fn build(store_cfg: StoreConfig, events: &[Event]) -> NodeCentricIndex {
        let store = Arc::new(SimStore::new(store_cfg));
        let mut rows = crate::BuildRows::new(&store);
        // Normalize so neighbor state changes implied by RemoveNode
        // reach the neighbors' per-node logs (see hgs_delta::normalize).
        let events = hgs_delta::normalize_events(events);
        let mut per_node: hgs_delta::FxHashMap<NodeId, Vec<Event>> =
            hgs_delta::FxHashMap::default();
        for e in &events {
            let (a, b) = e.kind.touched();
            per_node.entry(a).or_default().push(e.clone());
            if let Some(b) = b {
                if b != a {
                    per_node.entry(b).or_default().push(e.clone());
                }
            }
        }
        let mut nodes: Vec<NodeId> = per_node.keys().copied().collect();
        nodes.sort_unstable();
        for (nid, evs) in per_node {
            let el = Eventlist::from_sorted(evs);
            rows.put(PutRow::new(
                Table::Versions,
                node_key(nid).to_vec(),
                node_placement_token(nid),
                encode_columnar_eventlist(&el),
            ));
        }
        rows.finish();
        NodeCentricIndex { store, nodes }
    }

    /// The node's eventlist (`Ok(None)`: the node never existed).
    fn node_events(&self, nid: NodeId) -> Result<Option<Eventlist>, StoreError> {
        self.store
            .multi_get(
                Table::Versions,
                &[&node_key(nid)],
                node_placement_token(nid),
            )?
            .pop()
            .flatten()
            .map(crate::eventlist_row)
            .transpose()
    }

    /// All node-ids ever seen.
    pub fn universe(&self) -> &[NodeId] {
        &self.nodes
    }
}

impl HistoricalIndex for NodeCentricIndex {
    fn name(&self) -> &'static str {
        "node-centric"
    }

    fn store(&self) -> &Arc<SimStore> {
        &self.store
    }

    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        // The pathological case: one fetch per node in the universe.
        let mut out = Delta::new();
        for &nid in &self.nodes {
            if let Some(n) = self.try_node_at(nid, t)? {
                out.insert(n);
            }
        }
        Ok(out)
    }

    fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        let Some(el) = self.node_events(nid)? else {
            return Ok(None);
        };
        let mut scratch = Delta::new();
        for e in el.events().iter().take_while(|e| e.time <= t) {
            crate::scoped_apply(&mut scratch, &e.kind, nid);
        }
        Ok(scratch.remove(nid))
    }

    fn try_node_versions(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<(Option<StaticNode>, Vec<Event>), StoreError> {
        // One direct fetch serves both parts — the vertex-centric
        // index's sweet spot.
        let Some(el) = self.node_events(nid)? else {
            return Ok((None, Vec::new()));
        };
        let mut scratch = Delta::new();
        let mut events = Vec::new();
        for e in el.events() {
            if e.time <= range.start {
                crate::scoped_apply(&mut scratch, &e.kind, nid);
            } else if e.time < range.end {
                events.push(e.clone());
            }
        }
        Ok((scratch.remove(nid), events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::node_events_in;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn node_centric_matches_replay() {
        let events = WikiGrowth::sized(800).generate();
        let idx = NodeCentricIndex::build(StoreConfig::new(2, 1), &events);
        let end = events.last().unwrap().time;
        for t in [end / 2, end] {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn node_versions_is_single_fetch() {
        let events = WikiGrowth::sized(800).generate();
        let idx = NodeCentricIndex::build(StoreConfig::new(2, 1), &events);
        let end = events.last().unwrap().time;
        let before = idx.store().stats_snapshot();
        let (initial, evs) = idx
            .try_node_versions(0, TimeRange::new(end / 4, end))
            .unwrap();
        let diff = SimStore::stats_since(&idx.store().stats_snapshot(), &before);
        let gets: u64 = diff.iter().map(|m| m.gets).sum();
        assert_eq!(gets, 1, "vertex-centric = direct version access");
        assert_eq!(
            initial.as_ref(),
            Delta::snapshot_by_replay(&events, end / 4).node(0)
        );
        assert_eq!(
            evs,
            node_events_in(&events, 0, TimeRange::new(end / 4, end))
        );
    }

    #[test]
    fn snapshot_touches_every_node() {
        let events = WikiGrowth::sized(500).generate();
        let idx = NodeCentricIndex::build(StoreConfig::new(2, 1), &events);
        let before = idx.store().stats_snapshot();
        idx.try_snapshot(events.last().unwrap().time).unwrap();
        let diff = SimStore::stats_since(&idx.store().stats_snapshot(), &before);
        let gets: u64 = diff.iter().map(|m| m.gets).sum();
        assert_eq!(gets as usize, idx.universe().len());
    }

    /// An edge event is stored once in each endpoint's list, and every
    /// other event once: the lists hold exactly one entry per distinct
    /// endpoint an event touches, which costs more than the Log's one
    /// entry per event.
    #[test]
    fn edge_events_are_replicated_to_both_endpoints() {
        use crate::LogIndex;
        let events = WikiGrowth::sized(600).generate();
        let log = LogIndex::build(StoreConfig::new(1, 1), &events, 100);
        let nc = NodeCentricIndex::build(StoreConfig::new(1, 1), &events);
        let stored: usize = nc
            .universe()
            .iter()
            .map(|&nid| nc.node_events(nid).unwrap().unwrap().len())
            .sum();
        let endpoints: usize = hgs_delta::normalize_events(&events)
            .iter()
            .map(|e| match e.kind.touched() {
                (a, Some(b)) if b != a => 2,
                _ => 1,
            })
            .sum();
        assert_eq!(stored, endpoints);
        assert!(nc.storage_bytes() > log.storage_bytes());
    }
}
