//! Event-stream normalization.
//!
//! Under the node-centric model a `RemoveNode` event changes the state
//! of every *neighbor* too (their edge-lists shrink), but the event
//! itself only names the removed node. Any index that partitions
//! events by touched node — TGI's partitioned eventlists, the
//! vertex-centric baseline's per-node logs — would deliver the removal
//! to the removed node's partition only, leaving stale edges
//! elsewhere.
//!
//! [`normalize_events`] makes the implicit explicit: each
//! `RemoveNode { id }` is prefixed with `RemoveEdge { id, nbr }` for
//! every edge incident to `id` at that instant. The normalized stream
//! replays to exactly the same states (removing edges before a node is
//! what [`crate::Delta::apply_event`] does internally), every event
//! names all nodes it affects, and neighbors gain the version-chain
//! entries their state changes deserve.

use crate::event::{Event, EventKind};
use crate::hash::{FxHashMap, FxHashSet};
use crate::types::NodeId;

/// Expand implicit neighbor effects of `RemoveNode` events. The
/// output replays to the same states as the input at every timepoint.
pub fn normalize_events(events: &[Event]) -> Vec<Event> {
    let mut adj: FxHashMap<NodeId, FxHashSet<NodeId>> = FxHashMap::default();
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    for e in events {
        match &e.kind {
            EventKind::AddEdge { src, dst, .. } => {
                adj.entry(*src).or_default().insert(*dst);
                adj.entry(*dst).or_default().insert(*src);
            }
            EventKind::RemoveEdge { src, dst } => {
                if let Some(s) = adj.get_mut(src) {
                    s.remove(dst);
                }
                if let Some(s) = adj.get_mut(dst) {
                    s.remove(src);
                }
            }
            EventKind::RemoveNode { id } => {
                if let Some(nbrs) = adj.remove(id) {
                    let mut sorted: Vec<NodeId> = nbrs.into_iter().collect();
                    sorted.sort_unstable();
                    for nbr in sorted {
                        out.push(Event::new(
                            e.time,
                            EventKind::RemoveEdge { src: *id, dst: nbr },
                        ));
                        if let Some(s) = adj.get_mut(&nbr) {
                            s.remove(id);
                        }
                    }
                }
            }
            _ => {}
        }
        out.push(e.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    fn add(t: u64, s: NodeId, d: NodeId) -> Event {
        ev(
            t,
            EventKind::AddEdge {
                src: s,
                dst: d,
                weight: 1.0,
                directed: false,
            },
        )
    }

    #[test]
    fn remove_node_expands_to_edge_removals() {
        let events = vec![
            add(1, 1, 2),
            add(2, 1, 3),
            ev(5, EventKind::RemoveNode { id: 1 }),
        ];
        let norm = normalize_events(&events);
        assert_eq!(norm.len(), 5, "two RemoveEdge events inserted");
        assert!(matches!(
            norm[2].kind,
            EventKind::RemoveEdge { src: 1, dst: 2 }
        ));
        assert!(matches!(
            norm[3].kind,
            EventKind::RemoveEdge { src: 1, dst: 3 }
        ));
        assert!(matches!(norm[4].kind, EventKind::RemoveNode { id: 1 }));
        assert_eq!(norm[2].time, 5, "expansion keeps the removal's timestamp");
        assert_eq!(normalize_events(&norm), norm, "normalizing is idempotent");
    }

    #[test]
    fn replay_equivalence_at_every_time() {
        let events = vec![
            add(1, 1, 2),
            add(2, 2, 3),
            ev(3, EventKind::RemoveNode { id: 2 }),
            add(4, 1, 2), // node 2 is re-created by the edge
            ev(5, EventKind::RemoveEdge { src: 1, dst: 2 }),
            ev(6, EventKind::RemoveNode { id: 2 }),
        ];
        let norm = normalize_events(&events);
        for t in 0..=7u64 {
            assert_eq!(
                Delta::snapshot_by_replay(&events, t),
                Delta::snapshot_by_replay(&norm, t),
                "divergence at t={t}"
            );
        }
    }

    #[test]
    fn isolated_node_removal_unchanged() {
        let events = vec![
            ev(1, EventKind::AddNode { id: 9 }),
            ev(2, EventKind::RemoveNode { id: 9 }),
        ];
        assert_eq!(normalize_events(&events), events);
    }

    #[test]
    fn growth_only_stream_is_identity() {
        let events = vec![add(1, 1, 2), add(2, 2, 3), add(3, 3, 4)];
        assert_eq!(normalize_events(&events), events);
    }

    #[test]
    fn removal_of_unknown_node_is_noop_expansion() {
        let events = vec![ev(1, EventKind::RemoveNode { id: 42 })];
        assert_eq!(normalize_events(&events), events);
    }
}
