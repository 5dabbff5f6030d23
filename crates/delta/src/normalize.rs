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
//! [`normalize_events_from`] makes the implicit explicit. It replays
//! the stream once with [`Delta::apply_event`], the one event replay,
//! on a copy-on-write clone of the state the stream starts from, and
//! prefixes each `RemoveNode { id }` with one `RemoveEdge { id, nbr }`
//! per neighbor `id` holds in that state at that instant, in id order.
//! The normalized stream replays to exactly the same states at every
//! time (removing edges before a node is what the replay does
//! itself), every event names all nodes it affects, and neighbors gain
//! the version-chain entries their state changes deserve. A stream
//! without a `RemoveNode` is already normalized and comes back
//! borrowed, with no replay. [`normalize_events`] is the case of a
//! stream that starts from the empty graph.

use std::borrow::Cow;

use crate::delta::Delta;
use crate::event::{Event, EventKind};

/// Expand implicit neighbor effects of `RemoveNode` events in a history
/// that starts from the empty graph. The output replays to the same
/// states as the input at every timepoint.
pub fn normalize_events(events: &[Event]) -> Vec<Event> {
    normalize_events_from(&Delta::new(), events).into_owned()
}

/// Expand implicit neighbor effects of `RemoveNode` events in `events`,
/// a batch that continues a history whose state is `live`: each removal
/// is prefixed with a `RemoveEdge` to every neighbor the node holds
/// when it is removed, read off one replay of the batch on a clone of
/// `live` (which is left as it is). The output replays from `live` to
/// the same states as the input at every timepoint; a batch without a
/// `RemoveNode` is returned borrowed, unreplayed.
pub fn normalize_events_from<'a>(live: &Delta, events: &'a [Event]) -> Cow<'a, [Event]> {
    let removes_a_node = |e: &Event| matches!(e.kind, EventKind::RemoveNode { .. });
    if !events.iter().any(removes_a_node) {
        return Cow::Borrowed(events);
    }
    let mut state = live.clone();
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    for e in events {
        if let EventKind::RemoveNode { id } = e.kind {
            let nbrs = state.node(id).into_iter().flat_map(|n| n.all_neighbors());
            out.extend(nbrs.map(|dst| Event::new(e.time, EventKind::RemoveEdge { src: id, dst })));
        }
        state.apply_event(&e.kind);
        out.push(e.clone());
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

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
    fn each_neighbor_loses_its_edges_once_in_id_order() {
        // Node 5 holds a self-loop and a directed edge each way to 3,
        // and an undirected one to 1.
        let directed = |t, src, dst| {
            let kind = EventKind::AddEdge {
                src,
                dst,
                weight: 1.0,
                directed: true,
            };
            ev(t, kind)
        };
        let events = vec![
            add(1, 5, 5),
            directed(2, 5, 3),
            directed(3, 3, 5),
            add(4, 1, 5),
            ev(5, EventKind::RemoveNode { id: 5 }),
        ];
        let norm = normalize_events(&events);
        let removed: Vec<(NodeId, NodeId)> = norm[4..]
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RemoveEdge { src, dst } => Some((src, dst)),
                _ => None,
            })
            .collect();
        assert_eq!(removed, vec![(5, 1), (5, 3), (5, 5)]);
        assert_eq!(norm.len(), events.len() + 3);
        for t in 0..=6u64 {
            assert_eq!(
                Delta::snapshot_by_replay(&events, t),
                Delta::snapshot_by_replay(&norm, t),
                "divergence at t={t}"
            );
        }
    }

    #[test]
    fn a_batch_normalizes_as_the_suffix_of_its_history() {
        let mut next = crate::tests::xorshift(0x5eed);
        let history: Vec<Event> = (0..600u64)
            .map(|t| {
                let (a, b) = (next() % 40, next() % 40);
                let kind = match next() % 8 {
                    0 => EventKind::RemoveNode { id: a },
                    1 | 2 => EventKind::RemoveEdge { src: a, dst: b },
                    3 => EventKind::AddNode { id: a },
                    _ => EventKind::AddEdge {
                        src: a,
                        dst: b,
                        weight: 1.0,
                        directed: next() & 1 == 0,
                    },
                };
                ev(t / 3, kind)
            })
            .collect();
        let whole = normalize_events(&history);
        for cut in [0, 1, 150, 299, 450, 600] {
            let (prefix, batch) = history.split_at(cut);
            let live = Delta::snapshot_by_replay(prefix, u64::MAX);
            let kept = live.clone();
            let suffix = &whole[normalize_events(prefix).len()..];
            assert_eq!(normalize_events_from(&live, batch), suffix, "cut {cut}");
            assert_eq!(live, kept, "the live state is left as it was");
        }
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
        let live = Delta::snapshot_by_replay(&events, u64::MAX);
        let batch = [
            add(4, 4, 1),
            ev(5, EventKind::RemoveEdge { src: 1, dst: 2 }),
        ];
        let same = normalize_events_from(&live, &batch);
        assert!(matches!(same, Cow::Borrowed(_)), "no removal, no replay");
    }

    #[test]
    fn removal_of_unknown_node_is_noop_expansion() {
        let events = vec![ev(1, EventKind::RemoveNode { id: 42 })];
        assert_eq!(normalize_events(&events), events);
    }
}
