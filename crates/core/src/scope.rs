//! Scope-restricted event application.
//!
//! TGI's partitioned snapshots (leaf states per horizontal partition)
//! are maintained by replaying the span's events *restricted to the
//! partition's node set*: an edge event whose endpoints live in
//! different partitions updates each endpoint's description in its own
//! partition only. The union of all partitioned states then equals the
//! full graph state — an invariant the integration tests check.

use hgs_delta::{Delta, EdgeDir, EventKind, Neighbor, NodeId};

/// Apply `kind` to `state`, but only mutate node descriptions whose id
/// satisfies `in_scope`. Endpoints outside the scope are neither
/// created nor modified.
pub fn apply_event_scoped<F: Fn(NodeId) -> bool>(state: &mut Delta, kind: &EventKind, in_scope: F) {
    match kind {
        EventKind::AddNode { id } => {
            if in_scope(*id) {
                state.node_or_insert(*id);
            }
        }
        EventKind::RemoveNode { id } => {
            if in_scope(*id) {
                if let Some(node) = state.remove(*id) {
                    // Scrub reverse entries of *in-scope* neighbors
                    // only. Out-of-scope neighbors are another
                    // partition's responsibility (their own eventlist
                    // piece carries the normalized `RemoveEdge`
                    // copies); scrubbing them here would make replays
                    // of several pieces into one shared state depend
                    // on piece order — a later piece's RemoveNode must
                    // not undo an earlier piece's re-added edge.
                    for nbr in node.all_neighbors() {
                        if in_scope(nbr) {
                            if let Some(n) = state.node_mut(nbr) {
                                n.remove_all_edges_to(*id);
                            }
                        }
                    }
                    return;
                }
            }
            // The removed node is absent (or out of scope), but
            // *in-scope* neighbors still lose their edges to it.
            // Out-of-scope holders stay untouched for the same reason
            // as above — their own piece's replay owns their state.
            let holders: Vec<NodeId> = state
                .iter()
                .filter(|n| in_scope(n.id) && n.has_neighbor(*id))
                .map(|n| n.id)
                .collect();
            for h in holders {
                if let Some(n) = state.node_mut(h) {
                    n.remove_all_edges_to(*id);
                }
            }
        }
        EventKind::AddEdge {
            src,
            dst,
            weight,
            directed,
        } => {
            let (d_src, d_dst) = if *directed {
                (EdgeDir::Out, EdgeDir::In)
            } else {
                (EdgeDir::Both, EdgeDir::Both)
            };
            if in_scope(*src) {
                state
                    .node_or_insert(*src)
                    .insert_edge(Neighbor::weighted(*dst, d_src, *weight));
            }
            if src != dst && in_scope(*dst) {
                state
                    .node_or_insert(*dst)
                    .insert_edge(Neighbor::weighted(*src, d_dst, *weight));
            }
        }
        EventKind::RemoveEdge { src, dst } => {
            if in_scope(*src) {
                if let Some(n) = state.node_mut(*src) {
                    n.remove_all_edges_to(*dst);
                }
            }
            if src != dst && in_scope(*dst) {
                if let Some(n) = state.node_mut(*dst) {
                    n.remove_all_edges_to(*src);
                }
            }
        }
        EventKind::SetEdgeWeight { src, dst, weight } => {
            for (a, b) in endpoint_pairs(*src, *dst) {
                if in_scope(a) {
                    if let Some(n) = state.node_mut(a) {
                        for e in n.edges.iter_mut().filter(|e| e.nbr == b) {
                            e.weight = *weight;
                        }
                    }
                }
            }
        }
        EventKind::SetNodeAttr { id, key, value } => {
            if in_scope(*id) {
                state
                    .node_or_insert(*id)
                    .attrs
                    .set(key.clone(), value.clone());
            }
        }
        EventKind::RemoveNodeAttr { id, key } => {
            if in_scope(*id) {
                if let Some(n) = state.node_mut(*id) {
                    n.attrs.remove(key);
                }
            }
        }
        EventKind::SetEdgeAttr {
            src,
            dst,
            key,
            value,
        } => {
            for (a, b) in endpoint_pairs(*src, *dst) {
                if in_scope(a) {
                    if let Some(n) = state.node_mut(a) {
                        for e in n.edges.iter_mut().filter(|e| e.nbr == b) {
                            e.set_attr(key.clone(), value.clone());
                        }
                    }
                }
            }
        }
        EventKind::RemoveEdgeAttr { src, dst, key } => {
            for (a, b) in endpoint_pairs(*src, *dst) {
                if in_scope(a) {
                    if let Some(n) = state.node_mut(a) {
                        for e in n.edges.iter_mut().filter(|e| e.nbr == b) {
                            e.remove_attr(key);
                        }
                    }
                }
            }
        }
    }
}

fn endpoint_pairs(src: NodeId, dst: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> {
    let second = if src == dst { None } else { Some((dst, src)) };
    std::iter::once((src, dst)).chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::Event;

    fn scoped_union_equals_global(events: &[Event], parts: u32) {
        let mut global = Delta::new();
        let mut scoped: Vec<Delta> = (0..parts).map(|_| Delta::new()).collect();
        for e in events {
            global.apply_event(&e.kind);
            for p in 0..parts {
                apply_event_scoped(&mut scoped[p as usize], &e.kind, |id| {
                    id % parts as u64 == p as u64
                });
            }
        }
        let mut union = Delta::new();
        for s in &scoped {
            union.sum_assign(s);
        }
        assert_eq!(union, global);
    }

    #[test]
    fn union_invariant_on_mixed_history() {
        let mk = |t, kind| Event::new(t, kind);
        let events = vec![
            mk(
                1,
                EventKind::AddEdge {
                    src: 1,
                    dst: 2,
                    weight: 1.0,
                    directed: false,
                },
            ),
            mk(
                2,
                EventKind::AddEdge {
                    src: 2,
                    dst: 3,
                    weight: 1.0,
                    directed: true,
                },
            ),
            mk(
                3,
                EventKind::SetNodeAttr {
                    id: 1,
                    key: "a".into(),
                    value: 5i64.into(),
                },
            ),
            mk(
                4,
                EventKind::SetEdgeAttr {
                    src: 1,
                    dst: 2,
                    key: "k".into(),
                    value: true.into(),
                },
            ),
            mk(
                5,
                EventKind::SetEdgeWeight {
                    src: 1,
                    dst: 2,
                    weight: 9.0,
                },
            ),
            mk(6, EventKind::RemoveEdge { src: 2, dst: 3 }),
            mk(7, EventKind::RemoveNode { id: 2 }),
            mk(
                8,
                EventKind::AddEdge {
                    src: 3,
                    dst: 4,
                    weight: 1.0,
                    directed: false,
                },
            ),
            mk(
                9,
                EventKind::RemoveNodeAttr {
                    id: 1,
                    key: "a".into(),
                },
            ),
            mk(
                10,
                EventKind::RemoveEdgeAttr {
                    src: 3,
                    dst: 4,
                    key: "none".into(),
                },
            ),
        ];
        scoped_union_equals_global(&events, 2);
        scoped_union_equals_global(&events, 3);
    }

    #[test]
    fn cross_scope_edge_updates_one_side() {
        // Nodes 1 (odd scope) and 2 (even scope).
        let mut even = Delta::new();
        apply_event_scoped(
            &mut even,
            &EventKind::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0,
                directed: false,
            },
            |id| id % 2 == 0,
        );
        assert!(!even.contains(1), "out-of-scope endpoint not created");
        assert!(even.node(2).unwrap().has_neighbor(1));
    }

    #[test]
    fn out_of_scope_node_removal_scrubs_in_scope_edges() {
        let mut even = Delta::new();
        apply_event_scoped(
            &mut even,
            &EventKind::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0,
                directed: false,
            },
            |id| id % 2 == 0,
        );
        apply_event_scoped(&mut even, &EventKind::RemoveNode { id: 1 }, |id| {
            id % 2 == 0
        });
        assert_eq!(even.node(2).unwrap().degree(), 0);
    }
}
