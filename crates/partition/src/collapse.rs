//! The time-collapse function Ω (§4.5).
//!
//! To partition a *time-evolving* graph over a timespan `τ = [ts, te)`,
//! the paper first projects it to a single weighted static graph
//! `Gτ = Ω(G over τ)`, then applies static partitioning. The
//! constraint on Ω is that `Gτ` contains every vertex that existed at
//! least once during `τ`. Of the paper's collapse options TGI builds
//! with Union-Max under uniform node weights, so that is the one
//! implemented here: every edge that existed during `τ`, at its
//! maximum weight, and every node weighing 1.

use hgs_delta::{Delta, Event, EventKind, FxHashMap, NodeId, TimeRange};

/// The collapsed weighted static graph fed to the partitioner.
#[derive(Debug, Clone)]
pub struct CollapsedGraph {
    /// All vertices that existed at least once during `τ`, sorted.
    pub nodes: Vec<NodeId>,
    /// Weighted undirected adjacency: `adj[i]` lists `(node index,
    /// weight)` pairs, sorted by index.
    pub adj: Vec<Vec<(u32, f64)>>,
    index: FxHashMap<NodeId, u32>,
}

impl CollapsedGraph {
    /// Dense index of a node-id.
    pub fn idx(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Induced subgraph on the nodes selected by `keep`. Used by TGI
    /// to partition each horizontal slice independently: the collapse
    /// runs once over the full span, then each `sid`'s induced
    /// subgraph is partitioned.
    pub fn induced<F: Fn(NodeId) -> bool>(&self, keep: F) -> CollapsedGraph {
        let kept: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| keep(self.nodes[i as usize]))
            .collect();
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        remap.reserve(kept.len());
        for (new_i, &old_i) in kept.iter().enumerate() {
            remap.insert(old_i, new_i as u32);
        }
        let nodes: Vec<NodeId> = kept.iter().map(|&i| self.nodes[i as usize]).collect();
        let adj: Vec<Vec<(u32, f64)>> = kept
            .iter()
            .map(|&i| {
                self.adj[i as usize]
                    .iter()
                    .filter_map(|&(j, w)| remap.get(&j).map(|&nj| (nj, w)))
                    .collect()
            })
            .collect();
        let mut index = FxHashMap::default();
        index.reserve(nodes.len());
        for (i, id) in nodes.iter().enumerate() {
            index.insert(*id, i as u32);
        }
        CollapsedGraph { nodes, adj, index }
    }

    /// Union-Max collapse of a temporal graph over `range`: every
    /// vertex of `initial` or touched by an event in `range`, and every
    /// edge of `initial` or added or reweighted in `range`, at the
    /// largest weight it held.
    ///
    /// `initial` is the graph state at `range.start`; `events` are the
    /// changes during `range` (events outside the range are ignored).
    pub fn collapse(initial: &Delta, events: &[Event], range: TimeRange) -> CollapsedGraph {
        let mut nodes: Vec<NodeId> = initial.ids().collect();
        let mut max_w: FxHashMap<(NodeId, NodeId), f64> = FxHashMap::default();
        let mut raise = |key: (NodeId, NodeId), w: f64| {
            let entry = max_w.entry(key).or_insert(w);
            if w > *entry {
                *entry = w;
            }
        };
        for n in initial.iter() {
            for e in &n.edges {
                if n.id <= e.nbr {
                    raise((n.id, e.nbr), e.weight as f64);
                }
            }
        }
        for e in events.iter().filter(|e| range.contains(e.time)) {
            let (a, b) = e.kind.touched();
            nodes.push(a);
            nodes.extend(b);
            match e.kind {
                EventKind::AddEdge {
                    src, dst, weight, ..
                }
                | EventKind::SetEdgeWeight { src, dst, weight } => {
                    raise((src.min(dst), src.max(dst)), weight as f64);
                }
                _ => {}
            }
        }
        Self::build(nodes, max_w)
    }

    fn build(mut nodes: Vec<NodeId>, edges: FxHashMap<(NodeId, NodeId), f64>) -> CollapsedGraph {
        // The sort immediately before the adjacent-only `dedup` is
        // load-bearing: `nodes` repeats every id an event touched.
        nodes.sort_unstable();
        nodes.dedup();
        let mut index = FxHashMap::default();
        index.reserve(nodes.len());
        for (i, id) in nodes.iter().enumerate() {
            index.insert(*id, i as u32);
        }
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nodes.len()];
        for ((a, b), w) in &edges {
            if a == b || *w <= 0.0 {
                continue;
            }
            let (Some(&ia), Some(&ib)) = (index.get(a), index.get(b)) else {
                continue;
            };
            adj[ia as usize].push((ib, *w));
            adj[ib as usize].push((ia, *w));
        }
        for l in adj.iter_mut() {
            l.sort_unstable_by_key(|(i, _)| *i);
        }
        CollapsedGraph { nodes, adj, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::Time;

    fn ev(t: Time, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    fn add(t: Time, s: NodeId, d: NodeId, w: f32) -> Event {
        ev(
            t,
            EventKind::AddEdge {
                src: s,
                dst: d,
                weight: w,
                directed: false,
            },
        )
    }

    fn del(t: Time, s: NodeId, d: NodeId) -> Event {
        ev(t, EventKind::RemoveEdge { src: s, dst: d })
    }

    #[test]
    fn union_max_keeps_transient_edges() {
        // Edge (1,2) exists only during [2,5) but must be present.
        let events = vec![add(2, 1, 2, 3.0), del(5, 1, 2), add(6, 3, 4, 1.0)];
        let g = CollapsedGraph::collapse(&Delta::new(), &events, TimeRange::new(0, 10));
        assert_eq!(g.len(), 4);
        let i1 = g.idx(1).unwrap() as usize;
        assert_eq!(g.adj[i1].len(), 1);
        assert_eq!(g.adj[i1][0].1, 3.0);
    }

    #[test]
    fn union_max_takes_maximum_weight() {
        let events = vec![
            add(1, 1, 2, 1.0),
            ev(
                3,
                EventKind::SetEdgeWeight {
                    src: 1,
                    dst: 2,
                    weight: 9.0,
                },
            ),
            ev(
                5,
                EventKind::SetEdgeWeight {
                    src: 1,
                    dst: 2,
                    weight: 2.0,
                },
            ),
        ];
        let g = CollapsedGraph::collapse(&Delta::new(), &events, TimeRange::new(0, 10));
        let i1 = g.idx(1).unwrap() as usize;
        assert_eq!(g.adj[i1][0].1, 9.0);
    }

    #[test]
    fn initial_state_is_included() {
        let mut initial = Delta::new();
        initial.apply_event(&EventKind::AddEdge {
            src: 7,
            dst: 8,
            weight: 2.0,
            directed: false,
        });
        let g = CollapsedGraph::collapse(&initial, &[], TimeRange::new(100, 200));
        assert_eq!(g.len(), 2);
        let i7 = g.idx(7).unwrap() as usize;
        assert_eq!(g.adj[i7], vec![(g.idx(8).unwrap(), 2.0)]);
    }

    #[test]
    fn every_node_touched_in_range_is_kept_and_nothing_outside_it() {
        // A node seen only in a removal is a vertex of τ; events before
        // or after τ add neither vertices nor edges.
        let events = vec![
            add(1, 1, 2, 1.0),
            add(3, 5, 6, 1.0),
            ev(4, EventKind::RemoveNode { id: 9 }),
            add(12, 1, 7, 1.0),
        ];
        let g = CollapsedGraph::collapse(&Delta::new(), &events, TimeRange::new(2, 10));
        assert_eq!(g.nodes, vec![5, 6, 9]);
        assert_eq!(g.adj[g.idx(9).unwrap() as usize], vec![]);
        assert_eq!(g.adj[g.idx(5).unwrap() as usize], vec![(1, 1.0)]);
    }
}
