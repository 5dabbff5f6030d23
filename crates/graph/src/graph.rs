//! Dense, immutable snapshot graph built from a delta.

use hgs_delta::{Delta, EdgeDir, FxHashMap, NodeId, StaticNode};

/// An immutable snapshot graph with dense vertex indexing.
///
/// Construction consumes a [`Delta`] (a graph state); the original
/// node descriptions, including attributes, stay reachable through
/// [`Graph::node`]. Two adjacency views are kept:
///
/// * `neighbors` — the undirected view (all edges, any direction),
///   used by clustering/components/betweenness;
/// * `out` — out-edges only (`Out` and `Both` entries), used by
///   PageRank and directed traversals.
pub struct Graph {
    ids: Vec<NodeId>,
    index: FxHashMap<NodeId, u32>,
    nodes: Vec<StaticNode>,
    neighbors: Vec<Vec<u32>>,
    out: Vec<Vec<u32>>,
    edge_count: usize,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.ids.len())
            .field("edges", &self.edge_count)
            .finish()
    }
}

impl Graph {
    /// Build from a graph state. `O(V + E log E)`.
    pub fn from_delta(delta: Delta) -> Graph {
        let mut ids: Vec<NodeId> = delta.ids().collect();
        ids.sort_unstable();
        let mut index = FxHashMap::default();
        index.reserve(ids.len());
        for (i, id) in ids.iter().enumerate() {
            index.insert(*id, i as u32);
        }
        let map = delta.into_nodes();
        let mut nodes = Vec::with_capacity(ids.len());
        let mut neighbors = Vec::with_capacity(ids.len());
        let mut out = Vec::with_capacity(ids.len());
        let mut half_edges = 0usize;
        let mut map = map;
        for id in &ids {
            let n = map.remove(id).expect("id came from the same delta");
            let mut und: Vec<u32> = Vec::with_capacity(n.edges.len());
            let mut o: Vec<u32> = Vec::new();
            for e in &n.edges {
                // Edges may reference endpoints outside this delta when
                // the graph was restricted to a partition; skip those.
                let Some(&j) = index.get(&e.nbr) else {
                    continue;
                };
                und.push(j);
                if matches!(e.dir, EdgeDir::Out | EdgeDir::Both) {
                    o.push(j);
                }
                half_edges += 1;
            }
            // `StaticNode` keeps its edge-list sorted by `(nbr, dir)`,
            // which would make adjacent-only dedup sufficient — but
            // that invariant lives in another crate, so sort here
            // rather than silently emitting duplicate neighbors (and
            // corrupting degree-based algorithms) if it ever slips.
            // The out view needs it even on well-formed input: a node
            // can legitimately hold both an `Out` and a `Both` entry
            // toward the same neighbor, which are two out-edges to
            // one target.
            und.sort_unstable();
            und.dedup();
            o.sort_unstable();
            o.dedup();
            neighbors.push(und);
            out.push(o);
            nodes.push(n);
        }
        Graph {
            ids,
            index,
            nodes,
            neighbors,
            out,
            edge_count: half_edges / 2,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges (each edge counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Dense index of a node-id.
    #[inline]
    pub fn idx(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Node-id at a dense index.
    #[inline]
    pub fn id(&self, idx: u32) -> NodeId {
        self.ids[idx as usize]
    }

    /// All node-ids, sorted.
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Full node description (attributes included) by id.
    pub fn node(&self, id: NodeId) -> Option<&StaticNode> {
        self.idx(id).map(|i| &self.nodes[i as usize])
    }

    /// Node description by dense index.
    #[inline]
    pub fn node_at(&self, idx: u32) -> &StaticNode {
        &self.nodes[idx as usize]
    }

    /// Undirected neighbor indices of a dense index (sorted, deduped).
    #[inline]
    pub fn neighbors(&self, idx: u32) -> &[u32] {
        &self.neighbors[idx as usize]
    }

    /// Out-neighbor indices (directed view).
    #[inline]
    pub fn out_neighbors(&self, idx: u32) -> &[u32] {
        &self.out[idx as usize]
    }

    /// Undirected degree of a dense index.
    #[inline]
    pub fn degree(&self, idx: u32) -> usize {
        self.neighbors[idx as usize].len()
    }

    /// Whether an undirected edge exists between two dense indices.
    pub(crate) fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors[a as usize].binary_search(&b).is_ok()
    }

    /// Iterate `(dense index, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &StaticNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::EventKind;

    fn triangle_plus_tail() -> Graph {
        // 1-2-3 triangle, 3-4 tail
        let mut d = Delta::new();
        for (s, t) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
            d.apply_event(&EventKind::AddEdge {
                src: s,
                dst: t,
                weight: 1.0,
                directed: false,
            });
        }
        Graph::from_delta(d)
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    /// Regression: a node holding several edge entries toward the same
    /// neighbor (one per direction) must collapse to one undirected
    /// adjacency entry — duplicates would inflate degree-based
    /// algorithms.
    #[test]
    fn duplicate_direction_entries_dedup_in_adjacency() {
        use hgs_delta::{EdgeDir, Neighbor, StaticNode};
        let mut d = Delta::new();
        let mut a = StaticNode::new(1);
        a.insert_edge(Neighbor::new(2, EdgeDir::In));
        a.insert_edge(Neighbor::new(2, EdgeDir::Out));
        a.insert_edge(Neighbor::new(3, EdgeDir::Both));
        let mut b = StaticNode::new(2);
        b.insert_edge(Neighbor::new(1, EdgeDir::Out));
        b.insert_edge(Neighbor::new(1, EdgeDir::In));
        d.insert(a);
        d.insert(b);
        d.insert(StaticNode::new(3));
        let g = Graph::from_delta(d);
        let i1 = g.idx(1).unwrap();
        let i2 = g.idx(2).unwrap();
        assert_eq!(
            g.neighbors(i1),
            &[i2.min(g.idx(3).unwrap()), i2.max(g.idx(3).unwrap())]
        );
        assert_eq!(g.neighbors(i2), &[i1]);
        for (i, _) in g.iter() {
            let ns = g.neighbors(i);
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "sorted, unique adjacency"
            );
        }
    }

    /// The directed (out) view dedups too: `Out` + `Both` entries
    /// toward one neighbor are two out-edges to a single target, and
    /// listing it twice would skew PageRank-style weight splitting.
    #[test]
    fn out_and_both_entries_dedup_in_out_adjacency() {
        use hgs_delta::{EdgeDir, Neighbor, StaticNode};
        let mut d = Delta::new();
        let mut a = StaticNode::new(1);
        a.insert_edge(Neighbor::new(2, EdgeDir::Out));
        a.insert_edge(Neighbor::new(2, EdgeDir::Both));
        d.insert(a);
        d.insert(StaticNode::new(2));
        let g = Graph::from_delta(d);
        let i1 = g.idx(1).unwrap();
        let i2 = g.idx(2).unwrap();
        assert_eq!(g.out_neighbors(i1), &[i2], "out view lists 2 once");
        assert_eq!(g.neighbors(i1), &[i2]);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        for (i, _) in g.iter() {
            let ns = g.neighbors(i);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &j in ns {
                assert!(g.has_edge(j, i), "symmetry");
            }
        }
    }

    #[test]
    fn degrees() {
        let g = triangle_plus_tail();
        let d3 = g.degree(g.idx(3).unwrap());
        let d4 = g.degree(g.idx(4).unwrap());
        assert_eq!(d3, 3);
        assert_eq!(d4, 1);
    }

    #[test]
    fn directed_out_view() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: true,
        });
        let g = Graph::from_delta(d);
        let i1 = g.idx(1).unwrap();
        let i2 = g.idx(2).unwrap();
        assert_eq!(g.out_neighbors(i1), &[i2]);
        assert!(g.out_neighbors(i2).is_empty());
        // undirected view still links both
        assert!(g.has_edge(i1, i2) && g.has_edge(i2, i1));
    }

    #[test]
    fn dangling_partition_edges_skipped() {
        // Node 1 lists neighbor 99 which is not in the delta (restricted
        // partition); the graph must not panic and must skip it.
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 99,
            weight: 1.0,
            directed: false,
        });
        let restricted = d.restrict(|id| id == 1);
        let g = Graph::from_delta(restricted);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn attributes_survive() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddNode { id: 5 });
        d.apply_event(&EventKind::SetNodeAttr {
            id: 5,
            key: "label".into(),
            value: "X".into(),
        });
        let g = Graph::from_delta(d);
        assert_eq!(
            g.node(5)
                .unwrap()
                .attrs
                .get("label")
                .and_then(|v| v.as_text()),
            Some("X")
        );
    }
}
