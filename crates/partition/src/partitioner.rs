//! Partition maps and the locality partitioner over collapsed graphs.
//!
//! Two strategies, per §4.5: random hash-based partitioning ("simpler
//! and involves minimal bookkeeping" but loses locality) is
//! [`PartitionMap::random`], an empty explicit map; locality-aware
//! min-cut-style partitioning ("preserves locality but incurs extra
//! bookkeeping in form of a {node-id: partition-id} map") is
//! [`locality_partition`]: Linear Deterministic Greedy streaming
//! placement followed by Kernighan–Lin-style boundary refinement — a
//! standard lightweight min-cut heuristic that fills the role of the
//! paper's "Maxflow" partitioner in Fig. 15a.

use crate::collapse::CollapsedGraph;
use hgs_delta::{hash_u64, FxHashMap, NodeId};

/// A `{node-id: partition-id}` map with a hash fallback for nodes that
/// appear after the map was computed (new arrivals within a timespan).
#[derive(Debug, Clone)]
pub struct PartitionMap {
    map: FxHashMap<NodeId, u32>,
    k: u32,
}

impl PartitionMap {
    /// A purely hash-based map (random partitioning: empty explicit
    /// map, everything falls through to the hash).
    pub fn random(k: u32) -> PartitionMap {
        assert!(k >= 1);
        PartitionMap {
            map: FxHashMap::default(),
            k,
        }
    }

    /// Wrap an explicit assignment.
    pub fn explicit(map: FxHashMap<NodeId, u32>, k: u32) -> PartitionMap {
        assert!(k >= 1);
        debug_assert!(map.values().all(|&p| p < k));
        PartitionMap { map, k }
    }

    /// Number of partitions.
    #[inline]
    pub fn parts(&self) -> u32 {
        self.k
    }

    /// Partition of a node: explicit assignment if present, hash
    /// fallback otherwise.
    #[inline]
    pub fn assign(&self, id: NodeId) -> u32 {
        match self.map.get(&id) {
            Some(&p) => p,
            None => (hash_u64(id) % self.k as u64) as u32,
        }
    }

    /// The explicit `(node, partition)` assignments, in no particular
    /// order — with [`PartitionMap::parts`], everything
    /// [`PartitionMap::explicit`] needs to rebuild this map.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.map.iter().map(|(&id, &p)| (id, p))
    }
}

/// Refinement passes over boundary vertices.
const REFINE_PASSES: usize = 2;
/// Allowed imbalance: a partition may exceed the ideal node count by
/// this factor (5 % slack).
const BALANCE_SLACK: f64 = 1.05;

/// Locality-aware partitioning of `g` into `k` parts: LDG streaming
/// placement (in BFS order, so neighborhoods stream together), then
/// bounded Kernighan–Lin refinement passes, every node weighing 1.
pub fn locality_partition(g: &CollapsedGraph, k: u32) -> PartitionMap {
    let n = g.len();
    if n == 0 || k <= 1 {
        return PartitionMap::explicit(FxHashMap::default(), k.max(1));
    }
    let cap = (n as f64 / k as f64) * BALANCE_SLACK;

    let mut part = vec![u32::MAX; n];
    let mut load = vec![0.0f64; k as usize];

    // BFS streaming order: keeps neighborhoods adjacent in the
    // stream, which is what makes LDG effective.
    let order = bfs_order(g);
    for &v in &order {
        // Score each partition: neighbors already there, damped by
        // remaining capacity (classic LDG score).
        let mut nbr_count = vec![0.0f64; k as usize];
        for &(u, w) in &g.adj[v as usize] {
            let pu = part[u as usize];
            if pu != u32::MAX {
                nbr_count[pu as usize] += w;
            }
        }
        let mut best = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k as usize {
            let slack = 1.0 - load[p] / cap;
            if slack <= 0.0 {
                continue;
            }
            let score = nbr_count[p] * slack + 1e-9 * slack;
            if score > best_score {
                best_score = score;
                best = p as u32;
            }
        }
        if best_score == f64::NEG_INFINITY {
            // All partitions "full" (possible with slack rounding):
            // place on lightest.
            best = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
        }
        part[v as usize] = best;
        load[best as usize] += 1.0;
    }

    // KL-style refinement: greedily move boundary vertices to the
    // partition with the highest connectivity gain, respecting
    // capacity.
    for _ in 0..REFINE_PASSES {
        let mut moved = 0usize;
        for v in 0..n {
            let pv = part[v];
            if g.adj[v].is_empty() {
                continue;
            }
            let mut conn = vec![0.0f64; k as usize];
            for &(u, w) in &g.adj[v] {
                conn[part[u as usize] as usize] += w;
            }
            let (best_p, best_conn) = conn
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, &c)| (i as u32, c))
                .unwrap();
            if best_p != pv && best_conn > conn[pv as usize] && load[best_p as usize] + 1.0 <= cap {
                load[pv as usize] -= 1.0;
                load[best_p as usize] += 1.0;
                part[v] = best_p;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }

    let mut map = FxHashMap::default();
    map.reserve(n);
    for (i, &p) in part.iter().enumerate() {
        map.insert(g.nodes[i], p);
    }
    PartitionMap::explicit(map, k)
}

/// BFS order over the collapsed graph, restarting at every unvisited
/// node (handles disconnected graphs).
fn bfs_order(g: &CollapsedGraph) -> Vec<u32> {
    let n = g.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(u, _) in &g.adj[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

/// Fraction of edge weight crossing partitions under `map`.
pub fn edge_cut_fraction(g: &CollapsedGraph, map: &PartitionMap) -> f64 {
    let mut cut = 0.0f64;
    let mut total = 0.0f64;
    for v in 0..g.len() {
        let pv = map.assign(g.nodes[v]);
        for &(u, w) in &g.adj[v] {
            if (u as usize) < v {
                continue; // count each edge once
            }
            total += w;
            if map.assign(g.nodes[u as usize]) != pv {
                cut += w;
            }
        }
    }
    if total == 0.0 {
        0.0
    } else {
        cut / total
    }
}

/// Balance: max partition node count divided by the ideal count (1.0
/// is perfect).
pub fn balance(g: &CollapsedGraph, map: &PartitionMap) -> f64 {
    let k = map.parts() as usize;
    let mut load = vec![0.0f64; k];
    for id in &g.nodes {
        load[map.assign(*id) as usize] += 1.0;
    }
    let total: f64 = load.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let ideal = total / k as f64;
    load.iter().copied().fold(0.0, f64::max) / ideal
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::{Delta, Event, EventKind, TimeRange};

    /// Two dense clusters joined by one bridge edge.
    fn two_clusters(n_per: u64) -> CollapsedGraph {
        let mut events = Vec::new();
        let mut t = 0u64;
        let clique = |base: u64, events: &mut Vec<Event>, t: &mut u64| {
            for i in 0..n_per {
                for j in (i + 1)..n_per {
                    // sparse-ish cluster: connect if close
                    if j - i <= 3 {
                        events.push(Event::new(
                            *t,
                            EventKind::AddEdge {
                                src: base + i,
                                dst: base + j,
                                weight: 1.0,
                                directed: false,
                            },
                        ));
                        *t += 1;
                    }
                }
            }
        };
        clique(0, &mut events, &mut t);
        clique(1000, &mut events, &mut t);
        events.push(Event::new(
            t,
            EventKind::AddEdge {
                src: 0,
                dst: 1000,
                weight: 1.0,
                directed: false,
            },
        ));
        CollapsedGraph::collapse(&Delta::new(), &events, TimeRange::new(0, t + 10))
    }

    #[test]
    fn locality_beats_random_on_clustered_graph() {
        let g = two_clusters(40);
        let rand_map = PartitionMap::random(2);
        let loc_map = locality_partition(&g, 2);
        let cut_r = edge_cut_fraction(&g, &rand_map);
        let cut_l = edge_cut_fraction(&g, &loc_map);
        assert!(cut_l < cut_r / 4.0, "locality {cut_l} vs random {cut_r}");
    }

    #[test]
    fn locality_cut_is_small_in_absolute_terms() {
        // Streaming placement may split a band once (the BFS stream
        // interleaves the two clusters through the bridge), but the cut
        // must stay a small constant fraction — random hashing cuts
        // ~50% of edges on this graph.
        let g = two_clusters(40);
        let map = locality_partition(&g, 2);
        let cut = edge_cut_fraction(&g, &map);
        assert!(cut <= 0.10, "cut fraction {cut}");
    }

    #[test]
    fn balance_within_slack() {
        let g = two_clusters(40);
        for k in [2u32, 4] {
            let map = locality_partition(&g, k);
            let b = balance(&g, &map);
            assert!(b <= 1.3, "k={k} balance {b}");
        }
    }

    #[test]
    fn random_partitioning_has_no_bookkeeping() {
        let g = two_clusters(10);
        let map = PartitionMap::random(4);
        assert_eq!(map.entries().count(), 0);
        // ...but still assigns everything deterministically in range.
        for &id in &g.nodes {
            assert!(map.assign(id) < 4);
            assert_eq!(map.assign(id), map.assign(id));
        }
    }

    #[test]
    fn unknown_nodes_fall_back_to_hash() {
        let g = two_clusters(10);
        let map = locality_partition(&g, 4);
        let unknown: NodeId = 999_999;
        assert!(map.assign(unknown) < 4);
    }

    #[test]
    fn empty_graph() {
        let g = CollapsedGraph::collapse(&Delta::new(), &[], TimeRange::new(0, 1));
        let map = locality_partition(&g, 4);
        assert_eq!(map.parts(), 4);
        assert_eq!(edge_cut_fraction(&g, &map), 0.0);
        assert_eq!(balance(&g, &map), 1.0);
    }

    #[test]
    fn k_equals_one() {
        let g = two_clusters(10);
        let map = locality_partition(&g, 1);
        assert_eq!(edge_cut_fraction(&g, &map), 0.0);
    }
}
