//! Graph algorithms over [`Graph`] snapshots.
//!
//! These are the "vast body of existing tools in network science" the
//! paper's TAF plugs into: every metric referenced in the paper's
//! Figure 1 taxonomy and used by its evaluation (local clustering
//! coefficient, density, degree evolution, centrality, shortest paths,
//! community-style statistics) is implemented here.

use crate::graph::Graph;
use hgs_delta::{FxHashMap, NodeId};
use std::collections::VecDeque;

/// Graph density: `2|E| / (|V|(|V|-1))` for undirected simple graphs.
/// Returns 0 for graphs with fewer than two nodes.
pub fn density(g: &Graph) -> f64 {
    let n = g.node_count() as f64;
    if n < 2.0 {
        return 0.0;
    }
    2.0 * g.edge_count() as f64 / (n * (n - 1.0))
}

/// Number of triangles incident to dense index `v`.
pub fn triangles_at(g: &Graph, v: u32) -> usize {
    let ns = g.neighbors(v);
    let mut count = 0;
    for (a_pos, &a) in ns.iter().enumerate() {
        for &b in &ns[a_pos + 1..] {
            if g.has_edge(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Local clustering coefficient of dense index `v`:
/// `2·triangles / (deg·(deg−1))`; zero for degree < 2.
pub fn local_clustering(g: &Graph, v: u32) -> f64 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    2.0 * triangles_at(g, v) as f64 / (d as f64 * (d as f64 - 1.0))
}

/// Average clustering coefficient.
pub fn average_clustering(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    let total: f64 = (0..g.node_count() as u32)
        .map(|i| local_clustering(g, i))
        .sum();
    total / g.node_count() as f64
}

/// Total number of triangles in the graph.
pub fn triangle_count(g: &Graph) -> usize {
    let per_node: usize = (0..g.node_count() as u32).map(|i| triangles_at(g, i)).sum();
    per_node / 3
}

/// BFS distances (in hops) from `src`; `usize::MAX` marks unreachable.
fn bfs_distances(g: &Graph, src: u32) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Length of the shortest path between two node-ids, in hops.
pub fn shortest_path_len(g: &Graph, a: NodeId, b: NodeId) -> Option<usize> {
    let (ia, ib) = (g.idx(a)?, g.idx(b)?);
    let d = bfs_distances(g, ia)[ib as usize];
    (d != usize::MAX).then_some(d)
}

/// Connected components (undirected). Returns `(component_id per dense
/// index, component count)`.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for start in 0..n as u32 {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    q.push_back(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// PageRank over the directed view (out-edges); dangling mass is
/// redistributed uniformly. Returns scores aligned with dense indices.
pub fn pagerank(g: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let n_f = n as f64;
    let mut rank = vec![1.0 / n_f; n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for (u, &r) in rank.iter().enumerate() {
            let outs = g.out_neighbors(u as u32);
            if outs.is_empty() {
                dangling += r;
            } else {
                let share = r / outs.len() as f64;
                for &v in outs {
                    next[v as usize] += share;
                }
            }
        }
        let base = (1.0 - damping) / n_f + damping * dangling / n_f;
        for x in next.iter_mut() {
            *x = base + damping * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Brandes' algorithm for (unweighted) betweenness centrality.
/// Exact; `O(V·E)` — intended for the moderate subgraphs TAF
/// materializes, not billion-edge graphs.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    let mut stack: Vec<u32> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![i64::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut q = VecDeque::new();

    for s in 0..n as u32 {
        stack.clear();
        for v in 0..n {
            preds[v].clear();
            sigma[v] = 0.0;
            dist[v] = i64::MAX;
            delta[v] = 0.0;
        }
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            stack.push(v);
            for &w in g.neighbors(v) {
                if dist[w as usize] == i64::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
                if dist[w as usize] == dist[v as usize] + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        while let Some(w) = stack.pop() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    // Undirected: each pair counted twice.
    for x in bc.iter_mut() {
        *x /= 2.0;
    }
    bc
}

/// The set of node-ids within `k` hops of `center` (center included).
pub fn khop_ids(g: &Graph, center: NodeId, k: usize) -> Vec<NodeId> {
    let Some(c) = g.idx(center) else {
        return Vec::new();
    };
    let dist = bounded_bfs(g, c, k);
    let mut out: Vec<NodeId> = dist
        .iter()
        .filter(|(_, &d)| d <= k)
        .map(|(&i, _)| g.id(i))
        .collect();
    out.sort_unstable();
    out
}

fn bounded_bfs(g: &Graph, src: u32, k: usize) -> FxHashMap<u32, usize> {
    let mut dist: FxHashMap<u32, usize> = FxHashMap::default();
    dist.insert(src, 0);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        if du == k {
            continue;
        }
        for &v in g.neighbors(u) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Count nodes whose attribute `key` equals `value` — the label
/// counting task of the paper's Fig. 8 / Fig. 17 experiment.
pub fn count_label(g: &Graph, key: &str, value: &str) -> usize {
    g.iter()
        .filter(|(_, n)| n.attrs.get(key).and_then(|v| v.as_text()) == Some(value))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::{Delta, EventKind};

    fn graph_from_edges(edges: &[(u64, u64)]) -> Graph {
        let mut d = Delta::new();
        for &(s, t) in edges {
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
    fn density_of_complete_graph_is_one() {
        let g = graph_from_edges(&[(1, 2), (2, 3), (1, 3)]);
        assert!((density(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_triangle_vs_path() {
        let tri = graph_from_edges(&[(1, 2), (2, 3), (1, 3)]);
        for i in 0..3 {
            assert!((local_clustering(&tri, i) - 1.0).abs() < 1e-12);
        }
        let path = graph_from_edges(&[(1, 2), (2, 3)]);
        let mid = path.idx(2).unwrap();
        assert_eq!(local_clustering(&path, mid), 0.0);
    }

    #[test]
    fn triangle_count_correct() {
        // Two triangles sharing the edge (2,3).
        let g = graph_from_edges(&[(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn bfs_and_shortest_paths() {
        let g = graph_from_edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(shortest_path_len(&g, 1, 5), Some(4));
        assert_eq!(shortest_path_len(&g, 1, 1), Some(0));
        let h = graph_from_edges(&[(1, 2), (3, 4)]);
        assert_eq!(shortest_path_len(&h, 1, 4), None);
    }

    #[test]
    fn components() {
        let g = graph_from_edges(&[(1, 2), (2, 3), (10, 11)]);
        let (comp, n) = connected_components(&g);
        assert_eq!(n, 2);
        let (i1, i3) = (g.idx(1).unwrap(), g.idx(3).unwrap());
        assert_eq!(comp[i1 as usize], comp[i3 as usize]);
        let i10 = g.idx(10).unwrap();
        assert_ne!(comp[i1 as usize], comp[i10 as usize]);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        // Star: all point at node 1.
        let mut d = Delta::new();
        for s in 2..=6u64 {
            d.apply_event(&EventKind::AddEdge {
                src: s,
                dst: 1,
                weight: 1.0,
                directed: true,
            });
        }
        let g = Graph::from_delta(d);
        let pr = pagerank(&g, 0.85, 50);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conservation: {total}");
        let hub = g.idx(1).unwrap() as usize;
        assert!(pr
            .iter()
            .enumerate()
            .all(|(i, &x)| i == hub || x <= pr[hub]));
    }

    #[test]
    fn betweenness_path_center() {
        let g = graph_from_edges(&[(1, 2), (2, 3)]);
        let bc = betweenness(&g);
        let mid = g.idx(2).unwrap() as usize;
        assert!((bc[mid] - 1.0).abs() < 1e-9, "{bc:?}");
        let end = g.idx(1).unwrap() as usize;
        assert_eq!(bc[end], 0.0);
    }

    #[test]
    fn khop_bounded() {
        let g = graph_from_edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(khop_ids(&g, 1, 0), vec![1]);
        assert_eq!(khop_ids(&g, 1, 1), vec![1, 2]);
        assert_eq!(khop_ids(&g, 1, 2), vec![1, 2, 3]);
        assert_eq!(khop_ids(&g, 99, 2), Vec::<u64>::new());
    }

    #[test]
    fn label_counting() {
        let mut d = Delta::new();
        for id in 1..=4u64 {
            d.apply_event(&EventKind::AddNode { id });
            let label = if id % 2 == 0 { "Author" } else { "Paper" };
            d.apply_event(&EventKind::SetNodeAttr {
                id,
                key: "EntityType".into(),
                value: label.into(),
            });
        }
        let g = Graph::from_delta(d);
        assert_eq!(count_label(&g, "EntityType", "Author"), 2);
        assert_eq!(count_label(&g, "EntityType", "Paper"), 2);
        assert_eq!(count_label(&g, "EntityType", "Venue"), 0);
    }

    #[test]
    fn empty_graph_algorithms() {
        let g = Graph::from_delta(Delta::new());
        assert_eq!(density(&g), 0.0);
        assert_eq!(average_clustering(&g), 0.0);
        assert!(pagerank(&g, 0.85, 10).is_empty());
        assert_eq!(connected_components(&g).1, 0);
    }
}
