//! `SoN` — Set of Temporal Nodes (Definition 7) and its operator
//! algebra.
//!
//! The SoN is TAF's prime operand, "bearing correspondence to tables
//! of the relational algebra". It is held as a partitioned vector of
//! [`NodeT`] processed by `workers` OS threads — the `RDD<NodeT>` of
//! the paper's Spark implementation.

use hgs_delta::{Delta, FxHashMap, NodeId, StaticNode, Time, TimeRange};
use hgs_graph::Graph;
use hgs_store::parallel_steal;

use crate::node_t::NodeT;

/// Caller-supplied selector of evaluation timepoints for
/// [`SoN::node_compute_temporal`] (§5.2 "specifying interesting time
/// points").
pub(crate) type TimepointSelector = dyn Fn(&NodeT) -> Vec<Time> + Sync;

/// A set of temporal nodes over a common time range.
#[derive(Debug, Clone)]
pub struct SoN {
    nodes: Vec<NodeT>,
    range: TimeRange,
    workers: usize,
}

impl SoN {
    /// Assemble from fetched temporal nodes.
    pub fn new(mut nodes: Vec<NodeT>, range: TimeRange, workers: usize) -> SoN {
        nodes.sort_by_key(|n| n.id());
        SoN {
            nodes,
            range,
            workers: workers.max(1),
        }
    }

    /// Number of temporal nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The common time range.
    pub fn range(&self) -> TimeRange {
        self.range
    }

    /// Worker-pool width used by the compute operators.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Re-partition over a different worker count.
    pub fn with_workers(mut self, workers: usize) -> SoN {
        self.workers = workers.max(1);
        self
    }

    /// The temporal nodes.
    pub fn nodes(&self) -> &[NodeT] {
        &self.nodes
    }

    /// Map `f` over every temporal node on the worker pool; results in
    /// node order.
    fn par_map<R: Send>(&self, f: impl Fn(&NodeT) -> R + Sync) -> Vec<R> {
        parallel_steal(self.nodes.iter().collect(), self.workers, f)
    }

    /// Look up one temporal node.
    pub fn get(&self, id: NodeId) -> Option<&NodeT> {
        self.nodes
            .binary_search_by_key(&id, |n| n.id())
            .ok()
            .map(|i| &self.nodes[i])
    }

    // ------------------------------------------------------------------
    // operators (§5.1)
    // ------------------------------------------------------------------

    /// **Selection** (operator 1): entity-centric filtering; temporal
    /// and attribute dimensions are untouched.
    pub fn select<F>(&self, pred: F) -> SoN
    where
        F: Fn(&NodeT) -> bool + Sync,
    {
        let kept = self.par_map(|n| pred(n).then(|| n.clone()));
        SoN {
            nodes: kept.into_iter().flatten().collect(),
            range: self.range,
            workers: self.workers,
        }
    }

    /// Selection on an attribute of the *latest* state, e.g.
    /// `select_attr("community", "A")` — the Fig. 7b idiom.
    pub fn select_attr(&self, key: &str, value: &str) -> SoN {
        self.select(|n| {
            n.version_at(n.end_time().saturating_sub(1))
                .and_then(|s| {
                    s.attrs
                        .get(key)
                        .and_then(|v| v.as_text().map(|t| t == value))
                })
                .unwrap_or(false)
        })
    }

    /// **Timeslicing** (operator 2) to a sub-interval.
    pub fn timeslice(&self, sub: TimeRange) -> SoN {
        let range = TimeRange::new(sub.start.max(self.range.start), sub.end.min(self.range.end));
        SoN {
            nodes: self.par_map(|n| n.timeslice(range)),
            range,
            workers: self.workers,
        }
    }

    /// **Filter**: project node attributes down to `keys`.
    pub fn filter_attrs(&self, keys: &[&str]) -> SoN {
        SoN {
            nodes: self.par_map(|n| n.filter_attrs(keys)),
            range: self.range,
            workers: self.workers,
        }
    }

    /// **Graph** (operator 3): materialize an in-memory graph of the
    /// SoN's nodes as of `t` (edges to nodes outside the SoN are
    /// dropped, per the operator's definition).
    pub fn graph_at(&self, t: Time) -> Graph {
        let mut d = Delta::new();
        for n in &self.nodes {
            if let Some(s) = n.version_at(t) {
                d.insert(s);
            }
        }
        Graph::from_delta(d)
    }

    /// **NodeCompute** (operator 4): map a function over every
    /// temporal node.
    pub fn node_compute<R, F>(&self, f: F) -> Vec<(NodeId, R)>
    where
        R: Send,
        F: Fn(&NodeT) -> R + Sync,
    {
        self.par_map(|n| (n.id(), f(n)))
    }

    /// **NodeComputeTemporal** (operator 5): evaluate `f` on every
    /// version of every node. `timepoints` overrides the default
    /// all-change-points evaluation (§5.2 "specifying interesting time
    /// points").
    pub fn node_compute_temporal<R, F>(
        &self,
        f: F,
        timepoints: Option<&TimepointSelector>,
    ) -> Vec<(NodeId, Vec<(Time, R)>)>
    where
        R: Send,
        F: Fn(&StaticNode) -> R + Sync,
    {
        self.par_map(|n| {
            let series = match timepoints {
                Some(tp) => tp(n)
                    .into_iter()
                    .filter_map(|t| n.version_at(t).map(|s| (t, f(&s))))
                    .collect(),
                None => n
                    .versions()
                    .into_iter()
                    .filter_map(|(t, s)| s.map(|s| (t, f(&s))))
                    .collect(),
            };
            (n.id(), series)
        })
    }

    /// **Compare** (operator 7): evaluate a scalar function over both
    /// SoNs and return `(node-id, a - b)` for ids present in either
    /// (missing side contributes 0).
    pub fn compare<F>(a: &SoN, b: &SoN, f: F) -> Vec<(NodeId, f64)>
    where
        F: Fn(&NodeT) -> f64 + Sync,
    {
        let fa: FxHashMap<NodeId, f64> = a.node_compute(&f).into_iter().collect();
        let fb: FxHashMap<NodeId, f64> = b.node_compute(&f).into_iter().collect();
        let mut ids: Vec<NodeId> = fa.keys().chain(fb.keys()).copied().collect::<Vec<_>>();
        // Hash-map key order is arbitrary: the sort immediately before
        // the adjacent-only `dedup` is load-bearing.
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                (
                    id,
                    fa.get(&id).copied().unwrap_or(0.0) - fb.get(&id).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// Compare one SoN against itself at two timepoints.
    pub fn compare_times<F>(&self, t1: Time, t2: Time, f: F) -> Vec<(NodeId, f64)>
    where
        F: Fn(&StaticNode) -> f64 + Sync,
    {
        self.par_map(|n| {
            let v1 = n.version_at(t1).map(|s| f(&s)).unwrap_or(0.0);
            let v2 = n.version_at(t2).map(|s| f(&s)).unwrap_or(0.0);
            (n.id(), v2 - v1)
        })
    }

    /// **Evolution** (operator 8): sample a whole-SoN quantity at
    /// `points` evenly spaced timepoints over the range.
    pub fn evolution<F>(&self, quantity: F, points: usize) -> Vec<(Time, f64)>
    where
        F: Fn(&Graph) -> f64 + Sync,
    {
        let ts = self.sample_points(points);
        ts.into_iter()
            .map(|t| (t, quantity(&self.graph_at(t))))
            .collect()
    }

    /// `points` evenly spaced timepoints across the range (always
    /// includes both endpoints when `points >= 2`).
    fn sample_points(&self, points: usize) -> Vec<Time> {
        let points = points.max(1);
        let end = self.range.end.min(
            self.nodes
                .iter()
                .flat_map(|n| n.events().last().map(|e| e.time + 1))
                .max()
                .unwrap_or(self.range.start + 1),
        );
        let start = self.range.start;
        if points == 1 || end <= start + 1 {
            return vec![start];
        }
        (0..points)
            .map(|i| start + (end - 1 - start) * i as u64 / (points as u64 - 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::TempAggregate;
    use hgs_core::NodeHistory;
    use hgs_delta::{AttrValue, Event, EventKind};

    fn node(id: NodeId, attr: &str, deg_edges: &[(Time, NodeId)]) -> NodeT {
        let mut initial = StaticNode::new(id);
        initial.attrs.set("community", AttrValue::Text(attr.into()));
        let events = deg_edges
            .iter()
            .map(|&(t, other)| {
                Event::new(
                    t,
                    EventKind::AddEdge {
                        src: id,
                        dst: other,
                        weight: 1.0,
                        directed: false,
                    },
                )
            })
            .collect();
        NodeT::new(NodeHistory {
            id,
            range: TimeRange::new(0, 100),
            initial: Some(initial),
            events,
        })
    }

    fn sample_son() -> SoN {
        SoN::new(
            vec![
                node(1, "A", &[(10, 2), (20, 3)]),
                node(2, "A", &[(10, 1)]),
                node(3, "B", &[(20, 1)]),
            ],
            TimeRange::new(0, 100),
            2,
        )
    }

    #[test]
    fn select_filters_entities() {
        let son = sample_son();
        let a = son.select_attr("community", "A");
        assert_eq!(a.len(), 2);
        let heavy = son.select(|n| n.change_count() >= 2);
        assert_eq!(heavy.len(), 1);
        assert_eq!(heavy.nodes()[0].id(), 1);
    }

    #[test]
    fn timeslice_narrows_range() {
        let son = sample_son();
        let s = son.timeslice(TimeRange::new(15, 100));
        assert_eq!(s.range(), TimeRange::new(15, 100));
        // Node 1's t=10 edge is folded into the initial state.
        let n1 = s.get(1).unwrap();
        assert_eq!(n1.initial().unwrap().degree(), 1);
        assert_eq!(n1.events().len(), 1);
    }

    #[test]
    fn graph_materialization_drops_external_edges() {
        let son = sample_son().select(|n| n.id() != 3);
        let g = son.graph_at(50);
        assert_eq!(g.node_count(), 2);
        // Edge 1-3 is dropped (3 not in SoN); edge 1-2 stays.
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn node_compute_parallel_matches_serial() {
        let son = sample_son();
        let mut par = son.node_compute(|n| n.change_count());
        par.sort_by_key(|(id, _)| *id);
        assert_eq!(par, vec![(1, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn node_compute_temporal_walks_versions() {
        let son = sample_son();
        let out = son.node_compute_temporal(|s| s.degree(), None);
        let n1 = out.iter().find(|(id, _)| *id == 1).unwrap();
        let degs: Vec<usize> = n1.1.iter().map(|(_, d)| *d).collect();
        assert_eq!(degs, vec![0, 1, 2]);
    }

    #[test]
    fn compare_diffs_by_id() {
        let son = sample_son();
        let a = son.select_attr("community", "A");
        let b = son.select_attr("community", "B");
        let d = SoN::compare(&a, &b, |n| n.change_count() as f64);
        let m: FxHashMap<NodeId, f64> = d.into_iter().collect();
        assert_eq!(m[&1], 2.0, "only in A");
        assert_eq!(m[&3], -1.0, "only in B");
    }

    #[test]
    fn compare_times_measures_growth() {
        let son = sample_son();
        let d = son.compare_times(5, 50, |s| s.degree() as f64);
        let m: FxHashMap<NodeId, f64> = d.into_iter().collect();
        assert_eq!(m[&1], 2.0);
    }

    #[test]
    fn evolution_density_series() {
        let son = sample_son();
        let series = son.evolution(hgs_graph::algo::density, 5);
        assert_eq!(series.len(), 5);
        assert!(
            series.last().unwrap().1 > series.first().unwrap().1,
            "graph densifies"
        );
        assert_eq!(series.t_max().unwrap().1, series.last().unwrap().1);
    }

    #[test]
    fn custom_timepoints_function() {
        let son = sample_son();
        let tp = |n: &NodeT| vec![n.start_time(), (n.start_time() + n.end_time()) / 2];
        let out = son.node_compute_temporal(|s| s.degree(), Some(&tp));
        assert!(out.iter().all(|(_, series)| series.len() == 2));
    }
}
