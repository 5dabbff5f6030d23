//! `SoTS` — Set of Temporal Subgraphs, with the version-based and
//! incremental computation operators (§5.1 operators 5 & 6, Fig. 8).

use hgs_delta::{Delta, Event, NodeId, Time, TimeRange};
use hgs_store::parallel_steal;

use crate::subgraph_t::SubgraphT;

/// A set of temporal subgraphs over a common time range.
#[derive(Debug, Clone)]
pub struct SoTS {
    subs: Vec<SubgraphT>,
    range: TimeRange,
    workers: usize,
}

impl SoTS {
    /// Assemble from fetched temporal subgraphs.
    pub fn new(subs: Vec<SubgraphT>, range: TimeRange, workers: usize) -> SoTS {
        SoTS {
            subs,
            range,
            workers: workers.max(1),
        }
    }

    /// Number of subgraphs.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// The common range.
    pub fn range(&self) -> TimeRange {
        self.range
    }

    /// The subgraphs.
    pub fn subgraphs(&self) -> &[SubgraphT] {
        &self.subs
    }

    /// Worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over every subgraph on the worker pool; results in
    /// subgraph order.
    fn par_map<R: Send>(&self, f: impl Fn(&SubgraphT) -> R + Sync) -> Vec<R> {
        parallel_steal(self.subs.iter().collect(), self.workers, f)
    }

    /// **Selection** on subgraphs.
    pub fn select<F>(&self, pred: F) -> SoTS
    where
        F: Fn(&SubgraphT) -> bool + Sync,
    {
        let kept = self.par_map(|s| pred(s).then(|| s.clone()));
        SoTS {
            subs: kept.into_iter().flatten().collect(),
            range: self.range,
            workers: self.workers,
        }
    }

    /// **NodeCompute**: evaluate `f` on each subgraph's state at one
    /// timepoint.
    pub fn compute_at<R, F>(&self, t: Time, f: F) -> Vec<(NodeId, R)>
    where
        R: Send,
        F: Fn(&Delta) -> R + Sync,
    {
        self.par_map(|s| (s.root, f(&s.version_at(t))))
    }

    /// **NodeComputeTemporal** (operator 5): recompute `f` from
    /// scratch on every version of every subgraph — `O(N·T)` work, the
    /// baseline of Fig. 17.
    pub fn node_compute_temporal<R, F>(&self, f: F) -> Vec<(NodeId, Vec<(Time, R)>)>
    where
        R: Send,
        F: Fn(&Delta) -> R + Sync,
    {
        self.par_map(|s| {
            // Deliberately materialize each version from scratch: this
            // is the non-incremental semantics the operator is defined
            // (and measured) with.
            let series = s
                .change_points()
                .into_iter()
                .chain(std::iter::once(s.range().start))
                .collect::<std::collections::BTreeSet<Time>>()
                .into_iter()
                .map(|t| (t, f(&s.version_at(t))))
                .collect();
            (s.root, series)
        })
    }

    /// **NodeComputeDelta** (operator 6): compute `f` once on the
    /// initial state, then update the value with `f_delta(state_before,
    /// value, event)` per event — `O(N + T)` work. The state is
    /// maintained incrementally and passed to `f_delta` as the
    /// auxiliary information of the paper's definition.
    pub fn node_compute_delta<R, F, FD>(&self, f: F, f_delta: FD) -> Vec<(NodeId, Vec<(Time, R)>)>
    where
        R: Clone + Send,
        F: Fn(&Delta) -> R + Sync,
        FD: Fn(&Delta, &R, &Event) -> R + Sync,
    {
        self.par_map(|s| {
            let mut series: Vec<(Time, R)> = Vec::new();
            // Shared between the two walk callbacks.
            let value: std::cell::RefCell<Option<R>> = std::cell::RefCell::new(None);
            s.walk(
                |state_before, event| {
                    let mut slot = value.borrow_mut();
                    let cur = slot.get_or_insert_with(|| f(state_before));
                    let next = f_delta(state_before, cur, event);
                    *cur = next;
                },
                |t, state_after| {
                    let mut slot = value.borrow_mut();
                    let cur = slot.get_or_insert_with(|| f(state_after)).clone();
                    series.push((t, cur));
                },
            );
            (s.root, series)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::{AttrValue, EventKind, FxHashSet};
    use hgs_graph::algo::count_label;
    use hgs_graph::Graph;

    /// The paper's Fig. 8 workload: count nodes labeled "Author".
    fn count_authors(d: &Delta) -> i64 {
        count_label(&Graph::from_delta(d.clone()), "EntityType", "Author") as i64
    }

    /// Fig. 8(b)'s incremental update function.
    fn count_authors_delta(state_before: &Delta, prev: &i64, e: &Event) -> i64 {
        match &e.kind {
            EventKind::SetNodeAttr { id, key, value } if key == "EntityType" => {
                let was_author = state_before
                    .node(*id)
                    .and_then(|n| n.attrs.get("EntityType"))
                    .and_then(|v| v.as_text())
                    == Some("Author");
                let is_author = value.as_text() == Some("Author");
                prev + (is_author as i64) - (was_author as i64)
            }
            EventKind::RemoveNode { id } => {
                let was_author = state_before
                    .node(*id)
                    .and_then(|n| n.attrs.get("EntityType"))
                    .and_then(|v| v.as_text())
                    == Some("Author");
                prev - (was_author as i64)
            }
            _ => *prev,
        }
    }

    fn sample_sots() -> SoTS {
        let mut initial = Delta::new();
        for (id, label) in [(1u64, "Author"), (2, "Paper"), (3, "Author")] {
            initial.apply_event(&EventKind::AddNode { id });
            initial.apply_event(&EventKind::SetNodeAttr {
                id,
                key: "EntityType".into(),
                value: AttrValue::Text(label.into()),
            });
        }
        let members: FxHashSet<NodeId> = [1u64, 2, 3].into_iter().collect();
        let events = vec![
            Event::new(
                20,
                EventKind::SetNodeAttr {
                    id: 2,
                    key: "EntityType".into(),
                    value: AttrValue::Text("Author".into()),
                },
            ),
            Event::new(
                40,
                EventKind::SetNodeAttr {
                    id: 1,
                    key: "EntityType".into(),
                    value: AttrValue::Text("Venue".into()),
                },
            ),
            Event::new(60, EventKind::RemoveNode { id: 3 }),
        ];
        let sub = SubgraphT::new(1, members, initial, events, TimeRange::new(0, 100));
        SoTS::new(vec![sub], TimeRange::new(0, 100), 2)
    }

    #[test]
    fn temporal_and_delta_agree() {
        let sots = sample_sots();
        let temporal = sots.node_compute_temporal(count_authors);
        let delta = sots.node_compute_delta(count_authors, count_authors_delta);
        assert_eq!(temporal, delta, "incremental must equal recompute");
        let series = &temporal[0].1;
        let counts: Vec<i64> = series.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![2, 3, 2, 1]);
    }

    #[test]
    fn compute_at_single_point() {
        let sots = sample_sots();
        let at30 = sots.compute_at(30, count_authors);
        assert_eq!(at30, vec![(1, 3)]);
    }

    #[test]
    fn select_subgraphs() {
        let sots = sample_sots();
        assert_eq!(sots.select(|s| s.len() >= 3).len(), 1);
        assert_eq!(sots.select(|s| s.len() > 3).len(), 0);
    }
}
