//! The brute-force oracle: every answer the benchmark times is checked
//! against a replay of the generated events (the snapshot equivalence
//! of *Efficient Snapshot Retrieval over Historical Graph Data*).
//!
//! Point-in-time answers are queued by timepoint and checked in one
//! streaming replay per dataset; history answers are checked against
//! the events that touch the node. A wrong answer counts as a failed
//! operation of its class.

use std::collections::{BTreeMap, VecDeque};

use hgs_core::LABEL_KEY;
use hgs_delta::{
    AttrValue, Delta, Event, EventKind, FxHashMap, FxHashSet, NodeId, StaticNode, Time, TimeRange,
};
use hgs_graph::{algo, Graph};

use crate::ops::{Op, N_OPS};

/// Checks attempted and failed per op class, with the first few
/// mismatches kept for the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: [u64; N_OPS],
    pub failed: [u64; N_OPS],
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: Op, ok: bool, what: impl FnOnce() -> String) {
        self.attempted[op.idx()] += 1;
        if !ok {
            self.failed[op.idx()] += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{}: {}", op.name(), what()));
            }
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// An answer the index gave for one timepoint.
pub enum Expect {
    /// A whole snapshot.
    State(Delta),
    /// One node's state (also the initial state of a history).
    Node(NodeId, Option<StaticNode>),
    /// A k-hop neighborhood: ids must equal the BFS set and every
    /// record the replayed one.
    Khop {
        center: NodeId,
        k: usize,
        got: Delta,
    },
    /// Sorted ids carrying `label`.
    Labelled { label: String, got: Vec<NodeId> },
    /// Density of the graph induced on `ids`.
    Density { ids: Vec<NodeId>, got: f64 },
}

/// Point-in-time answers queued by timepoint.
#[derive(Default)]
pub struct TimedChecks(BTreeMap<Time, Vec<(Op, Expect)>>);

impl TimedChecks {
    pub fn add(&mut self, op: Op, t: Time, expect: Expect) {
        self.0.entry(t).or_default().push((op, expect));
    }

    /// Replay `events` once, checking every queued answer as the
    /// replayed state reaches its timepoint.
    pub fn verify(self, events: &[Event], tally: &mut Tally) {
        let mut state = Delta::new();
        let mut next = 0usize;
        for (t, checks) in self.0 {
            while next < events.len() && events[next].time <= t {
                state.apply_event(&events[next].kind);
                next += 1;
            }
            for (op, expect) in checks {
                match expect {
                    Expect::State(got) => tally.record(op, got == state, || {
                        format!(
                            "snapshot at {t}: {} nodes, oracle {}",
                            got.cardinality(),
                            state.cardinality()
                        )
                    }),
                    Expect::Node(nid, got) => {
                        tally.record(op, got.as_ref() == state.node(nid), || {
                            format!("node {nid} at {t} differs from replay")
                        })
                    }
                    Expect::Khop { center, k, got } => {
                        let want = bfs_ids(&state, center, k);
                        let ids: FxHashSet<NodeId> = got.ids().collect();
                        let ok = ids == want && got.iter().all(|n| state.node(n.id) == Some(n));
                        tally.record(op, ok, || {
                            format!(
                                "{k}-hop of {center} at {t}: {} ids, oracle {}",
                                ids.len(),
                                want.len()
                            )
                        })
                    }
                    Expect::Labelled { label, got } => {
                        let want_value = AttrValue::Text(label.clone());
                        let mut want: Vec<NodeId> = state
                            .iter()
                            .filter(|n| n.attrs.get(LABEL_KEY) == Some(&want_value))
                            .map(|n| n.id)
                            .collect();
                        want.sort_unstable();
                        tally.record(op, got == want, || {
                            format!(
                                "label {label} at {t}: {} ids, oracle {}",
                                got.len(),
                                want.len()
                            )
                        })
                    }
                    Expect::Density { ids, got } => {
                        let members: FxHashSet<NodeId> = ids.into_iter().collect();
                        let induced = Graph::from_delta(state.restrict(|id| members.contains(&id)));
                        let want = algo::density(&induced);
                        let ok = (got - want).abs() <= 1e-12 * want.abs().max(1.0);
                        tally.record(op, ok, || format!("density at {t}: {got}, oracle {want}"))
                    }
                }
            }
        }
    }
}

/// Ids within `k` hops of `center` in `state` (empty when the center
/// does not exist).
pub fn bfs_ids(state: &Delta, center: NodeId, k: usize) -> FxHashSet<NodeId> {
    let mut seen = FxHashSet::default();
    if !state.contains(center) {
        return seen;
    }
    seen.insert(center);
    let mut frontier = VecDeque::from([(center, 0usize)]);
    while let Some((id, depth)) = frontier.pop_front() {
        if depth == k {
            continue;
        }
        let Some(node) = state.node(id) else { continue };
        for nbr in node.all_neighbors() {
            if state.contains(nbr) && seen.insert(nbr) {
                frontier.push_back((nbr, depth + 1));
            }
        }
    }
    seen
}

fn touches(e: &Event, id: NodeId) -> bool {
    let (a, b) = e.kind.touched();
    a == id || b == Some(id)
}

/// Indices of the events touching each node of `nodes`, one pass.
pub fn events_by_node(
    events: &[Event],
    nodes: &FxHashSet<NodeId>,
) -> FxHashMap<NodeId, Vec<usize>> {
    let mut out: FxHashMap<NodeId, Vec<usize>> = FxHashMap::default();
    for (i, e) in events.iter().enumerate() {
        let (a, b) = e.kind.touched();
        if nodes.contains(&a) {
            out.entry(a).or_default().push(i);
        }
        if let Some(b) = b {
            if b != a && nodes.contains(&b) {
                out.entry(b).or_default().push(i);
            }
        }
    }
    out
}

/// Whether `got` is exactly the events touching `nid` strictly inside
/// `range` (Algorithm 2's event list).
pub fn history_events_match(
    events: &[Event],
    by_node: &FxHashMap<NodeId, Vec<usize>>,
    nid: NodeId,
    range: TimeRange,
    got: &[Event],
) -> bool {
    let want = by_node
        .get(&nid)
        .map(Vec::as_slice)
        .unwrap_or_default()
        .iter()
        .map(|&i| &events[i])
        .filter(|e| e.time > range.start && e.time < range.end);
    want.eq(got.iter())
}

/// The `(time, value)` points of attribute `key` on `nid`: every set,
/// and every removal of a value that was present.
pub fn attr_points(
    events: &[Event],
    by_node: &FxHashMap<NodeId, Vec<usize>>,
    nid: NodeId,
    key: &str,
) -> Vec<(Time, Option<AttrValue>)> {
    let mut out = Vec::new();
    let mut present = false;
    for &i in by_node.get(&nid).map(Vec::as_slice).unwrap_or_default() {
        let e = &events[i];
        match &e.kind {
            EventKind::SetNodeAttr { id, key: k, value } if *id == nid && k == key => {
                out.push((e.time, Some(value.clone())));
                present = true;
            }
            EventKind::RemoveNodeAttr { id, key: k } if *id == nid && k == key && present => {
                out.push((e.time, None));
                present = false;
            }
            EventKind::RemoveNode { id } if *id == nid && present => {
                out.push((e.time, None));
                present = false;
            }
            _ => {}
        }
    }
    out
}

/// Events strictly inside `range` touching any member — what a
/// temporal subgraph over `members` must carry, each event once.
pub fn subgraph_event_count(
    events: &[Event],
    members: &FxHashSet<NodeId>,
    range: TimeRange,
) -> usize {
    events
        .iter()
        .filter(|e| e.time > range.start && e.time < range.end)
        .filter(|e| members.iter().any(|&m| touches(e, m)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(t: Time, a: NodeId, b: NodeId) -> Event {
        Event::new(
            t,
            EventKind::AddEdge {
                src: a,
                dst: b,
                weight: 1.0,
                directed: false,
            },
        )
    }

    fn label(t: Time, id: NodeId, v: &str) -> Event {
        Event::new(
            t,
            EventKind::SetNodeAttr {
                id,
                key: LABEL_KEY.into(),
                value: AttrValue::Text(v.into()),
            },
        )
    }

    fn trace() -> Vec<Event> {
        let mut ev: Vec<Event> = (0..5)
            .map(|id| Event::new(1, EventKind::AddNode { id }))
            .collect();
        ev.extend([
            edge(2, 0, 1),
            edge(3, 1, 2),
            label(3, 2, "X"),
            edge(5, 2, 3),
        ]);
        ev.push(label(6, 2, "Y"));
        ev.push(Event::new(
            7,
            EventKind::RemoveNodeAttr {
                id: 2,
                key: LABEL_KEY.into(),
            },
        ));
        ev
    }

    #[test]
    fn streaming_checks_accept_truth_and_reject_lies() {
        let ev = trace();
        let mut checks = TimedChecks::default();
        checks.add(
            Op::Snapshot,
            3,
            Expect::State(Delta::snapshot_by_replay(&ev, 3)),
        );
        checks.add(
            Op::Snapshot,
            5,
            Expect::State(Delta::snapshot_by_replay(&ev, 3)),
        );
        let at5 = Delta::snapshot_by_replay(&ev, 5);
        checks.add(Op::NodeAt, 5, Expect::Node(3, at5.node(3).cloned()));
        checks.add(Op::NodeAt, 2, Expect::Node(3, at5.node(3).cloned()));
        let hop1: FxHashSet<NodeId> = [0, 1, 2].into_iter().collect();
        checks.add(
            Op::Khop,
            3,
            Expect::Khop {
                center: 1,
                k: 1,
                got: Delta::snapshot_by_replay(&ev, 3).restrict(|id| hop1.contains(&id)),
            },
        );
        checks.add(
            Op::LabelAt,
            4,
            Expect::Labelled {
                label: "X".into(),
                got: vec![2],
            },
        );
        checks.add(
            Op::LabelAt,
            6,
            Expect::Labelled {
                label: "X".into(),
                got: vec![2],
            },
        );
        // Nodes 1,2,3 at t=5: edges 1-2 and 2-3 of 3 possible.
        checks.add(
            Op::TafCompute,
            5,
            Expect::Density {
                ids: vec![1, 2, 3],
                got: 2.0 / 3.0,
            },
        );
        let mut tally = Tally::default();
        checks.verify(&ev, &mut tally);
        assert_eq!(tally.attempted[Op::Snapshot.idx()], 2);
        assert_eq!(tally.failed[Op::Snapshot.idx()], 1);
        assert_eq!(tally.failed[Op::NodeAt.idx()], 1);
        assert_eq!(tally.failed[Op::Khop.idx()], 0);
        assert_eq!(tally.failed[Op::LabelAt.idx()], 1);
        assert_eq!(tally.failed[Op::TafCompute.idx()], 0);
        assert_eq!(tally.total_failed(), 3);
    }

    #[test]
    fn history_and_attr_points_follow_the_events() {
        let ev = trace();
        let nodes: FxHashSet<NodeId> = [2].into_iter().collect();
        let by_node = events_by_node(&ev, &nodes);
        let range = TimeRange::new(2, 7);
        let want: Vec<Event> = vec![ev[6].clone(), ev[7].clone(), ev[8].clone(), ev[9].clone()];
        assert!(history_events_match(&ev, &by_node, 2, range, &want));
        assert!(!history_events_match(&ev, &by_node, 2, range, &want[1..]));
        assert_eq!(
            attr_points(&ev, &by_node, 2, LABEL_KEY),
            vec![
                (3, Some(AttrValue::Text("X".into()))),
                (6, Some(AttrValue::Text("Y".into()))),
                (7, None)
            ]
        );
        let members: FxHashSet<NodeId> = [2, 3].into_iter().collect();
        assert_eq!(subgraph_event_count(&ev, &members, TimeRange::new(2, 7)), 4);
    }
}
