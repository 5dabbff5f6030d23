//! `NodeT` — the temporal node (Definition 6).
//!
//! "A temporal node N_T is defined as a sequence of all and only the
//! states of a node N over a time range T." Physically it is stored
//! exactly as §5.2 prescribes: "an initial snapshot of the node,
//! followed by a list of chronologically sorted events" — which is
//! precisely what TGI's Algorithm 2 returns, so `NodeT` wraps
//! [`hgs_core::NodeHistory`].

use hgs_core::NodeHistory;
use hgs_delta::{Event, NodeId, StaticNode, Time, TimeRange};

/// A temporal node: one node's full state sequence over a range.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeT {
    history: NodeHistory,
}

impl NodeT {
    /// Wrap a fetched node history.
    pub fn new(history: NodeHistory) -> NodeT {
        NodeT { history }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.history.id
    }

    /// `GetStartTime()` of §5.2.
    pub fn start_time(&self) -> Time {
        self.history.range.start
    }

    /// `GetEndTime()` of §5.2.
    pub fn end_time(&self) -> Time {
        self.history.range.end
    }

    /// The covered range.
    pub fn range(&self) -> TimeRange {
        self.history.range
    }

    /// The initial state (at `start_time`), if the node existed.
    pub fn initial(&self) -> Option<&StaticNode> {
        self.history.initial.as_ref()
    }

    /// The chronologically sorted in-range events.
    pub fn events(&self) -> &[Event] {
        &self.history.events
    }

    /// `getVersions()`: every distinct state over the range.
    pub fn versions(&self) -> Vec<(Time, Option<StaticNode>)> {
        self.history.versions()
    }

    /// `getVersionAt(t)`: the state as of `t`.
    pub fn version_at(&self, t: Time) -> Option<StaticNode> {
        self.history.state_at(t)
    }

    /// `getNeighborIDsAt(t)`.
    pub fn neighbor_ids_at(&self, t: Time) -> Vec<NodeId> {
        self.version_at(t)
            .map(|n| n.all_neighbors().collect())
            .unwrap_or_default()
    }

    /// Distinct timepoints at which this node changed, ascending.
    ///
    /// TGI-fetched histories arrive chronologically sorted, but
    /// [`NodeT::new`] accepts any caller-assembled [`NodeHistory`]
    /// (e.g. merged from several sources), so sort before dedup —
    /// `Vec::dedup` alone only removes *adjacent* duplicates and
    /// would leave repeats of a timestamp that recurs non-adjacently.
    pub fn change_points(&self) -> Vec<Time> {
        let mut ts: Vec<Time> = self.history.events.iter().map(|e| e.time).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Number of in-range events.
    pub fn change_count(&self) -> usize {
        self.history.change_count()
    }

    /// Restrict to a sub-range (the Timeslicing operator's per-node
    /// work): the new initial state is this node's state at
    /// `sub.start`, and only events inside `sub` are kept.
    pub fn timeslice(&self, sub: TimeRange) -> NodeT {
        let clamped = TimeRange::new(
            sub.start.max(self.start_time()),
            sub.end
                .min(self.end_time())
                .max(sub.start.max(self.start_time())),
        );
        let initial = self.history.state_at(clamped.start);
        let events = self
            .history
            .events
            .iter()
            .filter(|e| e.time > clamped.start && e.time < clamped.end)
            .cloned()
            .collect();
        NodeT {
            history: NodeHistory {
                id: self.id(),
                range: clamped,
                initial,
                events,
            },
        }
    }

    /// Keep only the named attributes in every state (the Filter
    /// operator): structure is untouched, other attributes are
    /// projected away.
    pub fn filter_attrs(&self, keys: &[&str]) -> NodeT {
        let project = |n: &StaticNode| -> StaticNode {
            let mut out = n.clone();
            let drop: Vec<String> = out
                .attrs
                .iter()
                .map(|(k, _)| k.to_owned())
                .filter(|k| !keys.contains(&k.as_str()))
                .collect();
            for k in drop {
                out.attrs.remove(&k);
            }
            out
        };
        let initial = self.history.initial.as_ref().map(project);
        let events = self
            .history
            .events
            .iter()
            .filter(|e| match &e.kind {
                hgs_delta::EventKind::SetNodeAttr { key, .. }
                | hgs_delta::EventKind::RemoveNodeAttr { key, .. } => keys.contains(&key.as_str()),
                _ => true,
            })
            .cloned()
            .collect();
        NodeT {
            history: NodeHistory {
                id: self.id(),
                range: self.range(),
                initial,
                events,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::{AttrValue, EventKind};

    fn sample() -> NodeT {
        let mut initial = StaticNode::new(1);
        initial.attrs.set("color", AttrValue::Text("red".into()));
        initial.attrs.set("size", AttrValue::Int(3));
        NodeT::new(NodeHistory {
            id: 1,
            range: TimeRange::new(10, 100),
            initial: Some(initial),
            events: vec![
                Event::new(
                    20,
                    EventKind::AddEdge {
                        src: 1,
                        dst: 2,
                        weight: 1.0,
                        directed: false,
                    },
                ),
                Event::new(
                    40,
                    EventKind::SetNodeAttr {
                        id: 1,
                        key: "color".into(),
                        value: AttrValue::Text("blue".into()),
                    },
                ),
                Event::new(60, EventKind::RemoveEdge { src: 1, dst: 2 }),
            ],
        })
    }

    #[test]
    fn versions_walk_states() {
        let n = sample();
        let v = n.versions();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].1.as_ref().unwrap().degree(), 0);
        assert_eq!(v[1].1.as_ref().unwrap().degree(), 1);
        assert_eq!(
            v[2].1
                .as_ref()
                .unwrap()
                .attrs
                .get("color")
                .and_then(|a| a.as_text()),
            Some("blue")
        );
        assert_eq!(v[3].1.as_ref().unwrap().degree(), 0);
    }

    #[test]
    fn version_at_walks_time() {
        let n = sample();
        assert_eq!(n.version_at(15).unwrap().degree(), 0);
        assert_eq!(n.version_at(20).unwrap().degree(), 1);
        assert_eq!(n.neighbor_ids_at(30), vec![2]);
        assert!(n.neighbor_ids_at(70).is_empty());
    }

    #[test]
    fn timeslice_restricts() {
        let n = sample();
        let s = n.timeslice(TimeRange::new(30, 50));
        assert_eq!(s.start_time(), 30);
        assert_eq!(s.events().len(), 1, "only the t=40 event remains");
        assert_eq!(
            s.initial().unwrap().degree(),
            1,
            "initial reflects t=30 state"
        );
    }

    #[test]
    fn filter_attrs_projects() {
        let n = sample();
        let f = n.filter_attrs(&["size"]);
        assert!(f.initial().unwrap().attrs.get("color").is_none());
        assert!(f.initial().unwrap().attrs.get("size").is_some());
        // The color-change event is dropped; structural events stay.
        assert_eq!(f.events().len(), 2);
    }

    #[test]
    fn change_points_dedup() {
        let n = sample();
        assert_eq!(n.change_points(), vec![20, 40, 60]);
        assert_eq!(n.change_count(), 3);
    }

    /// Regression: a caller-assembled history whose events are not
    /// chronologically sorted (a timestamp recurring non-adjacently)
    /// used to leak duplicate change points through the adjacent-only
    /// `Vec::dedup`.
    #[test]
    fn change_points_dedup_non_adjacent_duplicates() {
        let mk = |t: Time, dst: NodeId| {
            Event::new(
                t,
                EventKind::AddEdge {
                    src: 1,
                    dst,
                    weight: 1.0,
                    directed: false,
                },
            )
        };
        let n = NodeT::new(NodeHistory {
            id: 1,
            range: TimeRange::new(0, 100),
            initial: None,
            // t=20 recurs with t=10 in between: unsorted merge order.
            events: vec![mk(20, 2), mk(10, 3), mk(20, 4)],
        });
        assert_eq!(n.change_points(), vec![10, 20]);
    }
}
