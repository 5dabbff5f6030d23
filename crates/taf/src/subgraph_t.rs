//! `SubgraphT` — the temporal subgraph (§5.1).
//!
//! A sequence of states of a subgraph (a set of nodes and the edges
//! among them) over a period of time; typically the k-hop neighborhood
//! of a node. Stored, like `NodeT`, as an initial subgraph snapshot
//! plus chronologically sorted events.
//!
//! Membership is fixed at fetch time (the k-hop set as of the range
//! start, per the paper's SoTS examples); the *states* of the members
//! evolve with the events.

use hgs_delta::{Delta, Event, FxHashSet, NodeId, Time, TimeRange};

/// A temporal subgraph.
#[derive(Debug, Clone)]
pub struct SubgraphT {
    /// The node the subgraph was grown from (e.g. k-hop center).
    pub root: NodeId,
    /// Member node-ids (fixed over the range).
    members: FxHashSet<NodeId>,
    /// Subgraph state at `range.start`.
    initial: Delta,
    /// In-range events touching any member, chronological.
    events: Vec<Event>,
    range: TimeRange,
}

impl SubgraphT {
    /// Assemble from a fetched initial state and member events.
    pub fn new(
        root: NodeId,
        members: FxHashSet<NodeId>,
        initial: Delta,
        mut events: Vec<Event>,
        range: TimeRange,
    ) -> SubgraphT {
        events.sort_by_key(|e| e.time);
        events.retain(|e| e.time > range.start && e.time < range.end);
        SubgraphT {
            root,
            members,
            initial,
            events,
            range,
        }
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: NodeId) -> bool {
        self.members.contains(&id)
    }

    /// The covered range.
    pub fn range(&self) -> TimeRange {
        self.range
    }

    /// In-range events (chronological).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The initial state.
    pub fn initial(&self) -> &Delta {
        &self.initial
    }

    /// The member set.
    pub fn members(&self) -> &FxHashSet<NodeId> {
        &self.members
    }

    /// A copy keeping only the first `n` distinct change points —
    /// used to sweep "version count" in the incremental-computation
    /// experiment (Fig. 17).
    pub fn truncate_changes(&self, n: usize) -> SubgraphT {
        let points = self.change_points();
        if points.len() <= n {
            return self.clone();
        }
        let cutoff = points[n]; // first excluded timestamp
        SubgraphT {
            root: self.root,
            members: self.members.clone(),
            initial: self.initial.clone(),
            events: self
                .events
                .iter()
                .filter(|e| e.time < cutoff)
                .cloned()
                .collect(),
            range: TimeRange::new(self.range.start, cutoff),
        }
    }

    /// Distinct change timepoints, ascending.
    ///
    /// `events` is sorted by the constructor, but sort again before
    /// dedup anyway: `Vec::dedup` only removes *adjacent* duplicates,
    /// so this stays correct even if a future construction path stops
    /// guaranteeing chronological order.
    pub fn change_points(&self) -> Vec<Time> {
        let mut ts: Vec<Time> = self.events.iter().map(|e| e.time).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// `getVersionAt(t)`: materialize the subgraph state as of `t`
    /// (an in-memory graph object in the paper's terms — convert with
    /// `hgs_graph::Graph::from_delta`).
    pub fn version_at(&self, t: Time) -> Delta {
        let mut state = self.initial.clone();
        for e in self.events.iter().take_while(|e| e.time <= t) {
            state.apply_event_in(&e.kind, |id| self.members.contains(&id));
        }
        state
    }

    /// Iterate `(time, state)` versions incrementally — one shared
    /// evolving state, cloned per yield. Used by NodeComputeTemporal.
    pub fn versions(&self) -> Vec<(Time, Delta)> {
        let mut out = Vec::with_capacity(self.events.len() + 1);
        let mut state = self.initial.clone();
        out.push((self.range.start, state.clone()));
        let mut i = 0usize;
        while i < self.events.len() {
            let t = self.events[i].time;
            while i < self.events.len() && self.events[i].time == t {
                state.apply_event_in(&self.events[i].kind, |id| self.members.contains(&id));
                i += 1;
            }
            out.push((t, state.clone()));
        }
        out
    }

    /// Walk versions *without* cloning states: `visit(t, state_after)`
    /// is called once per distinct timestamp, plus once for the
    /// initial state. This is the incremental walk NodeComputeDelta
    /// uses; `on_event(state_before, event)` fires before each event
    /// is applied.
    pub(crate) fn walk<FEv, FVer>(&self, mut on_event: FEv, mut visit: FVer)
    where
        FEv: FnMut(&Delta, &Event),
        FVer: FnMut(Time, &Delta),
    {
        let mut state = self.initial.clone();
        visit(self.range.start, &state);
        let mut i = 0usize;
        while i < self.events.len() {
            let t = self.events[i].time;
            while i < self.events.len() && self.events[i].time == t {
                on_event(&state, &self.events[i]);
                state.apply_event_in(&self.events[i].kind, |id| self.members.contains(&id));
                i += 1;
            }
            visit(t, &state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::EventKind;

    fn sample() -> SubgraphT {
        let mut initial = Delta::new();
        initial.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: false,
        });
        let members: FxHashSet<NodeId> = [1u64, 2, 3].into_iter().collect();
        let events = vec![
            Event::new(
                20,
                EventKind::AddEdge {
                    src: 2,
                    dst: 3,
                    weight: 1.0,
                    directed: false,
                },
            ),
            Event::new(
                30,
                EventKind::AddEdge {
                    src: 2,
                    dst: 99,
                    weight: 1.0,
                    directed: false,
                },
            ),
            Event::new(40, EventKind::RemoveEdge { src: 1, dst: 2 }),
        ];
        SubgraphT::new(1, members, initial, events, TimeRange::new(10, 100))
    }

    #[test]
    fn version_at_applies_member_scoped() {
        let s = sample();
        let v25 = s.version_at(25);
        assert_eq!(v25.edge_count(), 2);
        let v35 = s.version_at(35);
        // Edge to non-member 99 recorded on member 2's side only; 99
        // itself is never materialized.
        assert!(!v35.contains(99));
        assert!(v35.node(2).unwrap().has_neighbor(99));
        let v45 = s.version_at(45);
        assert!(!v45.node(1).unwrap().has_neighbor(2));
    }

    #[test]
    fn versions_count_change_points() {
        let s = sample();
        let v = s.versions();
        assert_eq!(v.len(), 4, "initial + 3 distinct times");
        assert_eq!(s.change_points(), vec![20, 30, 40]);
    }

    /// Regression companion to the `NodeT::change_points` fix: events
    /// handed to the constructor out of order (a timestamp recurring
    /// non-adjacently) must still yield sorted, unique change points.
    #[test]
    fn change_points_dedup_unsorted_input() {
        let members: FxHashSet<NodeId> = [1u64, 2, 3, 4].into_iter().collect();
        let mk = |t, src, dst| {
            Event::new(
                t,
                EventKind::AddEdge {
                    src,
                    dst,
                    weight: 1.0,
                    directed: false,
                },
            )
        };
        let s = SubgraphT::new(
            1,
            members,
            Delta::new(),
            vec![mk(30, 1, 2), mk(20, 2, 3), mk(30, 3, 4)],
            TimeRange::new(10, 100),
        );
        assert_eq!(s.change_points(), vec![20, 30]);
    }

    #[test]
    fn walk_matches_versions() {
        let s = sample();
        let versions = s.versions();
        let mut walked = Vec::new();
        let mut event_count = 0;
        s.walk(
            |_, _| event_count += 1,
            |t, state| walked.push((t, state.clone())),
        );
        assert_eq!(walked, versions);
        assert_eq!(event_count, 3);
    }
}
