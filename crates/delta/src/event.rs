//! Events and eventlists — Examples 1–3 of the paper's delta framework.

use crate::attr::AttrValue;
use crate::types::{NodeId, Time};

/// The payload of an atomic change to the graph (Example 1).
///
/// Changes are either structural (node/edge addition and deletion) or
/// attribute-level (set / remove an attribute value on a node or edge).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A node appears.
    AddNode { id: NodeId },
    /// A node (and implicitly all its incident edges) disappears.
    RemoveNode { id: NodeId },
    /// An edge appears. `directed == false` stores `Both` entries on
    /// both endpoints; `true` stores `Out` on `src` and `In` on `dst`.
    AddEdge {
        src: NodeId,
        dst: NodeId,
        weight: f32,
        directed: bool,
    },
    /// An edge disappears.
    RemoveEdge { src: NodeId, dst: NodeId },
    /// The weight of an existing edge changes.
    SetEdgeWeight {
        src: NodeId,
        dst: NodeId,
        weight: f32,
    },
    /// Set (add or overwrite) a node attribute.
    SetNodeAttr {
        id: NodeId,
        key: String,
        value: AttrValue,
    },
    /// Remove a node attribute.
    RemoveNodeAttr { id: NodeId, key: String },
    /// Set (add or overwrite) an edge attribute.
    SetEdgeAttr {
        src: NodeId,
        dst: NodeId,
        key: String,
        value: AttrValue,
    },
    /// Remove an edge attribute.
    RemoveEdgeAttr {
        src: NodeId,
        dst: NodeId,
        key: String,
    },
}

impl EventKind {
    /// The node-ids whose state this event touches. Edge events touch
    /// both endpoints because the node-centric model stores each edge
    /// with both of them.
    pub fn touched(&self) -> (NodeId, Option<NodeId>) {
        match *self {
            EventKind::AddNode { id }
            | EventKind::RemoveNode { id }
            | EventKind::SetNodeAttr { id, .. }
            | EventKind::RemoveNodeAttr { id, .. } => (id, None),
            EventKind::AddEdge { src, dst, .. }
            | EventKind::RemoveEdge { src, dst }
            | EventKind::SetEdgeWeight { src, dst, .. }
            | EventKind::SetEdgeAttr { src, dst, .. }
            | EventKind::RemoveEdgeAttr { src, dst, .. } => (src, Some(dst)),
        }
    }

    /// Approximate in-memory footprint in bytes (same accounting as
    /// [`AttrValue::weight_bytes`]; used by the byte-budgeted read
    /// cache and the Table-1 storage reproductions).
    pub fn weight_bytes(&self) -> usize {
        match self {
            EventKind::AddNode { .. } | EventKind::RemoveNode { .. } => 9,
            EventKind::AddEdge { .. } => 21,
            EventKind::RemoveEdge { .. } => 17,
            EventKind::SetEdgeWeight { .. } => 21,
            EventKind::SetNodeAttr { key, value, .. } => 9 + key.len() + value.weight_bytes(),
            EventKind::RemoveNodeAttr { key, .. } => 9 + key.len(),
            EventKind::SetEdgeAttr { key, value, .. } => 17 + key.len() + value.weight_bytes(),
            EventKind::RemoveEdgeAttr { key, .. } => 17 + key.len(),
        }
    }
}

/// An atomic change at a specific timepoint (Example 1):
/// `∆event(c, te) = c(te) − c(te−1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub time: Time,
    pub kind: EventKind,
}

impl Event {
    pub fn new(time: Time, kind: EventKind) -> Event {
        Event { time, kind }
    }

    /// Approximate in-memory footprint in bytes (timestamp + payload).
    pub fn weight_bytes(&self) -> usize {
        8 + self.kind.weight_bytes()
    }
}

/// A chronologically sorted run of events (Example 2), optionally
/// restricted to a time scope `(ts, te]` and/or a node partition
/// (Example 3, *partitioned eventlist*).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Eventlist {
    events: Vec<Event>,
}

impl Eventlist {
    /// Empty eventlist.
    pub fn new() -> Eventlist {
        Eventlist { events: Vec::new() }
    }

    /// Build from events that are already in chronological order.
    ///
    /// # Panics
    /// In debug builds, panics if the events are out of order.
    pub fn from_sorted(events: Vec<Event>) -> Eventlist {
        debug_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        Eventlist { events }
    }

    /// Append an event; must not go back in time.
    pub fn push(&mut self, e: Event) {
        debug_assert!(self.events.last().is_none_or(|l| l.time <= e.time));
        self.events.push(e);
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Immutable view of the events.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Approximate in-memory footprint in bytes (sum of event
    /// weights), mirroring [`crate::Delta::weight_bytes`].
    pub fn weight_bytes(&self) -> usize {
        self.events.iter().map(Event::weight_bytes).sum()
    }

    /// The time range `[first, last]` covered, or `None` when empty.
    pub fn span(&self) -> Option<(Time, Time)> {
        Some((self.events.first()?.time, self.events.last()?.time))
    }

    /// Events touching a specific node (FilterById in Algorithm 2).
    pub fn filter_by_node(&self, id: NodeId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| {
            let (a, b) = e.kind.touched();
            a == id || b == Some(id)
        })
    }
}

impl FromIterator<Event> for Eventlist {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Eventlist {
        let mut events: Vec<Event> = iter.into_iter().collect();
        events.sort_by_key(|e| e.time);
        Eventlist { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Time, id: NodeId) -> Event {
        Event::new(t, EventKind::AddNode { id })
    }

    fn edge(t: Time, s: NodeId, d: NodeId) -> Event {
        Event::new(
            t,
            EventKind::AddEdge {
                src: s,
                dst: d,
                weight: 1.0,
                directed: false,
            },
        )
    }

    #[test]
    fn filter_by_node_sees_both_endpoints() {
        let el: Eventlist = vec![edge(1, 1, 2), edge(2, 3, 4), ev(3, 2)]
            .into_iter()
            .collect();
        let touching2: Vec<&Event> = el.filter_by_node(2).collect();
        assert_eq!(touching2.len(), 2);
    }

    #[test]
    fn from_iter_sorts() {
        let el: Eventlist = vec![ev(5, 1), ev(1, 2), ev(3, 3)].into_iter().collect();
        let times: Vec<Time> = el.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn span_reports_bounds() {
        let el: Eventlist = vec![ev(2, 1), ev(9, 2)].into_iter().collect();
        assert_eq!(el.span(), Some((2, 9)));
        assert_eq!(Eventlist::new().span(), None);
    }
}
