//! Secondary temporal index: label/attribute predicate queries without
//! snapshot materialization.
//!
//! For every timespan the build emits one `AttrIndex` row per *term* —
//! an attribute `(key, value)` pair — holding the sorted change points
//! of that term within the span (see [`hgs_delta::attr_index`] for the
//! row format). Rows ride the same [`hgs_store::WriteBuffer`] batches
//! as every other span row, so maintenance adds zero extra round trips;
//! they are fetched through the session read cache with exact byte
//! accounting.
//!
//! Each row is **self-contained**: state carried in from earlier spans
//! is replayed as points stamped at the span's start time and flagged
//! `carry`. A point-in-time query therefore touches exactly one
//! `(term, tsid)` row — `O(log changes + answer)` instead of the
//! `O(snapshot)` decode of materialize-then-filter.
//!
//! There is no second row kind. The value history of one key on one
//! node is a node-centric history question, and like every such
//! question (§4.3, Algorithm 2) it is answered from the node's version
//! chain: [`TgiView::try_attr_history`] folds the events touching the
//! node and reads no `AttrIndex` row.
//!
//! # Fallback contract
//!
//! The contract covers the point predicates only. When
//! [`TgiConfig::secondary_indexes`](crate::TgiConfig) is **off** the
//! rows do not exist and `try_nodes_matching_at` explicitly falls back
//! to materializing the snapshot at `t` and filtering it. This module
//! is the one reader that asks whether the index exists: callers such
//! as TAF's attribute Selection always go through
//! `try_nodes_matching_at`.
//! When the index is **on**, a dead machine surfaces
//! [`StoreError::Unavailable`] and a damaged row surfaces
//! [`StoreError::Corrupt`] — never a silent fallback, never a panic.
//!
//! # Semantics
//!
//! * `try_nodes_matching_at(key, value, t)` — node-ids whose attribute
//!   `key` equals `value` after applying every event with time `<= t`
//!   (the same cut rule as [`TgiView::try_snapshot`]).
//! * `try_attr_history(nid, key)` — the `(time, new value)` points of
//!   `key` on `nid` over the whole history, time 0 included, in trace
//!   order: every `SetNodeAttr` (even re-setting the same value), plus
//!   a `None` point when the attribute or its node is removed while the
//!   key is present.

use std::sync::Arc;

use hgs_delta::{
    decode_term_points, encode_term_points, matching_at, value_term, AttrValue, Attrs, Delta,
    Event, EventKind, FxHashMap, NodeId, TermPoint, Time, TERM_KIND_VALUE,
};
use hgs_store::{term_key, term_token, StoreError, Table};

use crate::build::TgiView;
use crate::read_cache::{CacheKey, Cached};

/// Attribute key conventionally holding a node's label (what
/// `hgs-datagen` writes and the label sugar below reads).
pub const LABEL_KEY: &str = "EntityType";

/// Collect one span's secondary-index rows — `(term bytes, encoded
/// change-point row)` per `(key, value)` term, sorted by term bytes:
/// carry-in points for the attribute state at span start (`state` must
/// be the tail state *before* the span's events are applied) followed
/// by the span's transitions, replayed with the same forgiving
/// semantics as [`Delta::apply_event`] (a `SetNodeAttr` on an unseen
/// node implies the node; removals of absent attributes are no-ops).
/// Only the attributes of nodes the span's events touch are copied
/// out of `state`.
pub(crate) fn collect_span_index_rows(
    state: &Delta,
    events: &[Event],
    span_start: Time,
) -> Vec<(Vec<u8>, bytes::Bytes)> {
    let mut value_map: FxHashMap<Vec<u8>, Vec<TermPoint>> = FxHashMap::default();
    fn push(
        value_map: &mut FxHashMap<Vec<u8>, Vec<TermPoint>>,
        key: &str,
        value: &AttrValue,
        point: TermPoint,
    ) {
        value_map
            .entry(value_term(key, value))
            .or_default()
            .push(point);
    }

    for node in state.iter() {
        for (k, v) in node.attrs.iter() {
            let point = TermPoint {
                time: span_start,
                nid: node.id,
                carry: true,
                became: true,
            };
            push(&mut value_map, k, v, point);
        }
    }
    // Carry points all share the span start time; order them by node so
    // the emitted rows do not depend on `state`'s map iteration order.
    for pts in value_map.values_mut() {
        pts.sort_unstable_by_key(|p| p.nid);
    }

    // The attributes of each node an event touches, as of that event.
    let mut cur: FxHashMap<NodeId, Attrs> = FxHashMap::default();
    fn attrs_of<'c>(
        cur: &'c mut FxHashMap<NodeId, Attrs>,
        state: &Delta,
        id: NodeId,
    ) -> &'c mut Attrs {
        cur.entry(id)
            .or_insert_with(|| state.node(id).map(|n| n.attrs.clone()).unwrap_or_default())
    }
    for ev in events {
        let change = |nid: NodeId, became: bool| TermPoint {
            time: ev.time,
            nid,
            carry: false,
            became,
        };
        match &ev.kind {
            EventKind::SetNodeAttr { id, key, value } => {
                let old = attrs_of(&mut cur, state, *id).set(key.clone(), value.clone());
                if old.as_ref() != Some(value) {
                    if let Some(old) = &old {
                        push(&mut value_map, key, old, change(*id, false));
                    }
                    push(&mut value_map, key, value, change(*id, true));
                }
            }
            EventKind::RemoveNodeAttr { id, key } => {
                if let Some(old) = attrs_of(&mut cur, state, *id).remove(key) {
                    push(&mut value_map, key, &old, change(*id, false));
                }
            }
            EventKind::RemoveNode { id } => {
                for (k, v) in std::mem::take(attrs_of(&mut cur, state, *id)).iter() {
                    push(&mut value_map, k, v, change(*id, false));
                }
            }
            _ => {}
        }
    }

    let mut value_rows: Vec<(Vec<u8>, bytes::Bytes)> = value_map
        .into_iter()
        .map(|(term, pts)| (term, encode_term_points(&pts)))
        .collect();
    value_rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    value_rows
}

impl TgiView {
    /// Fetch (through the read cache) the value-term row of one
    /// `(term, tsid)`. `Ok(None)` means the row is legitimately absent
    /// — the term never held within (or going into) that span.
    fn try_fetch_term_points(
        &self,
        tsid: u32,
        term: &[u8],
    ) -> Result<Option<Arc<Vec<TermPoint>>>, StoreError> {
        let ckey = CacheKey::Term(tsid, TERM_KIND_VALUE, Arc::from(term));
        match self.read_cache.get(ckey.clone()) {
            Some(Cached::TermPoints(p)) => return Ok(Some(p)),
            Some(Cached::Absent) => return Ok(None),
            _ => {}
        }
        let key = term_key(TERM_KIND_VALUE, term, tsid);
        let token = term_token(TERM_KIND_VALUE, term);
        let mut rows = self.store.multi_get(Table::AttrIndex, &[&key], token)?;
        match rows.pop().flatten() {
            Some(bytes) => {
                let pts = Arc::new(decode_term_points(&bytes).map_err(StoreError::Corrupt)?);
                self.read_cache.put(ckey, Cached::TermPoints(pts.clone()));
                Ok(Some(pts))
            }
            None => {
                self.read_cache.put(ckey, Cached::Absent);
                Ok(None)
            }
        }
    }

    /// Node-ids whose attribute `key` equals `value` at time `t`,
    /// sorted. Answered from one secondary-index row when the index is
    /// on; with it off, the snapshot at `t` is materialized and
    /// filtered.
    pub fn try_nodes_matching_at(
        &self,
        key: &str,
        value: &AttrValue,
        t: Time,
    ) -> Result<Vec<NodeId>, StoreError> {
        if !self.cfg.secondary_indexes {
            let mut out: Vec<NodeId> = self
                .try_snapshot(t)?
                .iter()
                .filter(|n| n.attrs.get(key) == Some(value))
                .map(|n| n.id)
                .collect();
            out.sort_unstable();
            return Ok(out);
        }
        let tsid = self.span_for(t).meta.tsid;
        let term = value_term(key, value);
        match self.try_fetch_term_points(tsid, &term)? {
            Some(points) => Ok(matching_at(&points, t)),
            None => Ok(Vec::new()),
        }
    }

    /// Node-ids labelled `label` (attribute [`LABEL_KEY`]) at time `t`.
    pub fn try_nodes_with_label_at(&self, label: &str, t: Time) -> Result<Vec<NodeId>, StoreError> {
        self.try_nodes_matching_at(LABEL_KEY, &AttrValue::Text(label.to_string()), t)
    }

    /// The `(time, new value)` points of attribute `key` on node `nid`
    /// over the whole indexed history, in trace order (`None` = the key
    /// was cleared): a fold over the events touching the node, located
    /// through its version chain like any node history — no secondary
    /// index row is read, and a pinned view sees its own spans only.
    pub fn try_attr_history(
        &self,
        nid: NodeId,
        key: &str,
    ) -> Result<Vec<(Time, Option<AttrValue>)>, StoreError> {
        let mut out = Vec::new();
        let mut present = false;
        for ev in self.node_events(nid, None, Time::MAX)? {
            match ev.kind {
                EventKind::SetNodeAttr { id, key: k, value } if id == nid && k == key => {
                    out.push((ev.time, Some(value)));
                    present = true;
                }
                EventKind::RemoveNodeAttr { id, key: k } if id == nid && k == key && present => {
                    out.push((ev.time, None));
                    present = false;
                }
                EventKind::RemoveNode { id } if id == nid && present => {
                    out.push((ev.time, None));
                    present = false;
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::StaticNode;

    fn ev(time: Time, kind: EventKind) -> Event {
        Event { time, kind }
    }

    fn set(time: Time, id: NodeId, key: &str, value: &str) -> Event {
        ev(
            time,
            EventKind::SetNodeAttr {
                id,
                key: key.to_string(),
                value: AttrValue::Text(value.to_string()),
            },
        )
    }

    #[test]
    fn carry_in_and_transitions_are_self_contained() {
        let mut state = Delta::new();
        let mut n = StaticNode::new(7);
        n.attrs.set("EntityType", AttrValue::Text("Author".into()));
        state.insert(n);

        let events = vec![
            set(10, 7, "EntityType", "Paper"),
            set(12, 3, "EntityType", "Author"),
            ev(15, EventKind::RemoveNode { id: 7 }),
        ];
        let rows = collect_span_index_rows(&state, &events, 10);
        let author = value_term("EntityType", &AttrValue::Text("Author".into()));
        let (_, blob) = rows
            .iter()
            .find(|(t, _)| t == &author)
            .expect("author term row");
        let pts = decode_term_points(blob).unwrap();
        // Carry-in for node 7 at span start, lost at t=10 (re-label),
        // gained by node 3 at t=12.
        assert_eq!(matching_at(&pts, 10), vec![] as Vec<NodeId>);
        assert_eq!(matching_at(&pts, 12), vec![3]);
        assert!(pts[0].carry && pts[0].time == 10);

        let paper = value_term("EntityType", &AttrValue::Text("Paper".into()));
        let (_, blob) = rows
            .iter()
            .find(|(t, _)| t == &paper)
            .expect("paper term row");
        let pts = decode_term_points(blob).unwrap();
        assert_eq!(matching_at(&pts, 14), vec![7]);
        // RemoveNode clears the term.
        assert_eq!(matching_at(&pts, 15), vec![] as Vec<NodeId>);
    }

    /// What the bare-key rows once recorded, answered from the events
    /// touching the node: a re-set of the same value is still a point,
    /// a second clear is not, and nothing is carried across spans.
    #[test]
    fn attr_history_folds_the_events_without_carry_duplicates() {
        let events = vec![
            set(0, 5, "Grade", "C"), // time 0 is a point like any other
            set(1, 5, "Grade", "A"),
            set(2, 5, "Grade", "A"), // re-set same value: still a point
            ev(
                3,
                EventKind::RemoveNodeAttr {
                    id: 5,
                    key: "Grade".into(),
                },
            ),
            ev(
                4,
                EventKind::RemoveNodeAttr {
                    id: 5,
                    key: "Grade".into(),
                },
            ), // double-remove: no-op
            set(5, 5, "Grade", "B"),
            set(5, 6, "Grade", "B"),
            ev(6, EventKind::RemoveNode { id: 5 }),
        ];
        // Two events per span: the value set at 5 is carried into the
        // last span and must not show twice.
        let cfg = crate::TgiConfig {
            events_per_timespan: 2,
            eventlist_size: 1,
            ..crate::TgiConfig::default()
        };
        let tgi = crate::TgiService::try_build(cfg, hgs_store::StoreConfig::new(2, 1), &events)
            .unwrap()
            .pin();
        let text = |v: &str| Some(AttrValue::Text(v.into()));
        assert_eq!(
            tgi.try_attr_history(5, "Grade").unwrap(),
            vec![
                (0, text("C")),
                (1, text("A")),
                (2, text("A")),
                (3, None),
                (5, text("B")),
                (6, None),
            ]
        );
        assert_eq!(
            tgi.try_attr_history(6, "Grade").unwrap(),
            vec![(5, text("B"))]
        );
        assert!(tgi.try_attr_history(5, LABEL_KEY).unwrap().is_empty());
    }

    #[test]
    fn empty_span_emits_no_rows() {
        let rows = collect_span_index_rows(&Delta::new(), &[], 0);
        assert!(rows.is_empty());
    }
}
