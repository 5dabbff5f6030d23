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
//! The points are read off the build's one replay of the span: each
//! per-`sid` encoder item records its own nodes' pairs going in, and
//! the pairs every event that can change their attributes drops or
//! takes on, read before and after
//! [`Delta::apply_event_in`](hgs_delta::Delta::apply_event_in) applies
//! it; `span_term_rows` merges the items' points into one row per term.
//!
//! There is no second row kind. The value history of one key on one
//! node is a node-centric history question, and like every such
//! question (§4.3, Algorithm 2) it is answered from the node's version
//! chain: [`TgiView::try_attr_history`] folds the events touching the
//! node and reads no `AttrIndex` row.
//!
//! # Failure contract
//!
//! Every index stores these rows, so a point predicate has one path:
//! `try_nodes_matching_at` reads one `(term, tsid)` row, and callers
//! such as TAF's attribute Selection always go through it. A dead
//! machine surfaces [`StoreError::Unavailable`] and a damaged row
//! surfaces [`StoreError::Corrupt`] — never a materialized snapshot in
//! its place, never a panic. Materialize-then-filter survives only as
//! the tests' oracle.
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

use bytes::BytesMut;
use hgs_delta::{
    decode_term_points, encode_term_points, matching_at, value_term, AttrValue, Attrs, Delta,
    EventKind, FxHashMap, NodeId, StaticNode, TermPoint, Time, TERM_KIND_VALUE,
};
use hgs_store::{term_key, term_token, StoreError, Table};

use crate::build::TgiView;
use crate::read_cache::{CacheKey, Cached};

/// Attribute key conventionally holding a node's label (what
/// `hgs-datagen` writes and the label sugar below reads).
pub const LABEL_KEY: &str = "EntityType";

/// The term points one span encoder item reads off its own nodes'
/// attributes, by term, each beside its place in the term's row:
/// carry points by node, then changes by the position in the span of
/// the event that made them. Each term is built into one buffer the
/// item reuses and copied out only when the item first meets it.
#[derive(Default)]
pub(crate) struct SpanTermPoints {
    points: PointsByTerm,
    term: BytesMut,
}

type PointsByTerm = FxHashMap<Vec<u8>, Vec<((bool, u64), TermPoint)>>;

/// The attribute pairs an event can change on the node it names, each
/// with the value that node held before the replay applied the event
/// (`None`: the key or the node is absent): the one key a
/// `SetNodeAttr` / `RemoveNodeAttr` names, every pair of the node a
/// `RemoveNode` removes.
pub(crate) struct Held(Vec<(String, Option<AttrValue>)>);

impl Held {
    /// What `kind`'s node holds in `state` of the pairs `kind` can
    /// change; `None` for an event that changes no node attribute.
    pub(crate) fn before(kind: &EventKind, state: &Delta) -> Option<Held> {
        let attrs = |id: &NodeId| state.node(*id).map(|n| &n.attrs);
        let pairs = match kind {
            EventKind::SetNodeAttr { id, key, .. } | EventKind::RemoveNodeAttr { id, key } => {
                vec![(key.clone(), attrs(id).and_then(|a| a.get(key)).cloned())]
            }
            EventKind::RemoveNode { id } => attrs(id)
                .into_iter()
                .flat_map(Attrs::iter)
                .map(|(k, v)| (k.to_owned(), Some(v.clone())))
                .collect(),
            _ => return None,
        };
        Some(Held(pairs))
    }
}

impl SpanTermPoints {
    fn push(&mut self, key: &str, value: &AttrValue, order: (bool, u64), point: TermPoint) {
        value_term(key, value, &mut self.term);
        match self.points.get_mut(&self.term[..]) {
            Some(points) => points.push((order, point)),
            None => {
                self.points.insert(self.term.to_vec(), vec![(order, point)]);
            }
        }
    }

    /// One carry point, stamped `span_start`, per attribute pair `node`
    /// holds going into the span.
    pub(crate) fn carry(&mut self, node: &StaticNode, span_start: Time) {
        for (k, v) in node.attrs.iter() {
            let point = TermPoint {
                time: span_start,
                nid: node.id,
                carry: true,
                became: true,
            };
            self.push(k, v, (false, node.id), point);
        }
    }

    /// The change points of the event at position `pos` of the span,
    /// at `time`, read off what node `nid` `held` before it and the
    /// node `after` it (`None`: the node is absent): for each held key
    /// whose value the event changed, a lost point for the value before
    /// and a gained one for the value after.
    pub(crate) fn change(
        &mut self,
        pos: u64,
        time: Time,
        nid: NodeId,
        held: Held,
        after: Option<&StaticNode>,
    ) {
        let point = |became| TermPoint {
            time,
            nid,
            carry: false,
            became,
        };
        for (key, before) in &held.0 {
            let now = after.and_then(|n| n.attrs.get(key));
            if before.as_ref() != now {
                for (value, became) in [(before.as_ref(), false), (now, true)] {
                    if let Some(v) = value {
                        self.push(key, v, (true, pos), point(became));
                    }
                }
            }
        }
    }
}

/// A span's secondary-index rows from every encoder item's points:
/// `(term bytes, encoded change-point row)` per term, in term-byte
/// order. Each node's points come from the one item that owns it, and
/// one event changes a term at most once, so no two points of a term
/// tie.
pub(crate) fn span_term_rows(
    items: impl IntoIterator<Item = SpanTermPoints>,
) -> Vec<(Vec<u8>, bytes::Bytes)> {
    let mut terms = PointsByTerm::default();
    for (term, points) in items.into_iter().flat_map(|item| item.points) {
        terms.entry(term).or_default().extend(points);
    }
    let mut rows: Vec<_> = terms
        .into_iter()
        .map(|(term, mut points)| {
            points.sort_unstable_by_key(|p| p.0);
            let points: Vec<TermPoint> = points.into_iter().map(|p| p.1).collect();
            (term, encode_term_points(&points))
        })
        .collect();
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    rows
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
    /// sorted, answered from one secondary-index row.
    pub fn try_nodes_matching_at(
        &self,
        key: &str,
        value: &AttrValue,
        t: Time,
    ) -> Result<Vec<NodeId>, StoreError> {
        let tsid = self.span_for(t).meta.tsid;
        let mut term = BytesMut::new();
        value_term(key, value, &mut term);
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
    use crate::meta::sid_of;
    use crate::TgiService;
    use hgs_delta::Event;

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

    /// `first` built as span 0 and `second` appended as span 1, on the
    /// default horizontal partitions, in chunks of two events.
    fn two_spans(first: &[Event], second: &[Event]) -> Arc<TgiService> {
        let cfg = crate::TgiConfig {
            events_per_timespan: 16,
            eventlist_size: 2,
            ..crate::TgiConfig::default()
        };
        let svc = TgiService::try_build(cfg, hgs_store::StoreConfig::new(2, 1), first).unwrap();
        svc.try_append_events(second).unwrap();
        assert_eq!(svc.pin().span_count(), 2);
        svc
    }

    /// The stored points of term `key == value` in span `tsid`.
    fn points(svc: &TgiService, tsid: u32, key: &str, value: &str) -> Option<Vec<TermPoint>> {
        let mut term = BytesMut::new();
        value_term(key, &AttrValue::Text(value.into()), &mut term);
        let pts = svc.pin().try_fetch_term_points(tsid, &term).unwrap();
        pts.map(|p| p.to_vec())
    }

    #[test]
    fn carry_in_and_transitions_are_self_contained() {
        let svc = two_spans(
            &[
                set(1, 7, "EntityType", "Author"),
                ev(2, EventKind::AddNode { id: 3 }),
            ],
            &[
                set(10, 7, "EntityType", "Paper"),
                set(12, 3, "EntityType", "Author"),
                ev(15, EventKind::RemoveNode { id: 7 }),
            ],
        );
        let pts = points(&svc, 1, "EntityType", "Author").expect("author term row");
        // Carry-in for node 7 at span start, lost at t=10 (re-label),
        // gained by node 3 at t=12.
        assert_eq!(matching_at(&pts, 10), vec![] as Vec<NodeId>);
        assert_eq!(matching_at(&pts, 12), vec![3]);
        assert!(pts[0].carry && pts[0].time == 10);

        let pts = points(&svc, 1, "EntityType", "Paper").expect("paper term row");
        assert_eq!(matching_at(&pts, 14), vec![7]);
        // RemoveNode clears the term.
        assert_eq!(matching_at(&pts, 15), vec![] as Vec<NodeId>);
    }

    /// The points are what the replay did to each node: re-setting the
    /// held value and removing an absent key write none, a node
    /// re-created after `RemoveNode` gets its points again, and two
    /// partitions' changes to one term at one time keep trace order —
    /// not node order, not partition order.
    #[test]
    fn change_points_follow_the_replay() {
        let ns = crate::TgiConfig::default().horizontal_partitions;
        let low = (100..).find(|&id| sid_of(id, ns) == 0).unwrap();
        let high = (low..).find(|&id| sid_of(id, ns) == ns - 1).unwrap();
        let remove_attr = |time, id, key: &str| {
            let key = key.to_string();
            ev(time, EventKind::RemoveNodeAttr { id, key })
        };
        let svc = two_spans(
            &[set(1, 5, "Grade", "A"), set(2, 6, "Grade", "A")],
            &[
                set(10, 5, "Grade", "A"),
                remove_attr(11, 6, "Color"),
                remove_attr(11, 8, "Grade"),
                ev(12, EventKind::RemoveNode { id: 5 }),
                set(13, 5, "Grade", "A"),
                set(14, high, "Grade", "A"),
                set(14, low, "Grade", "A"),
            ],
        );
        let point = |time, nid, carry, became| TermPoint {
            time,
            nid,
            carry,
            became,
        };
        assert_eq!(
            points(&svc, 1, "Grade", "A").unwrap(),
            vec![
                point(10, 5, true, true),
                point(10, 6, true, true),
                point(12, 5, false, false),
                point(13, 5, false, true),
                point(14, high, false, true),
                point(14, low, false, true),
            ]
        );
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
        let svc = two_spans(
            &[ev(1, EventKind::AddNode { id: 1 })],
            &[ev(5, EventKind::RemoveNode { id: 1 })],
        );
        let rows = svc.store().content_rows().into_iter().flatten();
        let index_rows = rows.filter(|(key, _)| key[0] == hgs_store::Table::AttrIndex.tag());
        assert_eq!(index_rows.count(), 0);
    }
}
