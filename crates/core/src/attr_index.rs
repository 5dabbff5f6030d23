//! Secondary temporal indexes: label/attribute predicate queries
//! without snapshot materialization.
//!
//! For every timespan the build emits one `AttrIndex` row per *term* —
//! an attribute `(key, value)` pair or a bare attribute key — holding
//! the sorted change points of that term within the span (see
//! [`hgs_delta::attr_index`] for the row format). Rows ride the same
//! [`hgs_store::WriteBuffer`] batches as every other span row, so
//! maintenance adds zero extra round trips; they are fetched through
//! the session read cache with exact byte accounting.
//!
//! Each row is **self-contained**: state carried in from earlier spans
//! is replayed as points stamped at the span's start time and flagged
//! `carry`. A point-in-time query therefore touches exactly one
//! `(term, tsid)` row — `O(log changes + answer)` instead of the
//! `O(snapshot)` decode of materialize-then-filter.
//!
//! # Fallback contract
//!
//! When [`TgiConfig::secondary_indexes`](crate::TgiConfig) is **off**
//! the rows do not exist and every primitive explicitly falls back to
//! snapshot materialization (`try_*_materialized`). When the index is
//! **on**, a dead machine surfaces
//! [`StoreError::Unavailable`] and a damaged row surfaces
//! [`StoreError::Corrupt`] — never a silent fallback, never a panic.
//!
//! # Semantics
//!
//! * `try_nodes_matching_at(key, value, t)` — node-ids whose attribute
//!   `key` equals `value` after applying every event with time `<= t`
//!   (the same cut rule as [`TgiView::try_snapshot`]).
//! * `try_attr_history(nid, key)` — the chronological `(time, new value)`
//!   points of `key` on `nid` over the whole history: every
//!   `SetNodeAttr` (even re-setting the same value), plus a `None`
//!   point when the attribute or its node is removed while the key is
//!   present.

use std::sync::Arc;

use hgs_delta::attr_index::{
    decode_key_points, decode_term_points, encode_key_points, encode_term_points, key_term,
    matching_at, value_term, KeyPoint, TermPoint, TERM_KIND_KEY, TERM_KIND_VALUE,
};
use hgs_delta::{AttrValue, Attrs, Delta, Event, EventKind, FxHashMap, NodeId, Time};
use hgs_store::key::{term_key, term_key_tsid, term_prefix, term_token};
use hgs_store::{StoreError, Table};

use crate::build::TgiView;
use crate::read_cache::{CacheKey, Cached};

/// Attribute key conventionally holding a node's label (what
/// `hgs-datagen` writes and the label sugar below reads).
pub const LABEL_KEY: &str = "EntityType";

/// Encoded secondary-index rows of one span, sorted by term bytes.
pub(crate) struct SpanIndexRows {
    /// `(term bytes, encoded change-point row)` per `(key, value)` term.
    pub value_rows: Vec<(Vec<u8>, bytes::Bytes)>,
    /// `(term bytes, encoded set-point row)` per bare-key term.
    pub key_rows: Vec<(Vec<u8>, bytes::Bytes)>,
}

impl SpanIndexRows {
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.value_rows.is_empty() && self.key_rows.is_empty()
    }
}

/// Collect one span's secondary-index rows: carry-in points for the
/// attribute state at span start (`state` must be the tail state
/// *before* the span's events are applied) followed by the span's
/// transitions, replayed with the same forgiving semantics as
/// [`Delta::apply_event`] (a `SetNodeAttr` on an unseen node implies
/// the node; removals of absent attributes are no-ops).
pub(crate) fn collect_span_index_rows(
    state: &Delta,
    events: &[Event],
    span_start: Time,
) -> SpanIndexRows {
    let mut cur: FxHashMap<NodeId, Attrs> = FxHashMap::default();
    let mut value_map: FxHashMap<Vec<u8>, Vec<TermPoint>> = FxHashMap::default();
    let mut key_map: FxHashMap<Vec<u8>, Vec<KeyPoint>> = FxHashMap::default();

    for node in state.iter() {
        if node.attrs.is_empty() {
            continue;
        }
        for (k, v) in node.attrs.iter() {
            value_map
                .entry(value_term(k, v))
                .or_default()
                .push(TermPoint {
                    time: span_start,
                    nid: node.id,
                    carry: true,
                    became: true,
                });
            key_map.entry(key_term(k)).or_default().push(KeyPoint {
                time: span_start,
                nid: node.id,
                carry: true,
                value: Some(v.clone()),
            });
        }
        cur.insert(node.id, node.attrs.clone());
    }
    // Carry points all share the span start time; order them by node so
    // the emitted rows do not depend on `state`'s map iteration order.
    for pts in value_map.values_mut() {
        pts.sort_unstable_by_key(|p| p.nid);
    }
    for pts in key_map.values_mut() {
        pts.sort_by_key(|p| p.nid);
    }

    for ev in events {
        match &ev.kind {
            EventKind::SetNodeAttr { id, key, value } => {
                let attrs = cur.entry(*id).or_default();
                let old = attrs.set(key.clone(), value.clone());
                if old.as_ref() != Some(value) {
                    if let Some(old) = &old {
                        value_map
                            .entry(value_term(key, old))
                            .or_default()
                            .push(TermPoint {
                                time: ev.time,
                                nid: *id,
                                carry: false,
                                became: false,
                            });
                    }
                    value_map
                        .entry(value_term(key, value))
                        .or_default()
                        .push(TermPoint {
                            time: ev.time,
                            nid: *id,
                            carry: false,
                            became: true,
                        });
                }
                key_map.entry(key_term(key)).or_default().push(KeyPoint {
                    time: ev.time,
                    nid: *id,
                    carry: false,
                    value: Some(value.clone()),
                });
            }
            EventKind::RemoveNodeAttr { id, key } => {
                if let Some(old) = cur.get_mut(id).and_then(|a| a.remove(key)) {
                    value_map
                        .entry(value_term(key, &old))
                        .or_default()
                        .push(TermPoint {
                            time: ev.time,
                            nid: *id,
                            carry: false,
                            became: false,
                        });
                    key_map.entry(key_term(key)).or_default().push(KeyPoint {
                        time: ev.time,
                        nid: *id,
                        carry: false,
                        value: None,
                    });
                }
            }
            EventKind::RemoveNode { id } => {
                if let Some(attrs) = cur.remove(id) {
                    for (k, v) in attrs.iter() {
                        value_map
                            .entry(value_term(k, v))
                            .or_default()
                            .push(TermPoint {
                                time: ev.time,
                                nid: *id,
                                carry: false,
                                became: false,
                            });
                        key_map.entry(key_term(k)).or_default().push(KeyPoint {
                            time: ev.time,
                            nid: *id,
                            carry: false,
                            value: None,
                        });
                    }
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
    let mut key_rows: Vec<(Vec<u8>, bytes::Bytes)> = key_map
        .into_iter()
        .map(|(term, pts)| (term, encode_key_points(&pts)))
        .collect();
    key_rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    SpanIndexRows {
        value_rows,
        key_rows,
    }
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
    /// on; explicit materialization fallback otherwise.
    pub fn try_nodes_matching_at(
        &self,
        key: &str,
        value: &AttrValue,
        t: Time,
    ) -> Result<Vec<NodeId>, StoreError> {
        if !self.cfg.secondary_indexes {
            return self.try_nodes_matching_at_materialized(key, value, t);
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

    /// The reference answer for [`TgiView::try_nodes_matching_at`]:
    /// materialize the full snapshot at `t` and filter. This is the
    /// documented fallback when the index is disabled, and the oracle
    /// the property suite compares against.
    pub fn try_nodes_matching_at_materialized(
        &self,
        key: &str,
        value: &AttrValue,
        t: Time,
    ) -> Result<Vec<NodeId>, StoreError> {
        let snap = self.try_snapshot(t)?;
        let mut out: Vec<NodeId> = snap
            .iter()
            .filter(|n| n.attrs.get(key) == Some(value))
            .map(|n| n.id)
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// The chronological `(time, new value)` points of attribute `key`
    /// on node `nid` over the whole indexed history (`None` = the key
    /// was cleared). One per-term prefix scan when the index is on;
    /// explicit materialization fallback otherwise.
    pub fn try_attr_history(
        &self,
        nid: NodeId,
        key: &str,
    ) -> Result<Vec<(Time, Option<AttrValue>)>, StoreError> {
        if !self.cfg.secondary_indexes {
            return self.try_attr_history_materialized(nid, key);
        }
        let term = key_term(key);
        let token = term_token(TERM_KIND_KEY, &term);
        let prefix = term_prefix(TERM_KIND_KEY, &term);
        // hgs-lint: allow(batched-store-discipline, "one prefix scan per (node, key) is the index's native access, mirroring the version-chain scan")
        let rows = self.store.scan_prefix(Table::AttrIndex, &prefix, token)?;
        let mut out = Vec::new();
        for (row_key, bytes) in rows {
            let tsid = match term_key_tsid(&row_key) {
                Some(t) => t,
                None => continue,
            };
            let ckey = CacheKey::Term(tsid, TERM_KIND_KEY, Arc::from(term.as_slice()));
            let points = match self.read_cache.get(ckey.clone()) {
                Some(Cached::KeyPoints(p)) => p,
                _ => {
                    let p = Arc::new(decode_key_points(&bytes).map_err(StoreError::Corrupt)?);
                    self.read_cache.put(ckey, Cached::KeyPoints(p.clone()));
                    p
                }
            };
            // Carry points replay state already recorded by an earlier
            // span's transitions; only genuine transitions make history.
            out.extend(
                points
                    .iter()
                    .filter(|p| !p.carry && p.nid == nid)
                    .map(|p| (p.time, p.value.clone())),
            );
        }
        Ok(out)
    }

    /// The reference answer for [`TgiView::try_attr_history`]: replay the
    /// node's full event history. Same point rule as the index, with
    /// one documented deviation: churn at time 0 collapses to the
    /// settled state at 0 (the node history's initial state already
    /// includes time-0 events).
    pub fn try_attr_history_materialized(
        &self,
        nid: NodeId,
        key: &str,
    ) -> Result<Vec<(Time, Option<AttrValue>)>, StoreError> {
        let end = self.end_time.max(1);
        let hist = self.try_node_history(nid, hgs_delta::TimeRange::new(0, end))?;
        let mut out = Vec::new();
        let mut cur: Option<AttrValue> = hist
            .initial
            .as_ref()
            .and_then(|n| n.attrs.get(key))
            .cloned();
        if let Some(v) = &cur {
            out.push((0, Some(v.clone())));
        }
        for ev in &hist.events {
            match &ev.kind {
                EventKind::SetNodeAttr { id, key: k, value } if *id == nid && k == key => {
                    out.push((ev.time, Some(value.clone())));
                    cur = Some(value.clone());
                }
                EventKind::RemoveNodeAttr { id, key: k }
                    if *id == nid && k == key && cur.take().is_some() =>
                {
                    out.push((ev.time, None));
                }
                EventKind::RemoveNode { id } if *id == nid && cur.take().is_some() => {
                    out.push((ev.time, None));
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
            .value_rows
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
            .value_rows
            .iter()
            .find(|(t, _)| t == &paper)
            .expect("paper term row");
        let pts = decode_term_points(blob).unwrap();
        assert_eq!(matching_at(&pts, 14), vec![7]);
        // RemoveNode clears the term.
        assert_eq!(matching_at(&pts, 15), vec![] as Vec<NodeId>);
    }

    #[test]
    fn key_rows_record_value_history_without_carry_duplicates() {
        let state = Delta::new();
        let events = vec![
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
        ];
        let rows = collect_span_index_rows(&state, &events, 0);
        let (_, blob) = rows
            .key_rows
            .iter()
            .find(|(t, _)| t == &key_term("Grade"))
            .expect("grade key row");
        let pts = decode_key_points(blob).unwrap();
        let hist: Vec<(Time, Option<AttrValue>)> = pts
            .iter()
            .filter(|p| !p.carry)
            .map(|p| (p.time, p.value.clone()))
            .collect();
        assert_eq!(
            hist,
            vec![
                (1, Some(AttrValue::Text("A".into()))),
                (2, Some(AttrValue::Text("A".into()))),
                (3, None),
            ]
        );
    }

    #[test]
    fn empty_span_emits_no_rows() {
        let rows = collect_span_index_rows(&Delta::new(), &[], 0);
        assert!(rows.is_empty());
    }
}
