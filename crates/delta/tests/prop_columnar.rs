//! Property-based tests for the columnar eventlist / delta codec.
//!
//! Four families:
//!  * roundtrip — encode → parse → materialize reproduces the input
//!    exactly, and the pruned accessors (`events_touching`,
//!    `node_record`) agree with filtering the full decode;
//!  * hardening — truncated or bit-flipped rows must surface
//!    `CodecError` (or decode to *something*), never panic and never
//!    attempt oversized allocations, no matter which column the
//!    corruption lands in;
//!  * shapes — the same two families over deltas whose edge-lists are
//!    drawn per *shape* (which of `dir` / weight / attributes are
//!    constant across a list): replayed random histories almost never
//!    produce the all-default list that real datasets are made of;
//!  * counts edges (plain `#[test]`s at the end) — records of no, one,
//!    a few and 300 entries and of up to five node attributes, in
//!    every shape, beside a bare node whose code the 300-entry record's
//!    Rice parameter widens, whole and as tree pieces; eventlist rows
//!    on either side of "every weighted event is the default edge";
//!  * context tables — a row encoded against a pair table that shares
//!    any subset of its pairs (and holds pairs of its own) round-trips
//!    when parsed against that table.

use std::sync::Arc;

use hgs_delta::columnar::{
    encode_columnar_delta, encode_columnar_delta_in, encode_columnar_eventlist,
    encode_columnar_eventlist_in, ColumnarDelta, ColumnarEventlist,
};
use hgs_delta::{
    AttrValue, CodecError, Delta, EdgeDir, Event, EventKind, Eventlist, Neighbor, NodeId,
    PairTable, StaticNode,
};
use proptest::prelude::*;

/// Every attribute value type, so the value column exercises all tags.
fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-100i64..100).prop_map(AttrValue::Int),
        (-4.0f64..4.0).prop_map(AttrValue::Float),
        "[a-z]{0,6}".prop_map(AttrValue::Text),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

/// Every event kind (all nine tags), small id universe so dictionary
/// interning actually dedups and re-adds/removals interact.
fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..24;
    prop_oneof![
        id.clone().prop_map(|id| EventKind::AddNode { id }),
        id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        (0u64..24, 0u64..24, 0.0f32..4.0, any::<bool>()).prop_map(
            |(src, dst, weight, directed)| EventKind::AddEdge {
                src,
                dst,
                weight,
                directed
            }
        ),
        (0u64..24, 0u64..24).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        (0u64..24, 0u64..24, 0.0f32..4.0).prop_map(|(src, dst, weight)| EventKind::SetEdgeWeight {
            src,
            dst,
            weight
        }),
        (id.clone(), "[a-c]{1,3}", arb_attr_value())
            .prop_map(|(id, key, value)| { EventKind::SetNodeAttr { id, key, value } }),
        (id.clone(), "[a-c]{1,3}").prop_map(|(id, key)| EventKind::RemoveNodeAttr { id, key }),
        (0u64..24, 0u64..24, "[a-c]{1,3}", arb_attr_value()).prop_map(|(src, dst, key, value)| {
            EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value,
            }
        }),
        (0u64..24, 0u64..24, "[a-c]{1,3}").prop_map(|(src, dst, key)| EventKind::RemoveEdgeAttr {
            src,
            dst,
            key
        }),
    ]
}

fn arb_history(max: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..4), 0..max).prop_map(|kinds| {
        let mut t = 0u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    })
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    arb_history(60).prop_map(|events| {
        let mut d = Delta::new();
        for e in &events {
            d.apply_event(&e.kind);
        }
        d
    })
}

/// One node whose edge-list has a chosen shape: 0 all-default, 1
/// all-default but one entry (which field differs is drawn too), 2
/// directed only, 3 weighted only, 4 attributes on exactly one entry,
/// 5 empty. `-0.0` rides among the weights: it must not be taken for
/// a default.
fn arb_shaped_node() -> impl Strategy<Value = StaticNode> {
    let weight = prop_oneof![Just(-0.0f32), Just(1.0f32), 0.0f32..4.0];
    (
        (0u8..6, 0usize..64, 0u8..3),
        prop::collection::btree_set(0u64..400, 1..14),
        prop::collection::vec((0u8..3, weight), 14..15),
        ("[a-c]{1,3}", arb_attr_value(), any::<bool>()),
    )
        .prop_map(
            |((shape, pick, field), nbrs, draws, (key, value, node_attr))| {
                let mut n = StaticNode::new(0);
                if node_attr {
                    n.attrs.set(key.clone(), value.clone());
                }
                if shape == 5 {
                    return n;
                }
                let pick = pick % nbrs.len();
                for (i, (nbr, (dir_tag, w))) in nbrs.into_iter().zip(draws).enumerate() {
                    let mut e = Neighbor::new(nbr, EdgeDir::Both);
                    let odd_one = i == pick;
                    if shape == 2 || (shape == 1 && odd_one && field == 0) {
                        e.dir = [EdgeDir::Out, EdgeDir::In, EdgeDir::Both][dir_tag as usize];
                    }
                    if shape == 3 || (shape == 1 && odd_one && field == 1) {
                        e.weight = w;
                    }
                    if odd_one && (shape == 4 || (shape == 1 && field == 2)) {
                        e.set_attr(key.clone(), value.clone());
                    }
                    n.insert_edge(e);
                }
                n
            },
        )
}

/// A delta of shape-biased nodes (ids 0, 3, 6, … so the hardening
/// probes of ids 0..4 hit and miss).
fn arb_shaped_delta() -> impl Strategy<Value = Delta> {
    prop::collection::vec(arb_shaped_node(), 0..8).prop_map(|nodes| {
        let mut d = Delta::new();
        for (i, mut n) in nodes.into_iter().enumerate() {
            n.id = i as u64 * 3;
            d.insert(n);
        }
        d
    })
}

/// The table of the `pairs`, then `keys`, whose bit in `mask` is set
/// (a bit past the mask is clear), and of `extra` pairs of its own.
fn table_sharing<'a>(
    pairs: &[(&'a str, &'a AttrValue)],
    keys: &[&'a str],
    mask: &[bool],
    extra: &'a [(String, AttrValue)],
) -> Arc<PairTable> {
    let kept = |i: usize| mask.get(i).copied().unwrap_or(false);
    let shared = (0..pairs.len()).filter(|&i| kept(i)).map(|i| pairs[i]);
    let own = extra.iter().map(|(k, v)| (k.as_str(), v));
    let keys = (0..keys.len())
        .filter(|&i| kept(pairs.len() + i))
        .map(|i| keys[i]);
    Arc::new(PairTable::new(shared.chain(own), keys))
}

/// Every attribute pair of `d`: each node's, then its entries'.
fn delta_pairs(d: &Delta) -> Vec<(&str, &AttrValue)> {
    let mut out = Vec::new();
    for n in d.iter() {
        out.extend(n.attrs.iter());
        for a in n.edges.iter().filter_map(|e| e.attrs.as_deref()) {
            out.extend(a.iter());
        }
    }
    out
}

/// Every pair `el`'s events set, and every key they remove.
fn eventlist_pairs(el: &Eventlist) -> (Vec<(&str, &AttrValue)>, Vec<&str>) {
    let (mut pairs, mut keys) = (Vec::new(), Vec::new());
    for e in el.events() {
        match &e.kind {
            EventKind::SetNodeAttr { key, value, .. }
            | EventKind::SetEdgeAttr { key, value, .. } => pairs.push((key.as_str(), value)),
            EventKind::RemoveNodeAttr { key, .. } | EventKind::RemoveEdgeAttr { key, .. } => {
                keys.push(key.as_str())
            }
            _ => {}
        }
    }
    (pairs, keys)
}

fn arb_extra_pairs() -> impl Strategy<Value = Vec<(String, AttrValue)>> {
    prop::collection::vec(("[a-d]{1,3}", arb_attr_value()), 0..4)
}

/// Reference filter matching the columnar pruned read: the event's
/// primary id or (when present) second id equals `nid`.
fn touches(kind: &EventKind, nid: NodeId) -> bool {
    match kind {
        EventKind::AddNode { id }
        | EventKind::RemoveNode { id }
        | EventKind::SetNodeAttr { id, .. }
        | EventKind::RemoveNodeAttr { id, .. } => *id == nid,
        EventKind::AddEdge { src, dst, .. }
        | EventKind::RemoveEdge { src, dst }
        | EventKind::SetEdgeWeight { src, dst, .. }
        | EventKind::SetEdgeAttr { src, dst, .. }
        | EventKind::RemoveEdgeAttr { src, dst, .. } => *src == nid || *dst == nid,
    }
}

/// Drive every decode path of a (possibly corrupt) eventlist row; the
/// only acceptable outcomes are `Ok` or `CodecError` — never a panic.
fn exercise_eventlist(bytes: bytes::Bytes) {
    let col = match ColumnarEventlist::parse(bytes) {
        Ok(c) => c,
        Err(_) => return,
    };
    let _ = col.to_eventlist();
    for nid in 0..4u64 {
        let _ = col.contains_node(nid);
        let _ = col.events_touching(nid);
    }
}

/// Same for a delta row.
fn exercise_delta(bytes: bytes::Bytes) {
    let col = match ColumnarDelta::parse(bytes) {
        Ok(c) => c,
        Err(_) => return,
    };
    let _ = col.to_delta();
    for nid in 0..4u64 {
        let _ = col.contains(nid);
        let _ = col.node_record(nid);
    }
}

/// Flip one bit of `bytes` at relative position `pos`.
fn flip_bit(bytes: &bytes::Bytes, pos: f64, bit: u8) -> Option<Vec<u8>> {
    let mut raw = bytes.to_vec();
    let last = raw.len().checked_sub(1)?;
    raw[(last as f64 * pos) as usize] ^= 1 << bit;
    Some(raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn eventlist_roundtrip(events in arb_history(80)) {
        let el = Eventlist::from_sorted(events);
        let bytes = encode_columnar_eventlist(&el);
        let col = ColumnarEventlist::parse(bytes).unwrap();
        prop_assert_eq!(col.n_events(), el.events().len());
        prop_assert_eq!(col.to_eventlist().unwrap(), el);
    }

    #[test]
    fn eventlist_pruned_read_matches_filtered_full_read(
        events in arb_history(80),
        nid in 0u64..26,
    ) {
        let el = Eventlist::from_sorted(events);
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        let want: Vec<Event> = el
            .events()
            .iter()
            .filter(|e| touches(&e.kind, nid))
            .cloned()
            .collect();
        prop_assert_eq!(col.contains_node(nid).unwrap(), !want.is_empty());
        prop_assert_eq!(col.events_touching(nid).unwrap(), want);
    }

    #[test]
    fn delta_roundtrip(d in arb_delta()) {
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        prop_assert_eq!(col.n_nodes(), d.cardinality());
        prop_assert_eq!(col.to_delta().unwrap(), d);
    }

    #[test]
    fn delta_point_read_matches_full_read(d in arb_delta(), nid in 0u64..26) {
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        prop_assert_eq!(col.contains(nid).unwrap(), d.node(nid).is_some());
        let got = col.node_record(nid).unwrap();
        prop_assert_eq!(got.as_ref(), d.node(nid));
    }

    #[test]
    fn truncated_eventlist_never_panics(events in arb_history(40), cut in 0.0f64..1.0) {
        let bytes = encode_columnar_eventlist(&Eventlist::from_sorted(events));
        let keep = (bytes.len() as f64 * cut) as usize;
        exercise_eventlist(bytes.slice(..keep));
    }

    #[test]
    fn bitflipped_eventlist_never_panics(
        events in arb_history(40),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = encode_columnar_eventlist(&Eventlist::from_sorted(events));
        if let Some(raw) = flip_bit(&bytes, pos, bit) {
            exercise_eventlist(bytes::Bytes::from(raw));
        }
    }

    #[test]
    fn truncated_delta_never_panics(d in arb_delta(), cut in 0.0f64..1.0) {
        let bytes = encode_columnar_delta(&d);
        let keep = (bytes.len() as f64 * cut) as usize;
        exercise_delta(bytes.slice(..keep));
    }

    #[test]
    fn bitflipped_delta_never_panics(d in arb_delta(), pos in 0.0f64..1.0, bit in 0u8..8) {
        if let Some(raw) = flip_bit(&encode_columnar_delta(&d), pos, bit) {
            exercise_delta(bytes::Bytes::from(raw));
        }
    }

    /// Corruption confined to a *payload* column must not break parsing
    /// or reads of other columns: flip a byte in the trailing half of
    /// the row (past the header + early segments) and require that the
    /// timestamp/kind columns still decode or fail cleanly.
    #[test]
    fn late_corruption_is_isolated(events in arb_history(40), pos in 0.5f64..1.0, bit in 0u8..8) {
        let bytes = encode_columnar_eventlist(&Eventlist::from_sorted(events));
        let mut raw = bytes.to_vec();
        if raw.len() < 4 {
            return Ok(());
        }
        let i = ((raw.len() - 1) as f64 * pos) as usize;
        raw[i] ^= 1 << bit;
        exercise_eventlist(bytes::Bytes::from(raw));
    }

    #[test]
    fn shaped_delta_roundtrip(d in arb_shaped_delta()) {
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        prop_assert_eq!(col.n_nodes(), d.cardinality());
        prop_assert_eq!(&col.to_delta().unwrap(), &d);
    }

    #[test]
    fn shaped_node_record_agrees_with_to_delta(d in arb_shaped_delta()) {
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        let full = col.to_delta().unwrap();
        for nid in 0..26u64 {
            let got = col.node_record(nid).unwrap();
            prop_assert_eq!(got.as_ref(), full.node(nid));
            prop_assert_eq!(got.as_ref(), d.node(nid));
        }
    }

    #[test]
    fn truncated_shaped_delta_never_panics(d in arb_shaped_delta(), cut in 0.0f64..1.0) {
        let col = encode_columnar_delta(&d);
        exercise_delta(col.slice(..(col.len() as f64 * cut) as usize));
    }

    #[test]
    fn delta_roundtrips_in_any_context(
        d in arb_delta(),
        mask in prop::collection::vec(any::<bool>(), 0..64),
        extra in arb_extra_pairs(),
    ) {
        let table = table_sharing(&delta_pairs(&d), &[], &mask, &extra);
        let col = ColumnarDelta::parse_in(encode_columnar_delta_in(&d, &table), &table).unwrap();
        prop_assert_eq!(col.to_delta().unwrap(), d.clone());
        for nid in 0..26u64 {
            let got = col.node_record(nid).unwrap();
            prop_assert_eq!(got.as_ref(), d.node(nid));
        }
    }

    #[test]
    fn shaped_delta_roundtrips_in_any_context(
        d in arb_shaped_delta(),
        mask in prop::collection::vec(any::<bool>(), 0..16),
        extra in arb_extra_pairs(),
    ) {
        let table = table_sharing(&delta_pairs(&d), &[], &mask, &extra);
        let col = ColumnarDelta::parse_in(encode_columnar_delta_in(&d, &table), &table).unwrap();
        prop_assert_eq!(&col.to_delta().unwrap(), &d);
    }

    #[test]
    fn eventlist_roundtrips_in_any_context(
        events in arb_history(80),
        mask in prop::collection::vec(any::<bool>(), 0..64),
        extra in arb_extra_pairs(),
    ) {
        let el = Eventlist::from_sorted(events);
        let (pairs, keys) = eventlist_pairs(&el);
        let table = table_sharing(&pairs, &keys, &mask, &extra);
        let row = encode_columnar_eventlist_in(&el, &table);
        let col = ColumnarEventlist::parse_in(row.clone(), &table).unwrap();
        prop_assert_eq!(col.to_eventlist().unwrap(), el.clone());
        for nid in 0..26u64 {
            let want: Vec<Event> = el.filter_by_node(nid).cloned().collect();
            let col = ColumnarEventlist::parse_in(row.clone(), &table).unwrap();
            prop_assert_eq!(col.events_touching(nid).unwrap(), want);
        }
    }

    #[test]
    fn bitflipped_shaped_delta_never_panics(
        d in arb_shaped_delta(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        if let Some(raw) = flip_bit(&encode_columnar_delta(&d), pos, bit) {
            exercise_delta(bytes::Bytes::from(raw));
        }
    }
}

/// Node 5 with `n_edges` entries in `shape` (0 default, 1 one entry
/// weighted, 2 entries pointing `In` / `Out`, 3 one entry attributed)
/// and `n_attrs` node attributes.
fn edge_case_node(n_edges: usize, n_attrs: usize, shape: u8) -> StaticNode {
    let mut n = StaticNode::new(5);
    for i in 0..n_edges {
        let mut e = Neighbor::new(10 + 3 * i as u64, EdgeDir::Both);
        match shape {
            1 if i == n_edges / 2 => e.weight = 2.5,
            2 => e.dir = [EdgeDir::In, EdgeDir::Out][i % 2],
            3 if i == n_edges - 1 => e.set_attr("since", AttrValue::Int(1999)),
            _ => {}
        }
        n.insert_edge(e);
    }
    for i in 0..n_attrs {
        n.attrs.set(format!("k{i}"), AttrValue::Int(i as i64));
    }
    n
}

/// Split a description into two tree pieces: alternate entries, and
/// the attribute pairs cut in half.
fn split_in_two(n: &StaticNode) -> [StaticNode; 2] {
    let mut pieces = [StaticNode::new(n.id), StaticNode::new(n.id)];
    for (i, e) in n.edges.iter().enumerate() {
        pieces[i % 2].insert_edge(e.clone());
    }
    for (i, (k, v)) in n.attrs.iter().enumerate() {
        pieces[(2 * i >= n.attrs.len()) as usize]
            .attrs
            .set(k.to_owned(), v.clone());
    }
    pieces
}

fn row_of(n: &StaticNode) -> ColumnarDelta {
    let d: Delta = [n.clone(), StaticNode::new(900)].into_iter().collect();
    ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap()
}

#[test]
fn records_round_trip_whatever_their_counts_and_shape() {
    for n_edges in [0usize, 1, 6, 7, 8, 300] {
        for n_attrs in [0usize, 2, 3, 5] {
            for shape in 0u8..4 {
                let case = format!("{n_edges} edges, {n_attrs} attrs, shape {shape}");
                let node = edge_case_node(n_edges, n_attrs, shape);
                let whole: Delta = [node.clone(), StaticNode::new(900)].into_iter().collect();

                // Whole, through the full read and the point read.
                let col = row_of(&node);
                assert_eq!(col.to_delta().unwrap(), whole, "{case}");
                assert_eq!(col.node_record(5).unwrap().as_ref(), Some(&node), "{case}");

                // As two pieces, summed in either order, row-wide and
                // node-scoped.
                let pieces = split_in_two(&node);
                for order in [[0usize, 1], [1, 0]] {
                    let (mut state, mut one) = (Delta::new(), Delta::new());
                    for i in order {
                        let row = row_of(&pieces[i]);
                        row.sum_into(&mut state, None).unwrap();
                        row.sum_node_into(5, &mut one).unwrap();
                    }
                    assert_eq!(state, whole, "{case}, order {order:?}");
                    assert_eq!(one.node(5), Some(&node), "{case}, order {order:?}");
                }

                // A piece applied twice repeats its components.
                for piece in pieces.iter().filter(|p| p.degree() + p.attrs.len() > 0) {
                    let row = row_of(piece);
                    let mut state = Delta::new();
                    row.sum_into(&mut state, None).unwrap();
                    assert_eq!(
                        row.sum_into(&mut state, None),
                        Err(CodecError::RepeatedComponent { node: 5 }),
                        "{case}"
                    );
                    let mut one = Delta::new();
                    row.sum_node_into(5, &mut one).unwrap();
                    assert_eq!(
                        row.sum_node_into(5, &mut one),
                        Err(CodecError::RepeatedComponent { node: 5 }),
                        "{case}"
                    );
                }
            }
        }
    }
}

#[test]
fn eventlist_rows_keep_their_weights_column_unless_every_edge_is_the_default() {
    let add = |t: u64, weight: f32, directed: bool| {
        Event::new(
            t,
            EventKind::AddEdge {
                src: t,
                dst: t + 1,
                weight,
                directed,
            },
        )
    };
    let plain: Vec<Event> = (0..40).map(|t| add(t, 1.0, false)).collect();
    let raw_len = |events: &[Event]| {
        let el = Eventlist::from_sorted(events.to_vec());
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        assert_eq!(col.to_eventlist().unwrap(), el);
        for nid in [0u64, 7, 40, 41] {
            let want: Vec<Event> = el.filter_by_node(nid).cloned().collect();
            assert_eq!(col.events_touching(nid).unwrap(), want);
        }
        col.raw_len_total()
    };
    let unspelled = raw_len(&plain);

    // One non-unit weight among unit ones, or one directed edge: the
    // column is back, an entry of five bytes for each of the 40 edges.
    for odd in [add(7, 0.5, false), add(7, 1.0, true)] {
        let mut mixed = plain.clone();
        mixed[7] = odd;
        assert_eq!(raw_len(&mixed), unspelled + 40 * 5);
    }

    // A `SetEdgeWeight` carries a weight of its own: the row with one
    // spells all 41 entries (the event itself adds its codes — a time
    // gap, a second kind with a one-bit code for each event, two
    // dictionary indexes — under ten bytes).
    let mut reweighted = plain.clone();
    reweighted.push(Event::new(
        40,
        EventKind::SetEdgeWeight {
            src: 7,
            dst: 8,
            weight: 1.0,
        },
    ));
    let codes = raw_len(&reweighted) - (unspelled + 41 * 5);
    assert!((1..10).contains(&codes), "{codes} bytes of codes");
}
