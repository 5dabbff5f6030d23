//! Decoder fuzz for the bit-coded index rows: columnar eventlist rows
//! and `AttrIndex` term rows.
//!
//! Every case starts from an encoded row and tries it five ways:
//! unchanged, with one byte replaced, with bytes inserted, truncated,
//! and replaced by arbitrary bytes. An eventlist row is mutated either
//! as a whole or — so that the column decoders, not just the header
//! parser, see the damage — inside one of its segments, with the
//! header re-spelled to fit. The properties:
//!
//! * decoding never panics, and never answers more events or points
//!   than the input has bits for; a count the row cannot hold is
//!   refused before anything is allocated for it (the hostile-count
//!   cases at the end would otherwise ask for tens of gigabytes);
//! * an answer is never out of order: accumulated times and node ids
//!   use checked adds;
//! * the two eventlist decoders agree: on a row `to_eventlist`
//!   accepts, `events_touching(n)` answers exactly its events touching
//!   `n`, for every node — so a row `events_touching` refuses,
//!   `to_eventlist` refuses too. (The pruned read decodes a payload
//!   column only when one of `n`'s events carries that payload, so on
//!   a row `to_eventlist` refuses it may still answer.)
//! * unchanged rows round-trip exactly.
//!
//! The attribute dictionary gets cases of its own: replaced by
//! arbitrary bytes, or followed by them, it is read or refused and
//! never panics (a dictionary with bytes after its last value is always
//! refused); and a key or value index past its dictionary, a keyed
//! event beside an empty dictionary and a trailing dictionary byte are
//! each refused by both decoders. Rows of the retired magics are
//! refused by name.
//!
//! Every eventlist case is encoded and read in one of two contexts,
//! drawn per case: the empty pair table of a row encoded by itself, or
//! a table that shares some of the row's keys and values and holds
//! others of its own (an index span's, whose rows name what it has by
//! its id and spell the rest in their own dictionary).
//!
//! Each suite prints its Ok/Err split per mutation (`--nocapture`).
//! Cases: `PROPTEST_CASES`, default 256.

mod common;

use bytes::{BufMut, Bytes, BytesMut};
use common::{
    arb_attr_value, arb_mutation, arb_node, for_cases, mutate, Mutation, RowSegments, Split,
};
use hgs_delta::attr_index::{decode_term_points, encode_term_points, TermPoint};
use hgs_delta::codec::put_varint;
use std::sync::Arc;

use hgs_delta::columnar::{encode_columnar_eventlist, encode_columnar_eventlist_in};
use hgs_delta::{
    AttrValue, CodecError, ColumnarEventlist, Event, EventKind, Eventlist, NodeId, PairTable,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// inputs
// ----------------------------------------------------------------------

/// Every event kind, edges mostly the default one (the rows datasets
/// are made of spell no weights column).
fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let weight = prop_oneof![3 => Just(1.0f32), 1 => 0.0f32..4.0];
    prop_oneof![
        1 => arb_node().prop_map(|id| EventKind::AddNode { id }),
        1 => arb_node().prop_map(|id| EventKind::RemoveNode { id }),
        4 => (arb_node(), arb_node(), weight, prop_oneof![3 => Just(false), 1 => Just(true)])
            .prop_map(|(src, dst, weight, directed)| EventKind::AddEdge {
                src,
                dst,
                weight,
                directed,
            }),
        1 => (arb_node(), arb_node()).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        1 => (arb_node(), arb_node(), 0.0f32..4.0)
            .prop_map(|(src, dst, weight)| EventKind::SetEdgeWeight { src, dst, weight }),
        1 => (arb_node(), "[a-c]{1,3}", arb_attr_value())
            .prop_map(|(id, key, value)| EventKind::SetNodeAttr { id, key, value }),
        1 => (arb_node(), "[a-c]{1,3}").prop_map(|(id, key)| EventKind::RemoveNodeAttr { id, key }),
        1 => (arb_node(), arb_node(), "[a-c]{1,3}", arb_attr_value()).prop_map(
            |(src, dst, key, value)| EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value,
            }
        ),
        1 => (arb_node(), arb_node(), "[a-c]{1,3}")
            .prop_map(|(src, dst, key)| EventKind::RemoveEdgeAttr { src, dst, key }),
    ]
}

/// A history whose time gaps are mostly small, sometimes huge.
fn arb_eventlist() -> impl Strategy<Value = Eventlist> {
    let gap = prop_oneof![6 => 0u64..4, 1 => 0u64..1 << 30];
    (
        prop_oneof![0u64..1000, 0u64..1 << 50],
        prop::collection::vec((arb_event_kind(), gap), 0..60),
    )
        .prop_map(|(start, kinds)| {
            let mut t = start;
            Eventlist::from_sorted(
                kinds
                    .into_iter()
                    .map(|(kind, gap)| {
                        t += gap;
                        Event::new(t, kind)
                    })
                    .collect(),
            )
        })
}

/// A term row as the build writes one: carry points at the span
/// start, in node order, then change points in time order.
fn arb_term_points() -> impl Strategy<Value = Vec<TermPoint>> {
    (
        prop_oneof![0u64..1000, 0u64..1 << 50],
        prop::collection::btree_set(arb_node(), 0..30),
        prop::collection::vec(
            (
                prop_oneof![3 => 0u64..3, 1 => 0u64..1 << 30],
                arb_node(),
                any::<bool>(),
            ),
            0..30,
        ),
    )
        .prop_map(|(start, carry, changes)| {
            let mut points: Vec<TermPoint> = carry
                .into_iter()
                .map(|nid| TermPoint {
                    time: start,
                    nid,
                    carry: true,
                    became: true,
                })
                .collect();
            let mut t = start;
            for (gap, nid, became) in changes {
                t += gap;
                points.push(TermPoint {
                    time: t,
                    nid,
                    carry: false,
                    became,
                });
            }
            points
        })
}

// ----------------------------------------------------------------------
// eventlist rows
// ----------------------------------------------------------------------

fn touches(kind: &EventKind, nid: NodeId) -> bool {
    let (a, b) = kind.touched();
    a == nid || b == Some(nid)
}

/// A context table sharing some of `el`'s keys and values — those its
/// events on even nodes set or remove — beside a pair and a key of its
/// own; or, without `shared`, the empty table.
fn context(el: &Eventlist, shared: bool) -> Arc<PairTable> {
    if !shared {
        return Arc::default();
    }
    let foreign = AttrValue::Int(-99);
    let mut pairs: Vec<(&str, &AttrValue)> = vec![("zz", &foreign)];
    let mut keys = vec!["zy"];
    for e in el.events().iter().filter(|e| e.kind.touched().0 % 2 == 0) {
        match &e.kind {
            EventKind::SetNodeAttr { key, value, .. }
            | EventKind::SetEdgeAttr { key, value, .. } => pairs.push((key, value)),
            EventKind::RemoveNodeAttr { key, .. } | EventKind::RemoveEdgeAttr { key, .. } => {
                keys.push(key)
            }
            _ => {}
        }
    }
    Arc::new(PairTable::new(pairs, keys))
}

/// Hold both decoders of `row`, in the context of `table`, to the
/// properties in the module docs, probing the nodes of `original` and
/// of whatever the row decodes to. Returns whether `to_eventlist`
/// accepted the row.
fn check_eventlist_row(
    row: Bytes,
    table: &Arc<PairTable>,
    original: &Eventlist,
) -> Result<bool, TestCaseError> {
    let parse = || ColumnarEventlist::parse_in(row.clone(), table);
    let Ok(col) = parse() else {
        return Ok(false);
    };
    // A refusal needs no more checking: the pruned reads of a row the
    // full read refuses may answer or refuse.
    let Ok(el) = col.to_eventlist() else {
        return Ok(false);
    };
    prop_assert!(el.len() <= 8 * row.len() + 1, "{} events", el.len());
    let times: Vec<u64> = el.events().iter().map(|e| e.time).collect();
    prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "out of order");
    let mut probes: Vec<NodeId> = (0..4).collect();
    for e in original.events().iter().chain(el.events()) {
        let (a, b) = e.kind.touched();
        probes.push(a);
        probes.extend(b);
    }
    probes.sort_unstable();
    probes.dedup();
    for nid in probes {
        // A fresh parse: no column memoized by the full read.
        let got = parse().and_then(|c| c.events_touching(nid));
        let want: Vec<Event> = el
            .events()
            .iter()
            .filter(|e| touches(&e.kind, nid))
            .cloned()
            .collect();
        prop_assert_eq!(got, Ok(want), "node {}", nid);
    }
    Ok(true)
}

#[test]
fn eventlist_rows_decode_or_refuse_and_both_decoders_agree() {
    let mut split = Split::default();
    for_cases(
        "prop_eventlist_rows::eventlist",
        (arb_eventlist(), arb_mutation(), 0.0f64..1.0, any::<bool>()),
        |(el, m, where_, shared), rng| {
            let table = context(&el, shared);
            let row = encode_columnar_eventlist_in(&el, &table);
            let mutated = if m == Mutation::Unchanged {
                row.clone()
            } else if where_ < 0.25 {
                Bytes::from(mutate(m, &row, rng))
            } else {
                let mut parts = RowSegments::parse(&row);
                let i = rng.below(parts.segs.len() as u64) as usize;
                parts.segs[i] = mutate(m, &parts.segs[i], rng);
                parts.assemble()
            };
            let ok =
                check_eventlist_row(mutated, &table, &el).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            if m == Mutation::Unchanged {
                let col = ColumnarEventlist::parse_in(row, &table).unwrap();
                assert_eq!(col.to_eventlist().unwrap(), el, "round trip");
            }
            split.record(m, ok);
        },
    );
    split.print("eventlist rows");
}

// ----------------------------------------------------------------------
// the attribute dictionary
// ----------------------------------------------------------------------

/// Where an eventlist row keeps its attribute dictionary and its key
/// and value index columns.
const DICT: usize = 5;
const ATTR_KEYS: usize = 6;
const ATTR_VALS: usize = 7;

/// Both decoders refuse `row`, in the context of `table`: the full
/// read, and the pruned read of each of `nodes`.
fn both_decoders_refuse(row: Bytes, table: &Arc<PairTable>, nodes: &[NodeId], what: &str) {
    let col = || ColumnarEventlist::parse_in(row.clone(), table).expect("a well-formed header");
    assert!(col().to_eventlist().is_err(), "{what}: to_eventlist");
    for &nid in nodes {
        assert!(
            col().events_touching(nid).is_err(),
            "{what}: events_touching({nid})"
        );
    }
}

/// The nodes whose events name an attribute key.
fn keyed_nodes(el: &Eventlist) -> Vec<NodeId> {
    el.events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SetNodeAttr { .. }
                    | EventKind::RemoveNodeAttr { .. }
                    | EventKind::SetEdgeAttr { .. }
                    | EventKind::RemoveEdgeAttr { .. }
            )
        })
        .map(|e| e.kind.touched().0)
        .collect()
}

#[test]
fn arbitrary_attribute_dictionaries_are_read_or_refused() {
    let mut split = Split::default();
    for_cases(
        "prop_eventlist_rows::dict",
        (
            arb_eventlist(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 1..48),
            any::<bool>(),
        ),
        |(el, append, bytes, shared), _rng| {
            let table = context(&el, shared);
            let row = encode_columnar_eventlist_in(&el, &table);
            let mut parts = RowSegments::parse(&row);
            let had_dict = !parts.segs[DICT].is_empty();
            if append {
                parts.segs[DICT].extend_from_slice(&bytes);
            } else {
                parts.segs[DICT] = bytes;
            }
            let mutated = parts.assemble();
            let ok = check_eventlist_row(mutated.clone(), &table, &el)
                .unwrap_or_else(|e| panic!("dictionary case: {e}"));
            if append && had_dict {
                let nodes = keyed_nodes(&el);
                both_decoders_refuse(mutated, &table, &nodes, "trailing dictionary bytes");
            }
            let m = if append {
                Mutation::Inserted
            } else {
                Mutation::Arbitrary
            };
            split.record(m, ok);
        },
    );
    split.print("attribute dictionaries");
}

#[test]
fn dictionary_indexes_past_their_dictionary_are_refused() {
    // Three nodes setting three keys to three values: two-bit key and
    // value indexes, of which `3` names nothing.
    let el = Eventlist::from_sorted(
        [(1u64, "a", 1i64), (2, "b", 2), (3, "c", 3)]
            .into_iter()
            .map(|(id, key, v)| {
                let kind = EventKind::SetNodeAttr {
                    id,
                    key: key.into(),
                    value: AttrValue::Int(v),
                };
                Event::new(id, kind)
            })
            .collect(),
    );
    let row = encode_columnar_eventlist(&el);
    let parts = RowSegments::parse(&row);
    // Keys `a`, `b`, `c`; values `Int 1, 2, 3` (tag 0, zigzag varint).
    let dict = vec![3, 1, b'a', 1, b'b', 1, b'c', 3, 0, 2, 0, 4, 0, 6];
    assert_eq!(parts.segs[DICT], dict);
    // Indexes 0, 1, 2 of two bits each, least-significant first.
    assert_eq!(parts.segs[ATTR_KEYS], vec![0b10_01_00]);
    assert_eq!(parts.segs[ATTR_VALS], vec![0b10_01_00]);
    let nodes = [1, 2, 3];
    let empty = Arc::default();

    let with = |dict: &[u8], keys: &[u8], vals: &[u8]| {
        let mut p = RowSegments::parse(&row);
        p.segs[DICT] = dict.to_vec();
        p.segs[ATTR_KEYS] = keys.to_vec();
        p.segs[ATTR_VALS] = vals.to_vec();
        p.assemble()
    };
    let past = 0b11_01_00;
    let keys_past = with(&dict, &[past], &[0b10_01_00]);
    both_decoders_refuse(keys_past, &empty, &nodes, "key index");
    let vals_past = with(&dict, &[0b10_01_00], &[past]);
    both_decoders_refuse(vals_past, &empty, &nodes, "value index");
    // Keyed events beside an empty dictionary: every index is zero
    // bits long, and names nothing.
    both_decoders_refuse(with(&[], &[], &[]), &empty, &nodes, "empty dictionary");
    let mut trailing = dict.clone();
    trailing.push(0);
    both_decoders_refuse(
        with(&trailing, &[0b10_01_00], &[0b10_01_00]),
        &empty,
        &nodes,
        "trailing byte",
    );
    let col = ColumnarEventlist::parse(with(&dict, &[0b10_01_00], &[0b10_01_00])).unwrap();
    assert_eq!(col.to_eventlist(), Ok(el));
}

/// In the context of a table, a row's key and value ids extend the
/// table's: an id past the table's names one of the row's own, its
/// column as wide as the table and the row need together. An id past
/// both is refused by both decoders.
#[test]
fn ids_past_the_table_and_the_row_are_refused() {
    // The table holds keys `a`, `b` and values `Int 1, 2`; node 3's
    // `c: 3` is the row's own.
    let (one, two) = (AttrValue::Int(1), AttrValue::Int(2));
    let table = Arc::new(PairTable::new([("a", &one), ("b", &two)], []));
    let el = Eventlist::from_sorted(
        [(1u64, "a", 1i64), (2, "b", 2), (3, "c", 3)]
            .into_iter()
            .map(|(id, key, v)| {
                let kind = EventKind::SetNodeAttr {
                    id,
                    key: key.into(),
                    value: AttrValue::Int(v),
                };
                Event::new(id, kind)
            })
            .collect(),
    );
    let row = encode_columnar_eventlist_in(&el, &table);
    let parts = RowSegments::parse(&row);
    // The row's own key `c` and value `Int 3`.
    let dict = vec![1, 1, b'c', 1, 0, 6];
    assert_eq!(parts.segs[DICT], dict);
    // Ids 0, 1 of the table and 2 of the row, two bits each.
    assert_eq!(parts.segs[ATTR_KEYS], vec![0b10_01_00]);
    assert_eq!(parts.segs[ATTR_VALS], vec![0b10_01_00]);
    let with = |dict: &[u8], keys: &[u8], vals: &[u8]| {
        let mut p = RowSegments::parse(&row);
        p.segs[DICT] = dict.to_vec();
        p.segs[ATTR_KEYS] = keys.to_vec();
        p.segs[ATTR_VALS] = vals.to_vec();
        p.assemble()
    };
    let past = 0b11_01_00;
    let nodes = [1, 2, 3];
    let keys_past = with(&dict, &[past], &[0b10_01_00]);
    both_decoders_refuse(keys_past, &table, &nodes, "key id");
    let vals_past = with(&dict, &[0b10_01_00], &[past]);
    both_decoders_refuse(vals_past, &table, &nodes, "value id");
    // Without the row's own entries the ids are one bit wide, over the
    // table's two keys and two values, and the columns as spelled do
    // not fit them.
    let no_dict = with(&[], &[0b10_01_00], &[0b10_01_00]);
    both_decoders_refuse(no_dict, &table, &nodes, "no dictionary");
    let col = ColumnarEventlist::parse_in(with(&dict, &[0b10_01_00], &[0b10_01_00]), &table);
    assert_eq!(col.unwrap().to_eventlist(), Ok(el));
    // Out of its context, the row's ids name its own entries only.
    both_decoders_refuse(row, &Arc::default(), &nodes, "the row out of its context");
}

#[test]
fn rows_of_the_retired_magics_are_refused_by_name() {
    let el = Eventlist::from_sorted(vec![Event::new(
        5,
        EventKind::RemoveNodeAttr {
            id: 7,
            key: "k".into(),
        },
    )]);
    let row = encode_columnar_eventlist(&el);
    for magic in [0xC6u8, 0xC7, 0xC9] {
        let mut old = BytesMut::new();
        old.put_u8(magic);
        old.put_slice(&row[1..]);
        assert!(matches!(
            ColumnarEventlist::parse(old.freeze()),
            Err(CodecError::BadTag { tag, .. }) if tag == magic
        ));
    }
}

// ----------------------------------------------------------------------
// term rows
// ----------------------------------------------------------------------

#[test]
fn term_rows_decode_or_refuse() {
    let mut split = Split::default();
    for_cases(
        "prop_eventlist_rows::term",
        (arb_term_points(), arb_mutation()),
        |(points, m), rng| {
            let row = encode_term_points(&points);
            let mutated = mutate(m, &row, rng);
            let got = decode_term_points(&mutated);
            if let Ok(pts) = &got {
                // Every point takes at least one bit of the row.
                assert!(
                    pts.len() <= mutated.len() * 8,
                    "{m:?}: {} points",
                    pts.len()
                );
                assert!(
                    pts.windows(2).all(|w| w[0].time <= w[1].time),
                    "{m:?}: out of order"
                );
                let n_carry = pts.partition_point(|p| p.carry);
                assert!(pts[..n_carry].iter().all(|p| p.became));
                assert!(pts[n_carry..].iter().all(|p| !p.carry));
            }
            if m == Mutation::Unchanged {
                assert_eq!(got.as_ref(), Ok(&points), "round trip");
            }
            split.record(m, got.is_ok());
        },
    );
    split.print("term rows");
}

// ----------------------------------------------------------------------
// hostile counts
// ----------------------------------------------------------------------

/// Rows whose counts claim far more than their bytes hold are refused
/// before anything is sized by the count.
#[test]
fn hostile_counts_are_refused_before_allocation() {
    let el = Eventlist::from_sorted(vec![Event::new(5, EventKind::AddNode { id: 7 })]);
    let row = encode_columnar_eventlist(&el);
    // The header's event count: `u32::MAX` events over a one-event row.
    let mut parts = RowSegments::parse(&row);
    parts.count = u64::from(u32::MAX);
    let col = ColumnarEventlist::parse(parts.assemble()).unwrap();
    assert!(col.to_eventlist().is_err());
    assert!(col.events_touching(7).is_err());
    // The node dictionary's count.
    let mut parts = RowSegments::parse(&row);
    let mut dict = BytesMut::new();
    put_varint(&mut dict, u64::from(u32::MAX));
    dict.put_slice(&parts.segs[0][1..]);
    parts.segs[0] = dict.to_vec();
    let col = ColumnarEventlist::parse(parts.assemble()).unwrap();
    assert!(col.events_touching(7).is_err());
    // A term row's carry and change counts.
    for (n_carry, n_change) in [(u64::from(u32::MAX), 0), (0, u64::from(u32::MAX))] {
        let mut blob = BytesMut::new();
        put_varint(&mut blob, 9);
        put_varint(&mut blob, n_carry);
        put_varint(&mut blob, n_change);
        blob.put_slice(&[1, 2, 3]);
        assert!(decode_term_points(&blob).is_err());
    }
}
