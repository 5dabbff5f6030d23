//! Decoder fuzz for columnar delta rows.
//!
//! Every case encodes a generated graph as one of the three kinds of
//! row the index stores — an **aux** row (whole descriptions), a
//! **root** row (the part of each description a tree root keeps) and a
//! **tree** row (the rest, read onto the root's sum) — and tries it
//! five ways: unchanged, with one byte replaced, with bytes inserted,
//! truncated, and replaced by arbitrary bytes; as a whole or inside one
//! of its segments (id column, restart column, key dictionary,
//! records), with the header re-spelled to fit. The properties:
//!
//! * `parse`, `to_delta`, `sum_into`, `node_record`, `sum_node_into`
//!   and `contains` return `Ok` or `Err`, never panic, and never answer
//!   more components than the row has bytes for; a count the row
//!   cannot hold is refused before anything is allocated for it;
//! * **the agreement law:** on a row `to_delta` accepts, the point read
//!   answers what the full read does — `node_record(id)` is the full
//!   read's record for every id in it and `None` for a sample of absent
//!   ids, and `contains` says the same; on a row the path sum accepts
//!   onto a state, `sum_node_into(id)` onto that node's part of the
//!   state is the path sum's description of it. (It holds because
//!   the full read checks everything the point read steps by: the id
//!   gaps and every restart.)
//! * unchanged rows round-trip exactly, tree rows onto their root too.
//!
//! The pair dictionary gets cases of its own: replaced by arbitrary
//! bytes, or followed by them, it is read or refused and never panics
//! (a dictionary with bytes after its last pair is always refused);
//! and a pair index past the dictionary, a key index past its keys, a
//! record pair beside an empty dictionary and a trailing dictionary
//! byte are each refused by every read. Rows of the retired magics are
//! refused by name.
//!
//! That the record skipper the point read steps with ends where the
//! record decoder ends is fuzzed beside both, in `codec.rs`.
//!
//! Each suite prints its Ok/Err split per mutation (`--nocapture`).
//! Cases: `PROPTEST_CASES`, default 256.

mod common;

use bytes::{BufMut, Bytes, BytesMut};
use common::{
    arb_attr_value, arb_mutation, arb_node, for_cases, mutate, Mutation, RowSegments, Split,
};
use hgs_delta::codec::{put_static_node, put_varint};
use hgs_delta::columnar::encode_columnar_delta;
use hgs_delta::{
    AttrValue, CodecError, ColumnarDelta, Delta, EdgeDir, Neighbor, NodeId, StaticNode,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// inputs
// ----------------------------------------------------------------------

fn arb_pairs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(String, AttrValue)>> {
    prop::collection::vec(("[a-c]{1,3}", arb_attr_value()), len)
}

/// An edge-list entry, mostly the default one (undirected, unit
/// weight, no attributes) that datasets are made of.
fn arb_neighbor() -> impl Strategy<Value = Neighbor> {
    (
        arb_node(),
        prop_oneof![6 => Just(EdgeDir::Both), 1 => Just(EdgeDir::Out), 1 => Just(EdgeDir::In)],
        prop_oneof![6 => Just(1.0f32), 1 => 0.0f32..4.0],
        prop_oneof![8 => Just(Vec::new()), 1 => arb_pairs(1..3)],
    )
        .prop_map(|(nbr, dir, weight, pairs)| {
            let mut e = Neighbor::weighted(nbr, dir, weight);
            for (k, v) in pairs {
                e.set_attr(k, v);
            }
            e
        })
}

/// A node description: a few entries, sometimes more than the six a
/// record head holds; node attributes now and then, sometimes more
/// than the two it holds.
fn arb_static_node() -> impl Strategy<Value = StaticNode> {
    (
        arb_node(),
        prop_oneof![4 => prop::collection::vec(arb_neighbor(), 0..4), 1 => prop::collection::vec(arb_neighbor(), 4..12)],
        prop_oneof![3 => Just(Vec::new()), 1 => arb_pairs(1..5)],
    )
        .prop_map(|(id, edges, pairs)| {
            let mut n = StaticNode::new(id);
            for e in edges {
                n.insert_edge(e);
            }
            for (k, v) in pairs {
                n.attrs.set(k, v);
            }
            n
        })
}

/// A graph of up to ~40 distinct nodes: rows with no restart, one, or
/// two.
fn arb_graph() -> impl Strategy<Value = Delta> {
    prop::collection::vec(arb_static_node(), 0..70).prop_map(|nodes| nodes.into_iter().collect())
}

/// Split `g` the way an intersection tree splits a description over a
/// root and the rows below it: every other entry and pair into the
/// root, the rest into a tree row's piece — which every odd node has,
/// empty or not, and no even node has when it would be empty.
fn split(g: &Delta) -> (Delta, Delta) {
    let (mut root, mut tree) = (Delta::new(), Delta::new());
    for n in g.iter() {
        let (mut r, mut p) = (StaticNode::new(n.id), StaticNode::new(n.id));
        for (i, e) in n.edges.iter().enumerate() {
            if i % 2 == 0 { &mut r } else { &mut p }
                .edges
                .push(e.clone());
        }
        for (i, (k, v)) in n.attrs.iter().enumerate() {
            if i % 2 == 0 { &mut r } else { &mut p }
                .attrs
                .set(k, v.clone());
        }
        root.insert(r);
        if n.id % 2 == 1 || !p.edges.is_empty() || !p.attrs.is_empty() {
            tree.insert(p);
        }
    }
    (root, tree)
}

/// The three kinds of stored delta row.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Aux,
    Root,
    Tree,
}

// ----------------------------------------------------------------------
// the law
// ----------------------------------------------------------------------

/// A description as bytes: equal bytes are equal descriptions, a NaN
/// weight or value included.
fn spelled(n: Option<&StaticNode>) -> Option<Vec<u8>> {
    n.map(|n| {
        let mut b = BytesMut::new();
        put_static_node(&mut b, n);
        b.to_vec()
    })
}

/// Hold every read of `row` to the properties in the module docs, the
/// path sum applied onto `base` (empty but for tree rows), probing the
/// ids of `original`, of what the row decodes to, and their
/// neighbors. Returns whether `to_delta` accepted the row.
fn check_delta_row(row: Bytes, base: &Delta, original: &Delta) -> Result<bool, TestCaseError> {
    let Ok(col) = ColumnarDelta::parse(row.clone()) else {
        return Ok(false);
    };
    let fresh = || ColumnarDelta::parse(row.clone()).expect("parsed once");
    let mut probes: Vec<NodeId> = vec![0, 1, 2, 3, u64::MAX];
    let mut near = |id: NodeId| probes.extend([id.wrapping_sub(1), id, id.wrapping_add(1)]);
    original.ids().for_each(&mut near);
    let pieces = col.to_delta();
    let mut full = base.clone();
    let summed = fresh().sum_into(&mut full, Some(&mut Delta::new()));
    if let Ok(pieces) = &pieces {
        pieces.ids().for_each(&mut near);
    }
    probes.sort_unstable();
    probes.dedup();

    // Point reads of any row, accepted or not: never a panic.
    for &id in &probes {
        let _ = fresh().node_record(id);
        let _ = fresh().contains(id);
        let _ = fresh().sum_node_into(id, &mut base.restrict(|x| x == id));
    }

    if let Ok(pieces) = &pieces {
        prop_assert!(pieces.size() <= row.len(), "{} components", pieces.size());
        for &id in &probes {
            let got = fresh().node_record(id);
            prop_assert!(got.is_ok(), "node_record({id}): {got:?}");
            let got = got.unwrap();
            prop_assert_eq!(
                spelled(got.as_ref()),
                spelled(pieces.node(id)),
                "node {}",
                id
            );
            prop_assert_eq!(fresh().contains(id), Ok(pieces.contains(id)), "node {}", id);
        }
    }
    if summed.is_ok() {
        prop_assert!(full.size() <= base.size() + row.len());
        for &id in &probes {
            let mut one = base.restrict(|x| x == id);
            let got = fresh().sum_node_into(id, &mut one);
            prop_assert_eq!(got, Ok(()), "sum_node_into({})", id);
            prop_assert_eq!(spelled(one.node(id)), spelled(full.node(id)), "node {}", id);
        }
    }
    Ok(pieces.is_ok())
}

#[test]
fn delta_rows_decode_or_refuse_and_both_reads_agree() {
    let mut split_by_kind = [Split::default(), Split::default(), Split::default()];
    for_cases(
        "prop_delta_rows::delta",
        (arb_graph(), 0usize..3, arb_mutation(), 0.0f64..1.0),
        |(g, kind, m, where_), rng| {
            let (root, tree) = split(&g);
            let kind = [Kind::Aux, Kind::Root, Kind::Tree][kind];
            let (stored, base) = match kind {
                Kind::Aux => (&g, Delta::new()),
                Kind::Root => (&root, Delta::new()),
                Kind::Tree => (&tree, root.clone()),
            };
            let row = encode_columnar_delta(stored);
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
            let ok = check_delta_row(mutated, &base, stored)
                .unwrap_or_else(|e| panic!("{kind:?} {m:?}: {e}"));
            if m == Mutation::Unchanged {
                let col = ColumnarDelta::parse(row).unwrap();
                assert_eq!(col.to_delta().unwrap(), *stored, "round trip");
                let mut state = base;
                col.sum_into(&mut state, None).unwrap();
                let want = if let Kind::Root = kind { &root } else { &g };
                assert_eq!(state, *want, "{kind:?} onto its base");
            }
            split_by_kind[kind as usize].record(m, ok);
        },
    );
    for (kind, split) in ["aux", "root", "tree"].iter().zip(&split_by_kind) {
        split.print(&format!("{kind} rows"));
    }
}

// ----------------------------------------------------------------------
// hostile counts
// ----------------------------------------------------------------------

/// Counts and restarts claiming far more than a row holds are refused
/// before anything is sized by them.
#[test]
fn hostile_counts_and_restarts_are_refused() {
    let g: Delta = (0..20u64)
        .map(|id| {
            let mut n = StaticNode::new(id);
            n.insert_edge(Neighbor::new(id + 1, EdgeDir::Both));
            n
        })
        .collect();
    let row = encode_columnar_delta(&g);
    // The header's node count: `u32::MAX` records over twenty.
    let mut parts = RowSegments::parse(&row);
    parts.count = u64::from(u32::MAX);
    let col = ColumnarDelta::parse(parts.assemble()).unwrap();
    assert!(col.to_delta().is_err());
    assert!(col.node_record(19).is_err());
    // A restart past the record segment, or past the sanity cap: the
    // point read of a node behind it refuses, and so does the full read.
    for restart in [1u64 << 20, u64::from(u32::MAX) << 4] {
        let mut parts = RowSegments::parse(&row);
        let mut seg = BytesMut::new();
        put_varint(&mut seg, restart);
        parts.segs[1] = seg.to_vec();
        let col = ColumnarDelta::parse(parts.assemble()).unwrap();
        assert!(col.node_record(17).is_err(), "restart {restart}");
        assert!(col.node_record(3).unwrap().is_some(), "before the restart");
        assert!(col.to_delta().is_err());
    }
    // A record head announcing 2^31 entries over a handful of bytes.
    let mut parts = RowSegments::parse(&row);
    let records = &mut parts.segs[3];
    records[0] |= 7 << 3;
    let mut escaped = vec![records[0]];
    let mut count = BytesMut::new();
    put_varint(&mut count, 1 << 31);
    escaped.extend_from_slice(&count);
    escaped.extend_from_slice(&records[1..]);
    *records = escaped;
    let col = ColumnarDelta::parse(parts.assemble()).unwrap();
    assert!(matches!(
        col.node_record(0),
        Err(CodecError::UnexpectedEof { .. })
    ));
    assert!(col.to_delta().is_err());
}

// ----------------------------------------------------------------------
// the pair dictionary
// ----------------------------------------------------------------------

/// Where a delta row keeps its pair dictionary and its records.
const DICT: usize = 2;
const RECORDS: usize = 3;

/// Every read of `row` refuses it: the full read, the path sum, and
/// the point reads of each of `ids`.
fn every_read_refuses(row: Bytes, ids: &[NodeId], what: &str) {
    let col = || ColumnarDelta::parse(row.clone()).expect("a well-formed header");
    assert!(col().to_delta().is_err(), "{what}: to_delta");
    assert!(
        col().sum_into(&mut Delta::new(), None).is_err(),
        "{what}: sum_into"
    );
    for &id in ids {
        assert!(col().node_record(id).is_err(), "{what}: node_record({id})");
        assert!(
            col().sum_node_into(id, &mut Delta::new()).is_err(),
            "{what}: sum_node_into({id})"
        );
    }
}

#[test]
fn arbitrary_pair_dictionaries_are_read_or_refused() {
    let mut tally = Split::default();
    for_cases(
        "prop_delta_rows::dict",
        (
            arb_graph(),
            0usize..3,
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 1..48),
        ),
        |(g, kind, append, bytes), _rng| {
            let (root, tree) = split(&g);
            let (stored, base) = match kind {
                0 => (&g, Delta::new()),
                1 => (&root, Delta::new()),
                _ => (&tree, root.clone()),
            };
            let row = encode_columnar_delta(stored);
            let mut parts = RowSegments::parse(&row);
            let had_dict = !parts.segs[DICT].is_empty();
            if append {
                parts.segs[DICT].extend_from_slice(&bytes);
            } else {
                parts.segs[DICT] = bytes;
            }
            let mutated = parts.assemble();
            let ok = check_delta_row(mutated.clone(), &base, stored)
                .unwrap_or_else(|e| panic!("dictionary case: {e}"));
            if append && had_dict {
                let ids: Vec<NodeId> = stored.ids().collect();
                every_read_refuses(mutated, &ids, "trailing dictionary bytes");
            }
            let m = if append {
                Mutation::Inserted
            } else {
                Mutation::Arbitrary
            };
            tally.record(m, ok);
        },
    );
    tally.print("pair dictionaries");
}

#[test]
fn dictionary_indexes_past_their_dictionary_are_refused() {
    // Two nodes of one pair each: `1 {a: 1}` and `2 {b: 2}`.
    let g: Delta = [(1u64, "a", 1i64), (2, "b", 2)]
        .into_iter()
        .map(|(id, k, v)| {
            let mut n = StaticNode::new(id);
            n.attrs.set(k, AttrValue::Int(v));
            n
        })
        .collect();
    let row = encode_columnar_delta(&g);
    let parts = RowSegments::parse(&row);
    // Keys `a`, `b`; pairs `(0, Int 1)`, `(1, Int 2)` (an `Int` is tag
    // 0 and a zigzag varint).
    let dict = vec![2, 1, b'a', 1, b'b', 2, 0, 0, 2, 1, 0, 4];
    assert_eq!(parts.segs[DICT], dict);
    // A record of no edges and one pair: the head, then pair 0 or 1.
    assert_eq!(parts.segs[RECORDS], vec![0x47, 0, 0x47, 1]);
    let ids = [1, 2];

    let with = |dict: Vec<u8>, records: Vec<u8>| {
        let mut p = RowSegments::parse(&row);
        p.segs[DICT] = dict;
        p.segs[RECORDS] = records;
        p.assemble()
    };
    // Pair index 2 of two pairs, in either record.
    every_read_refuses(
        with(dict.clone(), vec![0x47, 2, 0x47, 2]),
        &ids,
        "pair index",
    );
    // A pair naming key 2 of two keys.
    let mut bad_key = dict.clone();
    bad_key[9] = 2;
    every_read_refuses(with(bad_key, vec![0x47, 0, 0x47, 1]), &ids, "key index");
    // Record pairs beside an empty dictionary.
    every_read_refuses(
        with(Vec::new(), vec![0x47, 0, 0x47, 0]),
        &ids,
        "empty dictionary",
    );
    // A byte after the last pair.
    let mut trailing = dict.clone();
    trailing.push(0);
    every_read_refuses(
        with(trailing, vec![0x47, 0, 0x47, 1]),
        &ids,
        "trailing byte",
    );
    // Unchanged, the row reads.
    assert_eq!(
        ColumnarDelta::parse(with(dict, vec![0x47, 0, 0x47, 1]))
            .unwrap()
            .to_delta(),
        Ok(g)
    );
}

#[test]
fn rows_of_the_retired_magics_are_refused_by_name() {
    let mut n = StaticNode::new(4);
    n.attrs.set("k", AttrValue::Bool(true));
    let row = encode_columnar_delta(&[n].into_iter().collect());
    for magic in [0xC6u8, 0xC7] {
        let mut old = BytesMut::new();
        old.put_u8(magic);
        old.put_slice(&row[1..]);
        assert!(matches!(
            ColumnarDelta::parse(old.freeze()),
            Err(CodecError::BadTag { tag, .. }) if tag == magic
        ));
    }
}
