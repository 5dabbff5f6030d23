//! Decoder fuzz for columnar delta rows.
//!
//! Every case encodes a generated graph as one of the three kinds of
//! row the index stores — an **aux** row (whole descriptions), a
//! **root** row (the part of each description a tree root keeps) and a
//! **tree** row (the rest, read onto the root's sum) — and tries it
//! five ways: unchanged, with one byte replaced, with bytes inserted,
//! truncated, and replaced by arbitrary bytes; as a whole or inside one
//! of its segments (id column, restart column, key dictionary, counts
//! column, records), with the header re-spelled to fit. The properties:
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
//!   column, the counts column and every restart.)
//! * unchanged rows round-trip exactly, tree rows onto their root too.
//!
//! Every case is encoded and read in one of two contexts, drawn per
//! case: the empty pair table of a row encoded by itself, or a table
//! that shares some of the graph's pairs and holds others of its own
//! (an index span's, whose rows name what it has by its id and spell
//! the rest in their own dictionary).
//!
//! The counts column — every record's head, bit-coded — gets cases of
//! its own at row sizes of 1, 15, 16, 17 and 300 records, with and
//! without its two flags: short, overlong, badly padded, a Rice run
//! past its end and an empty column are refused by the full read, and
//! a flag the records contradict is answered alike by both reads
//! (`columnar.rs`'s unit tests pin that the full read refuses a flag
//! no record needs).
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
use hgs_delta::codec::{encode_delta, get_varint, put_varint};
use std::sync::Arc;

use hgs_delta::columnar::{encode_columnar_delta, encode_columnar_delta_in};
use hgs_delta::{
    AttrValue, CodecError, ColumnarDelta, Delta, EdgeDir, Neighbor, NodeId, PairTable, StaticNode,
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

/// A node description: a few entries, sometimes a dozen; node
/// attributes now and then, sometimes several.
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

/// A context table sharing some of `g`'s pairs — those of its even
/// nodes and their entries — beside a pair and a key of its own; or,
/// without `shared`, the empty table.
fn context(g: &Delta, shared: bool) -> Arc<PairTable> {
    if !shared {
        return Arc::default();
    }
    let foreign = AttrValue::Int(-99);
    let mut pairs: Vec<(&str, &AttrValue)> = vec![("zz", &foreign)];
    for n in g.iter().filter(|n| n.id % 2 == 0) {
        pairs.extend(n.attrs.iter());
        for a in n.edges.iter().filter_map(|e| e.attrs.as_deref()) {
            pairs.extend(a.iter());
        }
    }
    Arc::new(PairTable::new(pairs, ["zy"]))
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

/// A description as bytes — the row-wise spelling of the one-node
/// delta: equal bytes are equal descriptions, a NaN weight or value
/// included.
fn spelled(n: Option<&StaticNode>) -> Option<Vec<u8>> {
    n.map(|n| encode_delta(&[n.clone()].into_iter().collect()).to_vec())
}

/// Hold every read of `row`, in the context of `table`, to the
/// properties in the module docs, the path sum applied onto `base`
/// (empty but for tree rows), probing the ids of `original`, of what
/// the row decodes to, and their neighbors. Returns whether `to_delta`
/// accepted the row.
fn check_delta_row(
    row: Bytes,
    table: &Arc<PairTable>,
    base: &Delta,
    original: &Delta,
) -> Result<bool, TestCaseError> {
    let Ok(col) = ColumnarDelta::parse_in(row.clone(), table) else {
        return Ok(false);
    };
    let fresh = || ColumnarDelta::parse_in(row.clone(), table).expect("parsed once");
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
        (
            arb_graph(),
            0usize..3,
            arb_mutation(),
            0.0f64..1.0,
            any::<bool>(),
        ),
        |(g, kind, m, where_, shared), rng| {
            let (root, tree) = split(&g);
            let kind = [Kind::Aux, Kind::Root, Kind::Tree][kind];
            let (stored, base) = match kind {
                Kind::Aux => (&g, Delta::new()),
                Kind::Root => (&root, Delta::new()),
                Kind::Tree => (&tree, root.clone()),
            };
            let table = context(&g, shared);
            let row = encode_columnar_delta_in(stored, &table);
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
            let ok = check_delta_row(mutated, &table, &base, stored)
                .unwrap_or_else(|e| panic!("{kind:?} {m:?}: {e}"));
            if m == Mutation::Unchanged {
                let col = ColumnarDelta::parse_in(row, &table).unwrap();
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
    // A restart past the record segment or the counts column, or past
    // the sanity cap: the point read of a node behind it refuses, and
    // so does the full read.
    let mut restarts: &[u8] = &RowSegments::parse(&row).segs[1];
    let window = [(); 2].map(|()| get_varint(&mut restarts).unwrap());
    for restart in [1u64 << 20, u64::from(u32::MAX) << 4] {
        for at in 0..2 {
            let mut parts = RowSegments::parse(&row);
            let mut seg = BytesMut::new();
            let mut lied = window;
            lied[at] = restart;
            for v in lied {
                put_varint(&mut seg, v);
            }
            parts.segs[1] = seg.to_vec();
            let col = ColumnarDelta::parse(parts.assemble()).unwrap();
            assert!(col.node_record(17).is_err(), "restart {lied:?}");
            assert!(col.node_record(3).unwrap().is_some(), "before the restart");
            assert!(col.to_delta().is_err());
        }
    }
    // A counts column announcing 2^31 entries for the first record,
    // over a handful of bytes: at Rice parameter 31, a quotient of one
    // (`01`) and 31 zero bits, then what the other codes were.
    let mut parts = RowSegments::parse(&row);
    let mut counts = BytesMut::new();
    let (params, w_first) = (parts.segs[COUNTS][0], parts.segs[COUNTS][1]);
    assert_eq!(params, 0x20, "the codes hold first neighbours");
    counts.put_slice(&[params | 31, w_first]);
    let rest = &parts.segs[COUNTS][2..];
    counts.put_slice(&[0b10, 0, 0, 0, 0]);
    counts.put_slice(rest);
    parts.segs[COUNTS] = counts.to_vec();
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

/// Where a delta row keeps its pair dictionary, its counts column and
/// its records.
const DICT: usize = 2;
const COUNTS: usize = 3;
const RECORDS: usize = 4;

/// Every read of `row`, in the context of `table`, refuses it: the
/// full read, the path sum, and the point reads of each of `ids`.
fn every_read_refuses(row: Bytes, table: &Arc<PairTable>, ids: &[NodeId], what: &str) {
    let col = || ColumnarDelta::parse_in(row.clone(), table).expect("a well-formed header");
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
            any::<bool>(),
        ),
        |(g, kind, append, bytes, shared), _rng| {
            let (root, tree) = split(&g);
            let (stored, base) = match kind {
                0 => (&g, Delta::new()),
                1 => (&root, Delta::new()),
                _ => (&tree, root.clone()),
            };
            let table = context(&g, shared);
            let row = encode_columnar_delta_in(stored, &table);
            let mut parts = RowSegments::parse(&row);
            let had_dict = !parts.segs[DICT].is_empty();
            if append {
                parts.segs[DICT].extend_from_slice(&bytes);
            } else {
                parts.segs[DICT] = bytes;
            }
            let mutated = parts.assemble();
            let ok = check_delta_row(mutated.clone(), &table, &base, stored)
                .unwrap_or_else(|e| panic!("dictionary case: {e}"));
            if append && had_dict {
                let ids: Vec<NodeId> = stored.ids().collect();
                every_read_refuses(mutated, &table, &ids, "trailing dictionary bytes");
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
    // Two records of no edges and one pair each: pair 0, then pair 1.
    assert_eq!(parts.segs[RECORDS], vec![0, 1]);
    let ids = [1, 2];
    let empty = Arc::default();

    let with = |dict: Vec<u8>, records: Vec<u8>| {
        let mut p = RowSegments::parse(&row);
        p.segs[DICT] = dict;
        p.segs[RECORDS] = records;
        p.assemble()
    };
    // Pair index 2 of two pairs, in either record.
    every_read_refuses(with(dict.clone(), vec![2, 2]), &empty, &ids, "pair index");
    // A pair naming key 2 of two keys.
    let mut bad_key = dict.clone();
    bad_key[9] = 2;
    every_read_refuses(with(bad_key, vec![0, 1]), &empty, &ids, "key index");
    // Record pairs beside an empty dictionary.
    every_read_refuses(
        with(Vec::new(), vec![0, 0]),
        &empty,
        &ids,
        "empty dictionary",
    );
    // A byte after the last pair.
    let mut trailing = dict.clone();
    trailing.push(0);
    every_read_refuses(with(trailing, vec![0, 1]), &empty, &ids, "trailing byte");
    // Unchanged, the row reads.
    assert_eq!(
        ColumnarDelta::parse(with(dict, vec![0, 1]))
            .unwrap()
            .to_delta(),
        Ok(g)
    );
}

/// In the context of a table, a row's ids extend the table's: pair
/// ids past the table name the row's own pairs, and an own pair's key
/// id past the table's keys names one of the row's own keys. An id
/// past both is refused by every read.
#[test]
fn ids_past_the_table_and_the_row_are_refused() {
    // The table holds `a: 1` and the key `a`; node 2's `b: 2` is the
    // row's own.
    let one = AttrValue::Int(1);
    let table = Arc::new(PairTable::new([("a", &one)], []));
    let g: Delta = [(1u64, "a", 1i64), (2, "b", 2)]
        .into_iter()
        .map(|(id, k, v)| {
            let mut n = StaticNode::new(id);
            n.attrs.set(k, AttrValue::Int(v));
            n
        })
        .collect();
    let row = encode_columnar_delta_in(&g, &table);
    let parts = RowSegments::parse(&row);
    // One own key, `b`, and one own pair: key id 1 (past the table's
    // one key), `Int 2`.
    let dict = vec![1, 1, b'b', 1, 1, 0, 4];
    assert_eq!(parts.segs[DICT], dict);
    // Table pair 0, then the row's own pair, id 1.
    assert_eq!(parts.segs[RECORDS], vec![0, 1]);
    let ids = [1, 2];
    let with = |dict: Vec<u8>, records: Vec<u8>| {
        let mut p = RowSegments::parse(&row);
        p.segs[DICT] = dict;
        p.segs[RECORDS] = records;
        p.assemble()
    };
    every_read_refuses(
        with(dict.clone(), vec![2, 2]),
        &table,
        &ids,
        "pair id past the table and the row",
    );
    let mut bad_key = dict.clone();
    bad_key[4] = 2;
    every_read_refuses(
        with(bad_key, vec![0, 1]),
        &table,
        &ids,
        "key id past the table and the row",
    );
    // Without the row's own pairs, node 2's id 1 names nothing.
    every_read_refuses(
        with(Vec::new(), vec![0, 1]),
        &table,
        &[2],
        "empty dictionary",
    );
    // A dictionary of no key and no pair is spelled empty; one of no
    // key of its own may still hold pairs, its keys the table's.
    every_read_refuses(
        with(vec![0, 0], vec![0, 0]),
        &table,
        &ids,
        "an empty dictionary spelled",
    );
    let own_a = with(vec![0, 1, 0, 0, 4], vec![0, 1]);
    let col = ColumnarDelta::parse_in(own_a, &table).unwrap();
    let mut want = g.clone();
    let mut two = StaticNode::new(2);
    two.attrs.set("a", AttrValue::Int(2));
    want.insert(two);
    assert_eq!(col.to_delta(), Ok(want));
    // Unchanged, the row reads — in its context, and only there.
    let col = ColumnarDelta::parse_in(with(dict.clone(), vec![0, 1]), &table);
    assert_eq!(col.unwrap().to_delta(), Ok(g));
    every_read_refuses(row, &Arc::default(), &ids, "the row out of its context");
}

// ----------------------------------------------------------------------
// the counts column
// ----------------------------------------------------------------------

/// A row of `n` records, each one default edge, but for what `variant`
/// adds: an attributed record (1), a record of a weighted entry (2),
/// or both (3) — a counts column with neither flag, either, or both.
fn row_of_records(n: u64, variant: u8) -> Delta {
    (0..n)
        .map(|i| {
            let mut node = StaticNode::new(3 * i);
            let mut e = Neighbor::new(3 * i + 1, EdgeDir::Both);
            if i == n / 2 && variant & 2 != 0 {
                e.weight = 0.5;
            }
            node.insert_edge(e);
            if i == n - 1 && variant & 1 != 0 {
                node.attrs.set("k", AttrValue::Int(i as i64));
            }
            node
        })
        .collect()
}

/// Rows of 1, 15, 16, 17 and 300 records — no restart, one window
/// short of one, exactly one, one past, many — each with and without
/// the counts column's two flags: read alike by both reads, and with
/// the counts column short, overlong, badly padded, run past its end
/// or flagged otherwise, refused by the full read or, where the full
/// read accepts, answered alike by the point read.
#[test]
fn counts_columns_off_the_grammar_are_refused_at_every_row_size() {
    let empty = Arc::default();
    for n in [1u64, 15, 16, 17, 300] {
        for variant in 0u8..4 {
            let case = format!("{n} records, variant {variant}");
            let d = row_of_records(n, variant);
            let row = encode_columnar_delta(&d);
            assert!(check_delta_row(row.clone(), &empty, &Delta::new(), &d).unwrap());
            let parts = RowSegments::parse(&row);
            let counts = &parts.segs[COUNTS];
            let flags = counts[0] & 0xc0;
            assert_eq!(flags, [0, 0x40, 0x80, 0xc0][variant as usize], "{case}");
            // The parameter bytes: the flags and the edges' Rice
            // parameter, then the attribute counts' parameter and the
            // first neighbours' width where their flags are set.
            let params =
                1 + usize::from(counts[0] & 0x40 != 0) + usize::from(counts[0] & 0x20 != 0);

            let with_counts = |counts: Vec<u8>| {
                let mut p = RowSegments::parse(&row);
                p.segs[COUNTS] = counts;
                p.assemble()
            };
            let mut refused = vec![
                ("short", counts[..counts.len() - 1].to_vec()),
                ("overlong", [&counts[..], &[0]].concat()),
                ("empty", Vec::new()),
                // Every code bit zero: the first unary run never ends.
                ("a Rice run past the end", {
                    let mut c = counts.clone();
                    c[params..].fill(0);
                    c
                }),
            ];
            // Two bits a code, and a neighbour when the codes hold
            // them: where the last byte has padding, its top bit is
            // among it.
            let w_first = if counts[0] & 0x20 != 0 {
                u64::from(counts[params - 1])
            } else {
                0
            };
            if variant == 0 && n * (2 + w_first) % 8 != 0 {
                let mut c = counts.clone();
                *c.last_mut().unwrap() |= 0x80;
                refused.push(("badly padded", c));
            }
            for (what, bad) in refused {
                let bad = with_counts(bad);
                let col = ColumnarDelta::parse(bad.clone()).unwrap();
                assert!(col.to_delta().is_err(), "{case}: {what}");
                check_delta_row(bad, &empty, &Delta::new(), &d)
                    .unwrap_or_else(|e| panic!("{case}: {what}: {e}"));
            }
            // A flag set or cleared against the records: whatever the
            // full read makes of it, the point read agrees.
            for flag in [0x20u8, 0x40, 0x80] {
                let mut c = counts.clone();
                c[0] ^= flag;
                // The parameter byte the flag brings or takes away: the
                // attribute counts' Rice parameter, right after the
                // flags, or the first neighbours' width, after that.
                let byte = match flag {
                    0x40 => Some((1, 0)),
                    0x20 => Some((1 + usize::from(counts[0] & 0x40 != 0), 12)),
                    _ => None,
                };
                if let Some((at, v)) = byte {
                    if counts[0] & flag == 0 {
                        c.insert(at, v);
                    } else {
                        c.remove(at);
                    }
                }
                let bad = with_counts(c);
                check_delta_row(bad, &empty, &Delta::new(), &d)
                    .unwrap_or_else(|e| panic!("{case}: flag {flag:#x}: {e}"));
            }
        }
    }
}

#[test]
fn rows_of_the_retired_magics_are_refused_by_name() {
    let mut n = StaticNode::new(4);
    n.attrs.set("k", AttrValue::Bool(true));
    let row = encode_columnar_delta(&[n].into_iter().collect());
    for magic in [0xC6u8, 0xC7, 0xC8, 0xCA] {
        let mut old = BytesMut::new();
        old.put_u8(magic);
        old.put_slice(&row[1..]);
        assert!(matches!(
            ColumnarDelta::parse(old.freeze()),
            Err(CodecError::BadTag { tag, .. }) if tag == magic
        ));
    }
}
