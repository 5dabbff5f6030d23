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
//! Each suite prints its Ok/Err split per mutation (`--nocapture`).
//! Cases: `PROPTEST_CASES`, default 256.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};
use hgs_delta::attr_index::{decode_term_points, encode_term_points, TermPoint};
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::columnar::encode_columnar_eventlist;
use hgs_delta::{AttrValue, ColumnarEventlist, Event, EventKind, Eventlist, NodeId};
use proptest::prelude::*;
use proptest::TestRng;

// ----------------------------------------------------------------------
// inputs
// ----------------------------------------------------------------------

/// Node ids from a small universe (so dictionaries dedup), a wide one
/// (so dictionary gaps are long) or the top of the range.
fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        4 => 0u64..24,
        1 => 0u64..1 << 40,
        1 => (0u64..4).prop_map(|d| u64::MAX - d),
    ]
}

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-100i64..100).prop_map(AttrValue::Int),
        (-4.0f64..4.0).prop_map(AttrValue::Float),
        "[a-z]{0,6}".prop_map(AttrValue::Text),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

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
// mutations
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mutation {
    Unchanged,
    Replaced,
    Inserted,
    Truncated,
    Arbitrary,
}

/// Apply one mutation of kind `m` to `bytes`, drawing its details
/// from `rng`.
fn mutate(m: Mutation, bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    match m {
        Mutation::Unchanged => {}
        Mutation::Replaced => {
            if !out.is_empty() {
                let i = at(rng, out.len() - 1);
                out[i] = any::<u8>().generate(rng);
            }
        }
        Mutation::Inserted => {
            let i = at(rng, out.len());
            let n = 1 + rng.below(4) as usize;
            let extra: Vec<u8> = (0..n).map(|_| any::<u8>().generate(rng)).collect();
            out.splice(i..i, extra);
        }
        Mutation::Truncated => out.truncate(at(rng, out.len().saturating_sub(1))),
        Mutation::Arbitrary => {
            out = (0..rng.below(48))
                .map(|_| any::<u8>().generate(rng))
                .collect();
        }
    }
    out
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Unchanged),
        Just(Mutation::Replaced),
        Just(Mutation::Inserted),
        Just(Mutation::Truncated),
        Just(Mutation::Arbitrary),
    ]
}

/// Ok/Err counts per mutation, printed at the end of a suite.
#[derive(Default)]
struct Split(BTreeMap<Mutation, (usize, usize)>);

impl Split {
    fn record(&mut self, m: Mutation, ok: bool) {
        let e = self.0.entry(m).or_default();
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    fn print(&self, suite: &str) {
        for (m, (ok, err)) in &self.0 {
            println!("{suite}: {m:?}: {ok} Ok, {err} Err");
        }
    }
}

/// Run `case` over `PROPTEST_CASES` (default 256) draws of `strat`.
fn for_cases<S: Strategy>(name: &str, strat: S, mut case: impl FnMut(S::Value, &mut TestRng)) {
    let mut rng = proptest::test_rng(name);
    for _ in 0..ProptestConfig::default().cases {
        let v = strat.generate(&mut rng);
        case(v, &mut rng);
    }
}

// ----------------------------------------------------------------------
// eventlist rows
// ----------------------------------------------------------------------

/// A row's header taken apart: magic, event count, then per segment
/// its `stored_len << 1 | compressed` varint and its bytes.
struct RowSegments {
    magic: u8,
    count: u64,
    segs: Vec<(bool, Vec<u8>)>,
}

impl RowSegments {
    fn parse(row: &[u8]) -> RowSegments {
        let (magic, mut b) = (row[0], &row[1..]);
        let count = get_varint(&mut b).unwrap();
        let n = get_varint(&mut b).unwrap();
        let lens: Vec<u64> = (0..n).map(|_| get_varint(&mut b).unwrap()).collect();
        let mut segs = Vec::new();
        for lv in lens {
            let (seg, rest) = b.split_at((lv >> 1) as usize);
            segs.push((lv & 1 == 1, seg.to_vec()));
            b = rest;
        }
        assert!(b.is_empty(), "segments cover the row");
        RowSegments { magic, count, segs }
    }

    fn assemble(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u8(self.magic);
        put_varint(&mut out, self.count);
        put_varint(&mut out, self.segs.len() as u64);
        for (compressed, seg) in &self.segs {
            put_varint(&mut out, (seg.len() as u64) << 1 | *compressed as u64);
        }
        for (_, seg) in &self.segs {
            out.put_slice(seg);
        }
        out.freeze()
    }
}

fn touches(kind: &EventKind, nid: NodeId) -> bool {
    let (a, b) = kind.touched();
    a == nid || b == Some(nid)
}

/// Hold both decoders of `row` to the properties in the module docs,
/// probing the nodes of `original` and of whatever the row decodes
/// to. Returns whether `to_eventlist` accepted the row.
fn check_eventlist_row(row: Bytes, original: &Eventlist) -> Result<bool, TestCaseError> {
    let Ok(col) = ColumnarEventlist::parse(row.clone()) else {
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
        let got = ColumnarEventlist::parse(row.clone()).and_then(|c| c.events_touching(nid));
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
        (arb_eventlist(), arb_mutation(), 0.0f64..1.0),
        |(el, m, where_), rng| {
            let row = encode_columnar_eventlist(&el);
            let mutated = if m == Mutation::Unchanged {
                row.clone()
            } else if where_ < 0.25 {
                Bytes::from(mutate(m, &row, rng))
            } else {
                let mut parts = RowSegments::parse(&row);
                let i = rng.below(parts.segs.len() as u64) as usize;
                parts.segs[i].1 = mutate(m, &parts.segs[i].1, rng);
                parts.assemble()
            };
            let ok = check_eventlist_row(mutated, &el).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            if m == Mutation::Unchanged {
                let col = ColumnarEventlist::parse(row).unwrap();
                assert_eq!(col.to_eventlist().unwrap(), el, "round trip");
            }
            split.record(m, ok);
        },
    );
    split.print("eventlist rows");
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
                assert!(pts.len() <= mutated.len(), "{m:?}: {} points", pts.len());
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
    dict.put_slice(&parts.segs[0].1[1..]);
    parts.segs[0].1 = dict.to_vec();
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
