//! What the decoder fuzz suites share: generated ids and values, the
//! five mutations, the Ok/Err tally, the case loop, and a columnar
//! row's header taken apart so a mutation can land inside one segment.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{AttrValue, NodeId};
use proptest::prelude::*;
use proptest::TestRng;

// ----------------------------------------------------------------------
// inputs
// ----------------------------------------------------------------------

/// Node ids from a small universe (so dictionaries dedup), a wide one
/// (so dictionary gaps are long) or the top of the range.
pub fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        4 => 0u64..24,
        1 => 0u64..1 << 40,
        1 => (0u64..4).prop_map(|d| u64::MAX - d),
    ]
}

pub fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-100i64..100).prop_map(AttrValue::Int),
        (-4.0f64..4.0).prop_map(AttrValue::Float),
        "[a-z]{0,6}".prop_map(AttrValue::Text),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

// ----------------------------------------------------------------------
// mutations
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    Unchanged,
    Replaced,
    Inserted,
    Truncated,
    Arbitrary,
}

/// Apply one mutation of kind `m` to `bytes`, drawing its details
/// from `rng`.
pub fn mutate(m: Mutation, bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
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

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
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
pub struct Split(BTreeMap<Mutation, (usize, usize)>);

impl Split {
    pub fn record(&mut self, m: Mutation, ok: bool) {
        let e = self.0.entry(m).or_default();
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    pub fn print(&self, suite: &str) {
        for (m, (ok, err)) in &self.0 {
            println!("{suite}: {m:?}: {ok} Ok, {err} Err");
        }
    }
}

/// Run `case` over `PROPTEST_CASES` (default 256) draws of `strat`.
pub fn for_cases<S: Strategy>(name: &str, strat: S, mut case: impl FnMut(S::Value, &mut TestRng)) {
    let mut rng = proptest::test_rng(name);
    for _ in 0..ProptestConfig::default().cases {
        let v = strat.generate(&mut rng);
        case(v, &mut rng);
    }
}

// ----------------------------------------------------------------------
// rows
// ----------------------------------------------------------------------

/// A row's header taken apart: magic, record count, then every
/// segment's bytes — the magic says how many segments there are, a
/// presence bitmap which of them are spelled, and every spelled one but
/// the last has a length varint.
pub struct RowSegments {
    pub magic: u8,
    pub count: u64,
    pub segs: Vec<Vec<u8>>,
}

/// Segments of a delta row (magic `0xCB`) and of an eventlist row
/// (magic `0xCC`).
fn segment_count(magic: u8) -> usize {
    match magic {
        0xCB => 5,
        0xCC => 8,
        _ => panic!("no row has magic {magic:#x}"),
    }
}

impl RowSegments {
    pub fn parse(row: &[u8]) -> RowSegments {
        let (magic, mut b) = (row[0], &row[1..]);
        let count = get_varint(&mut b).unwrap();
        let (present, rest) = b.split_first().unwrap();
        b = rest;
        let n = segment_count(magic);
        assert_eq!(
            u32::from(*present) >> n,
            0,
            "presence bits past the row's segments"
        );
        let last = (0..n).rev().find(|i| present & 1 << i != 0);
        let lens: Vec<usize> = (0..n)
            .map(|i| match present & 1 << i {
                0 => 0,
                _ if Some(i) == last => usize::MAX,
                _ => get_varint(&mut b).unwrap() as usize,
            })
            .collect();
        let mut segs = Vec::new();
        for len in lens {
            let (seg, rest) = b.split_at(len.min(b.len()));
            segs.push(seg.to_vec());
            b = rest;
        }
        assert!(b.is_empty(), "segments cover the row");
        RowSegments { magic, count, segs }
    }

    pub fn assemble(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u8(self.magic);
        put_varint(&mut out, self.count);
        let present = (self.segs.iter().enumerate())
            .fold(0u8, |bits, (i, s)| bits | u8::from(!s.is_empty()) << i);
        out.put_u8(present);
        let last = self.segs.iter().rposition(|s| !s.is_empty()).unwrap_or(0);
        for seg in self.segs[..last].iter().filter(|s| !s.is_empty()) {
            put_varint(&mut out, seg.len() as u64);
        }
        for seg in &self.segs {
            out.put_slice(seg);
        }
        out.freeze()
    }
}
