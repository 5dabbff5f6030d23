//! Secondary temporal index rows: per-term change-point lists.
//!
//! A *term* is an attribute `(key, value)` pair (kind
//! [`TERM_KIND_VALUE`]). For every timespan the build emits one row per
//! term seen in (or carried into) the span, holding `(time, nid,
//! became)` change points — the interval endpoints at which a node
//! started or stopped holding `key == value`.
//!
//! Rows are **self-contained per span**: the state carried in from
//! earlier spans is replayed as change points stamped at the span's
//! start time and flagged `carry`, so a point query touches exactly one
//! `(term, tsid)` row.
//!
//! A row spells only what its reader cannot derive. A carry point's
//! time is the span start, it always `became`, and carry points come
//! in node order — so a carry point is its node-id gap and nothing
//! else. Past three varints, a row is one bit string (least-significant
//! bit first, the last byte zero-padded):
//!
//! ```text
//! row    := varint span_start, varint n_carry, varint n_change, bits
//! bits   := [k_carry:6 Rice(nid_gap, k_carry){n_carry}]
//!           [k_time:6 w:7 Rice(time_gap, k_time){n_change}
//!            nid:w{n_change} became:1{n_change}]
//! ```
//!
//! Each part is there only when it has points, and spells its points
//! column by column. A carry point's gap runs from the node before it
//! less one (the first from 0), a change point's time gap from the
//! point before it (the first from the span start), and a change
//! point's node id takes `w` bits — the bit length of the row's largest
//! changed id. The carry ids and the change times are rising columns
//! (`bits.rs`: from 0 with bias 1, and from the span start with bias
//! 0), each Rice parameter `k = ⌊log2(mean · ln 2)⌋` of its gaps. The
//! decoder feeds the whole blob to the crate-wide decoded-byte counter
//! before parsing, sums each rising column with one overflow check,
//! holds both counts to the bits left before allocating, and refuses a
//! width past 64 bits or other than the largest id's, trailing bytes
//! and set padding bits; it never panics on malformed input.

use bytes::{Bytes, BytesMut};

use crate::attr::AttrValue;
use crate::bits::{bit_len, rising_k, BitReader, BitWriter};
use crate::codec::{get_len, get_varint, note_decoded, put_attr_value, put_str, put_varint};
use crate::error::CodecError;
use crate::hash::FxHashSet;
use crate::types::{NodeId, Time};

/// Term kind tag for attribute `(key, value)` membership rows.
pub const TERM_KIND_VALUE: u8 = 0;

/// One endpoint of a `key == value` membership interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermPoint {
    /// Event time of the transition (span start time for carry points).
    pub time: Time,
    /// Node whose membership changed.
    pub nid: NodeId,
    /// True for points that replay state carried in from earlier spans.
    pub carry: bool,
    /// True when the node started matching the term, false when it
    /// stopped.
    pub became: bool,
}

/// Serialized bytes identifying a `(key, value)` term. Length-prefixed
/// so distinct `(key, value)` pairs never collide byte-wise.
pub fn value_term(key: &str, value: &AttrValue) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_str(&mut buf, key);
    put_attr_value(&mut buf, value);
    buf.to_vec()
}

/// Encode a value-term change-point row: the span's carry points — at
/// the span start, each `became`, in node order — then its change
/// points in time order.
pub fn encode_term_points(points: &[TermPoint]) -> Bytes {
    let (carry, changes) = points.split_at(points.partition_point(|p| p.carry));
    let start = points.first().map_or(0, |p| p.time);
    debug_assert!(carry.iter().all(|p| p.time == start && p.became));
    debug_assert!(carry.windows(2).all(|w| w[0].nid < w[1].nid));
    debug_assert!(changes.iter().all(|p| !p.carry));
    debug_assert!(changes.windows(2).all(|w| w[0].time <= w[1].time));
    let mut buf = BytesMut::with_capacity(8 + carry.len() + changes.len() * 3);
    put_varint(&mut buf, start);
    put_varint(&mut buf, carry.len() as u64);
    put_varint(&mut buf, changes.len() as u64);
    let mut bits = BitWriter::new(&mut buf);
    if let Some(last) = carry.last() {
        let k = rising_k(0, last.nid, carry.len(), 1);
        bits.put(u64::from(k), K_BITS);
        bits.put_rising(0, carry.iter().map(|p| p.nid), 1, k);
    }
    if let Some(last) = changes.last() {
        let k = rising_k(start, last.time, changes.len(), 0);
        let w = nid_width(changes);
        bits.put(u64::from(k), K_BITS);
        bits.put(u64::from(w), W_BITS);
        bits.put_rising(start, changes.iter().map(|p| p.time), 0, k);
        for p in changes {
            bits.put(p.nid, w);
        }
        for p in changes {
            bits.put(u64::from(p.became), 1);
        }
    }
    bits.finish();
    buf.freeze()
}

/// Bits of a stored Rice parameter.
const K_BITS: u32 = 6;
/// Bits of the stored node-id width.
const W_BITS: u32 = 7;

/// The bit length of the largest node id of `changes`.
fn nid_width(changes: &[TermPoint]) -> u32 {
    bit_len(changes.iter().map(|p| p.nid).max().unwrap_or(0))
}

/// Decode a value-term change-point row.
pub fn decode_term_points(buf: &[u8]) -> Result<Vec<TermPoint>, CodecError> {
    note_decoded(buf.len());
    let mut buf = buf;
    let start = get_varint(&mut buf)?;
    let n_carry = get_len(&mut buf, "term carry points")?;
    let n_change = get_len(&mut buf, "term change points")?;
    // Every carry point takes at least one bit, every change point two.
    let needed = n_carry.saturating_add(n_change.saturating_mul(2));
    if needed > buf.len() * 8 {
        return Err(CodecError::LengthOverflow {
            what: "term points",
            len: needed as u64,
        });
    }
    let mut out = Vec::with_capacity(n_carry + n_change);
    let mut bits = BitReader::new(buf);
    if n_carry > 0 {
        let k = bits.get(K_BITS)? as u8;
        bits.get_rising(n_carry, 0, 1, k, |nid| {
            out.push(TermPoint {
                time: start,
                nid,
                carry: true,
                became: true,
            })
        })?;
    }
    if n_change > 0 {
        let k = bits.get(K_BITS)? as u8;
        let w = bits.get(W_BITS)? as u32;
        if w > u64::BITS {
            return Err(CodecError::BadTag {
                what: "term node-id width",
                tag: w as u8,
            });
        }
        bits.get_rising(n_change, start, 0, k, |time| {
            out.push(TermPoint {
                time,
                nid: 0,
                carry: false,
                became: false,
            })
        })?;
        let changes = &mut out[n_carry..];
        let mut at = changes.iter_mut();
        bits.get_many(n_change, w, |nid| {
            if let Some(p) = at.next() {
                p.nid = nid;
            }
        })?;
        // The flags, up to 56 at a time.
        for run in changes.chunks_mut(56) {
            let flags = bits.get(run.len() as u32)?;
            for (i, p) in run.iter_mut().enumerate() {
                p.became = flags >> i & 1 == 1;
            }
        }
        if nid_width(changes) != w {
            return Err(CodecError::BadTag {
                what: "term node-id width",
                tag: w as u8,
            });
        }
    }
    bits.finish()?;
    Ok(out)
}

/// Replay a value-term row up to (and including) `t`, returning the
/// sorted node-ids matching the term at `t`. The cut point is found by
/// binary search; only the prefix of points at or before `t` is
/// replayed.
pub fn matching_at(points: &[TermPoint], t: Time) -> Vec<NodeId> {
    let cut = points.partition_point(|p| p.time <= t);
    let mut set = FxHashSet::default();
    for p in &points[..cut] {
        if p.became {
            set.insert(p.nid);
        } else {
            set.remove(&p.nid);
        }
    }
    let mut out: Vec<NodeId> = set.into_iter().collect();
    out.sort_unstable();
    out
}

/// In-memory weight of a decoded value-term row, for cache accounting.
pub fn term_points_weight(points: &[TermPoint]) -> usize {
    std::mem::size_of::<Vec<TermPoint>>() + std::mem::size_of_val(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_term_points() -> Vec<TermPoint> {
        vec![
            TermPoint {
                time: 10,
                nid: 1,
                carry: true,
                became: true,
            },
            TermPoint {
                time: 10,
                nid: 7,
                carry: true,
                became: true,
            },
            TermPoint {
                time: 12,
                nid: 7,
                carry: false,
                became: false,
            },
            TermPoint {
                time: 15,
                nid: u64::MAX,
                carry: false,
                became: true,
            },
        ]
    }

    #[test]
    fn term_points_roundtrip() {
        let pts = sample_term_points();
        let enc = encode_term_points(&pts);
        assert_eq!(decode_term_points(&enc).unwrap(), pts);
    }

    /// The one term kind keeps its key byte.
    #[test]
    fn value_kind_tag_is_zero() {
        assert_eq!(TERM_KIND_VALUE, 0);
    }

    #[test]
    fn empty_rows_roundtrip() {
        assert_eq!(decode_term_points(&encode_term_points(&[])).unwrap(), []);
    }

    #[test]
    fn matching_replays_prefix_only() {
        let pts = sample_term_points();
        assert_eq!(matching_at(&pts, 9), Vec::<NodeId>::new());
        assert_eq!(matching_at(&pts, 10), vec![1, 7]);
        assert_eq!(matching_at(&pts, 12), vec![1]);
        assert_eq!(matching_at(&pts, 99), vec![1, u64::MAX]);
    }

    #[test]
    fn truncated_rows_error_without_panic() {
        let pts = sample_term_points();
        let enc = encode_term_points(&pts);
        for cut in 1..enc.len() {
            assert!(decode_term_points(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode_term_points(&sample_term_points()).to_vec();
        enc.push(0);
        assert!(matches!(
            decode_term_points(&enc),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    /// A row's three counts, then `bits` as its bit string.
    fn raw_row(
        start: u64,
        n_carry: u64,
        n_change: u64,
        bits: impl FnOnce(&mut BitWriter),
    ) -> BytesMut {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, start);
        put_varint(&mut buf, n_carry);
        put_varint(&mut buf, n_change);
        let mut w = BitWriter::new(&mut buf);
        bits(&mut w);
        w.finish();
        buf
    }

    #[test]
    fn bad_rows_rejected() {
        // A set padding bit past the last `became` flag (the sample's
        // bits end six short of a byte).
        let mut enc = encode_term_points(&sample_term_points()).to_vec();
        *enc.last_mut().unwrap() |= 0x80;
        assert!(matches!(
            decode_term_points(&enc),
            Err(CodecError::BadTag {
                what: "padding",
                ..
            })
        ));
        // A time gap past the clock.
        let row = raw_row(u64::MAX, 0, 1, |w| {
            w.put(0, K_BITS);
            w.put(2, W_BITS);
            w.put_rice(1, 0);
            w.put(2, 2);
            w.put(1, 1);
        });
        assert_eq!(decode_term_points(&row), Err(CodecError::VarintOverflow));
        // A carry gap past the last node id.
        let row = raw_row(0, 2, 0, |w| {
            w.put(63, K_BITS);
            w.put_rice(u64::MAX, 63);
            w.put_rice(0, 63);
        });
        assert_eq!(decode_term_points(&row), Err(CodecError::VarintOverflow));
        // Counts the row has no bits for fail before allocating.
        for counts in [[u32::MAX as u64, 0], [0, u32::MAX as u64], [9, 0], [0, 5]] {
            let row = raw_row(0, counts[0], counts[1], |w| w.put(0, 8));
            assert!(matches!(
                decode_term_points(&row),
                Err(CodecError::LengthOverflow { .. })
            ));
        }
    }

    #[test]
    fn a_node_id_width_the_ids_do_not_have_is_refused() {
        // One change point at node 5 (three bits), spelled at `w`.
        let row = |w: u64| {
            raw_row(0, 0, 1, |bits| {
                bits.put(0, K_BITS);
                bits.put(w, W_BITS);
                bits.put_rice(0, 0);
                bits.put(5 & ((1u64 << w.min(63)) - 1), w.min(64) as u32);
                bits.put(1, 1);
            })
        };
        assert_eq!(decode_term_points(&row(3)).unwrap()[0].nid, 5);
        for w in [4, 64] {
            assert_eq!(
                decode_term_points(&row(w)),
                Err(CodecError::BadTag {
                    what: "term node-id width",
                    tag: w as u8
                })
            );
        }
        // A width past a `u64`.
        let row = raw_row(0, 0, 1, |bits| {
            bits.put(0, K_BITS);
            bits.put(65, W_BITS);
            bits.put(0, 24);
        });
        assert_eq!(
            decode_term_points(&row),
            Err(CodecError::BadTag {
                what: "term node-id width",
                tag: 65
            })
        );
    }

    #[test]
    fn carry_points_spell_only_their_node_gaps() {
        let carry: Vec<TermPoint> = (0..100u64)
            .map(|i| TermPoint {
                time: 1_000_000,
                nid: 3 * i,
                carry: true,
                became: true,
            })
            .collect();
        let enc = encode_term_points(&carry);
        // Start (3 bytes), two counts, then k = 0 (mean gap 2 − ...:
        // gaps of 2, ⌊log2(1.98 · ln 2)⌋ = 0) in six bits and 99 codes
        // of 3 bits after the first's 1: 304 bits in 38 bytes.
        assert_eq!(enc.len(), 3 + 1 + 1 + 38);
        assert_eq!(decode_term_points(&enc).unwrap(), carry);
    }

    #[test]
    fn term_rows_round_trip_and_refuse_every_cut() {
        // Rows of carry and change points from a small generator: each
        // decodes to what was encoded, and every prefix is refused.
        let mut x = crate::tests::xorshift(0x9e37_79b9_7f4a_7c15);
        let mut next = |m: u64| x() % m;
        for case in 0..300u64 {
            let start = next(1 << (case % 40));
            let mut points = Vec::new();
            let mut nid = 0;
            for _ in 0..next(20) {
                nid += 1 + next(1 << (case % 17));
                points.push(TermPoint {
                    time: start,
                    nid,
                    carry: true,
                    became: true,
                });
            }
            let mut time = start;
            for _ in 0..next(30) {
                time += next(1 << (case % 23));
                points.push(TermPoint {
                    time,
                    nid: next(1 << (case % 64).max(1)),
                    carry: false,
                    became: next(2) == 1,
                });
            }
            let enc = encode_term_points(&points);
            assert_eq!(decode_term_points(&enc).unwrap(), points, "case {case}");
            for cut in 0..enc.len() {
                assert!(
                    decode_term_points(&enc[..cut]).is_err(),
                    "case {case} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn value_terms_never_collide() {
        // Length prefixes keep (key, value) splits unambiguous.
        let a = value_term("ab", &AttrValue::Text("c".into()));
        let b = value_term("a", &AttrValue::Text("bc".into()));
        assert_ne!(a, b);
    }

    #[test]
    fn decoding_counts_bytes() {
        let enc = encode_term_points(&sample_term_points());
        let before = crate::codec::decoded_bytes_here();
        decode_term_points(&enc).unwrap();
        let decoded = crate::codec::decoded_bytes_here() - before;
        assert_eq!(decoded, enc.len() as u64);
    }
}
