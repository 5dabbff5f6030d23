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
//! else:
//!
//! ```text
//! row    := varint span_start
//!           varint n_carry  varint nid_gap{n_carry}
//!           varint n_change (varint time_gap, varint nid){n_change}
//!           became_bits
//! ```
//!
//! Node-id gaps run from 0, time gaps from the span start, and
//! `became_bits` is one bit per change point, least-significant first,
//! zero-padded to a byte. The decoder feeds the whole blob to the
//! crate-wide decoded-byte counter before parsing, accumulates with
//! checked adds, holds both counts to the bytes left before allocating,
//! rejects trailing bytes and set padding bits, and never panics on
//! malformed input.

use bytes::{Bytes, BytesMut};

use crate::attr::AttrValue;
use crate::bits::{BitReader, BitWriter};
use crate::codec::{bounded_count, get_varint, note_decoded, put_attr_value, put_str, put_varint};
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
    let mut buf = BytesMut::with_capacity(8 + carry.len() * 2 + changes.len() * 4);
    put_varint(&mut buf, start);
    put_varint(&mut buf, carry.len() as u64);
    let mut prev_nid = 0u64;
    for p in carry {
        put_varint(&mut buf, p.nid.wrapping_sub(prev_nid));
        prev_nid = p.nid;
    }
    put_varint(&mut buf, changes.len() as u64);
    let mut prev_time = start;
    for p in changes {
        debug_assert!(p.time >= prev_time, "change points in time order");
        put_varint(&mut buf, p.time.wrapping_sub(prev_time));
        prev_time = p.time;
        put_varint(&mut buf, p.nid);
    }
    let mut bits = BitWriter::new(&mut buf);
    for p in changes {
        bits.put(u64::from(p.became), 1);
    }
    bits.finish();
    buf.freeze()
}

/// Decode a value-term change-point row.
pub fn decode_term_points(buf: &[u8]) -> Result<Vec<TermPoint>, CodecError> {
    note_decoded(buf.len());
    let mut buf = buf;
    let add = |a: u64, b: u64| a.checked_add(b).ok_or(CodecError::VarintOverflow);
    let start = get_varint(&mut buf)?;
    let n_carry = bounded_count(&mut buf, 1, "term carry points")?;
    let mut out = Vec::with_capacity(n_carry);
    let mut nid = 0u64;
    for _ in 0..n_carry {
        nid = add(nid, get_varint(&mut buf)?)?;
        out.push(TermPoint {
            time: start,
            nid,
            carry: true,
            became: true,
        });
    }
    let n_change = bounded_count(&mut buf, 2, "term change points")?;
    out.reserve_exact(n_change);
    let mut time = start;
    for _ in 0..n_change {
        time = add(time, get_varint(&mut buf)?)?;
        out.push(TermPoint {
            time,
            nid: get_varint(&mut buf)?,
            carry: false,
            became: false,
        });
    }
    let mut bits = BitReader::new(buf);
    for p in &mut out[n_carry..] {
        p.became = bits.get(1)? == 1;
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
    use bytes::BufMut;

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

    #[test]
    fn bad_rows_rejected() {
        let mut enc = encode_term_points(&sample_term_points()).to_vec();
        // A set padding bit past the two `became` flags.
        *enc.last_mut().unwrap() |= 0b100;
        assert!(matches!(
            decode_term_points(&enc),
            Err(CodecError::BadTag {
                what: "padding",
                ..
            })
        ));
        // A time gap past the clock.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX); // span start
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 1); // time gap
        put_varint(&mut buf, 2); // nid
        buf.put_u8(1);
        assert_eq!(decode_term_points(&buf), Err(CodecError::VarintOverflow));
        // Counts the row has no bytes for fail before allocating.
        for counts in [[u32::MAX as u64, 0], [0, u32::MAX as u64]] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, 0);
            put_varint(&mut buf, counts[0]);
            put_varint(&mut buf, counts[1]);
            assert!(matches!(
                decode_term_points(&buf),
                Err(CodecError::LengthOverflow { .. })
            ));
        }
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
        // Start (3 bytes), count, 100 one-byte gaps, change count.
        assert_eq!(enc.len(), 3 + 1 + 100 + 1);
        assert_eq!(decode_term_points(&enc).unwrap(), carry);
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
