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
//! The wire format mirrors the version-chain codec: a varint count
//! followed by delta-encoded times, varint node-ids and a flag byte.
//! The decoder feeds the whole blob to the crate-wide decoded-byte
//! counter before parsing, rejects trailing bytes, and never panics on
//! malformed input.

use bytes::{Bytes, BytesMut};

use crate::attr::AttrValue;
use crate::codec::{get_len, get_varint, note_decoded, put_attr_value, put_str, put_varint};
use crate::error::CodecError;
use crate::hash::FxHashSet;
use crate::types::{NodeId, Time};

/// Term kind tag for attribute `(key, value)` membership rows.
pub const TERM_KIND_VALUE: u8 = 0;
/// Reserved: the tag of the bare attribute-key value-history rows that
/// indexes once carried (a node's attribute history is now read from
/// its version chain). Nothing writes or reads the kind; the tag is
/// never reused, so an old store's rows stay recognisably foreign.
pub const TERM_KIND_KEY: u8 = 1;

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

const CARRY_FLAG: u64 = 0b10;
const TRUTH_FLAG: u64 = 0b01;

/// Encode a value-term change-point row. Points must be sorted by time
/// (carry points first; they share the span start time).
pub fn encode_term_points(points: &[TermPoint]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + points.len() * 4);
    put_varint(&mut buf, points.len() as u64);
    let mut prev_time = 0u64;
    for p in points {
        put_varint(&mut buf, p.time.wrapping_sub(prev_time));
        prev_time = p.time;
        put_varint(&mut buf, p.nid);
        let flags = (u64::from(p.carry) << 1) | u64::from(p.became);
        put_varint(&mut buf, flags);
    }
    buf.freeze()
}

/// Decode a value-term change-point row.
pub fn decode_term_points(buf: &[u8]) -> Result<Vec<TermPoint>, CodecError> {
    note_decoded(buf.len());
    let mut buf = buf;
    let n = get_len(&mut buf, "term points")?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut time = 0u64;
    for _ in 0..n {
        time = time.wrapping_add(get_varint(&mut buf)?);
        let nid = get_varint(&mut buf)?;
        let flags = get_varint(&mut buf)?;
        if flags & !(CARRY_FLAG | TRUTH_FLAG) != 0 {
            return Err(CodecError::BadTag {
                what: "term point flags",
                tag: (flags & 0xff) as u8,
            });
        }
        out.push(TermPoint {
            time,
            nid,
            carry: flags & CARRY_FLAG != 0,
            became: flags & TRUTH_FLAG != 0,
        });
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: buf.len(),
        });
    }
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

    /// The bare-key rows are gone; their kind tag must never come to
    /// mean something else (an older store still holds rows under it).
    #[test]
    fn key_kind_tag_stays_reserved() {
        assert_eq!((TERM_KIND_VALUE, TERM_KIND_KEY), (0, 1));
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
    fn bad_flags_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 5); // time
        put_varint(&mut buf, 2); // nid
        put_varint(&mut buf, 0b100); // unknown flag bit
        assert!(matches!(
            decode_term_points(&buf),
            Err(CodecError::BadTag { .. })
        ));
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
