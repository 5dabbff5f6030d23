//! The byte-level codec under every stored row: varints, strings,
//! attribute values, and the node record of the columnar delta rows.
//!
//! TGI stores every delta as a serialized binary string in the
//! key-value store ("`dval` contains serialized value of the
//! micro-delta as a binary string", §4.4). The paper's Python
//! implementation used Pickle; we hand-roll a varint-based format so
//! that (a) serialized sizes faithfully track delta *size* in the
//! paper's sense, and (b) deserialization cost — a real component of
//! every retrieval latency the paper measures — is realistic.
//!
//! Format conventions: LEB128 varints for unsigned ints, zigzag for
//! signed, little-endian IEEE-754 for floats, length-prefixed UTF-8
//! strings, one tag byte per enum.
//!
//! A **record** — the unit the columnar delta rows
//! ([`crate::columnar`]) store per node, whole or as a piece — is laid
//! out by a **head** spelled outside it (a columnar row keeps every
//! record's head in its bit-coded counts column), and is
//! **shape-factored**: it stores only what varies across its
//! edge-list entries:
//!
//! ```text
//! head   := shape, n_edges, n_attrs, [first]
//! shape  := bit 0: every dir is Both
//!           bit 1: every weight is bit-exactly 1.0
//!           bit 2: no entry carries attributes
//!           (all three set on an empty list: the default shape)
//! first  := the first entry's neighbour, when the head holds it
//! record := entry{n_edges} pair{n_attrs}
//! entry  := [varint Δnbr] [dir u8] [weight f32le]
//!           [has_attrs u8 [varint n pair{n}]]
//!           -- Δnbr on every entry but a first one whose neighbour the
//!           -- head holds; the other fields only where their shape bit
//!           -- is clear
//! pair   := str key, value   (in a columnar record, one varint pair id)
//! ```
//!
//! so the undirected unit-weight attribute-free list that datasets are
//! made of costs its neighbor varints alone (one to three bytes for
//! the single-edge piece most tree records are, nothing when its head
//! holds the neighbour), and an attribute-only piece is its pair ids. Every shape is defined; a
//! count its bytes cannot hold fails before any allocation.
//! `put_record` / `get_record` are the only record codecs of the
//! crate and `put_edge_list` / `get_edge_list` its only edge-list
//! loops; the columnar records call them with pair-id codecs.
//! `skip_record` sits beside `get_record` and follows the same
//! grammar, building nothing: it is how a point read of a columnar row
//! steps over the records between a restart point and the one it
//! wants.
//!
//! Every index — TGI and the baselines alike — stores columnar rows,
//! so this module holds no row reader. [`encode_delta`] is the one
//! row-wise spelling left: write-only, read by nothing in the system.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::attr::{AttrValue, Attrs};
use crate::delta::Delta;
use crate::error::CodecError;
use crate::node::{Neighbor, StaticNode};
use crate::types::{EdgeDir, NodeId};

/// Sanity cap for decoded collection lengths (guards against corrupt
/// length prefixes allocating unbounded memory).
pub(crate) const MAX_LEN: u64 = 1 << 32;

/// Process-global count of value bytes materialized by decoding: the
/// columnar segments and term rows a read actually touches.
/// `benchmark/` reports per-operation deltas of this counter.
static DECODED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total bytes decoded by this process so far.
pub fn decoded_bytes() -> u64 {
    DECODED_BYTES.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn note_decoded(n: usize) {
    DECODED_BYTES.fetch_add(n as u64, Ordering::Relaxed);
    #[cfg(test)]
    DECODED_HERE.with(|c| c.set(c.get() + n as u64));
}

#[cfg(test)]
thread_local! {
    /// This thread's share of [`DECODED_BYTES`]: what a unit test
    /// brackets, because sibling tests decode on other threads.
    static DECODED_HERE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes decoded by the calling thread so far.
#[cfg(test)]
pub(crate) fn decoded_bytes_here() -> u64 {
    DECODED_HERE.with(std::cell::Cell::get)
}

// ----------------------------------------------------------------------
// primitives
// ----------------------------------------------------------------------

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// Write `v` as an LEB128 varint at the front of `out` (at least
/// [`MAX_VARINT`] bytes); returns the encoded length.
#[inline]
fn write_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Append an LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, v: u64) {
    let mut tmp = [0u8; MAX_VARINT];
    let n = write_varint(&mut tmp, v);
    buf.put_slice(&tmp[..n]);
}

/// Read an LEB128 varint.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    // Fast paths: single-byte varints dominate every column (delta
    // timestamps, dictionary indexes, small lengths), and two bytes
    // hold the node-id gaps of a delta row's id column that a point
    // read scans.
    if let Some((&b, rest)) = buf.split_first() {
        if b & 0x80 == 0 {
            *buf = rest;
            return Ok(b as u64);
        }
        if let Some((&b1, rest)) = rest.split_first() {
            if b1 & 0x80 == 0 {
                *buf = rest;
                return Ok((b & 0x7f) as u64 | (b1 as u64) << 7);
            }
        }
    }
    get_varint_slow(buf)
}

#[cold]
fn get_varint_slow(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut out: u64 = 0;
    for shift in (0..64).step_by(7) {
        let Some((&b, rest)) = buf.split_first() else {
            return Err(CodecError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            });
        };
        *buf = rest;
        out |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(CodecError::VarintOverflow)
}

/// Zigzag-encode a signed integer as a varint.
pub(crate) fn put_zigzag(buf: &mut BytesMut, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a zigzag varint.
pub(crate) fn get_zigzag(buf: &mut &[u8]) -> Result<i64, CodecError> {
    let z = get_varint(buf)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

#[inline]
pub(crate) fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    let Some((&b, rest)) = buf.split_first() else {
        return Err(CodecError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        });
    };
    *buf = rest;
    Ok(b)
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_len(buf: &mut &[u8], what: &'static str) -> Result<usize, CodecError> {
    let len = get_varint(buf)?;
    if len > MAX_LEN {
        return Err(CodecError::LengthOverflow { what, len });
    }
    Ok(len as usize)
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_len(buf, "string")?;
    if buf.len() < len {
        return Err(CodecError::UnexpectedEof {
            needed: len,
            remaining: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(head.to_vec()).map_err(|_| CodecError::BadUtf8)
}

pub(crate) fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_f64_le(v);
}

pub(crate) fn get_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::UnexpectedEof {
            needed: 8,
            remaining: buf.len(),
        });
    }
    let mut b = *buf;
    let v = b.get_f64_le();
    *buf = &buf[8..];
    Ok(v)
}

pub(crate) fn put_f32(buf: &mut BytesMut, v: f32) {
    buf.put_f32_le(v);
}

pub(crate) fn get_f32(buf: &mut &[u8]) -> Result<f32, CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::UnexpectedEof {
            needed: 4,
            remaining: buf.len(),
        });
    }
    let mut b = *buf;
    let v = b.get_f32_le();
    *buf = &buf[4..];
    Ok(v)
}

// ----------------------------------------------------------------------
// attributes
// ----------------------------------------------------------------------

pub(crate) fn put_attr_value(buf: &mut BytesMut, v: &AttrValue) {
    match v {
        AttrValue::Int(i) => {
            buf.put_u8(0);
            put_zigzag(buf, *i);
        }
        AttrValue::Float(f) => {
            buf.put_u8(1);
            put_f64(buf, *f);
        }
        AttrValue::Text(s) => {
            buf.put_u8(2);
            put_str(buf, s);
        }
        AttrValue::Bool(b) => {
            buf.put_u8(3);
            buf.put_u8(*b as u8);
        }
    }
}

pub(crate) fn get_attr_value(buf: &mut &[u8]) -> Result<AttrValue, CodecError> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        0 => AttrValue::Int(get_zigzag(buf)?),
        1 => AttrValue::Float(get_f64(buf)?),
        2 => AttrValue::Text(get_str(buf)?),
        3 => AttrValue::Bool(get_u8(buf)? != 0),
        t => {
            return Err(CodecError::BadTag {
                what: "AttrValue",
                tag: t,
            })
        }
    })
}

/// The pairs of `attrs`, keys inline; the count is the caller's to
/// write (a record's head holds it).
fn put_attr_pairs(buf: &mut BytesMut, attrs: &Attrs) {
    for (k, v) in attrs.iter() {
        put_str(buf, k);
        put_attr_value(buf, v);
    }
}

// ----------------------------------------------------------------------
// static nodes & deltas
// ----------------------------------------------------------------------

/// Edge-list shape bit: every entry's `dir` is [`EdgeDir::Both`].
const SHAPE_ALL_BOTH: u8 = 1 << 0;
/// Edge-list shape bit: every entry's weight is bit-exactly `1.0`
/// (`-0.0`, NaNs and `1.0 ± ulp` all clear it).
const SHAPE_UNIT_WEIGHTS: u8 = 1 << 1;
/// Edge-list shape bit: no entry carries attributes.
const SHAPE_NO_ATTRS: u8 = 1 << 2;
/// The default shape — every bit set: undirected, unit-weight,
/// attribute-free entries, as on an empty list.
pub(crate) const SHAPE_DEFAULT: u8 = SHAPE_ALL_BOTH | SHAPE_UNIT_WEIGHTS | SHAPE_NO_ATTRS;
/// Bits a shape takes.
pub(crate) const SHAPE_BITS: u32 = 3;

/// Bytes an entry spends on the fields `shape` does not factor out.
#[inline]
fn entry_fixed_len(shape: u8) -> usize {
    (shape & SHAPE_ALL_BOTH == 0) as usize
        + 4 * (shape & SHAPE_UNIT_WEIGHTS == 0) as usize
        + (shape & SHAPE_NO_ATTRS == 0) as usize
}

/// What a record's bytes are laid out by, spelled outside them: its
/// edge-list's shape, both counts and, where the head holds it, its
/// first entry's neighbour. A columnar row keeps every record's head in
/// its counts column; the row-wise spelling puts it in front of the
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordHead {
    pub(crate) shape: u8,
    pub(crate) n_edges: usize,
    pub(crate) n_attrs: usize,
    /// The first entry's neighbour when the head holds it, so that the
    /// record starts past it; `None` when the record spells it, as its
    /// first varint.
    pub(crate) first: Option<NodeId>,
}

impl RecordHead {
    /// The head of the record of `edges` and `attrs`: the shape bits
    /// every entry shares, and both counts.
    pub(crate) fn of(edges: &[Neighbor], attrs: &Attrs) -> RecordHead {
        let unit = 1.0f32.to_bits();
        let mut shape = SHAPE_DEFAULT;
        for e in edges {
            if e.dir != EdgeDir::Both {
                shape &= !SHAPE_ALL_BOTH;
            }
            if e.weight.to_bits() != unit {
                shape &= !SHAPE_UNIT_WEIGHTS;
            }
            if e.attrs.is_some() {
                shape &= !SHAPE_NO_ATTRS;
            }
        }
        RecordHead {
            shape,
            n_edges: edges.len(),
            n_attrs: attrs.len(),
            first: None,
        }
    }
}

/// Serialize the entries of an edge-list laid out by `head` (the
/// constant fields its shape factored out): per entry the
/// delta-encoded neighbor id — but for a first entry whose neighbour
/// the head holds — and only the fields the shape leaves open. The one
/// edge-list encoder of the crate.
fn put_edge_list<'a>(
    buf: &mut BytesMut,
    edges: &'a [Neighbor],
    head: &RecordHead,
    put_pairs: &mut impl FnMut(&mut BytesMut, &'a Attrs),
) {
    let shape = head.shape;
    // Sorted adjacency gaps are mostly one- or two-byte varints.
    buf.reserve(edges.len() * (2 + entry_fixed_len(shape)));
    let mut prev = 0u64;
    for (i, e) in edges.iter().enumerate() {
        // One append per entry: varint + dir + weight + attrs flag.
        let mut entry = [0u8; MAX_VARINT + 6];
        let mut n = match (i, head.first) {
            (0, Some(_)) => 0,
            _ => write_varint(&mut entry, e.nbr.wrapping_sub(prev)),
        };
        prev = e.nbr;
        if shape & SHAPE_ALL_BOTH == 0 {
            entry[n] = e.dir.tag();
            n += 1;
        }
        if shape & SHAPE_UNIT_WEIGHTS == 0 {
            entry[n..n + 4].copy_from_slice(&e.weight.to_le_bytes());
            n += 4;
        }
        if shape & SHAPE_NO_ATTRS == 0 {
            entry[n] = e.attrs.is_some() as u8;
            n += 1;
        }
        buf.put_slice(&entry[..n]);
        if let Some(a) = &e.attrs {
            put_varint(buf, a.len() as u64);
            put_pairs(buf, a);
        }
    }
}

/// Decode the `head.n_edges` entries written by [`put_edge_list`] in
/// `head.shape` onto the end of `edges`, the first one's neighbour
/// `head.first` where the head holds it. An entry count the remaining
/// bytes cannot hold fails before any allocation.
fn get_edge_list(
    buf: &mut &[u8],
    head: &RecordHead,
    edges: &mut Vec<Neighbor>,
    get_pairs: &mut impl FnMut(&mut &[u8], usize) -> Result<Attrs, CodecError>,
) -> Result<(), CodecError> {
    let (shape, n_edges) = (head.shape, head.n_edges);
    if n_edges == 0 {
        // An attribute-only piece, or a bare node.
        return Ok(());
    }
    // Every entry spells a neighbour varint, but a first one whose
    // neighbour the head holds.
    let fixed = entry_fixed_len(shape);
    let held = usize::from(head.first.is_some());
    if n_edges > held + buf.len().saturating_sub(held * fixed) / (1 + fixed) {
        return Err(CodecError::UnexpectedEof {
            needed: n_edges.saturating_mul(1 + fixed) - held,
            remaining: buf.len(),
        });
    }
    edges.reserve(n_edges);
    let mut nbr = 0u64;
    for i in 0..n_edges {
        nbr = match (i, head.first) {
            (0, Some(first)) => first,
            _ => nbr.wrapping_add(get_varint(buf)?),
        };
        let dir = if shape & SHAPE_ALL_BOTH != 0 {
            EdgeDir::Both
        } else {
            let tag = get_u8(buf)?;
            EdgeDir::from_tag(tag).ok_or(CodecError::BadTag {
                what: "EdgeDir",
                tag,
            })?
        };
        let weight = if shape & SHAPE_UNIT_WEIGHTS != 0 {
            1.0
        } else {
            get_f32(buf)?
        };
        let attrs = if shape & SHAPE_NO_ATTRS == 0 && get_u8(buf)? != 0 {
            let n = get_len(buf, "attrs")?;
            Some(Box::new(get_pairs(buf, n)?))
        } else {
            None
        };
        edges.push(Neighbor {
            nbr,
            dir,
            weight,
            attrs,
        });
    }
    Ok(())
}

/// Serialize the record `head` lays out: edge-list entries, then
/// node-attribute pairs. `put_pairs` writes the pairs of an attribute
/// set without their count — row-wise descriptions spell keys inline,
/// columnar records as pair ids; nothing else differs between them.
pub(crate) fn put_record<'a>(
    buf: &mut BytesMut,
    head: &RecordHead,
    edges: &'a [Neighbor],
    attrs: &'a Attrs,
    mut put_pairs: impl FnMut(&mut BytesMut, &'a Attrs),
) {
    put_edge_list(buf, edges, head, &mut put_pairs);
    put_pairs(buf, attrs);
}

/// Decode the edge-list of the record at the cursor, laid out as
/// `head` says, its entries onto the end of `edges` (empty for a whole
/// description; a present node's list when the path sum parses one
/// more stored piece of it). The `head.n_attrs` node-attribute pairs
/// follow: the caller reads them, into a fresh set or onto the node
/// it completes. `get_pairs(buf, n)` is the inverse of
/// [`put_record`]'s `put_pairs`.
pub(crate) fn get_record(
    buf: &mut &[u8],
    head: &RecordHead,
    edges: &mut Vec<Neighbor>,
    mut get_pairs: impl FnMut(&mut &[u8], usize) -> Result<Attrs, CodecError>,
) -> Result<(), CodecError> {
    get_edge_list(buf, head, edges, &mut get_pairs)
}

/// Skip the record at the cursor, laid out as `head` says — exactly
/// the bytes `get_record` and the pairs after it consume — without
/// building it: no edge-list, no attribute value, nothing allocated.
/// It follows `get_record`'s grammar field by field, with the same
/// `EdgeDir` tag check (what it does not check — a varint over ten
/// bytes, a pair's dictionary index — the full read of the row does).
/// Nothing is sized by a count, so an entry count the bytes cannot
/// hold simply runs out of them. `skip_pairs(buf, n)` skips `n` pairs
/// (the inverse of what `put_pairs` wrote). A default-shape edge-list
/// — every entry undirected, unit-weight, attribute-free — is one run
/// of neighbor varints (but a first one the head holds), skipped
/// without a per-entry branch. The point read of a columnar delta row
/// skips its way from a restart point to the record it wants with
/// this.
pub(crate) fn skip_record(
    buf: &mut &[u8],
    head: &RecordHead,
    mut skip_pairs: impl FnMut(&mut &[u8], usize) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let shape = head.shape;
    let held = usize::from(head.first.is_some());
    if shape == SHAPE_DEFAULT {
        skip_varints(buf, head.n_edges.saturating_sub(held))?;
    } else {
        for i in 0..head.n_edges {
            skip_varints(buf, usize::from(i >= held))?;
            if shape & SHAPE_ALL_BOTH == 0 {
                let tag = get_u8(buf)?;
                if EdgeDir::from_tag(tag).is_none() {
                    return Err(CodecError::BadTag {
                        what: "EdgeDir",
                        tag,
                    });
                }
            }
            if shape & SHAPE_UNIT_WEIGHTS == 0 {
                skip_bytes(buf, 4)?;
            }
            if shape & SHAPE_NO_ATTRS == 0 && get_u8(buf)? != 0 {
                let n = get_len(buf, "attrs")?;
                skip_pairs(buf, n)?;
            }
        }
    }
    skip_pairs(buf, head.n_attrs)
}

/// Skip `n` LEB128 varints. A varint ends at each byte whose high bit
/// is clear, so whole words of eight bytes are counted at once — a
/// hub's edge-list is thousands of varints. Where the `n` varints end
/// is where `n` calls of [`get_varint`] end, and a cut-off one is
/// refused alike; a varint longer than ten bytes, which `get_varint`
/// refuses, is stepped over — a full read of the row refuses it.
#[inline]
pub(crate) fn skip_varints(buf: &mut &[u8], mut n: usize) -> Result<(), CodecError> {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    if n == 0 {
        return Ok(());
    }
    let mut pos = 0;
    while let Some(word) = buf.get(pos..).and_then(<[u8]>::first_chunk::<8>) {
        // Bit 7 of byte `j` set: a varint ends at byte `j`. Shifted to
        // bit 0 of each byte, a multiply sums them into the top byte.
        let ends = !u64::from_le_bytes(*word) & HIGH;
        let count = ((ends >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
        if count >= n {
            let mut rest = ends;
            for _ in 1..n {
                rest &= rest - 1;
            }
            *buf = &buf[pos + (rest.trailing_zeros() / 8) as usize + 1..];
            return Ok(());
        }
        n -= count;
        pos += 8;
    }
    for (i, &b) in buf.iter().enumerate().skip(pos) {
        if b & 0x80 == 0 {
            n -= 1;
            if n == 0 {
                *buf = &buf[i + 1..];
                return Ok(());
            }
        }
    }
    Err(CodecError::UnexpectedEof {
        needed: 1,
        remaining: 0,
    })
}

fn skip_bytes(buf: &mut &[u8], n: usize) -> Result<(), CodecError> {
    let Some(rest) = buf.get(n..) else {
        return Err(CodecError::UnexpectedEof {
            needed: n,
            remaining: buf.len(),
        });
    };
    *buf = rest;
    Ok(())
}

/// Row-wise head field: the edge count, or [`HEAD_EDGES_ESCAPE`].
const HEAD_EDGES_SHIFT: u32 = 3;
/// Edge-count code saying "a varint holds the count".
const HEAD_EDGES_ESCAPE: usize = 7;
/// Row-wise head field: the node-attribute count, or
/// [`HEAD_ATTRS_ESCAPE`].
const HEAD_ATTRS_SHIFT: u32 = 6;
/// Attribute-count code saying "a varint holds the count".
const HEAD_ATTRS_ESCAPE: usize = 3;

/// Serialize one static node description: `varint id, head, record`,
/// keys inline. The head is one byte — the shape in bits 0-2, the
/// edge count in bits 3-5 when at most six, the attribute count in
/// bits 6-7 when at most two — then a varint for each count that did
/// not fit.
pub(crate) fn put_static_node(buf: &mut BytesMut, n: &StaticNode) {
    let head = RecordHead::of(&n.edges, &n.attrs);
    let edges_code = head.n_edges.min(HEAD_EDGES_ESCAPE);
    let attrs_code = head.n_attrs.min(HEAD_ATTRS_ESCAPE);
    put_varint(buf, n.id);
    buf.put_u8(
        head.shape
            | (edges_code as u8) << HEAD_EDGES_SHIFT
            | (attrs_code as u8) << HEAD_ATTRS_SHIFT,
    );
    if edges_code == HEAD_EDGES_ESCAPE {
        put_varint(buf, head.n_edges as u64);
    }
    if attrs_code == HEAD_ATTRS_ESCAPE {
        put_varint(buf, head.n_attrs as u64);
    }
    put_record(buf, &head, &n.edges, &n.attrs, put_attr_pairs);
}

/// Spell a delta row-wise: `varint n, (varint id, head, record){n}`,
/// in sorted-id order, keys inline. Nothing in the system stores or
/// reads these bytes. The one caller outside tests is the benchmark's
/// decompress probe (`benchmark/src/probes.rs`), which feeds them to
/// the store's LZSS; the one-byte head keeps that probe's input what it
/// was when columnar records carried the same head, so its timings
/// compare across commits. This function goes when that probe is moved
/// onto a columnar row.
pub fn encode_delta(d: &Delta) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + d.size() * 3);
    let nodes = d.sorted_nodes();
    put_varint(&mut buf, nodes.len() as u64);
    for n in nodes {
        put_static_node(&mut buf, n);
    }
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = BytesMut::new();
            put_zigzag(&mut buf, v);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_zigzag(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn varint_eof_detected() {
        let mut slice: &[u8] = &[0x80];
        assert!(matches!(
            get_varint(&mut slice),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn varint_overflow_detected() {
        let bytes = [0xffu8; 11];
        let mut slice: &[u8] = &bytes;
        assert!(matches!(
            get_varint(&mut slice),
            Err(CodecError::VarintOverflow)
        ));
    }

    #[test]
    fn adjacency_delta_encoding_is_compact() {
        // 1000 consecutive neighbors should take ~2-3 bytes each, far
        // less than 8-byte ids.
        let mut n = StaticNode::new(1);
        for i in 0..1000u64 {
            n.insert_edge(Neighbor::new(1_000_000 + i, EdgeDir::Both));
        }
        let d: Delta = vec![n].into_iter().collect();
        let bytes = encode_delta(&d);
        assert!(bytes.len() < 1000 * 8, "got {} bytes", bytes.len());
    }

    /// Read `n` pairs written by `put_attr_pairs`.
    fn get_attr_pairs(buf: &mut &[u8], n: usize) -> Result<Attrs, CodecError> {
        let mut pairs = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let k = get_str(buf)?;
            let v = get_attr_value(buf)?;
            pairs.push((k, v));
        }
        Ok(Attrs::from_pairs(pairs))
    }

    /// `edges` as a record with no node attributes (keys inline), and
    /// its head.
    fn record_bytes(edges: &[Neighbor]) -> (RecordHead, BytesMut) {
        let mut buf = BytesMut::new();
        let attrs = Attrs::new();
        let head = RecordHead::of(edges, &attrs);
        put_record(&mut buf, &head, edges, &attrs, put_attr_pairs);
        (head, buf)
    }

    /// The edge-list of the record at `slice`, laid out by `head`.
    fn record_back(slice: &mut &[u8], head: &RecordHead) -> Result<Vec<Neighbor>, CodecError> {
        let mut edges = Vec::new();
        get_record(slice, head, &mut edges, get_attr_pairs).map(|()| edges)
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        buf.len()
    }

    #[test]
    fn default_edges_cost_their_neighbor_varints_alone() {
        let nbrs = [3u64, 4, 130, 131, 20_000, 5_000_000, u64::MAX];
        for d in 0..=nbrs.len() {
            let edges: Vec<Neighbor> = nbrs[..d]
                .iter()
                .map(|&nbr| Neighbor::new(nbr, EdgeDir::Both))
                .collect();
            let gaps: usize = std::iter::once(0)
                .chain(nbrs[..d].iter().copied())
                .zip(&nbrs[..d])
                .map(|(prev, &nbr)| varint_len(nbr - prev))
                .sum();
            let (head, buf) = record_bytes(&edges);
            assert_eq!(
                head,
                RecordHead {
                    shape: SHAPE_DEFAULT,
                    n_edges: d,
                    n_attrs: 0,
                    first: None,
                }
            );
            assert_eq!(buf.len(), gaps, "d = {d}");
            let mut slice: &[u8] = &buf;
            assert_eq!(record_back(&mut slice, &head).unwrap(), edges);
            assert!(slice.is_empty());
            // A head that holds the first neighbour: the record starts
            // past its varint.
            if let Some(e) = edges.first() {
                let held = RecordHead {
                    first: Some(e.nbr),
                    ..head
                };
                let mut record = BytesMut::new();
                put_record(&mut record, &held, &edges, &Attrs::new(), put_attr_pairs);
                assert_eq!(&record[..], &buf[varint_len(e.nbr)..]);
                let mut slice: &[u8] = &record;
                assert_eq!(record_back(&mut slice, &held).unwrap(), edges);
                assert!(slice.is_empty());
            }
        }
        // The pieces most tree records are: one default edge is its
        // neighbor; the record of a bare node is nothing at all.
        assert_eq!(
            &record_bytes(&[Neighbor::new(9, EdgeDir::Both)]).1[..],
            &[9]
        );
        assert!(record_bytes(&[]).1.is_empty());
    }

    #[test]
    fn node_attribute_pairs_follow_the_entries() {
        let edges = [Neighbor::new(9, EdgeDir::Both)];
        for n_attrs in [0usize, 1, 2, 3, 5, 200] {
            let mut attrs = Attrs::new();
            for i in 0..n_attrs {
                attrs.set(format!("k{i:03}"), AttrValue::Bool(true));
            }
            let head = RecordHead::of(&edges, &attrs);
            assert_eq!((head.n_edges, head.n_attrs), (1, n_attrs));
            let mut buf = BytesMut::new();
            put_record(&mut buf, &head, &edges, &attrs, put_attr_pairs);
            // Each pair: length-prefixed 4-byte key, tag, bool.
            assert_eq!(buf.len(), 1 + n_attrs * 7);
            let mut slice: &[u8] = &buf;
            assert_eq!(record_back(&mut slice, &head).unwrap(), edges);
            assert_eq!(get_attr_pairs(&mut slice, n_attrs).unwrap(), attrs);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn each_open_field_costs_exactly_its_bytes() {
        let base: Vec<Neighbor> = (1..=5u64)
            .map(|i| Neighbor::new(i * 7, EdgeDir::Both))
            .collect();
        let plain = record_bytes(&base).1.len();
        assert_eq!(plain, 5, "five one-byte gaps");

        let mut directed = base.clone();
        directed[2].dir = EdgeDir::Out;
        let (head, buf) = record_bytes(&directed);
        assert_eq!(head.shape, SHAPE_DEFAULT & !SHAPE_ALL_BOTH);
        assert_eq!(buf.len(), plain + 5);

        let mut weighted = base.clone();
        weighted[4].weight = 2.5;
        let (head, buf) = record_bytes(&weighted);
        assert_eq!(head.shape, SHAPE_DEFAULT & !SHAPE_UNIT_WEIGHTS);
        assert_eq!(buf.len(), plain + 5 * 4);

        let mut attributed = base.clone();
        attributed[0].set_attr("k", AttrValue::Bool(true));
        let (head, buf) = record_bytes(&attributed);
        assert_eq!(head.shape, SHAPE_DEFAULT & !SHAPE_NO_ATTRS);
        // One flag byte per entry, plus count + "k" + Bool(true).
        assert_eq!(buf.len(), plain + 5 + 1 + 2 + 2);

        for edges in [directed, weighted, attributed] {
            let (head, buf) = record_bytes(&edges);
            let mut slice: &[u8] = &buf;
            assert_eq!(record_back(&mut slice, &head).unwrap(), edges);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn only_bit_exact_one_is_a_unit_weight() {
        let one_ulp_up = f32::from_bits(1.0f32.to_bits() + 1);
        for w in [-0.0f32, 0.0, -1.0, f32::NAN, f32::INFINITY, one_ulp_up] {
            let edges = [
                Neighbor::new(1, EdgeDir::Both),
                Neighbor::weighted(2, EdgeDir::Both, w),
            ];
            let (head, buf) = record_bytes(&edges);
            assert_eq!(head.shape & SHAPE_UNIT_WEIGHTS, 0, "weight {w:?} folded");
            let mut slice: &[u8] = &buf;
            let back = record_back(&mut slice, &head).unwrap();
            assert_eq!(back[0].weight.to_bits(), 1.0f32.to_bits());
            assert_eq!(back[1].weight.to_bits(), w.to_bits(), "weight {w:?}");
        }
    }

    /// Every shape is defined: each lays out a body of entries as it
    /// says, and a body cut anywhere short is an error, never a
    /// shorter record.
    #[test]
    fn every_shape_is_defined() {
        for (shape, first) in (0..1u8 << SHAPE_BITS).flat_map(|s| [(s, None), (s, Some(2))]) {
            let head = RecordHead {
                shape,
                n_edges: 4,
                n_attrs: 0,
                first,
            };
            let mut buf = BytesMut::new();
            for i in 0..head.n_edges {
                if i > 0 || first.is_none() {
                    buf.put_u8(2); // Δnbr
                }
                if shape & SHAPE_ALL_BOTH == 0 {
                    buf.put_u8(EdgeDir::In.tag());
                }
                if shape & SHAPE_UNIT_WEIGHTS == 0 {
                    put_f32(&mut buf, 0.5);
                }
                if shape & SHAPE_NO_ATTRS == 0 {
                    buf.put_u8(0);
                }
            }
            let mut slice: &[u8] = &buf;
            let edges = record_back(&mut slice, &head).unwrap();
            assert!(slice.is_empty(), "shape {shape:#05b}");
            assert_eq!(edges.len(), head.n_edges);
            for (i, e) in edges.iter().enumerate() {
                assert_eq!(e.nbr, 2 * (i as u64 + 1));
                assert_eq!(e.dir == EdgeDir::Both, shape & SHAPE_ALL_BOTH != 0);
                assert_eq!(e.weight == 1.0, shape & SHAPE_UNIT_WEIGHTS != 0);
            }
            for cut in 0..buf.len() {
                let mut slice: &[u8] = &buf[..cut];
                assert!(
                    record_back(&mut slice, &head).is_err(),
                    "shape {shape:#05b} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn edge_count_beyond_the_buffer_fails_before_allocating() {
        // Claims 2^31 entries of 6 bytes each, carries two.
        let head = RecordHead {
            shape: 0,
            n_edges: 1 << 31,
            n_attrs: 0,
            first: None,
        };
        let buf = [1u8, 2, 0, 0, 0x80, 0x3f, 0, 1, 2, 0, 0, 0x80, 0x3f, 0];
        let mut slice: &[u8] = &buf;
        assert!(matches!(
            record_back(&mut slice, &head),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn skip_varints_ends_where_get_varint_ends() {
        // Byte strings of varints of any length, cut anywhere: skipping
        // `n` varints ends where `n` reads end, and a cut-off one is
        // refused alike.
        let mut next = crate::tests::xorshift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..20_000 {
            let len = (next() % 40) as usize;
            let cont = next() % 4;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let b = next() as u8 & 0x7f;
                    if next() % 4 < cont {
                        b | 0x80
                    } else {
                        b
                    }
                })
                .collect();
            let n = (next() % 12) as usize;
            let mut read: &[u8] = &bytes;
            let want = (0..n).try_for_each(|_| get_varint(&mut read).map(drop));
            let mut skipped: &[u8] = &bytes;
            let got = skip_varints(&mut skipped, n);
            match want {
                Ok(()) => {
                    assert_eq!(got, Ok(()), "{bytes:02x?}, n = {n}");
                    assert_eq!(skipped.len(), read.len(), "{bytes:02x?}, n = {n}");
                }
                Err(CodecError::UnexpectedEof { .. }) => {
                    assert!(
                        matches!(got, Err(CodecError::UnexpectedEof { .. })),
                        "{bytes:02x?}, n = {n}"
                    );
                }
                Err(_) => {}
            }
        }
    }

    /// A node description for the skip fuzz: a few entries, sometimes
    /// a dozen, most of them default; node attributes now and then.
    fn arb_record_node() -> impl Strategy<Value = StaticNode> {
        let pairs = |len| {
            prop::collection::vec(
                (
                    "[a-c]{1,3}",
                    prop_oneof![
                        (-100i64..100).prop_map(AttrValue::Int),
                        (-4.0f64..4.0).prop_map(AttrValue::Float),
                        "[a-z]{0,6}".prop_map(AttrValue::Text),
                        any::<bool>().prop_map(AttrValue::Bool),
                    ],
                ),
                len,
            )
        };
        let entries = |len| {
            let entry = (
                0u64..1 << 40,
                prop_oneof![6 => Just(EdgeDir::Both), 1 => Just(EdgeDir::Out), 1 => Just(EdgeDir::In)],
                prop_oneof![6 => Just(1.0f32), 1 => 0.0f32..4.0],
                prop_oneof![8 => Just(Vec::new()), 1 => pairs(1..3)],
            )
                .prop_map(|(nbr, dir, weight, pairs)| {
                    let mut e = Neighbor::weighted(nbr, dir, weight);
                    for (k, v) in pairs {
                        e.set_attr(k, v);
                    }
                    e
                });
            prop::collection::vec(entry, len)
        };
        (
            0u64..1 << 40,
            prop_oneof![4 => entries(0..4), 1 => entries(4..12)],
            prop_oneof![3 => Just(Vec::new()), 1 => pairs(1..5)],
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

    /// Skip `n` inline pairs: a length-prefixed key and a value each.
    fn skip_inline_pairs(b: &mut &[u8], n: usize) -> Result<(), CodecError> {
        for _ in 0..n {
            let len = get_len(b, "string")?;
            skip_bytes(b, len)?;
            get_attr_value(b)?;
        }
        Ok(())
    }

    proptest! {
        /// On a record unchanged, with a byte replaced, bytes inserted,
        /// cut short or replaced by arbitrary bytes, followed by
        /// whatever else a buffer holds, and read by its own head or
        /// another one: wherever `get_record` and its pairs accept the
        /// record, `skip_record` accepts it too and ends where they end.
        #[test]
        fn skip_record_steps_over_what_get_record_reads(
            n in arb_record_node(),
            mutation in 0u8..6,
            at in any::<u64>(),
            extra in prop::collection::vec(any::<u8>(), 1..5),
            arbitrary in prop::collection::vec(any::<u8>(), 0..48),
            tail in prop::collection::vec(any::<u8>(), 0..4),
            other_head in (0u8..1 << SHAPE_BITS, 0usize..14, 0usize..6, any::<bool>(), 0u64..1 << 20),
        ) {
            let mut head = RecordHead::of(&n.edges, &n.attrs);
            let mut buf = BytesMut::new();
            put_record(&mut buf, &head, &n.edges, &n.attrs, put_attr_pairs);
            let mut bytes = buf.to_vec();
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match mutation {
                1 if at < bytes.len() => bytes[at] = extra[0],
                2 => drop(bytes.splice(at..at, extra)),
                3 => bytes.truncate(at),
                4 => bytes = arbitrary,
                5 => {
                    let (shape, n_edges, n_attrs, held, first) = other_head;
                    head = RecordHead { shape, n_edges, n_attrs, first: held.then_some(first) };
                }
                _ => {}
            }
            bytes.extend_from_slice(&tail);
            let mut read: &[u8] = &bytes;
            let mut skipped: &[u8] = &bytes;
            let ok = get_record(&mut read, &head, &mut Vec::new(), get_attr_pairs)
                .and_then(|()| get_attr_pairs(&mut read, head.n_attrs))
                .is_ok();
            if ok {
                prop_assert_eq!(skip_record(&mut skipped, &head, skip_inline_pairs), Ok(()));
                prop_assert_eq!(read.len(), skipped.len());
            }
            if mutation == 0 {
                prop_assert!(ok);
                prop_assert_eq!(read.len(), tail.len());
            }
        }
    }
}
