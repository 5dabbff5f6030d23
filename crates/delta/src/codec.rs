//! Compact binary codec for deltas, events and version chains.
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
//! A node description is `varint id, record`. A **record** — the unit
//! the columnar delta rows ([`crate::columnar`]) store per node, whole
//! or as a piece — opens with one head byte that carries everything
//! small about it, and is **shape-factored**: it stores only what
//! varies across its edge-list entries:
//!
//! ```text
//! record := head [varint n_edges] [varint n_attrs] entry{n_edges} pair{n_attrs}
//! head   := u8  bits 0-2  shape
//!               bits 3-5  n_edges when <= 6; 7 = the varint follows
//!               bits 6-7  n_attrs when <= 2; 3 = the varint follows
//! shape  :=     bit 0: every dir is Both
//!               bit 1: every weight is bit-exactly 1.0
//!               bit 2: no entry carries attributes
//!               (all three set on an empty list)
//! entry  := varint Δnbr [dir u8] [weight f32le] [has_attrs u8 [varint n pair{n}]]
//!           -- only the fields whose shape bit is clear
//! pair   := str key, value   (in a columnar record, one varint index
//!                             into its row's pair dictionary)
//! ```
//!
//! so the undirected unit-weight attribute-free list that datasets are
//! made of costs its neighbor varints plus **one** byte up to six
//! entries (two to four bytes for the single-edge piece most tree
//! records are), and an attribute-only piece is `head, pair`. Every
//! value of the head byte is defined; a count its bytes cannot hold
//! fails before any allocation. `put_record` / `get_record` are the
//! only record codecs of the crate and `put_edge_list` /
//! `get_edge_list` its only edge-list loops: the columnar records call
//! them too, passing pair-dictionary codecs, so the index and the
//! baselines' rows share one grammar. `skip_record` sits beside
//! `get_record` and follows the same grammar, building nothing: it is
//! how a point read of a columnar row steps over the records between a
//! restart point and the one it wants.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::attr::{AttrValue, Attrs};
use crate::delta::Delta;
use crate::error::CodecError;
use crate::event::{Event, EventKind, Eventlist};
use crate::node::{Neighbor, StaticNode};
use crate::types::EdgeDir;

/// Sanity cap for decoded collection lengths (guards against corrupt
/// length prefixes allocating unbounded memory).
pub(crate) const MAX_LEN: u64 = 1 << 32;

/// Process-global count of value bytes materialized by decoding:
/// whole-row bytes for the row-wise codec, decompressed segment bytes
/// for the columnar codec. `benchmark/` reports per-operation deltas
/// of this counter.
static DECODED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total bytes decoded by this process so far (row-wise rows plus
/// columnar segments actually materialized).
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
pub fn put_zigzag(buf: &mut BytesMut, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a zigzag varint.
pub fn get_zigzag(buf: &mut &[u8]) -> Result<i64, CodecError> {
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

/// Read an element count and hold it to the bytes left: every element
/// is at least `min_bytes` long, so a count the buffer cannot hold is
/// refused here, before anything is allocated for it.
pub fn bounded_count(
    buf: &mut &[u8],
    min_bytes: usize,
    what: &'static str,
) -> Result<usize, CodecError> {
    let len = get_varint(buf)?;
    if len > (buf.len() / min_bytes) as u64 {
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

fn get_attr_pairs(buf: &mut &[u8], n: usize) -> Result<Attrs, CodecError> {
    let mut pairs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let k = get_str(buf)?;
        let v = get_attr_value(buf)?;
        pairs.push((k, v));
    }
    Ok(Attrs::from_pairs(pairs))
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
const SHAPE_MASK: u8 = SHAPE_ALL_BOTH | SHAPE_UNIT_WEIGHTS | SHAPE_NO_ATTRS;

/// Bytes an entry spends on the fields `shape` does not factor out.
#[inline]
fn entry_fixed_len(shape: u8) -> usize {
    (shape & SHAPE_ALL_BOTH == 0) as usize
        + 4 * (shape & SHAPE_UNIT_WEIGHTS == 0) as usize
        + (shape & SHAPE_NO_ATTRS == 0) as usize
}

/// Head-byte field: the edge count, or [`HEAD_EDGES_ESCAPE`].
const HEAD_EDGES_SHIFT: u32 = 3;
/// Edge-count code saying "a varint holds the count".
const HEAD_EDGES_ESCAPE: usize = 7;
/// Head-byte field: the node-attribute count, or [`HEAD_ATTRS_ESCAPE`].
const HEAD_ATTRS_SHIFT: u32 = 6;
/// Attribute-count code saying "a varint holds the count".
const HEAD_ATTRS_ESCAPE: usize = 3;

/// What a record's head says about the bytes after it.
struct RecordHead {
    shape: u8,
    n_edges: usize,
    n_attrs: usize,
}

/// Write the head of a record — the one byte holding the edge-list's
/// shape bits, its entry count when at most six and the node-attribute
/// count when at most two, then a varint for each count that did not
/// fit. Returns the shape the entries are to be written in.
fn put_record_head(buf: &mut BytesMut, edges: &[Neighbor], n_attrs: usize) -> u8 {
    let unit = 1.0f32.to_bits();
    let mut shape = SHAPE_MASK;
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
    let edges_code = edges.len().min(HEAD_EDGES_ESCAPE);
    let attrs_code = n_attrs.min(HEAD_ATTRS_ESCAPE);
    buf.put_u8(
        shape | (edges_code as u8) << HEAD_EDGES_SHIFT | (attrs_code as u8) << HEAD_ATTRS_SHIFT,
    );
    if edges_code == HEAD_EDGES_ESCAPE {
        put_varint(buf, edges.len() as u64);
    }
    if attrs_code == HEAD_ATTRS_ESCAPE {
        put_varint(buf, n_attrs as u64);
    }
    shape
}

/// Read a head written by [`put_record_head`]. All eight bits are
/// spoken for, so no byte is a bad tag; the counts are checked against
/// the bytes left by whoever allocates for them.
#[inline]
fn get_record_head(buf: &mut &[u8]) -> Result<RecordHead, CodecError> {
    let head = get_u8(buf)?;
    let mut n_edges = (head >> HEAD_EDGES_SHIFT) as usize & HEAD_EDGES_ESCAPE;
    if n_edges == HEAD_EDGES_ESCAPE {
        n_edges = get_len(buf, "edges")?;
    }
    let mut n_attrs = (head >> HEAD_ATTRS_SHIFT) as usize;
    if n_attrs == HEAD_ATTRS_ESCAPE {
        n_attrs = get_len(buf, "attrs")?;
    }
    Ok(RecordHead {
        shape: head & SHAPE_MASK,
        n_edges,
        n_attrs,
    })
}

/// Serialize the entries of an edge-list in `shape` (the constant
/// fields its record's head factored out): per entry the
/// delta-encoded neighbor id and only the fields the shape leaves
/// open. The one edge-list encoder of the crate.
fn put_edge_list<'a>(
    buf: &mut BytesMut,
    edges: &'a [Neighbor],
    shape: u8,
    put_pairs: &mut impl FnMut(&mut BytesMut, &'a Attrs),
) {
    // Sorted adjacency gaps are mostly one- or two-byte varints.
    buf.reserve(edges.len() * (2 + entry_fixed_len(shape)));
    let mut prev = 0u64;
    for e in edges {
        // One append per entry: varint + dir + weight + attrs flag.
        let mut entry = [0u8; MAX_VARINT + 6];
        let mut n = write_varint(&mut entry, e.nbr.wrapping_sub(prev));
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

/// Decode `n_edges` entries written by [`put_edge_list`] in `shape`
/// onto the end of `edges`. An entry count the remaining bytes cannot
/// hold fails before any allocation.
fn get_edge_list(
    buf: &mut &[u8],
    shape: u8,
    n_edges: usize,
    edges: &mut Vec<Neighbor>,
    get_pairs: &mut impl FnMut(&mut &[u8], usize) -> Result<Attrs, CodecError>,
) -> Result<(), CodecError> {
    if n_edges == 0 {
        // An attribute-only piece, or a bare node.
        return Ok(());
    }
    let min_entry = 1 + entry_fixed_len(shape);
    if n_edges > buf.len() / min_entry {
        return Err(CodecError::UnexpectedEof {
            needed: n_edges.saturating_mul(min_entry),
            remaining: buf.len(),
        });
    }
    edges.reserve(n_edges);
    let mut prev = 0u64;
    for _ in 0..n_edges {
        let nbr = prev.wrapping_add(get_varint(buf)?);
        prev = nbr;
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

/// Serialize one record: head, edge-list entries, node-attribute
/// pairs. `put_pairs` writes the pairs of an attribute set without
/// their count — row-wise descriptions spell keys inline, columnar
/// records as dictionary indexes; nothing else differs between them.
pub(crate) fn put_record<'a>(
    buf: &mut BytesMut,
    edges: &'a [Neighbor],
    attrs: &'a Attrs,
    mut put_pairs: impl FnMut(&mut BytesMut, &'a Attrs),
) {
    let shape = put_record_head(buf, edges, attrs.len());
    put_edge_list(buf, edges, shape, &mut put_pairs);
    put_pairs(buf, attrs);
}

/// Decode the head and edge-list of the record at the cursor, its
/// entries onto the end of `edges` (empty for a whole description; a
/// present node's list when the path sum parses one more stored piece
/// of it), and return how many node-attribute pairs follow — the
/// caller reads them, into a fresh set or onto the node it completes.
/// `get_pairs(buf, n)` is the inverse of [`put_record`]'s `put_pairs`.
pub(crate) fn get_record(
    buf: &mut &[u8],
    edges: &mut Vec<Neighbor>,
    mut get_pairs: impl FnMut(&mut &[u8], usize) -> Result<Attrs, CodecError>,
) -> Result<usize, CodecError> {
    let head = get_record_head(buf)?;
    get_edge_list(buf, head.shape, head.n_edges, edges, &mut get_pairs)?;
    Ok(head.n_attrs)
}

/// Skip the record at the cursor — exactly the bytes `get_record`
/// and the pairs after it consume — without building it: no
/// edge-list, no attribute value, nothing allocated. It follows
/// `get_record`'s grammar field by field: the same head, the same
/// `EdgeDir` tag check (what it does not check — a varint over ten
/// bytes, a pair's dictionary index — the full read of the row does).
/// Nothing is sized by a count, so an entry count the bytes cannot
/// hold simply runs out of them. `skip_pairs(buf, n)` skips `n` pairs
/// (the inverse of what `put_pairs` wrote). A default-shape edge-list
/// — every entry undirected, unit-weight, attribute-free — is one run
/// of neighbor varints, skipped without a per-entry branch. The point
/// read of a columnar delta row skips its way from a restart point to
/// the record it wants with this.
pub(crate) fn skip_record(
    buf: &mut &[u8],
    mut skip_pairs: impl FnMut(&mut &[u8], usize) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let head = get_record_head(buf)?;
    let shape = head.shape;
    if shape == SHAPE_MASK {
        skip_varints(buf, head.n_edges)?;
    } else {
        for _ in 0..head.n_edges {
            skip_varints(buf, 1)?;
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

/// Serialize one static node description.
pub fn put_static_node(buf: &mut BytesMut, n: &StaticNode) {
    put_varint(buf, n.id);
    put_record(buf, &n.edges, &n.attrs, put_attr_pairs);
}

/// Decode one static node description.
pub fn get_static_node(buf: &mut &[u8]) -> Result<StaticNode, CodecError> {
    let id = get_varint(buf)?;
    let mut edges = Vec::new();
    let n_attrs = get_record(buf, &mut edges, get_attr_pairs)?;
    let attrs = get_attr_pairs(buf, n_attrs)?;
    Ok(StaticNode { id, edges, attrs })
}

/// Serialize a delta: node descriptions in sorted-id order (the sort
/// makes encoding deterministic, which the store's compression and the
/// tests rely on).
pub fn encode_delta(d: &Delta) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + d.size() * 3);
    let nodes = d.sorted_nodes();
    put_varint(&mut buf, nodes.len() as u64);
    for n in nodes {
        put_static_node(&mut buf, n);
    }
    buf.freeze()
}

/// Decode a delta; rejects trailing bytes.
pub fn decode_delta(mut buf: &[u8]) -> Result<Delta, CodecError> {
    note_decoded(buf.len());
    let n = get_len(&mut buf, "delta")?;
    let mut d = Delta::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        d.insert(get_static_node(&mut buf)?);
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(d)
}

// ----------------------------------------------------------------------
// events & eventlists
// ----------------------------------------------------------------------

fn put_event_kind(buf: &mut BytesMut, k: &EventKind) {
    match k {
        EventKind::AddNode { id } => {
            buf.put_u8(0);
            put_varint(buf, *id);
        }
        EventKind::RemoveNode { id } => {
            buf.put_u8(1);
            put_varint(buf, *id);
        }
        EventKind::AddEdge {
            src,
            dst,
            weight,
            directed,
        } => {
            buf.put_u8(2);
            put_varint(buf, *src);
            put_varint(buf, *dst);
            put_f32(buf, *weight);
            buf.put_u8(*directed as u8);
        }
        EventKind::RemoveEdge { src, dst } => {
            buf.put_u8(3);
            put_varint(buf, *src);
            put_varint(buf, *dst);
        }
        EventKind::SetEdgeWeight { src, dst, weight } => {
            buf.put_u8(4);
            put_varint(buf, *src);
            put_varint(buf, *dst);
            put_f32(buf, *weight);
        }
        EventKind::SetNodeAttr { id, key, value } => {
            buf.put_u8(5);
            put_varint(buf, *id);
            put_str(buf, key);
            put_attr_value(buf, value);
        }
        EventKind::RemoveNodeAttr { id, key } => {
            buf.put_u8(6);
            put_varint(buf, *id);
            put_str(buf, key);
        }
        EventKind::SetEdgeAttr {
            src,
            dst,
            key,
            value,
        } => {
            buf.put_u8(7);
            put_varint(buf, *src);
            put_varint(buf, *dst);
            put_str(buf, key);
            put_attr_value(buf, value);
        }
        EventKind::RemoveEdgeAttr { src, dst, key } => {
            buf.put_u8(8);
            put_varint(buf, *src);
            put_varint(buf, *dst);
            put_str(buf, key);
        }
    }
}

fn get_event_kind(buf: &mut &[u8]) -> Result<EventKind, CodecError> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        0 => EventKind::AddNode {
            id: get_varint(buf)?,
        },
        1 => EventKind::RemoveNode {
            id: get_varint(buf)?,
        },
        2 => {
            let src = get_varint(buf)?;
            let dst = get_varint(buf)?;
            let weight = get_f32(buf)?;
            EventKind::AddEdge {
                src,
                dst,
                weight,
                directed: get_u8(buf)? != 0,
            }
        }
        3 => EventKind::RemoveEdge {
            src: get_varint(buf)?,
            dst: get_varint(buf)?,
        },
        4 => {
            let src = get_varint(buf)?;
            let dst = get_varint(buf)?;
            EventKind::SetEdgeWeight {
                src,
                dst,
                weight: get_f32(buf)?,
            }
        }
        5 => {
            let id = get_varint(buf)?;
            let key = get_str(buf)?;
            EventKind::SetNodeAttr {
                id,
                key,
                value: get_attr_value(buf)?,
            }
        }
        6 => EventKind::RemoveNodeAttr {
            id: get_varint(buf)?,
            key: get_str(buf)?,
        },
        7 => {
            let src = get_varint(buf)?;
            let dst = get_varint(buf)?;
            let key = get_str(buf)?;
            EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value: get_attr_value(buf)?,
            }
        }
        8 => EventKind::RemoveEdgeAttr {
            src: get_varint(buf)?,
            dst: get_varint(buf)?,
            key: get_str(buf)?,
        },
        t => {
            return Err(CodecError::BadTag {
                what: "EventKind",
                tag: t,
            })
        }
    })
}

/// Serialize an eventlist; times are delta-encoded (chronological order
/// makes the gaps small).
pub fn encode_eventlist(el: &Eventlist) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + el.len() * 8);
    put_varint(&mut buf, el.len() as u64);
    let mut prev = 0u64;
    for e in el.events() {
        put_varint(&mut buf, e.time.wrapping_sub(prev));
        prev = e.time;
        put_event_kind(&mut buf, &e.kind);
    }
    buf.freeze()
}

/// Decode an eventlist; rejects trailing bytes.
pub fn decode_eventlist(mut buf: &[u8]) -> Result<Eventlist, CodecError> {
    note_decoded(buf.len());
    let n = get_len(&mut buf, "eventlist")?;
    let mut events = Vec::with_capacity(n.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..n {
        let t = prev.wrapping_add(get_varint(&mut buf)?);
        prev = t;
        events.push(Event::new(t, get_event_kind(&mut buf)?));
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(Eventlist::from_sorted(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

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

    fn sample_delta() -> Delta {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 1000,
            weight: 2.5,
            directed: true,
        });
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 3,
            weight: 1.0,
            directed: false,
        });
        d.apply_event(&EventKind::SetNodeAttr {
            id: 1,
            key: "name".into(),
            value: AttrValue::Text("alpha".into()),
        });
        d.apply_event(&EventKind::SetEdgeAttr {
            src: 1,
            dst: 3,
            key: "since".into(),
            value: AttrValue::Int(1999),
        });
        d
    }

    #[test]
    fn delta_roundtrip() {
        let d = sample_delta();
        let bytes = encode_delta(&d);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn empty_delta_roundtrip() {
        let bytes = encode_delta(&Delta::new());
        assert_eq!(decode_delta(&bytes).unwrap(), Delta::new());
    }

    #[test]
    fn delta_rejects_trailing_garbage() {
        let mut bytes = encode_delta(&sample_delta()).to_vec();
        bytes.push(0xAB);
        assert!(matches!(
            decode_delta(&bytes),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn eventlist_roundtrip_all_kinds() {
        let events = vec![
            Event::new(1, EventKind::AddNode { id: 7 }),
            Event::new(
                2,
                EventKind::AddEdge {
                    src: 7,
                    dst: 8,
                    weight: 0.5,
                    directed: false,
                },
            ),
            Event::new(
                2,
                EventKind::SetNodeAttr {
                    id: 7,
                    key: "k".into(),
                    value: AttrValue::Bool(true),
                },
            ),
            Event::new(
                3,
                EventKind::SetEdgeWeight {
                    src: 7,
                    dst: 8,
                    weight: 9.0,
                },
            ),
            Event::new(
                4,
                EventKind::SetEdgeAttr {
                    src: 7,
                    dst: 8,
                    key: "e".into(),
                    value: AttrValue::Float(0.25),
                },
            ),
            Event::new(
                5,
                EventKind::RemoveEdgeAttr {
                    src: 7,
                    dst: 8,
                    key: "e".into(),
                },
            ),
            Event::new(
                6,
                EventKind::RemoveNodeAttr {
                    id: 7,
                    key: "k".into(),
                },
            ),
            Event::new(7, EventKind::RemoveEdge { src: 7, dst: 8 }),
            Event::new(8, EventKind::RemoveNode { id: 7 }),
        ];
        let el = Eventlist::from_sorted(events);
        let bytes = encode_eventlist(&el);
        assert_eq!(decode_eventlist(&bytes).unwrap(), el);
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

    /// `edges` as a record with no node attributes (keys inline).
    fn record_bytes(edges: &[Neighbor]) -> BytesMut {
        let mut buf = BytesMut::new();
        put_record(&mut buf, edges, &Attrs::new(), put_attr_pairs);
        buf
    }

    /// The edge-list and node-attribute count of the record at `slice`.
    fn record_back(slice: &mut &[u8]) -> Result<(Vec<Neighbor>, usize), CodecError> {
        let mut edges = Vec::new();
        get_record(slice, &mut edges, get_attr_pairs).map(|n_attrs| (edges, n_attrs))
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        buf.len()
    }

    fn head_of(shape: u8, edges_code: usize, attrs_code: usize) -> u8 {
        shape | (edges_code as u8) << HEAD_EDGES_SHIFT | (attrs_code as u8) << HEAD_ATTRS_SHIFT
    }

    #[test]
    fn default_edges_cost_their_neighbor_varints_plus_one_byte_up_to_six() {
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
            let buf = record_bytes(&edges);
            // Up to six entries the head holds the count; the seventh
            // moves it into a varint behind the head.
            let count_varint = if d <= 6 { 0 } else { varint_len(d as u64) };
            assert_eq!(buf.len(), 1 + count_varint + gaps, "d = {d}");
            assert_eq!(buf[0], head_of(SHAPE_MASK, d.min(HEAD_EDGES_ESCAPE), 0));
            let mut slice: &[u8] = &buf;
            assert_eq!(record_back(&mut slice).unwrap(), (edges, 0));
            assert!(slice.is_empty());
        }
        // The pieces most tree records are: one default edge is
        // `head, nbr`; the record of a bare node is the head alone.
        assert_eq!(
            &record_bytes(&[Neighbor::new(9, EdgeDir::Both)])[..],
            &[head_of(SHAPE_MASK, 1, 0), 9]
        );
        assert_eq!(&record_bytes(&[])[..], &[head_of(SHAPE_MASK, 0, 0)]);
    }

    #[test]
    fn node_attribute_counts_ride_the_head_up_to_two() {
        let edges = [Neighbor::new(9, EdgeDir::Both)];
        for n_attrs in [0usize, 1, 2, 3, 5, 200] {
            let mut attrs = Attrs::new();
            for i in 0..n_attrs {
                attrs.set(format!("k{i:03}"), AttrValue::Bool(true));
            }
            let mut buf = BytesMut::new();
            put_record(&mut buf, &edges, &attrs, put_attr_pairs);
            let count_varint = if n_attrs <= 2 {
                0
            } else {
                varint_len(n_attrs as u64)
            };
            // Each pair: length-prefixed 4-byte key, tag, bool.
            assert_eq!(buf.len(), 1 + count_varint + 1 + n_attrs * 7);
            assert_eq!(
                buf[0],
                head_of(SHAPE_MASK, 1, n_attrs.min(HEAD_ATTRS_ESCAPE))
            );
            let mut slice: &[u8] = &buf;
            let (back, n) = record_back(&mut slice).unwrap();
            assert_eq!((back.as_slice(), n), (&edges[..], n_attrs));
            assert_eq!(get_attr_pairs(&mut slice, n).unwrap(), attrs);
            assert!(slice.is_empty());
        }
        // An attribute-only piece is `head, pair`.
        let mut attrs = Attrs::new();
        attrs.set("k", AttrValue::Bool(true));
        let mut buf = BytesMut::new();
        put_record(&mut buf, &[], &attrs, put_attr_pairs);
        assert_eq!(&buf[..], &[head_of(SHAPE_MASK, 0, 1), 1, b'k', 3, 1]);
    }

    #[test]
    fn each_open_field_costs_exactly_its_bytes() {
        let base: Vec<Neighbor> = (1..=5u64)
            .map(|i| Neighbor::new(i * 7, EdgeDir::Both))
            .collect();
        let plain = record_bytes(&base).len();
        assert_eq!(plain, 1 + 5, "five one-byte gaps behind one head byte");

        let mut directed = base.clone();
        directed[2].dir = EdgeDir::Out;
        let buf = record_bytes(&directed);
        assert_eq!(buf[0], head_of(SHAPE_MASK & !SHAPE_ALL_BOTH, 5, 0));
        assert_eq!(buf.len(), plain + 5);

        let mut weighted = base.clone();
        weighted[4].weight = 2.5;
        let buf = record_bytes(&weighted);
        assert_eq!(buf[0], head_of(SHAPE_MASK & !SHAPE_UNIT_WEIGHTS, 5, 0));
        assert_eq!(buf.len(), plain + 5 * 4);

        let mut attributed = base.clone();
        attributed[0].set_attr("k", AttrValue::Bool(true));
        let buf = record_bytes(&attributed);
        assert_eq!(buf[0], head_of(SHAPE_MASK & !SHAPE_NO_ATTRS, 5, 0));
        // One flag byte per entry, plus count + "k" + Bool(true).
        assert_eq!(buf.len(), plain + 5 + 1 + 2 + 2);

        for edges in [directed, weighted, attributed] {
            let buf = record_bytes(&edges);
            let mut slice: &[u8] = &buf;
            assert_eq!(record_back(&mut slice).unwrap(), (edges, 0));
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
            let buf = record_bytes(&edges);
            assert_eq!(buf[0] & SHAPE_UNIT_WEIGHTS, 0, "weight {w:?} folded");
            let mut slice: &[u8] = &buf;
            let (back, _) = record_back(&mut slice).unwrap();
            assert_eq!(back[0].weight.to_bits(), 1.0f32.to_bits());
            assert_eq!(back[1].weight.to_bits(), w.to_bits(), "weight {w:?}");
        }
    }

    /// Where a shape byte had five undefined bits (each a `BadTag`),
    /// the head byte has none: every value announces a shape and two
    /// counts, and decodes a body laid out as it says.
    #[test]
    fn every_head_byte_is_defined() {
        for head in 0..=u8::MAX {
            let shape = head & SHAPE_MASK;
            let edges_code = (head >> HEAD_EDGES_SHIFT) as usize & HEAD_EDGES_ESCAPE;
            let attrs_code = (head >> HEAD_ATTRS_SHIFT) as usize;
            // An escaped count need not be a large one.
            let escaped = |code: usize, escape: usize| if code == escape { 4 } else { code };
            let n_edges = escaped(edges_code, HEAD_EDGES_ESCAPE);
            let n_attrs = escaped(attrs_code, HEAD_ATTRS_ESCAPE);
            let mut buf = BytesMut::new();
            buf.put_u8(head);
            if edges_code == HEAD_EDGES_ESCAPE {
                put_varint(&mut buf, n_edges as u64);
            }
            if attrs_code == HEAD_ATTRS_ESCAPE {
                put_varint(&mut buf, n_attrs as u64);
            }
            for _ in 0..n_edges {
                buf.put_u8(2); // Δnbr
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
            let (edges, got_attrs) = record_back(&mut slice).unwrap();
            assert!(slice.is_empty(), "head {head:#04x}");
            assert_eq!((edges.len(), got_attrs), (n_edges, n_attrs));
            for (i, e) in edges.iter().enumerate() {
                assert_eq!(e.nbr, 2 * (i as u64 + 1));
                assert_eq!(e.dir == EdgeDir::Both, shape & SHAPE_ALL_BOTH != 0);
                assert_eq!(e.weight == 1.0, shape & SHAPE_UNIT_WEIGHTS != 0);
            }
            // The head alone, or cut anywhere short of its body, is an
            // error and never a shorter record.
            for cut in 0..buf.len() {
                let mut slice: &[u8] = &buf[..cut];
                assert!(
                    record_back(&mut slice).is_err(),
                    "head {head:#04x} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn a_count_varint_cut_off_behind_the_head_is_eof() {
        for head in [
            head_of(SHAPE_MASK, HEAD_EDGES_ESCAPE, 0),
            head_of(SHAPE_MASK, 0, HEAD_ATTRS_ESCAPE),
        ] {
            for tail in [&[][..], &[0x80][..], &[0xff, 0xff][..]] {
                let mut buf = vec![head];
                buf.extend_from_slice(tail);
                let mut slice: &[u8] = &buf;
                assert!(matches!(
                    record_back(&mut slice),
                    Err(CodecError::UnexpectedEof { .. })
                ));
            }
        }
    }

    #[test]
    fn edge_count_beyond_the_buffer_fails_before_allocating() {
        // Claims 2^31 entries of 6 bytes each, carries two.
        let mut buf = BytesMut::new();
        buf.put_u8(head_of(0, HEAD_EDGES_ESCAPE, 0));
        put_varint(&mut buf, 1 << 31);
        buf.put_slice(&[1, 2, 0, 0, 0x80, 0x3f, 0, 1, 2, 0, 0, 0x80, 0x3f, 0]);
        let mut slice: &[u8] = &buf;
        assert!(matches!(
            record_back(&mut slice),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // ...and a count past the sanity cap is refused as such.
        let mut buf = BytesMut::new();
        buf.put_u8(head_of(SHAPE_MASK, HEAD_EDGES_ESCAPE, 0));
        put_varint(&mut buf, u64::MAX);
        let mut slice: &[u8] = &buf;
        assert!(matches!(
            record_back(&mut slice),
            Err(CodecError::LengthOverflow { what: "edges", .. })
        ));
    }

    #[test]
    fn skip_varints_ends_where_get_varint_ends() {
        // Byte strings of varints of any length, cut anywhere: skipping
        // `n` varints ends where `n` reads end, and a cut-off one is
        // refused alike.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
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
    /// more than the six a record head holds, most of them default;
    /// node attributes now and then, sometimes more than the two the
    /// head holds.
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
        /// On a description unchanged, with a byte replaced, bytes
        /// inserted, cut short or replaced by arbitrary bytes, followed
        /// by whatever else a buffer holds: wherever `get_record` and
        /// its pairs accept the record, `skip_record` accepts it too
        /// and ends where they end.
        #[test]
        fn skip_record_steps_over_what_get_record_reads(
            n in arb_record_node(),
            mutation in 0u8..5,
            at in any::<u64>(),
            extra in prop::collection::vec(any::<u8>(), 1..5),
            arbitrary in prop::collection::vec(any::<u8>(), 0..48),
            tail in prop::collection::vec(any::<u8>(), 0..4),
        ) {
            let mut buf = BytesMut::new();
            put_static_node(&mut buf, &n);
            let mut bytes = buf.to_vec();
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match mutation {
                1 if at < bytes.len() => bytes[at] = extra[0],
                2 => drop(bytes.splice(at..at, extra)),
                3 => bytes.truncate(at),
                4 => bytes = arbitrary,
                _ => {}
            }
            bytes.extend_from_slice(&tail);
            let mut read: &[u8] = &bytes;
            let mut skipped: &[u8] = &bytes;
            let ok = get_static_node(&mut read).is_ok();
            if ok {
                get_varint(&mut skipped).unwrap();
                prop_assert_eq!(skip_record(&mut skipped, skip_inline_pairs), Ok(()));
                prop_assert_eq!(read.len(), skipped.len());
            }
            if mutation == 0 {
                prop_assert!(ok);
                prop_assert_eq!(read.len(), tail.len());
            }
        }
    }

    #[test]
    fn bad_tag_reported() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1); // one event
        put_varint(&mut buf, 0); // time delta
        buf.put_u8(99); // invalid kind tag
        assert!(matches!(
            decode_eventlist(&buf),
            Err(CodecError::BadTag {
                what: "EventKind",
                ..
            })
        ));
    }

    #[test]
    fn node_ids_beyond_u32_roundtrip() {
        let big: NodeId = (u32::MAX as u64) + 12345;
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddNode { id: big });
        let back = decode_delta(&encode_delta(&d)).unwrap();
        assert!(back.contains(big));
    }
}
