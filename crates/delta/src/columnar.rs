//! The columnar on-disk format of index eventlist and delta rows.
//!
//! The row-wise codec ([`crate::codec`], kept for the baseline indexes)
//! interleaves every field of every event/node, so a reader pays full
//! decode cost even when it only needs one node's structural history.
//! This module stores the same data as **column segments** behind one
//! backing [`Bytes`] value:
//!
//! ```text
//! row := u8 magic, varint count, varint n_segs, varint seg_len{n_segs}, seg{n_segs}
//! ```
//!
//! Every segment is stored as written, so reading one is a zero-copy
//! sub-slice of the backing buffer. What keeps a row small is its
//! grammar — bit-coded integer columns, shape-factored records, and a
//! row-local dictionary that spells each distinct attribute key, and
//! each distinct attribute value or pair, once. (A store may still
//! compress whole values: `hgs_store`'s optional LZSS, the axis of the
//! paper's Fig. 13a, is the one compression layer.)
//!
//! * an eventlist row holds a node-id dictionary, a timestamp column,
//!   a kind column, a dictionary-index id column, and payload columns
//!   (edge weights, the attribute dictionary, attribute-key and
//!   attribute-value indexes). All but the weights and the dictionary
//!   spell each integer in the bits their row needs (fixed-width and
//!   Rice codes, `bits.rs`; least-significant bit first, the last byte
//!   zero-padded):
//!
//!   ```text
//!   node_dict := varint n [varint first [u8 k Rice(gap − 1){n−1}]]
//!   times     := [varint first [u8 k Rice(gap){n_events−1}]]
//!   kinds     := u8 m, tag{m} ascending, code{n_events} of ⌈log2 m⌉ bits
//!   ids       := index{1 or 2 per event} of ⌈log2 n⌉ bits
//!   attr_dict := ε | varint n_keys, str{n_keys}, varint n_vals, attr_value{n_vals}
//!   attr_keys := index{1 per keyed event} of ⌈log2 n_keys⌉ bits
//!   attr_vals := index{1 per valued event} of ⌈log2 n_vals⌉ bits
//!   ```
//!
//!   where `k = ⌊log2(mean gap · ln 2)⌋` is chosen per column, a kind
//!   code is the event's tag's rank among the row's `m` tags (no codes
//!   at all when `m = 1`), and an edge kind has two dictionary indexes.
//!   The attribute dictionary is empty when no event names a key; its
//!   keys are sorted and its values in order of first use. Times and
//!   ids accumulate with checked adds: an overflowing gap is an error,
//!   never an out-of-order answer. The weights column has one
//!   `(f32 weight, u8 directed)` entry per `AddEdge` / `SetEdgeWeight`
//!   — unless every one of them is the default `AddEdge { weight: 1.0,
//!   directed: false }` (bit-exact), in which case the segment is empty
//!   and the kinds column alone says what it held. Any other length is
//!   corrupt, and every payload column holds exactly the entries its
//!   kinds call for: an unread byte is [`CodecError::TrailingBytes`];
//! * a delta row holds a sorted node-id column, a restart column, a
//!   pair dictionary, and a concatenated per-node record segment:
//!
//!   ```text
//!   ids      := varint first_id, varint gap{n−1}        each gap ≥ 1
//!   restarts := varint window_len{⌊n / 16⌋}
//!   dict     := ε | varint n_keys, str{n_keys},
//!                   varint n_pairs, (varint key_idx, attr_value){n_pairs}
//!   records  := record{n}
//!   ```
//!
//!   where `window_len` is the byte length of records `16w .. 16w+16`,
//!   one raw varint per full window (a row of fewer than 16 records
//!   has none), as a LevelDB data block keeps a restart point every
//!   few keys. Ids accumulate with checked adds, and a zero gap — two
//!   records for one node — is refused. The dictionary is empty when
//!   the row holds no attribute; its keys are sorted and its pairs in
//!   order of first use. The full read (`sum_into`)
//!   streams ids and records in lockstep (records are
//!   self-delimiting) and holds every restart to the bytes its window
//!   actually took. A point read (`node_record`, `sum_node_into`,
//!   `contains`) scans the id column to the node's index `i` — a miss
//!   decodes nothing else — sums the first `⌊i / 16⌋` restarts to find
//!   its window, and steps over the `i mod 16` records before it with
//!   `codec::skip_record`, so on every row the full read accepts the
//!   two reads agree. Only the full read checks the restarts: a point
//!   read alone does not detect a wrong one, and may then answer
//!   another node's record, or one parsed from inside a record, as
//!   `Ok` (a point read of a row nothing has read in full yet).
//!
//!   A record is written in the grammar of [`crate::codec`] — one
//!   head byte holding the edge-list's shape bits and both counts when
//!   they are small (at most six entries, at most two node
//!   attributes; a varint follows otherwise), then only the entry
//!   fields that vary, then the attribute pairs — with every node or
//!   edge attribute pair one `varint pair_idx` into the row's pair
//!   dictionary; the record codec and its edge-list loops live there
//!   and are shared with the row-wise codec. Records are most of every
//!   index — most of them a single default edge (`head, nbr`) or a
//!   single pair (`head, pair_idx`).
//!
//! A record is a whole node description in an **aux** row and in any
//! delta encoded by itself. In a **tree** row it is a *piece*: the
//! intersection tree stores a component (an edge-list entry, an
//! attribute pair) on exactly one row of any root-to-leaf path, so a
//! tree row's record for a node holds only the entries and pairs no
//! row above it holds — the same grammar with a shorter edge-list. A
//! tree row is therefore never decoded on its own
//! ([`ColumnarDelta::to_delta`] of one is a set of fragments): it is
//! *applied* to the running sum of the rows above it
//! ([`ColumnarDelta::sum_into`], or [`ColumnarDelta::sum_node_into`]
//! for one node), which parses each piece straight onto the node it
//! completes and fails with [`CodecError::RepeatedComponent`] if a
//! piece repeats a key the node already has.
//!
//! Columns are decoded lazily and each dictionary once per row
//! (memoized), so a query materializes only the columns it touches: a
//! `node_at` probe whose node is absent from the dictionary (or the id
//! column) stops after that segment; a structural replay never decodes
//! attribute values. Every segment read is charged to
//! [`crate::codec::decoded_bytes`], which is how tests and benches see
//! what a query's column pruning saved.
//!
//! The two eventlist reads — [`ColumnarEventlist::to_eventlist`] and
//! the pruned [`ColumnarEventlist::events_touching`] — go through the
//! same column decoders, so on a row the full read accepts they agree.
//!
//! Corrupt input is an error, never a panic: all lengths are validated
//! against the codec's `MAX_LEN` cap, and every count against the bits
//! its column has, before allocation; segment ranges are bounds-checked
//! against the backing buffer, and every dictionary index — node, key,
//! value or pair — is range-checked on decode.

use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes, BytesMut};

use crate::attr::{AttrValue, Attrs};
use crate::bits::{check_rice_k, rice_k, width_for, BitReader, BitWriter};
use crate::codec::{
    get_attr_value, get_f32, get_len, get_record, get_str, get_u8, get_varint, note_decoded,
    put_attr_value, put_f32, put_record, put_str, put_varint, skip_record, skip_varints,
};
use crate::delta::Delta;
use crate::error::CodecError;
use crate::event::{Event, EventKind, Eventlist};
use crate::hash::FxHashMap;
use crate::node::StaticNode;
use crate::types::{NodeId, Time};

/// On-disk format tag of index eventlist/delta rows, persisted with
/// the index descriptor (rows are not self-describing). There is one
/// format; a descriptor carrying any other tag is refused on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageLayout {
    /// Column segments stored as written, each read as a zero-copy
    /// slice and decoded lazily: bit-coded eventlist columns, delta
    /// records, and row-local attribute dictionaries (see the module
    /// docs).
    Columnar,
}

/// Retired row tags, never reused: rows carrying one have no reader
/// and fail `parse` with `BadTag` instead of being read as this
/// grammar. `0xC1` tagged eventlist rows that always spelled their
/// weights column; `0xC2` delta rows whose records spelled `dir`,
/// weight and an attrs flag on every edge-list entry; `0xC3` delta
/// rows whose records opened with an `edge_count` varint, a shape byte
/// and an `attr_count` varint where one head byte now stands; `0xC5`
/// eventlist rows that spelled every node-id gap, time gap, kind tag
/// and dictionary index in whole bytes; `0xC4` delta rows that kept a
/// byte length for every record where a restart column now stands;
/// `0xC6` eventlist rows and `0xC7` delta rows whose segment lengths
/// carried an LZSS bit, whose eventlists spelled every attribute key
/// index as a varint and every value in full, and whose records
/// spelled every pair as a key index and a value.
const DELTA_MAGIC: u8 = 0xC8;
const ELIST_MAGIC: u8 = 0xC9;

const ELIST_SEGS: usize = 8;
const SEG_NODE_DICT: usize = 0;
const SEG_TIMES: usize = 1;
const SEG_KINDS: usize = 2;
const SEG_IDS: usize = 3;
const SEG_WEIGHTS: usize = 4;
const SEG_ATTR_DICT: usize = 5;
const SEG_ATTR_KEYS: usize = 6;
const SEG_ATTR_VALS: usize = 7;

const DELTA_SEGS: usize = 4;
const SEG_NODE_IDS: usize = 0;
const SEG_RESTARTS: usize = 1;
const SEG_PAIR_DICT: usize = 2;
const SEG_RECORDS: usize = 3;

/// Records per restart window of a delta row: the restart column holds
/// the byte length of every full window, and a point read parses at
/// most `RESTART_INTERVAL - 1` records past the restart it starts
/// from. A constant of the grammar, not a knob.
const RESTART_INTERVAL: usize = 16;

// ----------------------------------------------------------------------
// kind-tag helpers (tags match the row-wise codec's event tags)
// ----------------------------------------------------------------------

/// Number of event kinds; tags run `0..N_KINDS`.
const N_KINDS: usize = 9;

fn kind_tag(k: &EventKind) -> u8 {
    match k {
        EventKind::AddNode { .. } => 0,
        EventKind::RemoveNode { .. } => 1,
        EventKind::AddEdge { .. } => 2,
        EventKind::RemoveEdge { .. } => 3,
        EventKind::SetEdgeWeight { .. } => 4,
        EventKind::SetNodeAttr { .. } => 5,
        EventKind::RemoveNodeAttr { .. } => 6,
        EventKind::SetEdgeAttr { .. } => 7,
        EventKind::RemoveEdgeAttr { .. } => 8,
    }
}

/// Tags whose events reference two node ids.
#[inline]
fn has_two_ids(tag: u8) -> bool {
    matches!(tag, 2 | 3 | 4 | 7 | 8)
}

/// Tags that consume one entry of the weights column.
#[inline]
fn has_weight(tag: u8) -> bool {
    matches!(tag, 2 | 4)
}

/// Bytes of one weights-column entry: `f32le weight, u8 directed`.
const WEIGHT_ENTRY_LEN: usize = 5;

/// Hold a weights segment of `len` bytes to the kinds column it
/// belongs to: one entry per weighted event (`Ok(true)`), or nothing
/// at all when every weighted event is the default edge
/// `AddEdge { weight: 1.0, directed: false }` (`Ok(false)` — an empty
/// column beside a `SetEdgeWeight`, which has no default, is corrupt).
fn weights_are_spelled(kinds: &[u8], len: usize) -> Result<bool, CodecError> {
    let (mut weighted, mut reweighted) = (0usize, false);
    for &t in kinds.iter().filter(|&&t| has_weight(t)) {
        weighted += 1;
        reweighted |= t == 4;
    }
    if len == 0 && !reweighted {
        Ok(false)
    } else if len == weighted * WEIGHT_ENTRY_LEN {
        Ok(true)
    } else {
        Err(CodecError::LengthOverflow {
            what: "weights",
            len: len as u64,
        })
    }
}

/// Tags that consume one entry of the attr-key column.
#[inline]
fn has_attr_key(tag: u8) -> bool {
    matches!(tag, 5..=8)
}

/// Tags that consume one entry of the attr-value column.
#[inline]
fn has_attr_val(tag: u8) -> bool {
    matches!(tag, 5 | 7)
}

fn attr_key_of(k: &EventKind) -> Option<&str> {
    match k {
        EventKind::SetNodeAttr { key, .. }
        | EventKind::RemoveNodeAttr { key, .. }
        | EventKind::SetEdgeAttr { key, .. }
        | EventKind::RemoveEdgeAttr { key, .. } => Some(key),
        _ => None,
    }
}

#[inline]
fn dict_idx<T: Ord>(dict: &[T], v: &T) -> u64 {
    dict.binary_search(v)
        // hgs-lint: allow(no-panic-in-try, "every looked-up value was interned into this dict during the same encode")
        .expect("value interned at encode time") as u64
}

fn dict_node(dict: &[NodeId], idx: u32) -> Result<NodeId, CodecError> {
    dict.get(idx as usize)
        .copied()
        .ok_or(CodecError::LengthOverflow {
            what: "node-dict-index",
            len: idx as u64,
        })
}

// ----------------------------------------------------------------------
// shared header: magic, count, per-segment lengths
// ----------------------------------------------------------------------

fn assemble(magic: u8, count: usize, segs: &[&[u8]]) -> Bytes {
    let total: usize = segs.iter().map(|s| s.len()).sum();
    let mut out = BytesMut::with_capacity(total + 8 + 2 * segs.len());
    out.put_u8(magic);
    put_varint(&mut out, count as u64);
    put_varint(&mut out, segs.len() as u64);
    for s in segs {
        put_varint(&mut out, s.len() as u64);
    }
    for s in segs {
        out.put_slice(s);
    }
    out.freeze()
}

/// The parsed common header of a row with `N` column segments.
struct Header<const N: usize> {
    count: usize,
    segs: [Range<usize>; N],
}

/// Parse the common header and bounds-check every segment range.
fn parse_header<const N: usize>(
    backing: &Bytes,
    magic: u8,
    what: &'static str,
) -> Result<Header<N>, CodecError> {
    let mut buf: &[u8] = backing;
    let tag = get_u8(&mut buf)?;
    if tag != magic {
        return Err(CodecError::BadTag { what, tag });
    }
    let count = get_len(&mut buf, what)?;
    let got_segs = get_len(&mut buf, "segment-count")?;
    if got_segs != N {
        return Err(CodecError::LengthOverflow {
            what: "segment-count",
            len: got_segs as u64,
        });
    }
    let mut lens = [0usize; N];
    for len in &mut lens {
        *len = get_len(&mut buf, "segment")?;
    }
    let mut pos = backing.len() - buf.len();
    let mut segs: [Range<usize>; N] = std::array::from_fn(|_| 0..0);
    for (len, seg) in lens.into_iter().zip(&mut segs) {
        let end = pos.checked_add(len).ok_or(CodecError::LengthOverflow {
            what: "segment",
            len: len as u64,
        })?;
        if end > backing.len() {
            return Err(CodecError::UnexpectedEof {
                needed: len,
                remaining: backing.len() - pos,
            });
        }
        *seg = pos..end;
        pos = end;
    }
    if pos != backing.len() {
        return Err(CodecError::TrailingBytes {
            remaining: backing.len() - pos,
        });
    }
    Ok(Header { count, segs })
}

/// Segment `range` of `backing`: a zero-copy sub-slice, charged to
/// [`crate::codec::decoded_bytes`] as what a read materializes.
fn read_seg(backing: &Bytes, range: &Range<usize>) -> Bytes {
    note_decoded(range.len());
    backing.slice(range.clone())
}

/// An attribute value as a hash key: two values have equal keys
/// exactly when they spell alike (so a NaN is one entry, not many).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ValueKey<'a> {
    Int(i64),
    Float(u64),
    Text(&'a str),
    Bool(bool),
}

impl<'a> ValueKey<'a> {
    fn of(v: &'a AttrValue) -> ValueKey<'a> {
        match v {
            AttrValue::Int(i) => ValueKey::Int(*i),
            AttrValue::Float(f) => ValueKey::Float(f.to_bits()),
            AttrValue::Text(s) => ValueKey::Text(s),
            AttrValue::Bool(b) => ValueKey::Bool(*b),
        }
    }
}

/// A row-local dictionary under construction: each distinct entry's
/// bytes once, in order of first use, and the index of each.
struct Interner<K> {
    entries: BytesMut,
    index: FxHashMap<K, u64>,
}

impl<K: std::hash::Hash + Eq> Interner<K> {
    fn new() -> Interner<K> {
        Interner {
            entries: BytesMut::new(),
            index: FxHashMap::default(),
        }
    }

    /// The index of entry `key`; a new one is appended as `put`
    /// spells it.
    fn intern(&mut self, key: K, put: impl FnOnce(&mut BytesMut)) -> u64 {
        let next = self.index.len() as u64;
        *self.index.entry(key).or_insert_with(|| {
            put(&mut self.entries);
            next
        })
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

/// Spell a row-local dictionary: empty when there is no key, else the
/// keys and then `entries`.
fn put_dict<K: std::hash::Hash + Eq>(keys: &[&str], entries: &Interner<K>) -> BytesMut {
    let mut dict = BytesMut::new();
    if !keys.is_empty() {
        put_varint(&mut dict, keys.len() as u64);
        for k in keys {
            put_str(&mut dict, k);
        }
        put_varint(&mut dict, entries.len() as u64);
        dict.put_slice(&entries.entries);
    }
    dict
}

/// Read a row-local dictionary, every byte of its segment: empty, or
/// its keys — at least one — and then the entries `entry` reads.
fn get_dict<T>(
    mut b: &[u8],
    what: &'static str,
    mut entry: impl FnMut(&mut &[u8], &[String]) -> Result<T, CodecError>,
) -> Result<(Vec<String>, Vec<T>), CodecError> {
    if b.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let n = get_len(&mut b, what)?;
    let mut keys = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        keys.push(get_str(&mut b)?);
    }
    if keys.is_empty() {
        // The dictionary of no key is spelled empty.
        return Err(CodecError::LengthOverflow { what, len: 0 });
    }
    let n = get_len(&mut b, what)?;
    let mut entries = Vec::with_capacity(n.min(b.len()));
    for _ in 0..n {
        entries.push(entry(&mut b, &keys)?);
    }
    no_trailing(b.len())?;
    Ok((keys, entries))
}

/// Read a column of `n` fixed-width indexes into a dictionary of
/// `dict_len` entries, `⌈log2 dict_len⌉` bits each, and refuse any
/// index at or past `dict_len` — so none beside an empty dictionary.
fn get_indexes(
    b: &[u8],
    n: usize,
    dict_len: usize,
    what: &'static str,
) -> Result<Vec<u32>, CodecError> {
    let width = width_for(dict_len);
    if width > 32 {
        // More entries than an index can name: no row spells that many.
        return Err(CodecError::LengthOverflow {
            what,
            len: dict_len as u64,
        });
    }
    let mut bits = BitReader::new(b);
    let mut out = Vec::with_capacity(n);
    bits.get_many(n, width, |i| out.push(i as u32))?;
    bits.finish()?;
    if let Some(&bad) = out.iter().find(|&&i| i as usize >= dict_len) {
        return Err(CodecError::LengthOverflow {
            what,
            len: u64::from(bad),
        });
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// columnar eventlists
// ----------------------------------------------------------------------

/// Append an ascending integer column: `varint first`, then — when
/// there is more than one value — `u8 k` and `Rice(gap − bias)` for
/// each further value (`bias` 1 for a strictly ascending column, 0 for
/// a non-decreasing one). Nothing at all for an empty column.
fn put_ascending(
    out: &mut BytesMut,
    values: impl ExactSizeIterator<Item = u64> + Clone,
    bias: u64,
) {
    let n = values.len();
    let mut gaps = values
        .clone()
        .zip(values.clone().skip(1))
        .map(|(a, b)| b - a - bias);
    let Some(first) = values.clone().next() else {
        return;
    };
    put_varint(out, first);
    if n < 2 {
        return;
    }
    let k = rice_k(gaps.clone().map(u128::from).sum(), n - 1);
    out.put_u8(k);
    let mut bits = BitWriter::new(out);
    for gap in &mut gaps {
        bits.put_rice(gap, k);
    }
    bits.finish();
}

/// Read the `n` values [`put_ascending`] wrote, accumulating with a
/// checked add: a gap that overflows is an error, never a value out of
/// order. `n` is held to the bits the column has before anything is
/// allocated (every further value takes at least one).
fn get_ascending(mut b: &[u8], n: usize, bias: u64) -> Result<Vec<u64>, CodecError> {
    let Some(further) = n.checked_sub(1) else {
        return no_trailing(b.len()).map(|()| Vec::new());
    };
    let mut v = get_varint(&mut b)?;
    let mut out = Vec::new();
    if further == 0 {
        no_trailing(b.len())?;
        out.push(v);
        return Ok(out);
    }
    let k = check_rice_k(get_u8(&mut b)?)?;
    let mut bits = BitReader::new(b);
    if further > bits.bits_left() {
        return Err(CodecError::UnexpectedEof {
            needed: further.div_ceil(8),
            remaining: b.len(),
        });
    }
    out.reserve_exact(n);
    out.push(v);
    let mut overflow = false;
    for _ in 0..further {
        let (sum, o1) = v.overflowing_add(bits.get_rice(k)?);
        let (sum, o2) = sum.overflowing_add(bias);
        overflow |= o1 | o2;
        v = sum;
        out.push(v);
    }
    if overflow {
        return Err(CodecError::VarintOverflow);
    }
    bits.finish()?;
    Ok(out)
}

/// Serialize an eventlist in the columnar layout.
pub fn encode_columnar_eventlist(el: &Eventlist) -> Bytes {
    let events = el.events();
    let mut nids: Vec<NodeId> = Vec::with_capacity(events.len() * 2);
    let mut keys: Vec<&str> = Vec::new();
    let mut tags_present = [false; N_KINDS];
    for e in events {
        let (a, b) = e.kind.touched();
        nids.push(a);
        if let Some(b) = b {
            nids.push(b);
        }
        if let Some(k) = attr_key_of(&e.kind) {
            keys.push(k);
        }
        tags_present[kind_tag(&e.kind) as usize] = true;
    }
    nids.sort_unstable();
    nids.dedup();
    keys.sort_unstable();
    keys.dedup();

    let mut node_dict = BytesMut::new();
    put_varint(&mut node_dict, nids.len() as u64);
    put_ascending(&mut node_dict, nids.iter().copied(), 1);

    let mut times = BytesMut::new();
    put_ascending(&mut times, events.iter().map(|e| e.time), 0);

    // The row's kinds, ascending, then one code per event: a kind's
    // rank among them.
    let mut kinds = BytesMut::new();
    let mut code_of = [0u64; N_KINDS];
    let mut m = 0u8;
    for (tag, _) in tags_present.iter().enumerate().filter(|(_, &p)| p) {
        code_of[tag] = u64::from(m);
        m += 1;
    }
    kinds.put_u8(m);
    for (tag, _) in tags_present.iter().enumerate().filter(|(_, &p)| p) {
        kinds.put_u8(tag as u8);
    }
    let kind_width = width_for(m as usize);
    let mut kind_bits = BitWriter::new(&mut kinds);
    for e in events {
        kind_bits.put(code_of[kind_tag(&e.kind) as usize], kind_width);
    }
    kind_bits.finish();

    let mut ids = BytesMut::new();
    let id_width = width_for(nids.len());
    let mut id_bits = BitWriter::new(&mut ids);
    for e in events {
        let (a, b) = e.kind.touched();
        id_bits.put(dict_idx(&nids, &a), id_width);
        if let Some(b) = b {
            id_bits.put(dict_idx(&nids, &b), id_width);
        }
    }
    id_bits.finish();

    let mut weights = BytesMut::new();
    let mut attr_keys = BytesMut::new();
    let mut key_bits = BitWriter::new(&mut attr_keys);
    let key_width = width_for(keys.len());
    let mut vals = Interner::new();
    let mut val_idx = Vec::new();
    // Whether every weighted event so far is the default edge.
    let mut default_weights = true;
    for e in events {
        match &e.kind {
            EventKind::AddEdge {
                weight, directed, ..
            } => {
                default_weights &= weight.to_bits() == 1.0f32.to_bits() && !*directed;
                put_f32(&mut weights, *weight);
                weights.put_u8(*directed as u8);
            }
            EventKind::SetEdgeWeight { weight, .. } => {
                default_weights = false;
                put_f32(&mut weights, *weight);
                weights.put_u8(0);
            }
            _ => {}
        }
        if let Some(k) = attr_key_of(&e.kind) {
            key_bits.put(dict_idx(&keys, &k), key_width);
        }
        match &e.kind {
            EventKind::SetNodeAttr { value, .. } | EventKind::SetEdgeAttr { value, .. } => {
                val_idx.push(vals.intern(ValueKey::of(value), |b| put_attr_value(b, value)));
            }
            _ => {}
        }
    }
    key_bits.finish();

    let mut attr_vals = BytesMut::new();
    let val_width = width_for(vals.len());
    let mut val_bits = BitWriter::new(&mut attr_vals);
    for i in val_idx {
        val_bits.put(i, val_width);
    }
    val_bits.finish();

    // Nothing varies: the column decodes from the kinds alone.
    let weights: &[u8] = if default_weights { &[] } else { &weights };

    assemble(
        ELIST_MAGIC,
        events.len(),
        &[
            &node_dict,
            &times,
            &kinds,
            &ids,
            weights,
            &put_dict(&keys, &vals),
            &attr_keys,
            &attr_vals,
        ],
    )
}

/// The always-decoded columns: timestamps, kind tags and the
/// dictionary indexes of the events' endpoints — one for a one-node
/// kind, two for an edge kind, in event order.
#[derive(Debug)]
struct CoreColumns {
    times: Vec<Time>,
    kinds: Vec<u8>,
    ids: Vec<u32>,
}

/// Read the kinds column of `n` events: the row's kinds, strictly
/// ascending, then one code per event, each a rank among them.
fn get_kinds(mut b: &[u8], n: usize) -> Result<Vec<u8>, CodecError> {
    let m = get_u8(&mut b)?;
    if m as usize > N_KINDS || (m == 0) != (n == 0) {
        return Err(CodecError::BadTag {
            what: "kind-count",
            tag: m,
        });
    }
    let Some((tags, rest)) = b.split_at_checked(m as usize) else {
        return Err(CodecError::UnexpectedEof {
            needed: m as usize,
            remaining: b.len(),
        });
    };
    let mut prev = None;
    for &t in tags {
        if t as usize >= N_KINDS || prev.is_some_and(|p| p >= t) {
            return Err(CodecError::BadTag {
                what: "EventKind",
                tag: t,
            });
        }
        prev = Some(t);
    }
    let mut bits = BitReader::new(rest);
    let mut kinds = Vec::with_capacity(n);
    match tags {
        [] => {}
        [only] => kinds.resize(n, *only),
        _ => {
            // A code past the row's kinds reads as kind 0xff, refused
            // once at the end.
            let mut by_code = [u8::MAX; 1 << 4];
            by_code[..tags.len()].copy_from_slice(tags);
            bits.get_many(n, width_for(tags.len()), |code| {
                kinds.push(by_code[code as usize]);
            })?;
            if let Some(&bad) = kinds.iter().find(|&&t| t == u8::MAX) {
                return Err(CodecError::BadTag {
                    what: "kind code",
                    tag: bad,
                });
            }
        }
    }
    bits.finish()?;
    Ok(kinds)
}

/// Read the ids column: one index into a dictionary of `dict_len`
/// nodes per endpoint of each event, each `⌈log2 dict_len⌉` bits.
fn get_ids(b: &[u8], kinds: &[u8], dict_len: usize) -> Result<Vec<u32>, CodecError> {
    let n = kinds.len() + kinds.iter().filter(|&&t| has_two_ids(t)).count();
    get_indexes(b, n, dict_len, "node-dict-index")
}

/// An eventlist row's attribute dictionary, decoded: the keys its
/// events name and the values they set.
#[derive(Debug)]
struct AttrDict {
    keys: Vec<String>,
    vals: Vec<AttrValue>,
}

/// A parsed columnar eventlist row: one backing buffer, per-segment
/// sub-ranges, and lazily decoded (memoized) columns.
#[derive(Debug)]
pub struct ColumnarEventlist {
    backing: Bytes,
    n_events: usize,
    segs: [Range<usize>; ELIST_SEGS],
    node_dict: OnceLock<Result<Vec<NodeId>, CodecError>>,
    core: OnceLock<Result<CoreColumns, CodecError>>,
    weights: OnceLock<Result<Vec<(f32, bool)>, CodecError>>,
    attr_dict: OnceLock<Result<AttrDict, CodecError>>,
    attr_keys: OnceLock<Result<Vec<u32>, CodecError>>,
    attr_vals: OnceLock<Result<Vec<u32>, CodecError>>,
}

impl ColumnarEventlist {
    /// Parse the header of an encoded row. Only the header is read;
    /// columns are decoded on first use.
    pub fn parse(backing: Bytes) -> Result<ColumnarEventlist, CodecError> {
        let Header {
            count: n_events,
            segs,
        } = parse_header(&backing, ELIST_MAGIC, "columnar-eventlist")?;
        Ok(ColumnarEventlist {
            backing,
            n_events,
            segs,
            node_dict: OnceLock::new(),
            core: OnceLock::new(),
            weights: OnceLock::new(),
            attr_dict: OnceLock::new(),
            attr_keys: OnceLock::new(),
            attr_vals: OnceLock::new(),
        })
    }

    /// Number of events in the row.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Size of the shared backing buffer.
    pub fn backing_len(&self) -> usize {
        self.backing.len()
    }

    /// Sum of all segments' lengths — the most lazy decoding can ever
    /// read. Known from the header alone; the read cache charges this
    /// up front.
    pub fn raw_len_total(&self) -> usize {
        self.segs.iter().map(Range::len).sum()
    }

    fn seg(&self, i: usize) -> Bytes {
        read_seg(&self.backing, &self.segs[i])
    }

    fn node_dict(&self) -> Result<&[NodeId], CodecError> {
        self.node_dict
            .get_or_init(|| {
                let raw = self.seg(SEG_NODE_DICT);
                let mut b: &[u8] = &raw;
                let n = get_len(&mut b, "node-dict")?;
                get_ascending(b, n, 1)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// The one decoder of the core columns, behind both
    /// [`ColumnarEventlist::to_eventlist`] and
    /// [`ColumnarEventlist::events_touching`]. The times column comes
    /// first: it holds the header's event count to the row's size
    /// before the kinds and ids columns allocate for it.
    fn core(&self) -> Result<&CoreColumns, CodecError> {
        self.core
            .get_or_init(|| {
                let dict_len = self.node_dict()?.len();
                let times = get_ascending(&self.seg(SEG_TIMES), self.n_events, 0)?;
                let kinds = get_kinds(&self.seg(SEG_KINDS), self.n_events)?;
                let ids = get_ids(&self.seg(SEG_IDS), &kinds, dict_len)?;
                Ok(CoreColumns { times, kinds, ids })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// How many events of the row carry a payload `has` selects — the
    /// entry count of that payload's column.
    fn payload_count(&self, has: fn(u8) -> bool) -> Result<usize, CodecError> {
        Ok(self.core()?.kinds.iter().filter(|&&t| has(t)).count())
    }

    /// The weights column, one entry per weighted event — or empty
    /// when the row spells none (every one is the default edge).
    fn weights(&self) -> Result<&[(f32, bool)], CodecError> {
        self.weights
            .get_or_init(|| {
                let raw = self.seg(SEG_WEIGHTS);
                weights_are_spelled(&self.core()?.kinds, raw.len())?;
                let mut b: &[u8] = &raw;
                let mut out = Vec::with_capacity(raw.len() / WEIGHT_ENTRY_LEN);
                while !b.is_empty() {
                    let w = get_f32(&mut b)?;
                    out.push((w, get_u8(&mut b)? != 0));
                }
                Ok(out)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// The attribute dictionary, decoded once.
    fn attr_dict(&self) -> Result<&AttrDict, CodecError> {
        self.attr_dict
            .get_or_init(|| {
                let (keys, vals) = get_dict(&self.seg(SEG_ATTR_DICT), "attr-dict", |b, _| {
                    get_attr_value(b)
                })?;
                Ok(AttrDict { keys, vals })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The attribute-key column: exactly one key index per event that
    /// names a key.
    fn attr_keys(&self) -> Result<&[u32], CodecError> {
        self.attr_keys
            .get_or_init(|| {
                let n = self.payload_count(has_attr_key)?;
                let n_keys = self.attr_dict()?.keys.len();
                get_indexes(&self.seg(SEG_ATTR_KEYS), n, n_keys, "key-dict-index")
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// The attribute-value column: exactly one value index per event
    /// that sets one.
    fn attr_vals(&self) -> Result<&[u32], CodecError> {
        self.attr_vals
            .get_or_init(|| {
                let n = self.payload_count(has_attr_val)?;
                let n_vals = self.attr_dict()?.vals.len();
                get_indexes(&self.seg(SEG_ATTR_VALS), n, n_vals, "value-dict-index")
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// Entry `ord` of a payload column of dictionary indexes, looked
    /// up in `dict` (the indexes are range-checked when the column is
    /// decoded).
    fn dict_entry<T: Clone>(idx: &[u32], ord: usize, dict: &[T]) -> Result<T, CodecError> {
        let i = *idx.get(ord).ok_or(CodecError::UnexpectedEof {
            needed: ord + 1,
            remaining: 0,
        })?;
        dict.get(i as usize)
            .cloned()
            .ok_or(CodecError::LengthOverflow {
                what: "attr-dict-index",
                len: u64::from(i),
            })
    }

    fn attr_key_at(&self, ord: usize) -> Result<String, CodecError> {
        Self::dict_entry(self.attr_keys()?, ord, &self.attr_dict()?.keys)
    }

    fn build_kind(
        &self,
        tag: u8,
        a: NodeId,
        b: Option<NodeId>,
        w_ord: usize,
        ak_ord: usize,
        av_ord: usize,
    ) -> Result<EventKind, CodecError> {
        let two = |b: Option<NodeId>| {
            b.ok_or(CodecError::BadTag {
                what: "EventKind",
                tag,
            })
        };
        let weight = |ord: usize| -> Result<(f32, bool), CodecError> {
            let weights = self.weights()?;
            if weights.is_empty() {
                return Ok((1.0, false));
            }
            weights.get(ord).copied().ok_or(CodecError::UnexpectedEof {
                needed: ord + 1,
                remaining: 0,
            })
        };
        let attr_val = |ord: usize| -> Result<AttrValue, CodecError> {
            Self::dict_entry(self.attr_vals()?, ord, &self.attr_dict()?.vals)
        };
        Ok(match tag {
            0 => EventKind::AddNode { id: a },
            1 => EventKind::RemoveNode { id: a },
            2 => {
                let (w, directed) = weight(w_ord)?;
                EventKind::AddEdge {
                    src: a,
                    dst: two(b)?,
                    weight: w,
                    directed,
                }
            }
            3 => EventKind::RemoveEdge {
                src: a,
                dst: two(b)?,
            },
            4 => EventKind::SetEdgeWeight {
                src: a,
                dst: two(b)?,
                weight: weight(w_ord)?.0,
            },
            5 => EventKind::SetNodeAttr {
                id: a,
                key: self.attr_key_at(ak_ord)?,
                value: attr_val(av_ord)?,
            },
            6 => EventKind::RemoveNodeAttr {
                id: a,
                key: self.attr_key_at(ak_ord)?,
            },
            7 => EventKind::SetEdgeAttr {
                src: a,
                dst: two(b)?,
                key: self.attr_key_at(ak_ord)?,
                value: attr_val(av_ord)?,
            },
            8 => EventKind::RemoveEdgeAttr {
                src: a,
                dst: two(b)?,
                key: self.attr_key_at(ak_ord)?,
            },
            t => {
                return Err(CodecError::BadTag {
                    what: "EventKind",
                    tag: t,
                })
            }
        })
    }

    fn materialize(&self, filter: Option<NodeId>) -> Result<Vec<Event>, CodecError> {
        let dict = self.node_dict()?;
        // The filter as a dictionary index; on a miss nothing past the
        // dictionary is decoded.
        let target = match filter {
            None => None,
            Some(nid) => match dict.binary_search(&nid) {
                Ok(i) => Some(i as u32),
                Err(_) => return Ok(Vec::new()),
            },
        };
        let core = self.core()?;
        let mut out = Vec::with_capacity(if target.is_some() { 8 } else { self.n_events });
        let mut ids = core.ids.iter().copied();
        let (mut w_ord, mut ak_ord, mut av_ord) = (0usize, 0usize, 0usize);
        for (&tag, &time) in core.kinds.iter().zip(&core.times) {
            // The column holds exactly the indexes the kinds call for.
            let ia = ids.next().unwrap_or(u32::MAX);
            let ib = if has_two_ids(tag) {
                Some(ids.next().unwrap_or(u32::MAX))
            } else {
                None
            };
            if target.is_none_or(|t| ia == t || ib == Some(t)) {
                let a = dict_node(dict, ia)?;
                let b = ib.map(|ib| dict_node(dict, ib)).transpose()?;
                let kind = self.build_kind(tag, a, b, w_ord, ak_ord, av_ord)?;
                out.push(Event::new(time, kind));
            }
            w_ord += has_weight(tag) as usize;
            ak_ord += has_attr_key(tag) as usize;
            av_ord += has_attr_val(tag) as usize;
        }
        Ok(out)
    }

    /// Whether `nid` appears in this row's node dictionary (decodes
    /// only the dictionary segment).
    pub fn contains_node(&self, nid: NodeId) -> Result<bool, CodecError> {
        Ok(self.node_dict()?.binary_search(&nid).is_ok())
    }

    /// Events touching `nid`, in order. Decodes the dictionary plus —
    /// only on a dictionary hit — the core columns, and payload
    /// columns only if a touching event carries that payload.
    pub fn events_touching(&self, nid: NodeId) -> Result<Vec<Event>, CodecError> {
        self.materialize(Some(nid))
    }

    /// Decode every column and reassemble the full eventlist: the
    /// unfiltered walk of [`ColumnarEventlist::events_touching`], over
    /// the same column decoders, so the two never disagree on a row.
    /// Every payload column is decoded, even one no event reads (an
    /// empty one, on a row this codec wrote), so a byte where none
    /// belongs is refused here.
    pub fn to_eventlist(&self) -> Result<Eventlist, CodecError> {
        self.weights()?;
        self.attr_keys()?;
        self.attr_vals()?;
        self.materialize(None).map(Eventlist::from_sorted)
    }
}

// ----------------------------------------------------------------------
// columnar deltas
// ----------------------------------------------------------------------

/// A delta row's pair dictionary, decoded: every distinct attribute
/// pair its records name, in order of first use.
type Pairs = [(String, AttrValue)];

/// Stream `n` pairs, each a pair-dictionary index, to `on`.
fn for_each_dict_pair(
    buf: &mut &[u8],
    n: usize,
    pairs: &Pairs,
    mut on: impl FnMut(String, AttrValue) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    for _ in 0..n {
        let idx = get_varint(buf)?;
        let (k, v) = usize::try_from(idx).ok().and_then(|i| pairs.get(i)).ok_or(
            CodecError::LengthOverflow {
                what: "pair-dict-index",
                len: idx,
            },
        )?;
        on(k.clone(), v.clone())?;
    }
    Ok(())
}

fn get_dict_pairs(buf: &mut &[u8], n: usize, pairs: &Pairs) -> Result<Attrs, CodecError> {
    let mut attrs = Attrs::new();
    for_each_dict_pair(buf, n, pairs, |k, v| {
        attrs.set(k, v);
        Ok(())
    })?;
    Ok(attrs)
}

/// Append `n`'s record, each attribute pair — the node's and its
/// entries' — as its index in `pairs` (a new pair spelled there with
/// its key's index in `keys`).
fn put_node_record<'a>(
    buf: &mut BytesMut,
    n: &'a StaticNode,
    keys: &[&str],
    pairs: &mut Interner<(&'a str, ValueKey<'a>)>,
) {
    put_record(buf, &n.edges, &n.attrs, |buf, attrs| {
        for (k, v) in attrs.iter() {
            let idx = pairs.intern((k, ValueKey::of(v)), |b| {
                put_varint(b, dict_idx(keys, &k));
                put_attr_value(b, v);
            });
            put_varint(buf, idx);
        }
    });
}

/// Parse one record from a running cursor into a fresh description;
/// records are self-delimiting, so a cursor is all the caller needs.
fn parse_record_from(id: NodeId, b: &mut &[u8], pairs: &Pairs) -> Result<StaticNode, CodecError> {
    let mut edges = Vec::new();
    let n_attrs = get_record(b, &mut edges, |b, n| get_dict_pairs(b, n, pairs))?;
    let attrs = get_dict_pairs(b, n_attrs, pairs)?;
    Ok(StaticNode { id, edges, attrs })
}

/// Parse one record — a further piece of `node` — from a running
/// cursor onto `node`: its entries onto the end of the edge-list and
/// then merged into place, its attribute pairs set in place. A key
/// the node already has is a [`CodecError::RepeatedComponent`].
fn merge_record_from(
    node: &mut StaticNode,
    b: &mut &[u8],
    pairs: &Pairs,
) -> Result<(), CodecError> {
    let repeated = CodecError::RepeatedComponent { node: node.id };
    let sorted_len = node.edges.len();
    let n_attrs = get_record(b, &mut node.edges, |b, n| get_dict_pairs(b, n, pairs))?;
    if !node.settle_appended_edges(sorted_len) {
        return Err(repeated);
    }
    for_each_dict_pair(b, n_attrs, pairs, |k, v| match node.attrs.set(k, v) {
        None => Ok(()),
        Some(_) => Err(repeated.clone()),
    })
}

/// One step of the path sum: apply the record at the cursor to
/// `state`'s description of `id` — one hash probe; a fresh
/// description when the node is absent, a copy-on-write merge when
/// present. Returns the now path-complete description.
fn sum_record<'a>(
    state: &'a mut Delta,
    id: NodeId,
    b: &mut &[u8],
    pairs: &Pairs,
) -> Result<&'a Arc<StaticNode>, CodecError> {
    match state.slot(id) {
        Entry::Vacant(slot) => Ok(slot.insert(Arc::new(parse_record_from(id, b, pairs)?))),
        Entry::Occupied(slot) => {
            let node = slot.into_mut();
            merge_record_from(Arc::make_mut(node), b, pairs)?;
            Ok(node)
        }
    }
}

/// Serialize a delta in the columnar layout: sorted node-id column,
/// restart column, pair dictionary, concatenated per-node records.
pub fn encode_columnar_delta(d: &Delta) -> Bytes {
    let nodes = d.sorted_nodes();
    let mut keys: Vec<&str> = Vec::new();
    for n in &nodes {
        for (k, _) in n.attrs.iter() {
            keys.push(k);
        }
        for e in &n.edges {
            if let Some(a) = &e.attrs {
                for (k, _) in a.iter() {
                    keys.push(k);
                }
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();

    let mut id_col = BytesMut::with_capacity(nodes.len() * 2);
    let mut restarts = BytesMut::new();
    let mut records = BytesMut::with_capacity(d.size() * 3);
    let mut pairs = Interner::new();
    let (mut prev, mut window) = (0u64, 0usize);
    for (i, n) in nodes.iter().enumerate() {
        put_varint(&mut id_col, n.id - prev);
        prev = n.id;
        put_node_record(&mut records, n, &keys, &mut pairs);
        if (i + 1) % RESTART_INTERVAL == 0 {
            put_varint(&mut restarts, (records.len() - window) as u64);
            window = records.len();
        }
    }

    assemble(
        DELTA_MAGIC,
        nodes.len(),
        &[&id_col, &restarts, &put_dict(&keys, &pairs), &records],
    )
}

/// The next id of a delta row's id column, `prev` the one before it:
/// the first id is its own gap, every later one its predecessor plus
/// a gap of at least one. A zero gap — a second record for one node —
/// or one past `u64::MAX` is refused, by the full read and the point
/// read alike, so the two never disagree on which records a node has.
fn next_id(ib: &mut &[u8], prev: Option<NodeId>) -> Result<NodeId, CodecError> {
    let gap = get_varint(ib)?;
    match prev {
        None => Ok(gap),
        Some(_) if gap == 0 => Err(CodecError::BadRef {
            what: "node-id gap",
            id: 0,
        }),
        Some(p) => p.checked_add(gap).ok_or(CodecError::VarintOverflow),
    }
}

/// A parsed columnar delta row: node-id and restart columns, pair
/// dictionary, and record segment, decoded lazily. Supports per-node
/// record extraction without parsing unrelated records, and skips
/// everything past the id column when the probed node is absent.
#[derive(Debug)]
pub struct ColumnarDelta {
    backing: Bytes,
    n_nodes: usize,
    segs: [Range<usize>; DELTA_SEGS],
    /// The node-id column: the row's node index.
    ids: OnceLock<Bytes>,
    /// The restart column: where each window of records starts.
    restarts: OnceLock<Bytes>,
    pair_dict: OnceLock<Result<Vec<(String, AttrValue)>, CodecError>>,
    records: OnceLock<Bytes>,
}

impl ColumnarDelta {
    /// Parse the header of an encoded row (columns are decoded on
    /// first use).
    pub fn parse(backing: Bytes) -> Result<ColumnarDelta, CodecError> {
        let Header {
            count: n_nodes,
            segs,
        } = parse_header(&backing, DELTA_MAGIC, "columnar-delta")?;
        Ok(ColumnarDelta {
            backing,
            n_nodes,
            segs,
            ids: OnceLock::new(),
            restarts: OnceLock::new(),
            pair_dict: OnceLock::new(),
            records: OnceLock::new(),
        })
    }

    /// Number of node records in the row.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Size of the shared backing buffer.
    pub fn backing_len(&self) -> usize {
        self.backing.len()
    }

    /// Sum of all segments' lengths (see
    /// [`ColumnarEventlist::raw_len_total`]).
    pub fn raw_len_total(&self) -> usize {
        self.segs.iter().map(Range::len).sum()
    }

    fn seg(&self, i: usize) -> Bytes {
        read_seg(&self.backing, &self.segs[i])
    }

    /// Segment `i`, read once into `cell` for the point reads.
    fn memo_seg<'a>(&self, cell: &'a OnceLock<Bytes>, i: usize) -> &'a Bytes {
        cell.get_or_init(|| self.seg(i))
    }

    /// The index of `nid`'s record among the row's, or `None` if the
    /// row has none: a scan of the sorted id column up to the first id
    /// past `nid`. A point read touches a row once, so there is no
    /// index structure to build — the id column is the index, and a
    /// miss decodes nothing else. Reading the id after a hit holds its
    /// gap to [`next_id`]'s rule as the full read does.
    fn node_index(&self, nid: NodeId) -> Result<Option<usize>, CodecError> {
        let mut ib: &[u8] = self.memo_seg(&self.ids, SEG_NODE_IDS);
        let (mut prev, mut hit) = (None, None);
        for i in 0..self.n_nodes {
            let id = next_id(&mut ib, prev)?;
            if id > nid {
                break;
            }
            if id == nid {
                hit = Some(i);
            }
            prev = Some(id);
        }
        Ok(hit)
    }

    /// The record segment from `nid`'s record on, or `None` if the row
    /// has no record for it: the restart of the record's window, then
    /// [`skip_record`] over at most `RESTART_INTERVAL - 1` records
    /// before it. [`ColumnarDelta::sum_into`] holds every restart to
    /// the records it spans, so on a row the full read accepts this
    /// lands where the full read parses `nid`'s record. It does not
    /// check a restart itself: after a wrong one it may land inside a
    /// record or on another one, and the caller may parse a record
    /// from there.
    fn record_at(&self, nid: NodeId) -> Result<Option<&[u8]>, CodecError> {
        let Some(i) = self.node_index(nid)? else {
            return Ok(None);
        };
        let mut start = 0usize;
        let window = i / RESTART_INTERVAL;
        if window > 0 {
            let mut sb: &[u8] = self.memo_seg(&self.restarts, SEG_RESTARTS);
            for _ in 0..window {
                let len = get_len(&mut sb, "restart")?;
                start = start.checked_add(len).ok_or(CodecError::LengthOverflow {
                    what: "restart",
                    len: len as u64,
                })?;
            }
        }
        let records = self.memo_seg(&self.records, SEG_RECORDS);
        let Some(mut b) = records.get(start..) else {
            return Err(CodecError::UnexpectedEof {
                needed: start,
                remaining: records.len(),
            });
        };
        for _ in 0..i % RESTART_INTERVAL {
            // A pair is one dictionary index.
            skip_record(&mut b, skip_varints)?;
        }
        Ok(Some(b))
    }

    /// The pair dictionary, decoded once, each pair's key index
    /// range-checked.
    fn pair_dict(&self) -> Result<&Pairs, CodecError> {
        self.pair_dict
            .get_or_init(|| {
                let (_, pairs) = get_dict(&self.seg(SEG_PAIR_DICT), "pair-dict", |b, keys| {
                    let idx = get_varint(b)?;
                    let key = usize::try_from(idx).ok().and_then(|i| keys.get(i));
                    let key = key.ok_or(CodecError::LengthOverflow {
                        what: "key-dict-index",
                        len: idx,
                    })?;
                    Ok((key.clone(), get_attr_value(b)?))
                })?;
                Ok(pairs)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// Whether a record for `nid` is present (decodes only the id
    /// column).
    pub fn contains(&self, nid: NodeId) -> Result<bool, CodecError> {
        Ok(self.node_index(nid)?.is_some())
    }

    /// Extract the record for one node, or `None` if absent — the
    /// node's whole description in an aux row, its piece in a tree
    /// row. On a miss only the id column is decoded; on a hit `nid`'s
    /// record is parsed, after skipping the at most 15 records between
    /// it and the restart of its 16-record window.
    pub fn node_record(&self, nid: NodeId) -> Result<Option<StaticNode>, CodecError> {
        let Some(mut record) = self.record_at(nid)? else {
            return Ok(None);
        };
        parse_record_from(nid, &mut record, self.pair_dict()?).map(Some)
    }

    /// Decode every record as a description of its own and reassemble
    /// the delta this row was encoded from (for a tree row, its
    /// pieces — see the module docs): the path sum onto nothing.
    pub fn to_delta(&self) -> Result<Delta, CodecError> {
        let mut d = Delta::new();
        self.sum_into(&mut d, None)?;
        Ok(d)
    }

    /// The path sum: apply this tree row to `state`, the sum of the
    /// rows above it on a root-to-leaf path, straight from the
    /// columnar bytes. Each record costs one hash probe: a record for
    /// an absent node becomes that node, a record for a present node
    /// is parsed onto it (copy-on-write, so a state shared with a
    /// cache is never written through). With `completed`, the
    /// now path-complete description of every node this row has a
    /// record for is also collected there, shared with `state` — what
    /// a cache keeps so that summing the row again is a node-level
    /// [`Delta::sum_assign`].
    ///
    /// Streams the id and record cursors in lockstep — records are
    /// self-delimiting — and holds the row to what the point read
    /// relies on: ids strictly ascending, and every restart equal to
    /// the bytes its window of 16 records took. On `Err` — including
    /// [`CodecError::RepeatedComponent`] — `state` is partly summed
    /// and must be dropped.
    pub fn sum_into(
        &self,
        state: &mut Delta,
        mut completed: Option<&mut Delta>,
    ) -> Result<(), CodecError> {
        let pairs = self.pair_dict()?;
        let iraw = self.seg(SEG_NODE_IDS);
        let sraw = self.seg(SEG_RESTARTS);
        let rraw = self.seg(SEG_RECORDS);
        let mut ib: &[u8] = &iraw;
        let mut sb: &[u8] = &sraw;
        let mut rb: &[u8] = &rraw;
        // Onto nothing every record is a new node; further down a
        // path most records land on nodes already there. Every id takes
        // a byte, so the id column bounds what a header count asks for.
        if state.is_empty() {
            state.reserve(self.n_nodes.min(iraw.len()));
        }
        // What was left of the record segment where the window began.
        let (mut prev, mut window) = (None, rb.len());
        for i in 0..self.n_nodes {
            let id = next_id(&mut ib, prev)?;
            prev = Some(id);
            let node = sum_record(state, id, &mut rb, pairs)?;
            if let Some(completed) = completed.as_deref_mut() {
                completed.insert_shared(Arc::clone(node));
            }
            if (i + 1) % RESTART_INTERVAL == 0 {
                let restart = get_varint(&mut sb)?;
                if restart != (window - rb.len()) as u64 {
                    return Err(CodecError::BadRef {
                        what: "restart",
                        id: restart,
                    });
                }
                window = rb.len();
            }
        }
        no_trailing(ib.len() + sb.len() + rb.len())
    }

    /// [`ColumnarDelta::sum_into`] restricted to one node: apply
    /// `nid`'s record, if this row has one, to `state`. Decodes what
    /// [`ColumnarDelta::node_record`] decodes.
    pub fn sum_node_into(&self, nid: NodeId, state: &mut Delta) -> Result<(), CodecError> {
        let Some(mut record) = self.record_at(nid)? else {
            return Ok(());
        };
        sum_record(state, nid, &mut record, self.pair_dict()?).map(drop)
    }
}

fn no_trailing(remaining: usize) -> Result<(), CodecError> {
    if remaining == 0 {
        Ok(())
    } else {
        Err(CodecError::TrailingBytes { remaining })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_delta, encode_eventlist};
    use crate::node::Neighbor;
    use crate::types::EdgeDir;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(1, EventKind::AddNode { id: 7 }),
            Event::new(
                2,
                EventKind::AddEdge {
                    src: 7,
                    dst: 8,
                    weight: 0.5,
                    directed: true,
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
            Event::new(9, EventKind::AddNode { id: 40 }),
        ]
    }

    #[test]
    fn eventlist_roundtrip_all_kinds() {
        let el = Eventlist::from_sorted(sample_events());
        let enc = encode_columnar_eventlist(&el);
        let col = ColumnarEventlist::parse(enc).unwrap();
        assert_eq!(col.n_events(), el.len());
        assert_eq!(col.to_eventlist().unwrap(), el);
    }

    #[test]
    fn events_touching_matches_filter_by_node() {
        let el = Eventlist::from_sorted(sample_events());
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        for nid in [7u64, 8, 40, 999] {
            let want: Vec<Event> = el.filter_by_node(nid).cloned().collect();
            assert_eq!(col.events_touching(nid).unwrap(), want, "nid {nid}");
        }
    }

    #[test]
    fn dictionary_miss_decodes_only_the_dictionary() {
        let el = Eventlist::from_sorted(sample_events());
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        let before = crate::codec::decoded_bytes_here();
        assert!(col.events_touching(12345).unwrap().is_empty());
        let decoded = crate::codec::decoded_bytes_here() - before;
        assert!(
            (decoded as usize) <= col.segs[SEG_NODE_DICT].len(),
            "miss decoded {decoded} bytes, dict is {}",
            col.segs[SEG_NODE_DICT].len()
        );
        assert!((decoded as usize) < col.raw_len_total());
    }

    #[test]
    fn structural_filter_skips_attr_value_column() {
        // Node 40's only event is AddNode: materializing its history
        // must not decode weights or attribute columns.
        let el = Eventlist::from_sorted(sample_events());
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        let before = crate::codec::decoded_bytes_here();
        assert_eq!(col.events_touching(40).unwrap().len(), 1);
        let decoded = (crate::codec::decoded_bytes_here() - before) as usize;
        let core: usize = [SEG_NODE_DICT, SEG_TIMES, SEG_KINDS, SEG_IDS]
            .iter()
            .map(|&i| col.segs[i].len())
            .sum();
        assert!(decoded <= core, "decoded {decoded} > core columns {core}");
    }

    #[test]
    fn empty_eventlist_roundtrip() {
        let el = Eventlist::new();
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        assert_eq!(col.to_eventlist().unwrap(), el);
        assert!(col.events_touching(1).unwrap().is_empty());
    }

    fn sample_delta() -> Delta {
        let mut d = Delta::new();
        for i in 0..20u64 {
            d.apply_event(&EventKind::AddEdge {
                src: i,
                dst: (i * 3) % 20,
                weight: i as f32,
                directed: i % 2 == 0,
            });
            d.apply_event(&EventKind::SetNodeAttr {
                id: i,
                key: "entity".into(),
                value: AttrValue::Text(format!("n{i}")),
            });
        }
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
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        assert_eq!(col.n_nodes(), d.cardinality());
        assert_eq!(col.to_delta().unwrap(), d);
    }

    #[test]
    fn node_record_extracts_single_nodes() {
        let d = sample_delta();
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        for nid in 0..20u64 {
            assert_eq!(col.node_record(nid).unwrap().as_ref(), d.node(nid));
        }
        assert_eq!(col.node_record(999).unwrap(), None);
    }

    #[test]
    fn index_miss_skips_record_segment() {
        let d = sample_delta();
        let col = ColumnarDelta::parse(encode_columnar_delta(&d)).unwrap();
        let before = crate::codec::decoded_bytes_here();
        assert!(!col.contains(999).unwrap());
        assert_eq!(col.node_record(999).unwrap(), None);
        let decoded = (crate::codec::decoded_bytes_here() - before) as usize;
        assert!(decoded <= col.segs[SEG_NODE_IDS].len());
        assert!(decoded < col.raw_len_total());
    }

    #[test]
    fn records_and_rowwise_nodes_share_one_edge_list_grammar() {
        // Without attributes (where dictionary indexes and inline pairs
        // differ) a columnar record is the row-wise description minus
        // its id.
        let mut n = StaticNode::new(300);
        for (nbr, dir, w) in [(2u64, EdgeDir::Both, 1.0f32), (9, EdgeDir::Out, 0.5)] {
            n.insert_edge(Neighbor::weighted(nbr, dir, w));
        }
        for n in [StaticNode::new(300), n] {
            let mut record = BytesMut::new();
            put_node_record(&mut record, &n, &[], &mut Interner::new());
            let mut row = BytesMut::new();
            crate::codec::put_static_node(&mut row, &n);
            assert_eq!(&row[2..], &record[..]);
        }
    }

    #[test]
    fn previous_format_rows_fail_closed() {
        // A row stamped with a retired magic is refused at parse: its
        // records, or its weights column, are never read as this
        // grammar — whichever parser it is handed to.
        let delta = encode_columnar_delta(&sample_delta());
        let elist = encode_columnar_eventlist(&Eventlist::from_sorted(sample_events()));
        assert_eq!((delta[0], elist[0]), (DELTA_MAGIC, ELIST_MAGIC));
        for retired in [0xC1u8, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7] {
            let mut old = delta.to_vec();
            old[0] = retired;
            assert!(matches!(
                ColumnarDelta::parse(Bytes::from(old)),
                Err(CodecError::BadTag { tag, .. }) if tag == retired
            ));
            let mut old = elist.to_vec();
            old[0] = retired;
            assert!(matches!(
                ColumnarEventlist::parse(Bytes::from(old)),
                Err(CodecError::BadTag { tag, .. }) if tag == retired
            ));
        }
    }

    fn add_edge(t: Time, src: NodeId, dst: NodeId, weight: f32, directed: bool) -> Event {
        Event::new(
            t,
            EventKind::AddEdge {
                src,
                dst,
                weight,
                directed,
            },
        )
    }

    #[test]
    fn a_row_of_default_edges_spells_no_weights() {
        let mut events: Vec<Event> = (0..50u64)
            .map(|i| add_edge(i, i, i + 1, 1.0, false))
            .collect();
        events.push(Event::new(50, EventKind::RemoveEdge { src: 3, dst: 4 }));
        let el = Eventlist::from_sorted(events.clone());
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        assert_eq!(col.segs[SEG_WEIGHTS].len(), 0);
        assert_eq!(col.segs[SEG_WEIGHTS].len(), 0);
        assert_eq!(col.to_eventlist().unwrap(), el);
        for nid in [0u64, 3, 4, 50] {
            let want: Vec<Event> = el.filter_by_node(nid).cloned().collect();
            assert_eq!(col.events_touching(nid).unwrap(), want, "nid {nid}");
        }

        // Anything but the bit-exact default edge — one weight, one
        // direction, one `SetEdgeWeight` (even to 1.0) — and the whole
        // column is spelled, five bytes a weighted event.
        let one_ulp_up = f32::from_bits(1.0f32.to_bits() + 1);
        for (odd, weighted) in [
            (add_edge(50, 7, 9, 2.5, false), 51),
            (add_edge(50, 7, 9, one_ulp_up, false), 51),
            (add_edge(50, 7, 9, -0.0, false), 51),
            (add_edge(50, 7, 9, 1.0, true), 51),
            (
                Event::new(
                    50,
                    EventKind::SetEdgeWeight {
                        src: 3,
                        dst: 4,
                        weight: 1.0,
                    },
                ),
                51,
            ),
        ] {
            let mut mixed = events.clone();
            mixed.push(odd);
            let el = Eventlist::from_sorted(mixed);
            let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
            assert_eq!(col.segs[SEG_WEIGHTS].len(), weighted * WEIGHT_ENTRY_LEN);
            assert_eq!(col.to_eventlist().unwrap(), el);
            for nid in [3u64, 7, 9] {
                let want: Vec<Event> = el.filter_by_node(nid).cloned().collect();
                assert_eq!(col.events_touching(nid).unwrap(), want, "nid {nid}");
            }
        }
    }

    /// A row of `count` records from its `segs`, segment `i` made
    /// `edit` of what it holds.
    fn reassembled(
        magic: u8,
        count: usize,
        segs: Vec<Bytes>,
        i: usize,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Bytes {
        let edited = edit(&segs[i]);
        let mut raw: Vec<&[u8]> = segs.iter().map(|b| &b[..]).collect();
        raw[i] = &edited;
        assemble(magic, count, &raw)
    }

    /// Re-assemble `el`'s row with segment `i` made `edit` of
    /// what it holds.
    fn with_segment(
        el: &Eventlist,
        i: usize,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> ColumnarEventlist {
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(el)).unwrap();
        let segs = (0..ELIST_SEGS).map(|i| col.seg(i)).collect();
        ColumnarEventlist::parse(reassembled(ELIST_MAGIC, el.len(), segs, i, edit)).unwrap()
    }

    /// Re-assemble `el`'s row with another weights segment.
    fn with_weights_segment(el: &Eventlist, weights: &[u8]) -> ColumnarEventlist {
        with_segment(el, SEG_WEIGHTS, |_| weights.to_vec())
    }

    /// Both decoders of `col` — the full one and node 7's pruned one —
    /// refuse it with `want`.
    fn both_paths_refuse(col: &ColumnarEventlist, want: CodecError) {
        assert_eq!(col.to_eventlist(), Err(want.clone()));
        assert_eq!(col.events_touching(7), Err(want));
    }

    #[test]
    fn a_time_gap_past_the_clock_is_refused_on_both_paths() {
        // Times `[u64::MAX, +2, +0, ...]`: a wrapping sum would hand
        // node 7 a history that runs backwards.
        let el = Eventlist::from_sorted(sample_events());
        let col = with_segment(&el, SEG_TIMES, |_| {
            let mut times = BytesMut::new();
            put_varint(&mut times, u64::MAX);
            times.put_u8(0);
            let mut bits = BitWriter::new(&mut times);
            bits.put_rice(2, 0);
            for _ in 2..el.len() {
                bits.put_rice(0, 0);
            }
            bits.finish();
            times.to_vec()
        });
        both_paths_refuse(&col, CodecError::VarintOverflow);
    }

    #[test]
    fn an_unread_payload_byte_is_trailing_on_both_paths() {
        let el = Eventlist::from_sorted(sample_events());
        for (seg, extra) in [(SEG_ATTR_KEYS, &[0u8][..]), (SEG_ATTR_VALS, &[3, 1][..])] {
            let col = with_segment(&el, seg, |s| [s, extra].concat());
            let want = CodecError::TrailingBytes {
                remaining: extra.len(),
            };
            both_paths_refuse(&col, want);
        }
    }

    #[test]
    fn kinds_and_ids_take_the_bits_their_row_needs() {
        // 50 default edges over 51 nodes: one kind, so no kind codes;
        // 100 dictionary indexes of 6 bits each.
        let el = Eventlist::from_sorted(
            (0..50u64)
                .map(|i| add_edge(i, i, i + 1, 1.0, false))
                .collect(),
        );
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        assert_eq!(&col.seg(SEG_KINDS)[..], &[1, 2]);
        assert_eq!(col.segs[SEG_IDS].len(), 100 * 6 / 8);
        // Times 0, 1, ..., 49 and node ids 0..=50: gaps of 1, Rice
        // parameter 0 — two bits a time gap, one bit a node-id gap
        // (the dictionary spells `gap - 1`).
        assert_eq!(col.segs[SEG_TIMES].len(), 1 + 1 + (49 * 2usize).div_ceil(8));
        assert_eq!(
            col.segs[SEG_NODE_DICT].len(),
            1 + 1 + 1 + 50usize.div_ceil(8)
        );
        assert_eq!(col.to_eventlist().unwrap(), el);

        // A second kind: one bit per event, and the kinds column names
        // both, ascending.
        let mut events = el.events().to_vec();
        events.push(Event::new(50, EventKind::RemoveEdge { src: 3, dst: 4 }));
        let el = Eventlist::from_sorted(events);
        let col = ColumnarEventlist::parse(encode_columnar_eventlist(&el)).unwrap();
        let kinds = col.seg(SEG_KINDS);
        assert_eq!(&kinds[..3], &[2, 2, 3]);
        assert_eq!(kinds.len(), 3 + 51usize.div_ceil(8));
        assert_eq!(col.to_eventlist().unwrap(), el);
    }

    #[test]
    fn corrupt_kind_columns_are_refused() {
        let el = Eventlist::from_sorted(sample_events());
        let n = el.len();
        for (kinds, what) in [
            (vec![10u8], "kind-count"),      // more kinds than there are
            (vec![0], "kind-count"),         // no kind for ten events
            (vec![2, 5, 5], "EventKind"),    // not strictly ascending
            (vec![2, 0, 9], "EventKind"),    // no such kind
            (vec![3, 0, 1, 2], "kind code"), // code 3 of 3 kinds
        ] {
            let col = with_segment(&el, SEG_KINDS, |_| {
                let mut seg = BytesMut::new();
                seg.put_slice(&kinds);
                let width = width_for(kinds[0] as usize);
                let mut bits = BitWriter::new(&mut seg);
                for _ in 0..n {
                    bits.put((1 << width) - 1, width);
                }
                bits.finish();
                seg.to_vec()
            });
            assert!(
                matches!(col.to_eventlist(), Err(CodecError::BadTag { what: w, .. }) if w == what),
                "{kinds:?}: {:?}",
                col.to_eventlist()
            );
            assert_eq!(
                col.events_touching(7).unwrap_err(),
                col.to_eventlist().unwrap_err()
            );
        }
    }

    #[test]
    fn a_weights_segment_of_any_other_length_is_corrupt() {
        let plain = Eventlist::from_sorted(
            (0..4u64)
                .map(|i| add_edge(i, i, i + 1, 1.0, false))
                .collect(),
        );
        let entry = [0, 0, 0x80, 0x3f, 0];
        // Neither empty nor one entry per weighted event.
        for n in [1usize, 3, 5] {
            let col = with_weights_segment(&plain, &entry.repeat(n));
            assert!(matches!(
                col.to_eventlist(),
                Err(CodecError::LengthOverflow {
                    what: "weights",
                    ..
                })
            ));
            assert!(matches!(
                col.events_touching(2),
                Err(CodecError::LengthOverflow {
                    what: "weights",
                    ..
                })
            ));
        }
        let cut = with_weights_segment(&plain, &entry.repeat(4)[..19]);
        assert!(cut.to_eventlist().is_err());
        assert!(cut.events_touching(2).is_err());
        // Spelled in full it is the same row.
        let col = with_weights_segment(&plain, &entry.repeat(4));
        assert_eq!(col.to_eventlist().unwrap(), plain);

        // A `SetEdgeWeight` has no default: beside one, an empty
        // column is corrupt, not "weight 1.0".
        let mut events = plain.events().to_vec();
        events.push(Event::new(
            9,
            EventKind::SetEdgeWeight {
                src: 1,
                dst: 2,
                weight: 3.0,
            },
        ));
        let col = with_weights_segment(&Eventlist::from_sorted(events), &[]);
        assert!(matches!(
            col.to_eventlist(),
            Err(CodecError::LengthOverflow {
                what: "weights",
                ..
            })
        ));
        assert!(matches!(
            col.events_touching(1),
            Err(CodecError::LengthOverflow {
                what: "weights",
                ..
            })
        ));
        // Events that read no weight still answer.
        assert!(col.events_touching(12345).unwrap().is_empty());
    }

    #[test]
    fn empty_delta_roundtrip() {
        let col = ColumnarDelta::parse(encode_columnar_delta(&Delta::new())).unwrap();
        assert_eq!(col.to_delta().unwrap(), Delta::new());
        assert_eq!(col.node_record(0).unwrap(), None);
    }

    #[test]
    fn interning_beats_rowwise_on_repeated_keys() {
        let d = sample_delta();
        let col = encode_columnar_delta(&d);
        let row = encode_delta(&d);
        // The pair dictionary spells each key once, so the columnar
        // row should not be drastically larger than the row-wise one.
        assert!(
            col.len() < row.len() * 2,
            "columnar {} vs row-wise {}",
            col.len(),
            row.len()
        );
    }

    #[test]
    fn corrupt_headers_error_not_panic() {
        let el = Eventlist::from_sorted(sample_events());
        let enc = encode_columnar_eventlist(&el);
        // Wrong magic.
        let mut bad = enc.to_vec();
        bad[0] = 0x77;
        assert!(ColumnarEventlist::parse(Bytes::from(bad)).is_err());
        // Row-wise bytes fed to the columnar parser.
        let row = encode_eventlist(&el);
        assert!(ColumnarEventlist::parse(row).is_err());
        // Truncations anywhere must parse-fail or decode-fail.
        for cut in 0..enc.len() {
            let t = enc.slice(..cut);
            if let Ok(col) = ColumnarEventlist::parse(t) {
                let _ = col.to_eventlist();
            }
        }
    }

    #[test]
    fn corrupt_delta_headers_error_not_panic() {
        let d = sample_delta();
        let enc = encode_columnar_delta(&d);
        let mut bad = enc.to_vec();
        bad[0] = 0x00;
        assert!(ColumnarDelta::parse(Bytes::from(bad)).is_err());
        // The same row applied as a tree row onto a state that already
        // holds part of every node: a hub's worth of other entries.
        let mut above = Delta::new();
        for id in d.ids() {
            let mut n = StaticNode::new(id);
            for nbr in 100..112 {
                n.insert_edge(Neighbor::new(nbr, EdgeDir::Both));
            }
            above.insert(n);
        }
        for cut in 0..enc.len() {
            let t = enc.slice(..cut);
            if let Ok(col) = ColumnarDelta::parse(t) {
                let _ = col.to_delta();
                let _ = col.node_record(3);
                let _ = col.sum_into(&mut above.clone(), Some(&mut Delta::new()));
                let _ = col.sum_node_into(3, &mut above.clone());
                let _ = col.sum_node_into(3, &mut Delta::new());
            }
        }
    }

    fn tree_row(d: &Delta) -> ColumnarDelta {
        ColumnarDelta::parse(encode_columnar_delta(d)).unwrap()
    }

    fn node_with(id: NodeId, nbrs: &[NodeId], attrs: &[(&str, i64)]) -> StaticNode {
        let mut n = StaticNode::new(id);
        for &nbr in nbrs {
            n.insert_edge(Neighbor::new(nbr, EdgeDir::Both));
        }
        for &(k, v) in attrs {
            n.attrs.set(k, AttrValue::Int(v));
        }
        n
    }

    #[test]
    fn sum_into_merges_pieces_onto_present_nodes() {
        // Node 1 gets a short piece and node 2 a long one, both
        // interleaved with what the root holds; node 3 only an
        // attribute pair; node 9 is new below the root.
        let long: Vec<NodeId> = (0..40).map(|i| 3 * i + 1).collect();
        let root: Delta = [
            node_with(1, &[10, 30, 50], &[("a", 1)]),
            node_with(2, &(0..40).map(|i| 3 * i).collect::<Vec<_>>(), &[]),
            node_with(3, &[4], &[]),
            node_with(6, &[], &[]),
        ]
        .into_iter()
        .collect();
        let child: Delta = [
            node_with(1, &[5, 40, 60], &[("b", 2)]),
            node_with(2, &long, &[]),
            node_with(3, &[], &[("c", 3)]),
            node_with(9, &[1], &[]),
        ]
        .into_iter()
        .collect();

        let mut state = Delta::new();
        tree_row(&root).sum_into(&mut state, None).unwrap();
        assert_eq!(state, root, "the root row onto nothing is the root");
        let root_state = state.clone();
        let mut completed = Delta::new();
        tree_row(&child)
            .sum_into(&mut state, Some(&mut completed))
            .unwrap();

        let mut all: Vec<NodeId> = (0..40).flat_map(|i| [3 * i, 3 * i + 1]).collect();
        all.sort_unstable();
        let want: Delta = [
            node_with(1, &[5, 10, 30, 40, 50, 60], &[("a", 1), ("b", 2)]),
            node_with(2, &all, &[]),
            node_with(3, &[4], &[("c", 3)]),
            node_with(6, &[], &[]),
            node_with(9, &[1], &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(state, want);
        assert_eq!(root_state, root, "a shared state is copied, not written");

        // What a cache keeps of the child row: the path-complete
        // description of each node it has a record for — so that a
        // node-level sum of it replays the row.
        assert_eq!(completed.sorted_ids(), vec![1, 2, 3, 9]);
        let mut replayed = root_state.clone();
        replayed.sum_assign(&completed);
        assert_eq!(replayed, want);

        // Node-scoped twin, node by node.
        for id in [1u64, 2, 3, 6, 9, 77] {
            let mut one = Delta::new();
            tree_row(&root).sum_node_into(id, &mut one).unwrap();
            tree_row(&child).sum_node_into(id, &mut one).unwrap();
            assert_eq!(one.node(id), want.node(id), "node {id}");
            assert!(one.cardinality() <= 1);
        }
    }

    #[test]
    fn repeated_component_is_an_error_not_a_longer_list() {
        let hub: Vec<NodeId> = (0..30).map(|i| 2 * i).collect();
        let root: Delta = [node_with(1, &hub, &[("a", 1)])].into_iter().collect();
        let mut reweighted = StaticNode::new(1);
        reweighted.insert_edge(Neighbor::weighted(4, EdgeDir::Both, 7.0));
        let mut long_repeat = node_with(1, &(0..20).map(|i| 2 * i + 1).collect::<Vec<_>>(), &[]);
        long_repeat.insert_edge(Neighbor::new(58, EdgeDir::Both));
        for piece in [
            node_with(1, &[4], &[]),        // an entry the root holds
            reweighted,                     // same key, another value
            long_repeat,                    // one repeat among many new entries
            node_with(1, &[], &[("a", 2)]), // an attribute key the root holds
        ] {
            let child: Delta = [piece].into_iter().collect();
            let mut state = root.clone();
            assert_eq!(
                tree_row(&child).sum_into(&mut state, None),
                Err(CodecError::RepeatedComponent { node: 1 })
            );
            assert_eq!(
                tree_row(&child).sum_node_into(1, &mut root.clone()),
                Err(CodecError::RepeatedComponent { node: 1 })
            );
        }
        // A different direction toward the same neighbor is another key.
        let mut out_edge = StaticNode::new(1);
        out_edge.insert_edge(Neighbor::new(4, EdgeDir::Out));
        let child: Delta = [out_edge].into_iter().collect();
        let mut state = root.clone();
        tree_row(&child).sum_into(&mut state, None).unwrap();
        assert_eq!(state.node(1).unwrap().degree(), hub.len() + 1);
    }

    /// Re-assemble `d`'s row with segment `i` made `edit` of
    /// what it holds.
    fn with_delta_segment(
        d: &Delta,
        i: usize,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> ColumnarDelta {
        let col = tree_row(d);
        let segs = (0..DELTA_SEGS).map(|i| col.seg(i)).collect();
        ColumnarDelta::parse(reassembled(DELTA_MAGIC, d.cardinality(), segs, i, edit)).unwrap()
    }

    fn varints(values: &[u64]) -> Vec<u8> {
        let mut b = BytesMut::new();
        for &v in values {
            put_varint(&mut b, v);
        }
        b.to_vec()
    }

    #[test]
    fn a_zero_or_overflowing_id_gap_is_refused_by_both_reads() {
        // Ids `[5, 1]` made `[5, 0]`: the second record claims node 5
        // again. A full read that merged the two would answer `{1, 2}`
        // where a point read answers `{1}`; both refuse instead.
        let d: Delta = [node_with(5, &[1], &[]), node_with(6, &[2], &[])]
            .into_iter()
            .collect();
        let zero = CodecError::BadRef {
            what: "node-id gap",
            id: 0,
        };
        let top = u64::MAX - 1;
        let at_top: Delta = [node_with(top, &[1], &[]), node_with(top + 1, &[2], &[])]
            .into_iter()
            .collect();
        for (d, ids, probe, want) in [
            (&d, [5, 0], 5, zero),
            (&at_top, [top, 2], top, CodecError::VarintOverflow),
        ] {
            let col = with_delta_segment(d, SEG_NODE_IDS, |_| varints(&ids));
            assert_eq!(col.to_delta(), Err(want.clone()));
            assert_eq!(col.node_record(probe), Err(want.clone()));
            assert_eq!(col.contains(probe), Err(want.clone()));
            assert_eq!(
                col.sum_node_into(probe, &mut Delta::new()),
                Err(want.clone())
            );
        }
    }

    /// 40 nodes: two full windows of 16 records, and 8 past them.
    fn forty_nodes() -> Delta {
        (0..40u64)
            .map(|i| {
                let mut n = node_with(3 * i, &(0..i % 5).collect::<Vec<_>>(), &[]);
                if i % 7 == 0 {
                    n.attrs.set("k", AttrValue::Text("v".repeat(i as usize)));
                }
                if i % 11 == 0 {
                    n.insert_edge(Neighbor::weighted(900, EdgeDir::Out, 0.5));
                    n.edges[0].set_attr("e", AttrValue::Float(1.5));
                }
                n
            })
            .collect()
    }

    #[test]
    fn a_restart_per_full_window_and_point_reads_skip_from_it() {
        let d = forty_nodes();
        let col = tree_row(&d);
        let mut restarts: &[u8] = &col.seg(SEG_RESTARTS);
        let windows: Vec<u64> = (0..2).map(|_| get_varint(&mut restarts).unwrap()).collect();
        assert!(restarts.is_empty(), "one restart per full window");
        // The two windows are the records of the first 32 nodes: a row
        // of those alone spells them alike (pairs are numbered in order
        // of first use, so a prefix of the nodes numbers its pairs as
        // the whole row does).
        let first: Delta = d.sorted_nodes()[..32]
            .iter()
            .map(|n| (*n).clone())
            .collect();
        assert_eq!(
            windows.iter().sum::<u64>() as usize,
            tree_row(&first).segs[SEG_RECORDS].len()
        );
        for n in d.iter() {
            assert_eq!(tree_row(&d).node_record(n.id).unwrap().as_ref(), Some(n));
            let mut one = Delta::new();
            tree_row(&d).sum_node_into(n.id, &mut one).unwrap();
            assert_eq!(one.node(n.id), Some(n));
            assert!(!col.contains(n.id + 1).unwrap());
        }
        // Fewer than 16 records: no restart at all.
        let small: Delta = d.iter().take(15).cloned().collect();
        assert_eq!(tree_row(&small).segs[SEG_RESTARTS].len(), 0);
    }

    #[test]
    fn a_restart_off_its_window_is_refused_by_the_full_read() {
        // Moving one byte between the two windows keeps the restarts'
        // sum, so only the check against the offsets the full read
        // reaches catches it — where a point read past the first
        // window would skip from a point inside a record.
        let d = forty_nodes();
        let col = tree_row(&d);
        let mut b: &[u8] = &col.seg(SEG_RESTARTS);
        let (w0, w1) = (get_varint(&mut b).unwrap(), get_varint(&mut b).unwrap());
        for (bad, restarts, behind_the_lie) in [
            (w0 + 1, vec![w0 + 1, w1 - 1], vec![16]),
            (w0 - 1, vec![w0 - 1, w1 + 1], (16..32).collect()),
            (w1 + 1, vec![w0, w1 + 1], (32..40).collect()),
        ] {
            let col = with_delta_segment(&d, SEG_RESTARTS, |_| varints(&restarts));
            // A point read alone does not check restarts: on a row
            // nothing has read in full, every record it answers here is
            // `Ok`, and some behind the lie are parsed from bytes that
            // are not theirs (a skip landing inside a record may fall
            // back in step with the records a few later).
            let wrong: Vec<u64> = (0..40u64)
                .filter(|&i| {
                    let got = col.node_record(3 * i).expect("a parseable record");
                    got.as_ref() != d.node(3 * i)
                })
                .collect();
            assert_eq!(wrong, behind_the_lie, "restarts {restarts:?}");
            assert_eq!(
                col.to_delta(),
                Err(CodecError::BadRef {
                    what: "restart",
                    id: bad,
                })
            );
        }
        // One restart short, or one too many.
        let col = with_delta_segment(&d, SEG_RESTARTS, |_| varints(&[w0]));
        assert!(matches!(
            col.to_delta(),
            Err(CodecError::UnexpectedEof { .. })
        ));
        let col = with_delta_segment(&d, SEG_RESTARTS, |_| varints(&[w0, w1, 3]));
        assert_eq!(
            col.to_delta(),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        // Hand-craft a header claiming a ludicrous event count, and one
        // claiming a segment longer than MAX_LEN.
        let mut buf = BytesMut::new();
        buf.put_u8(ELIST_MAGIC);
        put_varint(&mut buf, u64::MAX); // event count
        assert!(matches!(
            ColumnarEventlist::parse(buf.freeze()),
            Err(CodecError::LengthOverflow { .. })
        ));

        // A segment length past the cap.
        let mut buf = BytesMut::new();
        buf.put_u8(ELIST_MAGIC);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, ELIST_SEGS as u64);
        put_varint(&mut buf, u64::MAX);
        assert!(matches!(
            ColumnarEventlist::parse(buf.freeze()),
            Err(CodecError::LengthOverflow { .. })
        ));
    }
}
