//! The on-disk format of every eventlist and delta row — TGI's and
//! the baseline indexes' alike.
//!
//! A row-wise layout would interleave every field of every event or
//! node, so a reader would pay full decode cost even when it needs only
//! one node's structural history. A row here stores its data as
//! **column segments** behind one backing [`Bytes`] value:
//!
//! ```text
//! row := u8 magic, varint count, u8 present,
//!        varint seg_len{n_present − 1}, seg{n_present}
//! ```
//!
//! The magic says how many segments the row has (eight in an eventlist
//! row, five in a delta row); `present` has bit `i` set when segment
//! `i` is not empty, and only the non-empty segments are spelled, each
//! but the last with its length — the row's length gives the last one.
//! A presence bit past the magic's segments, a spelled length of zero
//! or a present last segment of no bytes is refused. Every segment is
//! stored as written, so reading one is a zero-copy sub-slice of the
//! backing buffer. What keeps a row small is its
//! grammar — bit-coded integer columns, shape-factored records, and
//! attribute keys, values and pairs named by id. (A store may still
//! compress whole values: `hgs_store`'s optional LZSS, the axis of the
//! paper's Fig. 13a, is the one compression layer.)
//!
//! **Context tables.** A row is encoded and read in the context of a
//! [`PairTable`]: sorted attribute keys, distinct values and distinct
//! `(key, value)` pairs that a set of rows shares, spelled once
//! outside them. A row's own dictionary *extends* its context table:
//! an id below the table's length names a table entry, a larger one
//! names an entry of the row's own, which holds exactly what the table
//! lacks, each distinct key, value or pair once. The index encodes
//! every row of a span against the span's table
//! ([`encode_columnar_delta_in`], [`ColumnarDelta::parse_in`] and their
//! eventlist twins), so its rows' dictionaries are empty; a pair the
//! table lacks is still spelled in the row, so a complete table saves
//! bytes but is not needed for correctness. A row encoded by itself —
//! a baseline index's, a benchmark probe's — has the empty table for
//! its context ([`encode_columnar_delta`], [`ColumnarDelta::parse`]),
//! and spells every key, value and pair it names. A row read in
//! another context than its own reads other pairs or is refused: the
//! context is part of the row's meaning, as a span's layout is.
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
//!   attr_keys := id{1 per keyed event} of ⌈log2 (T.keys + n_keys)⌉ bits
//!   attr_vals := id{1 per valued event} of ⌈log2 (T.vals + n_vals)⌉ bits
//!   ```
//!
//!   where `k = ⌊log2(mean gap · ln 2)⌋` is chosen per column, a kind
//!   code is the event's tag's rank among the row's `m` tags (no codes
//!   at all when `m = 1`), and an edge kind has two dictionary indexes.
//!   The attribute dictionary holds the keys and values the context
//!   table `T` lacks, and is empty when there are none; its keys are
//!   sorted and its values in order of first use. A non-empty one has
//!   a key of its own, or an entry beside the table's keys. Times and
//!   ids accumulate with checked adds: an overflowing gap is an error,
//!   never an out-of-order answer. The weights column has one
//!   `(f32 weight, u8 directed)` entry per `AddEdge` / `SetEdgeWeight`
//!   — unless every one of them is the default `AddEdge { weight: 1.0,
//!   directed: false }` (bit-exact), in which case the segment is empty
//!   and the kinds column alone says what it held. Any other length is
//!   corrupt, and every payload column holds exactly the entries its
//!   kinds call for: an unread byte is [`CodecError::TrailingBytes`];
//! * a delta row holds a sorted node-id column, a restart column, a
//!   pair dictionary, a counts column and a concatenated per-node
//!   record segment:
//!
//!   ```text
//!   ids      := [varint first_id [u8 l, low{n−1} of l bits, high{n−1}]]
//!   high     := Rice(rise, 0)
//!   restarts := (varint window_len, varint window_bits){⌊n / 16⌋}
//!   dict     := ε | varint n_keys, str{n_keys},
//!                   varint n_pairs, (varint key_id, attr_value){n_pairs}
//!   counts   := [u8 params [u8 k_attrs] [u8 w_first] code{n}]
//!   params   := bits 0-4 k_edges, bit 5 firsts, bit 6 attrs, bit 7 shapes
//!   code     := Rice(n_edges, k_edges) [first:w_first]
//!               [Rice(n_attrs, k_attrs)] [shape:3]
//!   records  := record{n}
//!   ```
//!
//!   where the id column is Elias–Fano coded: each further id's offset
//!   from the first is split into its low `l` bits, fixed-width and all
//!   together (zero-padded to a byte), and its high part, spelled as a
//!   unary code of its rise over the previous id's high part
//!   (zero-padded too), with `l = ⌊log2(last offset / (n − 1))⌋`. That
//!   costs about what Rice-coded gaps would, and a point read can step
//!   over every id whose high part lies below the probed id's by
//!   counting bits a word at a time, without reading them. An id that
//!   does not rise over the one before it, or one that overflows, is
//!   refused. A restart is spelled per full window `w` of 16 records (a
//!   row of fewer than 16 records has none), as a LevelDB data block
//!   keeps a restart point every few keys: `window_len` is the byte
//!   length of records `16w .. 16w+16`, `window_bits` the bit length of
//!   their codes in the counts column. The counts column holds each
//!   record's **head** — what lays its bytes out — as one bit-coded
//!   code: its edge count; then, when the `firsts` flag is set and the
//!   record has entries, its first entry's neighbour in `w_first` bits,
//!   the bit length of the row's largest first neighbour; then its
//!   attribute count only when the `attrs` flag says some record of
//!   the row has one; then its edge-list's three shape bits only when
//!   the `shapes` flag says some record's shape is not the default
//!   (every entry undirected, unit-weight, attribute-free). The writer
//!   sets `firsts` where that makes the row smaller than spelling each
//!   first neighbour as a varint in its record, by more than the width
//!   byte, the rounding and a byte of each restart can cost — where the
//!   row's first neighbours need about as many bits each; a growing
//!   graph's early, popular neighbours fit varints narrower than its
//!   widest id. A flag no record needs, a `w_first` past 64 or other
//!   than the largest first neighbour's bit length, or a shape other
//!   than the default on a record of no entries, is refused: no writer
//!   spells any of them (the point read refuses only the width past
//!   64). The dictionary holds the pairs
//!   the context table lacks, and is empty when there are none; its
//!   keys are the keys of those pairs the table lacks, sorted, a pair's
//!   `key_id` names a table key or, past the table's keys, one of them,
//!   and its pairs are in order of first use. The full read (`sum_into`)
//!   streams ids, heads and records in lockstep and holds every restart
//!   to the bytes and code bits its window actually took. A point read
//!   (`node_record`, `sum_node_into`, `contains`) seeks the node's
//!   index `i` in the id column — a miss decodes nothing else — sums
//!   the first `⌊i / 16⌋` restarts to find its window's records and
//!   codes, reads the heads from the window's first to `i`'s, and steps
//!   over the `i mod 16` records before it with `codec::skip_record` (a
//!   run of default-shape records, varints alone, at once); the
//!   window's code bits bound that head walk as its bytes bound the
//!   skip, so on every row the full read accepts the two reads agree.
//!   Only the full read checks the restarts and the flags: a point
//!   read alone does not detect a wrong restart, and may then answer
//!   another node's record, or one parsed from inside a record, as `Ok`
//!   (a point read of a row nothing has read in full yet).
//!
//!   A record is written in the grammar of [`crate::codec`] — only the
//!   entry fields its shape leaves open (and no first neighbour the
//!   head holds), then the attribute pairs — with every node or edge
//!   attribute pair one `varint pair_id`: a table pair, or past the
//!   table's pairs one of the row's own; the record codec and its
//!   edge-list loops live there. Records are most of every index —
//!   most of them a single default edge (`nbr` beside a two-bit code,
//!   or no record bytes at all where the code holds it) or a single
//!   pair (`pair_id`). Every later neighbour stays a byte-aligned
//!   varint gap, so the runs of unit gaps a growing graph's hubs make
//!   are left for a store's LZSS to find.
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
//! Columns are decoded lazily and each row's own dictionary once
//! (memoized; an empty one allocates nothing — the context table was
//! decoded once, by its owner), so a query materializes only the
//! columns it touches: a
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
    RecordHead, MAX_LEN, SHAPE_BITS, SHAPE_DEFAULT,
};
use crate::delta::Delta;
use crate::error::CodecError;
use crate::event::{Event, EventKind, Eventlist};
use crate::hash::FxHashMap;
use crate::node::StaticNode;
pub use crate::pair_table::PairTable;
use crate::pair_table::{ValueKey, EMPTY};
use crate::types::{NodeId, Time};

/// On-disk format tag of index eventlist/delta rows, persisted with
/// the index descriptor (rows are not self-describing). There is one
/// format; a descriptor carrying any other tag is refused on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageLayout {
    /// Column segments stored as written, each read as a zero-copy
    /// slice and decoded lazily: bit-coded eventlist columns, delta
    /// records, and attribute dictionaries that extend a context pair
    /// table (see the module docs).
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
/// spelled every pair as a key index and a value; `0xC8` delta rows
/// whose records each opened with a head byte and whose id column
/// spelled every gap as a varint; `0xC9` eventlist rows and `0xCA`
/// delta rows whose headers spelled a segment count and every
/// segment's length, and whose records spelled their first neighbour
/// as a varint.
const DELTA_MAGIC: u8 = 0xCB;
const ELIST_MAGIC: u8 = 0xCC;

const ELIST_SEGS: usize = 8;
const SEG_NODE_DICT: usize = 0;
const SEG_TIMES: usize = 1;
const SEG_KINDS: usize = 2;
const SEG_IDS: usize = 3;
const SEG_WEIGHTS: usize = 4;
const SEG_ATTR_DICT: usize = 5;
const SEG_ATTR_KEYS: usize = 6;
const SEG_ATTR_VALS: usize = 7;

const DELTA_SEGS: usize = 5;
const SEG_NODE_IDS: usize = 0;
const SEG_RESTARTS: usize = 1;
const SEG_PAIR_DICT: usize = 2;
const SEG_COUNTS: usize = 3;
const SEG_RECORDS: usize = 4;

/// Records per restart window of a delta row: the restart column holds
/// the byte length of every full window's records and the bit length
/// of their codes in the counts column, and a point read reads at most
/// `RESTART_INTERVAL` heads and steps over at most
/// `RESTART_INTERVAL - 1` records past the restart it starts from. A
/// constant of the grammar, not a knob.
const RESTART_INTERVAL: usize = 16;

// ----------------------------------------------------------------------
// kind-tag helpers
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
// shared header: magic, count, which segments are present, their lengths
// ----------------------------------------------------------------------

/// Spell a row: its magic, its record count, a bitmap of its non-empty
/// segments (bit `i` for segment `i`; the magic says how many segments
/// the row has), the length of every non-empty segment but the last —
/// the row's length gives that one — and the non-empty segments.
fn assemble(magic: u8, count: usize, segs: &[&[u8]]) -> Bytes {
    debug_assert!(segs.len() <= 8);
    let total: usize = segs.iter().map(|s| s.len()).sum();
    let mut out = BytesMut::with_capacity(total + 4 + 2 * segs.len());
    out.put_u8(magic);
    put_varint(&mut out, count as u64);
    let mut present = 0u8;
    for (i, s) in segs.iter().enumerate() {
        present |= u8::from(!s.is_empty()) << i;
    }
    out.put_u8(present);
    let last = segs.iter().rposition(|s| !s.is_empty()).unwrap_or(0);
    for s in segs[..last].iter().filter(|s| !s.is_empty()) {
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

/// Parse the common header and bounds-check every segment range. A
/// presence bit past the magic's `N` segments, or a spelled length of
/// zero — a present segment is not empty — is refused; so is a last
/// present segment the row has no bytes left for.
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
    let present = get_u8(&mut buf)?;
    if u32::from(present) >> N != 0 {
        return Err(CodecError::BadTag {
            what: "segment presence",
            tag: present,
        });
    }
    // The highest present segment: its length is the rest of the row.
    let last = (present != 0).then(|| 7 - present.leading_zeros() as usize);
    let mut lens = [0usize; N];
    for (i, len) in lens.iter_mut().enumerate() {
        if present & 1 << i == 0 || Some(i) == last {
            continue;
        }
        *len = get_len(&mut buf, "segment")?;
        if *len == 0 {
            return Err(CodecError::LengthOverflow {
                what: "segment",
                len: 0,
            });
        }
    }
    let mut pos = backing.len() - buf.len();
    let mut segs: [Range<usize>; N] = std::array::from_fn(|_| 0..0);
    for (i, (len, seg)) in lens.into_iter().zip(&mut segs).enumerate() {
        let len = if Some(i) == last {
            match backing.len() - pos {
                0 => {
                    return Err(CodecError::UnexpectedEof {
                        needed: 1,
                        remaining: 0,
                    })
                }
                rest => rest,
            }
        } else {
            len
        };
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
    no_trailing(backing.len() - pos)?;
    Ok(Header { count, segs })
}

/// Segment `range` of `backing`: a zero-copy sub-slice, charged to
/// [`crate::codec::decoded_bytes`] as what a read materializes.
fn read_seg(backing: &Bytes, range: &Range<usize>) -> Bytes {
    note_decoded(range.len());
    backing.slice(range.clone())
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

/// Spell a row's own dictionary: empty when it has neither a key nor
/// an entry of its own, else its keys and then its `n` entries, spelled
/// in `entries`.
fn put_dict(keys: &[&str], n: usize, entries: &[u8]) -> BytesMut {
    let mut dict = BytesMut::new();
    if !keys.is_empty() || n > 0 {
        put_varint(&mut dict, keys.len() as u64);
        for k in keys {
            put_str(&mut dict, k);
        }
        put_varint(&mut dict, n as u64);
        dict.put_slice(entries);
    }
    dict
}

/// Read a row's own dictionary, every byte of its segment: empty, or
/// its keys and then the entries `entry` reads. A row in the context of
/// a table of `ctx_keys` keys may have no key of its own, but not
/// nothing at all; without a context key a row's entries need a key of
/// its own.
fn get_dict<T>(
    mut b: &[u8],
    what: &'static str,
    ctx_keys: usize,
    mut entry: impl FnMut(&mut &[u8], &[String]) -> Result<T, CodecError>,
) -> Result<(Vec<String>, Vec<T>), CodecError> {
    if b.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    // The dictionary of nothing is spelled empty.
    let spelled_empty = CodecError::LengthOverflow { what, len: 0 };
    let n = get_len(&mut b, what)?;
    let mut keys = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        keys.push(get_str(&mut b)?);
    }
    if keys.is_empty() && ctx_keys == 0 {
        return Err(spelled_empty);
    }
    let n = get_len(&mut b, what)?;
    if keys.is_empty() && n == 0 {
        return Err(spelled_empty);
    }
    let mut entries = Vec::with_capacity(n.min(b.len()));
    for _ in 0..n {
        entries.push(entry(&mut b, &keys)?);
    }
    no_trailing(b.len())?;
    Ok((keys, entries))
}

/// Entry `id` of a dictionary that extends the context table's
/// `table` entries with a row's `own`: a table entry below the
/// table's length, one of the row's own past it.
fn extended<'a, T>(table: &'a [T], own: &'a [T], id: u64) -> Option<&'a T> {
    let id = usize::try_from(id).ok()?;
    match id.checked_sub(table.len()) {
        None => table.get(id),
        Some(own_id) => own.get(own_id),
    }
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

/// The values [`put_ascending`] wrote, read one at a time: what an
/// eventlist's node dictionary and times are decoded with. Values
/// accumulate with a checked add: a gap that overflows is an error,
/// never a value out of order.
struct Ascending<'a> {
    bits: BitReader<'a>,
    k: u8,
    bias: u64,
    /// The first value, until it is read.
    first: Option<u64>,
    prev: u64,
}

impl<'a> Ascending<'a> {
    /// Open a column of `n` values. `n` is held to the bits the column
    /// has before anything is read (every further value takes at least
    /// one), so a caller may size by it.
    fn new(mut b: &'a [u8], n: usize, bias: u64) -> Result<Ascending<'a>, CodecError> {
        let first = if n > 0 {
            Some(get_varint(&mut b)?)
        } else {
            None
        };
        let k = if n > 1 {
            check_rice_k(get_u8(&mut b)?)?
        } else {
            0
        };
        let bits = BitReader::new(b);
        let further = n.saturating_sub(1);
        if further > bits.bits_left() {
            return Err(CodecError::UnexpectedEof {
                needed: further.div_ceil(8),
                remaining: b.len(),
            });
        }
        Ok(Ascending {
            bits,
            k,
            bias,
            first,
            prev: 0,
        })
    }

    /// The next value; the caller reads at most the `n` it opened the
    /// column with.
    #[inline]
    fn next(&mut self) -> Result<u64, CodecError> {
        let v = match self.first.take() {
            Some(first) => first,
            None => self
                .prev
                .checked_add(self.bits.get_rice(self.k)?)
                .and_then(|v| v.checked_add(self.bias))
                .ok_or(CodecError::VarintOverflow)?,
        };
        self.prev = v;
        Ok(v)
    }

    /// End of the column, after its last value: only padding remains.
    fn finish(self) -> Result<(), CodecError> {
        self.bits.finish()
    }
}

/// Read all `n` values [`put_ascending`] wrote.
fn get_ascending(b: &[u8], n: usize, bias: u64) -> Result<Vec<u64>, CodecError> {
    let mut col = Ascending::new(b, n, bias)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(col.next()?);
    }
    col.finish()?;
    Ok(out)
}

/// Serialize an eventlist in the columnar layout, by itself: the
/// empty-table case of [`encode_columnar_eventlist_in`].
pub fn encode_columnar_eventlist(el: &Eventlist) -> Bytes {
    encode_columnar_eventlist_in(el, &EMPTY)
}

/// Serialize an eventlist in the columnar layout in the context of
/// `table`: a key or value the table has is spelled as its table id,
/// and the row's own dictionary holds only those it lacks.
pub fn encode_columnar_eventlist_in(el: &Eventlist, table: &PairTable) -> Bytes {
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
        if let Some(k) = attr_key_of(&e.kind).filter(|k| table.key_id(k).is_none()) {
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
    let (table_keys, table_vals) = (table.keys().len(), table.values().len());
    let key_width = width_for(table_keys + keys.len());
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
            let id = match table.key_id(k) {
                Some(id) => id,
                None => table_keys as u64 + dict_idx(&keys, &k),
            };
            key_bits.put(id, key_width);
        }
        match &e.kind {
            EventKind::SetNodeAttr { value, .. } | EventKind::SetEdgeAttr { value, .. } => {
                val_idx.push(match table.value_id(value) {
                    Some(id) => id,
                    None => {
                        let own = vals.intern(ValueKey::of(value), |b| put_attr_value(b, value));
                        table_vals as u64 + own
                    }
                });
            }
            _ => {}
        }
    }
    key_bits.finish();

    let mut attr_vals = BytesMut::new();
    let val_width = width_for(table_vals + vals.len());
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
            &put_dict(&keys, vals.len(), &vals.entries),
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

/// An eventlist row's own attribute dictionary, decoded: the keys its
/// events name and the values they set that its context table lacks.
#[derive(Debug)]
struct AttrDict {
    keys: Vec<String>,
    vals: Vec<AttrValue>,
}

/// A parsed columnar eventlist row: one backing buffer, per-segment
/// sub-ranges, the context table its dictionary extends, and lazily
/// decoded (memoized) columns.
#[derive(Debug)]
pub struct ColumnarEventlist {
    backing: Bytes,
    n_events: usize,
    segs: [Range<usize>; ELIST_SEGS],
    /// The context table; `None` is the empty one.
    table: Option<Arc<PairTable>>,
    node_dict: OnceLock<Result<Vec<NodeId>, CodecError>>,
    core: OnceLock<Result<CoreColumns, CodecError>>,
    weights: OnceLock<Result<Vec<(f32, bool)>, CodecError>>,
    attr_dict: OnceLock<Result<AttrDict, CodecError>>,
    attr_keys: OnceLock<Result<Vec<u32>, CodecError>>,
    attr_vals: OnceLock<Result<Vec<u32>, CodecError>>,
}

impl ColumnarEventlist {
    /// Parse the header of a row encoded by itself: the empty-table
    /// case of [`ColumnarEventlist::parse_in`].
    pub fn parse(backing: Bytes) -> Result<ColumnarEventlist, CodecError> {
        Self::parse_with(backing, None)
    }

    /// Parse the header of a row encoded in the context of `table`
    /// ([`encode_columnar_eventlist_in`]). Only the header is read;
    /// columns are decoded on first use.
    pub fn parse_in(
        backing: Bytes,
        table: &Arc<PairTable>,
    ) -> Result<ColumnarEventlist, CodecError> {
        Self::parse_with(backing, Some(Arc::clone(table)))
    }

    fn parse_with(
        backing: Bytes,
        table: Option<Arc<PairTable>>,
    ) -> Result<ColumnarEventlist, CodecError> {
        let Header {
            count: n_events,
            segs,
        } = parse_header(&backing, ELIST_MAGIC, "columnar-eventlist")?;
        Ok(ColumnarEventlist {
            backing,
            n_events,
            segs,
            table,
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

    fn table(&self) -> &PairTable {
        self.table.as_deref().unwrap_or(&EMPTY)
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

    /// The row's own attribute dictionary, decoded once.
    fn attr_dict(&self) -> Result<&AttrDict, CodecError> {
        self.attr_dict
            .get_or_init(|| {
                let ctx_keys = self.table().keys().len();
                let (keys, vals) =
                    get_dict(&self.seg(SEG_ATTR_DICT), "attr-dict", ctx_keys, |b, _| {
                        get_attr_value(b)
                    })?;
                Ok(AttrDict { keys, vals })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The attribute-key column: exactly one key id per event that
    /// names a key, each a table key or one of the row's own.
    fn attr_keys(&self) -> Result<&[u32], CodecError> {
        self.attr_keys
            .get_or_init(|| {
                let n = self.payload_count(has_attr_key)?;
                let n_keys = self.table().keys().len() + self.attr_dict()?.keys.len();
                get_indexes(&self.seg(SEG_ATTR_KEYS), n, n_keys, "key-dict-index")
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// The attribute-value column: exactly one value id per event that
    /// sets one, each a table value or one of the row's own.
    fn attr_vals(&self) -> Result<&[u32], CodecError> {
        self.attr_vals
            .get_or_init(|| {
                let n = self.payload_count(has_attr_val)?;
                let n_vals = self.table().values().len() + self.attr_dict()?.vals.len();
                get_indexes(&self.seg(SEG_ATTR_VALS), n, n_vals, "value-dict-index")
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// Entry `ord` of a payload column of dictionary ids, looked up in
    /// the dictionary that extends `table` with the row's `own` (the
    /// ids are range-checked when the column is decoded).
    fn dict_entry<T: Clone>(
        idx: &[u32],
        ord: usize,
        table: &[T],
        own: &[T],
    ) -> Result<T, CodecError> {
        let i = *idx.get(ord).ok_or(CodecError::UnexpectedEof {
            needed: ord + 1,
            remaining: 0,
        })?;
        extended(table, own, u64::from(i))
            .cloned()
            .ok_or(CodecError::LengthOverflow {
                what: "attr-dict-index",
                len: u64::from(i),
            })
    }

    fn attr_key_at(&self, ord: usize) -> Result<String, CodecError> {
        let own = &self.attr_dict()?.keys;
        Self::dict_entry(self.attr_keys()?, ord, self.table().keys(), own)
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
            let own = &self.attr_dict()?.vals;
            Self::dict_entry(self.attr_vals()?, ord, self.table().values(), own)
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

/// A list of attribute pairs: a pair table's, or a delta row's own.
type Pairs = [(String, AttrValue)];

/// The pairs a delta row's records name by id: its context table's,
/// then the row's own (every distinct pair the table lacks, in order
/// of first use).
#[derive(Clone, Copy)]
struct PairSpace<'a> {
    table: &'a Pairs,
    own: &'a Pairs,
}

/// Stream `n` pairs, each a pair id, to `on`.
fn for_each_dict_pair(
    buf: &mut &[u8],
    n: usize,
    pairs: PairSpace<'_>,
    mut on: impl FnMut(String, AttrValue) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    for _ in 0..n {
        let idx = get_varint(buf)?;
        let (k, v) = extended(pairs.table, pairs.own, idx).ok_or(CodecError::LengthOverflow {
            what: "pair-dict-index",
            len: idx,
        })?;
        on(k.clone(), v.clone())?;
    }
    Ok(())
}

fn get_dict_pairs(buf: &mut &[u8], n: usize, pairs: PairSpace<'_>) -> Result<Attrs, CodecError> {
    let mut attrs = Attrs::new();
    for_each_dict_pair(buf, n, pairs, |k, v| {
        attrs.set(k, v);
        Ok(())
    })?;
    Ok(attrs)
}

/// A delta row's own pairs under construction: each pair its context
/// table lacks, in order of first use, and the index of each.
#[derive(Default)]
struct OwnPairs<'a> {
    pairs: Vec<(&'a str, &'a AttrValue)>,
    index: FxHashMap<(&'a str, ValueKey<'a>), u64>,
}

impl<'a> OwnPairs<'a> {
    fn intern(&mut self, k: &'a str, v: &'a AttrValue) -> u64 {
        let next = self.pairs.len() as u64;
        *self.index.entry((k, ValueKey::of(v))).or_insert_with(|| {
            self.pairs.push((k, v));
            next
        })
    }

    /// Spell the row's own dictionary: the keys of its own pairs that
    /// `table` lacks, sorted, then each pair as its key's id — in the
    /// key space that extends the table's keys with those — and its
    /// value.
    fn put_dict(&self, table: &PairTable) -> BytesMut {
        let mut keys: Vec<&str> = self
            .pairs
            .iter()
            .map(|&(k, _)| k)
            .filter(|k| table.key_id(k).is_none())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut entries = BytesMut::new();
        for &(k, v) in &self.pairs {
            let id = match table.key_id(k) {
                Some(id) => id,
                None => table.keys().len() as u64 + dict_idx(&keys, &k),
            };
            put_varint(&mut entries, id);
            put_attr_value(&mut entries, v);
        }
        put_dict(&keys, self.pairs.len(), &entries)
    }
}

/// Append `n`'s record, laid out by `head`, each attribute pair —
/// the node's and its entries' — as its id: its id in `table`, or
/// past the table's pairs its index among the row's `own`.
fn put_node_record<'a>(
    buf: &mut BytesMut,
    head: &RecordHead,
    n: &'a StaticNode,
    table: &PairTable,
    own: &mut OwnPairs<'a>,
) {
    put_record(buf, head, &n.edges, &n.attrs, |buf, attrs| {
        for (k, v) in attrs.iter() {
            let id = match table.pair_id(k, v) {
                Some(id) => id,
                None => table.pairs().len() as u64 + own.intern(k, v),
            };
            put_varint(buf, id);
        }
    });
}

/// Counts-column parameter bits: the edge counts' Rice parameter
/// (at most 31: no record has 2^32 entries).
const COUNTS_K_EDGES: u8 = 0x1f;
/// Counts-column flag: every code of a record with entries holds its
/// first neighbour, and a width byte follows the parameters.
const COUNTS_FIRSTS: u8 = 1 << 5;
/// Counts-column flag: every code holds an attribute count.
const COUNTS_ATTRS: u8 = 1 << 6;
/// Counts-column flag: every code holds a shape.
const COUNTS_SHAPES: u8 = 1 << 7;

/// Bits a Rice code of `v` with parameter `k` takes.
fn rice_len(v: u64, k: u8) -> u64 {
    (v >> k) + 1 + u64::from(k)
}

/// The bit length of `v`: what a fixed-width code of it needs.
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Whether the records of `nodes` are smaller with each first neighbour
/// in its head's code, as wide as the largest, than as a varint in front
/// of its record — by more than it can cost elsewhere: the width byte,
/// the rounding of the counts column, and a byte of each restart's code
/// bits. A growing graph's first neighbours are mostly early, popular
/// nodes, whose varints may be narrower than the width its largest sets.
fn firsts_in_heads(nodes: &[&StaticNode]) -> bool {
    let (mut held, mut max, mut varint_bytes) = (0u64, 0u64, 0u64);
    for e in nodes.iter().filter_map(|n| n.edges.first()) {
        held += 1;
        max = max.max(e.nbr);
        varint_bytes += u64::from(bit_len(e.nbr).max(1).div_ceil(7));
    }
    let moved = (held * u64::from(bit_len(max))).div_ceil(8);
    2 + moved + (nodes.len() / RESTART_INTERVAL) as u64 <= varint_bytes
}

/// Spell a delta row's counts column — the heads of its records, one
/// code each; nothing for a row of no records — and return it with
/// the bits each full window of `RESTART_INTERVAL` codes took. Every
/// head of a record with entries holds its first neighbour, or none
/// does.
fn put_counts(heads: &[RecordHead]) -> (BytesMut, Vec<u64>) {
    let mut out = BytesMut::new();
    let mut windows = Vec::with_capacity(heads.len() / RESTART_INTERVAL);
    if heads.is_empty() {
        return (out, windows);
    }
    let (mut edge_sum, mut attr_sum, mut shapes) = (0u128, 0u128, false);
    let (mut firsts, mut max_first) = (false, 0u64);
    for h in heads {
        edge_sum += h.n_edges as u128;
        attr_sum += h.n_attrs as u128;
        shapes |= h.shape != SHAPE_DEFAULT;
        if let Some(first) = h.first {
            firsts = true;
            max_first = max_first.max(first);
        }
    }
    let k_edges = rice_k(edge_sum, heads.len()).min(COUNTS_K_EDGES);
    let k_attrs = rice_k(attr_sum, heads.len());
    let w_first = bit_len(max_first);
    let attrs = attr_sum > 0;
    let mut params = k_edges;
    for (on, flag) in [
        (firsts, COUNTS_FIRSTS),
        (attrs, COUNTS_ATTRS),
        (shapes, COUNTS_SHAPES),
    ] {
        if on {
            params |= flag;
        }
    }
    out.put_u8(params);
    if attrs {
        out.put_u8(k_attrs);
    }
    if firsts {
        out.put_u8(w_first as u8);
    }
    let mut bits = BitWriter::new(&mut out);
    let mut window = 0u64;
    for (i, h) in heads.iter().enumerate() {
        bits.put_rice(h.n_edges as u64, k_edges);
        window += rice_len(h.n_edges as u64, k_edges);
        if let Some(first) = h.first {
            bits.put(first, w_first);
            window += u64::from(w_first);
        }
        if attrs {
            bits.put_rice(h.n_attrs as u64, k_attrs);
            window += rice_len(h.n_attrs as u64, k_attrs);
        }
        if shapes {
            bits.put(u64::from(h.shape), SHAPE_BITS);
            window += u64::from(SHAPE_BITS);
        }
        if (i + 1) % RESTART_INTERVAL == 0 {
            windows.push(window);
            window = 0;
        }
    }
    bits.finish();
    (out, windows)
}

/// A count of a record head, held to the codec's sanity cap.
#[inline]
fn count(v: u64, what: &'static str) -> Result<usize, CodecError> {
    match usize::try_from(v) {
        Ok(n) if v <= MAX_LEN => Ok(n),
        _ => Err(CodecError::LengthOverflow { what, len: v }),
    }
}

/// A delta row's counts column, read one record head at a time.
struct Counts<'a> {
    bits: BitReader<'a>,
    /// When every code of the column is unary — both Rice parameters
    /// 0, no shapes, no first neighbours — its one bits, and the
    /// position the next code starts at: the common column, read a
    /// word at a time.
    unary: Option<(Ones<'a>, u64)>,
    /// Bits of the column past its parameters.
    len_bits: usize,
    params: u8,
    k_attrs: u8,
    /// The width of every first neighbour, when the codes hold them.
    w_first: Option<u32>,
    /// The flags the heads read so far needed.
    needed: u8,
    /// The largest first neighbour read so far.
    max_first: u64,
}

impl<'a> Counts<'a> {
    /// Open the counts column of a row of `n` records at its first
    /// code, or — for a point read — at the code `skip` bits past it.
    /// `n` is held to the bits the column has (every code takes at
    /// least one) before anything is read, so a caller may size by it.
    /// A first-neighbour width past 64 bits is refused.
    fn new(mut b: &'a [u8], n: usize, skip: usize) -> Result<Counts<'a>, CodecError> {
        let (mut params, mut k_attrs, mut w_first) = (0, 0, None);
        if n > 0 {
            params = get_u8(&mut b)?;
            if params & COUNTS_ATTRS != 0 {
                k_attrs = check_rice_k(get_u8(&mut b)?)?;
            }
            if params & COUNTS_FIRSTS != 0 {
                let w = get_u8(&mut b)?;
                if u32::from(w) > u64::BITS {
                    return Err(CodecError::BadTag {
                        what: "first-neighbour width",
                        tag: w,
                    });
                }
                w_first = Some(u32::from(w));
            }
        }
        let short = CodecError::UnexpectedEof {
            needed: n.max(skip).div_ceil(8),
            remaining: b.len(),
        };
        if n > b.len() * 8 {
            return Err(short);
        }
        let mut bits = BitReader::new(b.get(skip / 8..).ok_or(short)?);
        bits.get((skip % 8) as u32)?;
        let unary = params & (COUNTS_K_EDGES | COUNTS_FIRSTS | COUNTS_SHAPES) == 0 && k_attrs == 0;
        Ok(Counts {
            bits,
            unary: unary.then(|| (Ones::new(b, skip), skip as u64)),
            len_bits: b.len() * 8,
            params,
            k_attrs,
            w_first,
            needed: 0,
            max_first: 0,
        })
    }

    /// The next record's head. A shape other than the default on a
    /// record of no entries is refused: no writer spells one.
    #[inline]
    fn next(&mut self) -> Result<RecordHead, CodecError> {
        if let Some((ones, at)) = &mut self.unary {
            let mut code = |what| {
                let one = ones.next_one().ok_or(CodecError::UnexpectedEof {
                    needed: 1,
                    remaining: 0,
                })?;
                let v = one - *at;
                *at = one + 1;
                count(v, what)
            };
            let n_edges = code("edges")?;
            let n_attrs = if self.params & COUNTS_ATTRS != 0 {
                code("attrs")?
            } else {
                0
            };
            self.needed |= COUNTS_ATTRS * u8::from(n_attrs > 0);
            return Ok(RecordHead {
                shape: SHAPE_DEFAULT,
                n_edges,
                n_attrs,
                first: None,
            });
        }
        let k_edges = self.params & COUNTS_K_EDGES;
        let (n_edges, first) = match self.w_first {
            Some(w) => {
                let (n_edges, first) = self.bits.get_rice_then(k_edges, w)?;
                self.max_first = self.max_first.max(first);
                (n_edges, (n_edges > 0).then_some(first))
            }
            None => (self.bits.get_rice(k_edges)?, None),
        };
        let mut head = RecordHead {
            shape: SHAPE_DEFAULT,
            n_edges: count(n_edges, "edges")?,
            n_attrs: 0,
            first,
        };
        if self.params & (COUNTS_ATTRS | COUNTS_SHAPES) != 0 {
            self.read_flagged(&mut head)?;
        }
        self.needed |= COUNTS_FIRSTS * u8::from(head.first.is_some());
        Ok(head)
    }

    /// The fields of `head` past its edge count that the flags call for.
    fn read_flagged(&mut self, head: &mut RecordHead) -> Result<(), CodecError> {
        if self.params & COUNTS_ATTRS != 0 {
            head.n_attrs = count(self.bits.get_rice(self.k_attrs)?, "attrs")?;
            if head.n_attrs > 0 {
                self.needed |= COUNTS_ATTRS;
            }
        }
        if self.params & COUNTS_SHAPES != 0 {
            head.shape = self.bits.get(SHAPE_BITS)? as u8;
            if head.shape != SHAPE_DEFAULT {
                if head.n_edges == 0 {
                    return Err(CodecError::BadTag {
                        what: "record shape",
                        tag: head.shape,
                    });
                }
                self.needed |= COUNTS_SHAPES;
            }
        }
        Ok(())
    }

    /// Bits not yet read (padding included).
    fn bits_left(&self) -> usize {
        match &self.unary {
            Some((_, at)) => self.len_bits.saturating_sub(*at as usize),
            None => self.bits.bits_left(),
        }
    }

    /// End of the column, after its last head: every flag it sets was
    /// needed by some record, its first-neighbour width is the largest
    /// first neighbour's, and only padding remains.
    fn finish(self) -> Result<(), CodecError> {
        let flags = COUNTS_FIRSTS | COUNTS_ATTRS | COUNTS_SHAPES;
        if self.needed != self.params & flags {
            return Err(CodecError::BadTag {
                what: "counts flags",
                tag: self.params,
            });
        }
        if let Some(w) = self.w_first.filter(|&w| w != bit_len(self.max_first)) {
            return Err(CodecError::BadTag {
                what: "first-neighbour width",
                tag: w as u8,
            });
        }
        match &self.unary {
            Some((ones, at)) => ones.finish(at.checked_sub(1)),
            None => self.bits.finish(),
        }
    }
}

/// Parse one record, laid out by `head`, from a running cursor into a
/// fresh description.
fn parse_record_from(
    id: NodeId,
    head: &RecordHead,
    b: &mut &[u8],
    pairs: PairSpace<'_>,
) -> Result<StaticNode, CodecError> {
    let mut edges = Vec::new();
    get_record(b, head, &mut edges, |b, n| get_dict_pairs(b, n, pairs))?;
    let attrs = get_dict_pairs(b, head.n_attrs, pairs)?;
    Ok(StaticNode { id, edges, attrs })
}

/// Parse one record — a further piece of `node`, laid out by `head` —
/// from a running cursor onto `node`: its entries onto the end of the
/// edge-list and then merged into place, its attribute pairs set in
/// place. A key the node already has is a
/// [`CodecError::RepeatedComponent`].
fn merge_record_from(
    node: &mut StaticNode,
    head: &RecordHead,
    b: &mut &[u8],
    pairs: PairSpace<'_>,
) -> Result<(), CodecError> {
    let repeated = CodecError::RepeatedComponent { node: node.id };
    let sorted_len = node.edges.len();
    get_record(b, head, &mut node.edges, |b, n| get_dict_pairs(b, n, pairs))?;
    if !node.settle_appended_edges(sorted_len) {
        return Err(repeated);
    }
    for_each_dict_pair(b, head.n_attrs, pairs, |k, v| match node.attrs.set(k, v) {
        None => Ok(()),
        Some(_) => Err(repeated.clone()),
    })
}

/// One step of the path sum: apply the record at the cursor, laid out
/// by `head`, to `state`'s description of `id` — one hash probe; a
/// fresh description when the node is absent, a copy-on-write merge
/// when present. Returns the now path-complete description.
fn sum_record<'a>(
    state: &'a mut Delta,
    id: NodeId,
    head: &RecordHead,
    b: &mut &[u8],
    pairs: PairSpace<'_>,
) -> Result<&'a Arc<StaticNode>, CodecError> {
    match state.slot(id) {
        Entry::Vacant(slot) => Ok(slot.insert(Arc::new(parse_record_from(id, head, b, pairs)?))),
        Entry::Occupied(slot) => {
            let node = slot.into_mut();
            merge_record_from(Arc::make_mut(node), head, b, pairs)?;
            Ok(node)
        }
    }
}

/// Append a delta row's id column — its ascending node ids, Elias–Fano
/// coded: `varint first`, then, when there are more, `u8 l` and each
/// further id's offset from the first in two parts: its low `l` bits,
/// fixed-width, for every id together (the last byte zero-padded),
/// then its high part as a unary code of its rise over the previous
/// id's. `l = ⌊log2(last offset / (n − 1))⌋`, so the unary codes take
/// at most two bits an id. Nothing at all for an empty column.
fn put_ids(out: &mut BytesMut, ids: &[NodeId]) {
    let Some((&first, rest)) = ids.split_first() else {
        return;
    };
    put_varint(out, first);
    let Some(&last) = rest.last() else {
        return;
    };
    let l = ((last - first) / rest.len() as u64)
        .checked_ilog2()
        .unwrap_or(0);
    out.put_u8(l as u8);
    let mut bits = BitWriter::new(out);
    for &id in rest {
        bits.put((id - first) & ((1u64 << l) - 1), l);
    }
    bits.finish();
    let mut bits = BitWriter::new(out);
    let mut high = 0;
    for &id in rest {
        let h = (id - first) >> l;
        bits.put_rice(h - high, 0);
        high = h;
    }
    bits.finish();
}

/// The little-endian word of `bytes` at byte `at`, zero past their
/// end.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    match bytes.get(at..at + 8) {
        Some(whole) => w.copy_from_slice(whole),
        None => {
            let tail = bytes.get(at..).unwrap_or_default();
            w[..tail.len()].copy_from_slice(tail);
        }
    }
    u64::from_le_bytes(w)
}

/// A run of unary codes — Rice codes of parameter 0, each as many zero
/// bits as its value and a one — read by its one bits, a word at a
/// time: an id column's high parts, and a counts column of nothing
/// else.
struct Ones<'a> {
    bytes: &'a [u8],
    /// Byte offset of the word being read.
    at: usize,
    /// That word, with the bits already read cleared.
    word: u64,
}

impl<'a> Ones<'a> {
    /// The bits of `bytes` from bit `bit` on.
    fn new(bytes: &'a [u8], bit: usize) -> Ones<'a> {
        let at = bit / 8;
        Ones {
            bytes,
            at,
            word: word_at(bytes, at) & u64::MAX << (bit % 8),
        }
    }

    /// The position of the next one bit, read; `None` past the last.
    #[inline]
    fn next_one(&mut self) -> Option<u64> {
        while self.word == 0 {
            self.at += 8;
            if self.at >= self.bytes.len() {
                return None;
            }
            self.word = word_at(self.bytes, self.at);
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.at as u64 * 8 + u64::from(bit))
    }

    /// From the start of the run, read on past the `zeros`-th zero
    /// bit, and return how many one bits lay before it — how many ids
    /// have a high part below `zeros`. Past the end it stops, having
    /// counted every one.
    fn skip_zeros(&mut self, mut zeros: u64) -> u64 {
        let mut ones = 0u64;
        while zeros > 0 {
            let here = u64::from(self.word.count_zeros());
            if here < zeros {
                ones += u64::from(self.word.count_ones());
                zeros -= here;
                self.at += 8;
                if self.at >= self.bytes.len() {
                    self.word = 0;
                    break;
                }
                self.word = word_at(self.bytes, self.at);
                continue;
            }
            // The word holds the `zeros`-th zero: clear the zeros before
            // it, and every bit up to it.
            let mut unread = !self.word;
            for _ in 1..zeros {
                unread &= unread - 1;
            }
            let at = unread.trailing_zeros();
            ones += u64::from((self.word & ((1u64 << at) - 1)).count_ones());
            self.word &= u64::MAX.checked_shl(at + 1).unwrap_or(0);
            break;
        }
        ones
    }

    /// End of the run, after its last one bit, read at `last`: only
    /// the zero padding of that bit's byte remains.
    fn finish(&self, last: Option<u64>) -> Result<(), CodecError> {
        let used = last.map_or(0, |p| p as usize / 8 + 1);
        if self.bytes.len() > used {
            return Err(CodecError::TrailingBytes {
                remaining: self.bytes.len() - used,
            });
        }
        if self.word != 0 {
            return Err(CodecError::BadTag {
                what: "padding",
                tag: (self.word >> (self.word.trailing_zeros() & !7)) as u8,
            });
        }
        Ok(())
    }
}

/// A delta row's id column ([`put_ids`]), read one id at a time or
/// sought. The high parts are read a word at a time, and each id's low
/// part straight from its offset. Every id must rise over the one
/// before it, and offsets are held to a `u64`: a step that does not
/// rise, or one that overflows, is an error, never an id out of order.
struct Ids<'a> {
    low_bytes: &'a [u8],
    highs: Ones<'a>,
    l: u32,
    first: NodeId,
    /// Ids read so far.
    read: usize,
    /// The last id read, and its one bit's position in the high parts.
    prev: NodeId,
    last_one: Option<u64>,
}

impl<'a> Ids<'a> {
    /// Open a column of `n` ids. `n` is held to the bits the column
    /// has before anything is read (every id past the first takes at
    /// least one in the high parts), so a caller may size by it.
    fn new(mut b: &'a [u8], n: usize) -> Result<Ids<'a>, CodecError> {
        let first = if n > 0 { get_varint(&mut b)? } else { 0 };
        let further = n.saturating_sub(1);
        let l = if further > 0 {
            check_rice_k(get_u8(&mut b)?)?
        } else {
            0
        };
        let low_len = further.saturating_mul(usize::from(l)).div_ceil(8);
        if low_len > b.len() || further > (b.len() - low_len) * 8 {
            return Err(CodecError::UnexpectedEof {
                needed: low_len.saturating_add(further.div_ceil(8)),
                remaining: b.len(),
            });
        }
        let (low_bytes, high_bytes) = b.split_at(low_len);
        Ok(Ids {
            low_bytes,
            highs: Ones::new(high_bytes, 0),
            l: u32::from(l),
            first,
            read: 0,
            prev: 0,
            last_one: None,
        })
    }

    /// The low part of the `j`-th id past the first.
    #[inline]
    fn low(&self, j: usize) -> u64 {
        let bit = j * self.l as usize;
        let shift = (bit % 8) as u32;
        let mut v = word_at(self.low_bytes, bit / 8) >> shift;
        if self.l + shift > 64 {
            v |= word_at(self.low_bytes, bit / 8 + 8) << (64 - shift);
        }
        v & ((1u64 << self.l) - 1)
    }

    /// The next id; the caller reads at most the `n` it opened the
    /// column with.
    #[inline]
    fn next(&mut self) -> Result<NodeId, CodecError> {
        self.read += 1;
        if self.read == 1 {
            self.prev = self.first;
            return Ok(self.first);
        }
        let j = self.read - 2;
        let one = self.highs.next_one().ok_or(CodecError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        })?;
        self.last_one = Some(one);
        // As many zeros before the one as the high part is large.
        let high = one - j as u64;
        if high > u64::MAX >> self.l {
            return Err(CodecError::VarintOverflow);
        }
        let id = self
            .first
            .checked_add(high << self.l | self.low(j))
            .ok_or(CodecError::VarintOverflow)?;
        if id <= self.prev {
            return Err(CodecError::BadRef {
                what: "node-id gap",
                id: 0,
            });
        }
        self.prev = id;
        Ok(id)
    }

    /// On a column nothing has been read from: read on to the first of
    /// its `n` ids at or past `target`, and return its index if it is
    /// `target`. The ids whose high part lies below `target`'s are
    /// stepped over by counting bits a word at a time, not read.
    fn seek(&mut self, n: usize, target: NodeId) -> Result<Option<usize>, CodecError> {
        if n == 0 || target <= self.first {
            return Ok((n > 0 && target == self.first).then_some(0));
        }
        let below = self.highs.skip_zeros((target - self.first) >> self.l);
        let Some(from) = usize::try_from(below).ok().filter(|&b| b < n - 1) else {
            return Ok(None);
        };
        // Ids `1 ..= from` are below `target`: read on from the next.
        (self.read, self.prev) = (from + 1, self.first);
        for i in from + 1..n {
            let id = self.next()?;
            if id >= target {
                return Ok((id == target).then_some(i));
            }
        }
        Ok(None)
    }

    /// End of the column, after its last id: only the padding of the
    /// low parts' last byte and the high parts' remains, all zero.
    fn finish(self) -> Result<(), CodecError> {
        let used = self.read.saturating_sub(1) * self.l as usize;
        let padding = word_at(self.low_bytes, used / 8) >> (used % 8);
        if padding != 0 {
            return Err(CodecError::BadTag {
                what: "padding",
                tag: padding as u8,
            });
        }
        self.highs.finish(self.last_one)
    }
}

/// Serialize a delta in the columnar layout, by itself: the
/// empty-table case of [`encode_columnar_delta_in`].
pub fn encode_columnar_delta(d: &Delta) -> Bytes {
    encode_columnar_delta_in(d, &EMPTY)
}

/// Serialize a delta in the columnar layout in the context of `table`:
/// sorted node-id column, restart column, the row's own pair
/// dictionary (the pairs `table` lacks), counts column, concatenated
/// per-node records.
pub fn encode_columnar_delta_in(d: &Delta, table: &PairTable) -> Bytes {
    let nodes = d.sorted_nodes();
    let firsts = firsts_in_heads(&nodes);
    let heads: Vec<RecordHead> = nodes
        .iter()
        .map(|n| RecordHead {
            first: n.edges.first().filter(|_| firsts).map(|e| e.nbr),
            ..RecordHead::of(&n.edges, &n.attrs)
        })
        .collect();
    let ids: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
    let mut id_col = BytesMut::new();
    put_ids(&mut id_col, &ids);
    let (counts, count_windows) = put_counts(&heads);
    let mut records = BytesMut::with_capacity(d.size() * 2);
    let mut record_windows = Vec::with_capacity(count_windows.len());
    let mut own = OwnPairs::default();
    let mut window = 0usize;
    for (i, (n, head)) in nodes.iter().zip(&heads).enumerate() {
        put_node_record(&mut records, head, n, table, &mut own);
        if (i + 1) % RESTART_INTERVAL == 0 {
            record_windows.push((records.len() - window) as u64);
            window = records.len();
        }
    }
    let mut restarts = BytesMut::new();
    for (&bytes, &bits) in record_windows.iter().zip(&count_windows) {
        put_varint(&mut restarts, bytes);
        put_varint(&mut restarts, bits);
    }

    assemble(
        DELTA_MAGIC,
        nodes.len(),
        &[&id_col, &restarts, &own.put_dict(table), &counts, &records],
    )
}

/// A parsed columnar delta row: node-id, restart and counts columns,
/// the row's own pair dictionary, and record segment, decoded lazily,
/// and the context table the dictionary extends. Supports per-node
/// record extraction without parsing unrelated records, and skips
/// everything past the id column when the probed node is absent.
#[derive(Debug)]
pub struct ColumnarDelta {
    backing: Bytes,
    n_nodes: usize,
    segs: [Range<usize>; DELTA_SEGS],
    /// The context table; `None` is the empty one.
    table: Option<Arc<PairTable>>,
    /// The node-id column: the row's node index.
    ids: OnceLock<Bytes>,
    /// The restart column: where each window of records starts.
    restarts: OnceLock<Bytes>,
    /// The counts column: how each record is laid out.
    counts: OnceLock<Bytes>,
    pair_dict: OnceLock<Result<Vec<(String, AttrValue)>, CodecError>>,
    records: OnceLock<Bytes>,
}

impl ColumnarDelta {
    /// Parse the header of a row encoded by itself: the empty-table
    /// case of [`ColumnarDelta::parse_in`].
    pub fn parse(backing: Bytes) -> Result<ColumnarDelta, CodecError> {
        Self::parse_with(backing, None)
    }

    /// Parse the header of a row encoded in the context of `table`
    /// ([`encode_columnar_delta_in`]); columns are decoded on first
    /// use.
    pub fn parse_in(backing: Bytes, table: &Arc<PairTable>) -> Result<ColumnarDelta, CodecError> {
        Self::parse_with(backing, Some(Arc::clone(table)))
    }

    fn parse_with(
        backing: Bytes,
        table: Option<Arc<PairTable>>,
    ) -> Result<ColumnarDelta, CodecError> {
        let Header {
            count: n_nodes,
            segs,
        } = parse_header(&backing, DELTA_MAGIC, "columnar-delta")?;
        Ok(ColumnarDelta {
            backing,
            n_nodes,
            segs,
            table,
            ids: OnceLock::new(),
            restarts: OnceLock::new(),
            counts: OnceLock::new(),
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
    /// at or past `nid`. A point read touches a row once, so there is
    /// no index structure to build — the id column is the index, and a
    /// miss decodes nothing else.
    fn node_index(&self, nid: NodeId) -> Result<Option<usize>, CodecError> {
        let ids = self.memo_seg(&self.ids, SEG_NODE_IDS);
        Ids::new(ids, self.n_nodes)?.seek(self.n_nodes, nid)
    }

    /// `nid`'s record head and the record segment from its record on,
    /// or `None` if the row has no record for it: the restart of the
    /// record's window — where its records and their codes start —
    /// then [`skip_record`] over at most `RESTART_INTERVAL - 1` records
    /// before it, each laid out by its head in the counts column.
    /// [`ColumnarDelta::sum_into`] holds every restart to the records
    /// and codes it spans, so on a row the full
    /// read accepts this lands where the full read parses `nid`'s
    /// record. It does not check a restart itself: after a wrong one it
    /// may land inside a record or on another one, and the caller may
    /// parse a record from there.
    fn record_at(&self, nid: NodeId) -> Result<Option<(RecordHead, &[u8])>, CodecError> {
        let Some(i) = self.node_index(nid)? else {
            return Ok(None);
        };
        // Where the record's window starts: in the record segment, and
        // in the counts column past its parameters.
        let (mut start, mut bit) = (0usize, 0usize);
        let window = i / RESTART_INTERVAL;
        if window > 0 {
            let mut sb: &[u8] = self.memo_seg(&self.restarts, SEG_RESTARTS);
            for _ in 0..window {
                for at in [&mut start, &mut bit] {
                    let len = get_len(&mut sb, "restart")?;
                    *at = at.checked_add(len).ok_or(CodecError::LengthOverflow {
                        what: "restart",
                        len: len as u64,
                    })?;
                }
            }
        }
        let records = self.memo_seg(&self.records, SEG_RECORDS);
        let Some(mut b) = records.get(start..) else {
            return Err(CodecError::UnexpectedEof {
                needed: start,
                remaining: records.len(),
            });
        };
        let counts = self.memo_seg(&self.counts, SEG_COUNTS);
        let mut counts = Counts::new(counts, self.n_nodes, bit)?;
        // A record of the default shape is varints alone — its
        // entries' neighbor gaps past the first, then its pair ids — so
        // a run of them is stepped over at once.
        let mut varints = 0usize;
        for _ in 0..i % RESTART_INTERVAL {
            let head = counts.next()?;
            if head.shape == SHAPE_DEFAULT {
                let held = usize::from(head.first.is_some());
                varints += head.n_edges - held + head.n_attrs;
            } else {
                skip_varints(&mut b, std::mem::take(&mut varints))?;
                // A pair is one pair id.
                skip_record(&mut b, &head, skip_varints)?;
            }
        }
        skip_varints(&mut b, varints)?;
        Ok(Some((counts.next()?, b)))
    }

    /// The row's own pair dictionary, decoded once, each pair's key id
    /// range-checked against the table's keys and the row's own.
    fn pair_dict(&self) -> Result<&Pairs, CodecError> {
        self.pair_dict
            .get_or_init(|| {
                let table = self.table().keys();
                let seg = self.seg(SEG_PAIR_DICT);
                let (_, pairs) = get_dict(&seg, "pair-dict", table.len(), |b, keys| {
                    let idx = get_varint(b)?;
                    let key = extended(table, keys, idx).ok_or(CodecError::LengthOverflow {
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

    fn table(&self) -> &PairTable {
        self.table.as_deref().unwrap_or(&EMPTY)
    }

    /// The pairs the records name by id: the table's, then the row's
    /// own.
    fn pairs(&self) -> Result<PairSpace<'_>, CodecError> {
        Ok(PairSpace {
            table: self.table().pairs(),
            own: self.pair_dict()?,
        })
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
        let Some((head, mut record)) = self.record_at(nid)? else {
            return Ok(None);
        };
        parse_record_from(nid, &head, &mut record, self.pairs()?).map(Some)
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
    /// Streams the id, counts and record cursors in lockstep and holds
    /// the row to what the point read relies on: every restart equal
    /// to the bytes its window of 16 records took and the bits of their
    /// codes. On `Err` — including
    /// [`CodecError::RepeatedComponent`] — `state` is partly summed
    /// and must be dropped.
    pub fn sum_into(
        &self,
        state: &mut Delta,
        mut completed: Option<&mut Delta>,
    ) -> Result<(), CodecError> {
        let pairs = self.pairs()?;
        let iraw = self.seg(SEG_NODE_IDS);
        let sraw = self.seg(SEG_RESTARTS);
        let craw = self.seg(SEG_COUNTS);
        let rraw = self.seg(SEG_RECORDS);
        let mut ids = Ids::new(&iraw, self.n_nodes)?;
        let mut counts = Counts::new(&craw, self.n_nodes, 0)?;
        let mut sb: &[u8] = &sraw;
        let mut rb: &[u8] = &rraw;
        // Onto nothing every record is a new node; further down a
        // path most records land on nodes already there. The counts
        // column has bits for every record the header counts.
        if state.is_empty() {
            state.reserve(self.n_nodes);
        }
        // What was left of the record segment and of the counts column
        // where the window began.
        let (mut window, mut window_bits) = (rb.len(), counts.bits_left());
        for i in 0..self.n_nodes {
            let id = ids.next()?;
            let head = counts.next()?;
            let node = sum_record(state, id, &head, &mut rb, pairs)?;
            if let Some(completed) = completed.as_deref_mut() {
                completed.insert_shared(Arc::clone(node));
            }
            if (i + 1) % RESTART_INTERVAL == 0 {
                let took = [window - rb.len(), window_bits - counts.bits_left()];
                for took in took {
                    let restart = get_varint(&mut sb)?;
                    if restart != took as u64 {
                        return Err(CodecError::BadRef {
                            what: "restart",
                            id: restart,
                        });
                    }
                }
                (window, window_bits) = (rb.len(), counts.bits_left());
            }
        }
        ids.finish()?;
        counts.finish()?;
        no_trailing(sb.len() + rb.len())
    }

    /// [`ColumnarDelta::sum_into`] restricted to one node: apply
    /// `nid`'s record, if this row has one, to `state`. Decodes what
    /// [`ColumnarDelta::node_record`] decodes.
    pub fn sum_node_into(&self, nid: NodeId, state: &mut Delta) -> Result<(), CodecError> {
        let Some((head, mut record)) = self.record_at(nid)? else {
            return Ok(());
        };
        sum_record(state, nid, &head, &mut record, self.pairs()?).map(drop)
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
    use crate::codec::encode_delta;
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
        // its id and head.
        let mut n = StaticNode::new(300);
        for (nbr, dir, w) in [(2u64, EdgeDir::Both, 1.0f32), (9, EdgeDir::Out, 0.5)] {
            n.insert_edge(Neighbor::weighted(nbr, dir, w));
        }
        for n in [StaticNode::new(300), n] {
            let head = RecordHead::of(&n.edges, &n.attrs);
            let mut record = BytesMut::new();
            put_node_record(&mut record, &head, &n, &EMPTY, &mut OwnPairs::default());
            let mut row = BytesMut::new();
            crate::codec::put_static_node(&mut row, &n);
            let row_head = head.shape | (n.edges.len() as u8) << 3;
            assert_eq!(&row[..3], &[0xac, 0x02, row_head]);
            assert_eq!(&row[3..], &record[..]);
        }
    }

    #[test]
    fn a_default_edge_piece_costs_its_head_alone() {
        // 64 nodes of one default edge each, to neighbours 1..=64: every
        // head is edge count 1 at Rice parameter 0 (`01`) and its
        // neighbour in 7 bits (the width of 64; 57 bytes in all, where
        // the neighbours' varints take 64), no attribute count, no
        // shape — the counts column is its two parameter bytes and 64
        // codes of 9 bits, and the records are nothing at all.
        let d: Delta = (0..64u64)
            .map(|i| node_with(2 * i, &[i + 1], &[]))
            .collect();
        let col = tree_row(&d);
        let counts = col.seg(SEG_COUNTS);
        assert_eq!(&counts[..2], &[COUNTS_FIRSTS, 7]);
        // `01` then 1 in seven bits: bits 1 and 2 of the first byte.
        assert_eq!(counts[2], 0b110);
        assert_eq!(counts.len(), 2 + 64 * 9 / 8);
        assert!(col.segs[SEG_RECORDS].is_empty());
        // Ids 0, 2, ..., 126: offsets 2, 4, ..., 126 from the first, so
        // `l = 1` — a low bit each, then a unary rise of one (`01`)
        // each.
        assert_eq!(
            col.segs[SEG_NODE_IDS].len(),
            1 + 1 + 63usize.div_ceil(8) + (63 * 2usize).div_ceil(8)
        );
        assert_eq!(col.to_delta().unwrap(), d);
        for n in d.iter() {
            assert_eq!(col.node_record(n.id).unwrap().as_ref(), Some(n));
        }

        // One attributed record and one weighted one: every code
        // gains an attribute count and a shape.
        let mut odd = d.clone();
        odd.insert(node_with(1, &[], &[("a", 1)]));
        let mut weighted = StaticNode::new(3);
        weighted.insert_edge(Neighbor::weighted(4, EdgeDir::Both, 2.0));
        odd.insert(weighted);
        let col = tree_row(&odd);
        let counts = col.seg(SEG_COUNTS);
        assert_eq!(counts[0], COUNTS_FIRSTS | COUNTS_ATTRS | COUNTS_SHAPES);
        assert_eq!(counts[1], 0, "the attribute counts' Rice parameter");
        assert_eq!(counts[2], 7, "the first neighbours' width");
        assert_eq!(col.to_delta().unwrap(), odd);
        for n in odd.iter() {
            assert_eq!(col.node_record(n.id).unwrap().as_ref(), Some(n));
        }

        // With one far neighbour the width is 17 bits, wider than the
        // one-byte varints of the rest: the records keep their first
        // neighbours, and the counts column holds no width.
        let mut far = d.clone();
        far.insert(node_with(500, &[100_000], &[]));
        let col = tree_row(&far);
        let counts = col.seg(SEG_COUNTS);
        assert_eq!(counts[0], 0);
        assert_eq!(col.segs[SEG_RECORDS].len(), 64 + 3);
        assert_eq!(col.to_delta().unwrap(), far);
        for n in far.iter() {
            assert_eq!(col.node_record(n.id).unwrap().as_ref(), Some(n));
        }
    }

    #[test]
    fn first_neighbour_widths_off_the_grammar_are_refused() {
        // Three nodes of two default edges each, first neighbours 1, 2
        // and 3: two bits wide.
        let d: Delta = (0..3u64)
            .map(|i| node_with(10 * i, &[i + 1, 50], &[]))
            .collect();
        let counts = tree_row(&d).seg(SEG_COUNTS).to_vec();
        assert_eq!(&counts[..2], &[COUNTS_FIRSTS, 2]);
        // The codes respelled at width `w`.
        let at_width = |w: u8| {
            let mut c = BytesMut::new();
            c.put_slice(&[COUNTS_FIRSTS, w]);
            let mut bits = BitWriter::new(&mut c);
            for i in 0..3u64 {
                bits.put_rice(2, 0);
                bits.put(i + 1, u32::from(w));
            }
            bits.finish();
            with_delta_segment(&d, SEG_COUNTS, |_| c.to_vec())
        };
        assert_eq!(at_width(2).to_delta().unwrap(), d);
        // Wider than the largest first neighbour: the full read refuses
        // it, the point read (which does not check) still lands right.
        let wide = at_width(9);
        assert_eq!(
            wide.to_delta(),
            Err(CodecError::BadTag {
                what: "first-neighbour width",
                tag: 9
            })
        );
        for n in d.iter() {
            assert_eq!(wide.node_record(n.id).unwrap().as_ref(), Some(n));
        }
        // A width no `u64` has: refused by both reads.
        let mut c = counts.clone();
        c[1] = 65;
        let col = with_delta_segment(&d, SEG_COUNTS, |_| c.clone());
        let too_wide = CodecError::BadTag {
            what: "first-neighbour width",
            tag: 65,
        };
        assert_eq!(col.to_delta(), Err(too_wide.clone()));
        assert_eq!(col.node_record(10), Err(too_wide));
        // Full 64-bit neighbours round-trip.
        let far: Delta = [node_with(1, &[u64::MAX - 1, u64::MAX], &[])]
            .into_iter()
            .collect();
        let col = tree_row(&far);
        assert_eq!(col.seg(SEG_COUNTS)[1], 64);
        assert_eq!(col.to_delta().unwrap(), far);
    }

    #[test]
    fn counts_columns_off_the_grammar_are_refused() {
        let d = forty_nodes();
        let good = tree_row(&d).seg(SEG_COUNTS).to_vec();
        assert_eq!(
            good[0] & (COUNTS_ATTRS | COUNTS_SHAPES),
            COUNTS_ATTRS | COUNTS_SHAPES
        );
        // 21 codes of seven bits — an edge count of one, a neighbour
        // of five bits: the last byte has five bits of padding.
        let plain: Delta = (0..21u64).map(|i| node_with(i, &[i + 1], &[])).collect();
        let plain_counts = tree_row(&plain).seg(SEG_COUNTS).to_vec();
        let flagged = |flag: u8| {
            // The plain row's codes read with one more flag: each code
            // then spells more than the column holds, or the records
            // never need the flag.
            let mut c = plain_counts.clone();
            c[0] |= flag;
            if flag == COUNTS_ATTRS {
                c.insert(1, 0);
            }
            c
        };
        for (row, counts, what) in [
            (&d, good[..good.len() - 1].to_vec(), "short"),
            (&d, [&good[..], &[0]].concat(), "overlong"),
            (
                &plain,
                {
                    let mut c = plain_counts.clone();
                    *c.last_mut().unwrap() |= 0x80;
                    c
                },
                "set padding",
            ),
            (&plain, flagged(COUNTS_SHAPES), "shapes flag"),
            (&plain, flagged(COUNTS_ATTRS), "attrs flag"),
            (
                &plain,
                vec![0; plain_counts.len()],
                "a unary run past the end",
            ),
            (&plain, Vec::new(), "empty"),
        ] {
            let col = with_delta_segment(row, SEG_COUNTS, |_| counts.clone());
            assert!(col.to_delta().is_err(), "{what}");
            let mut state = Delta::new();
            assert!(col.sum_into(&mut state, None).is_err(), "{what}");
        }
        // The flags of a row whose records need neither, set anyway and
        // each code spelled to match: only the full read refuses it.
        let mut both = BytesMut::new();
        both.put_slice(&[COUNTS_FIRSTS | COUNTS_ATTRS | COUNTS_SHAPES, 0, 5]);
        let mut bits = BitWriter::new(&mut both);
        for i in 0..plain.cardinality() as u64 {
            bits.put_rice(1, 0);
            bits.put(i + 1, 5);
            bits.put_rice(0, 0);
            bits.put(u64::from(SHAPE_DEFAULT), SHAPE_BITS);
        }
        bits.finish();
        // Its one full window's codes now take 16 · 11 bits.
        let row = tree_row(&plain);
        let mut segs: Vec<Bytes> = (0..DELTA_SEGS).map(|i| row.seg(i)).collect();
        let w0 = get_varint(&mut &segs[SEG_RESTARTS][..]).unwrap();
        segs[SEG_RESTARTS] = varints(&[w0, 16 * 11]).into();
        let both = reassembled(DELTA_MAGIC, 21, segs, SEG_COUNTS, |_| both.to_vec());
        let col = ColumnarDelta::parse(both).unwrap();
        assert_eq!(
            col.to_delta(),
            Err(CodecError::BadTag {
                what: "counts flags",
                tag: COUNTS_FIRSTS | COUNTS_ATTRS | COUNTS_SHAPES,
            })
        );
        for n in plain.iter() {
            assert_eq!(col.node_record(n.id).unwrap().as_ref(), Some(n));
        }

        // An edge count past the codec's sanity cap: at Rice parameter
        // 31, a quotient of four is 2^33 entries.
        let mut huge = BytesMut::new();
        huge.put_u8(31);
        let mut bits = BitWriter::new(&mut huge);
        bits.put_rice(1 << 33, 31);
        for _ in 1..plain.cardinality() {
            bits.put_rice(1, 31);
        }
        bits.finish();
        let col = with_delta_segment(&plain, SEG_COUNTS, |_| huge.to_vec());
        let too_many = CodecError::LengthOverflow {
            what: "edges",
            len: 1 << 33,
        };
        assert_eq!(col.to_delta(), Err(too_many.clone()));
        assert_eq!(col.node_record(0), Err(too_many));
    }

    #[test]
    fn previous_format_rows_fail_closed() {
        // A row stamped with a retired magic is refused at parse: its
        // records, or its weights column, are never read as this
        // grammar — whichever parser it is handed to.
        let delta = encode_columnar_delta(&sample_delta());
        let elist = encode_columnar_eventlist(&Eventlist::from_sorted(sample_events()));
        assert_eq!((delta[0], elist[0]), (DELTA_MAGIC, ELIST_MAGIC));
        for retired in [0xC1u8, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA] {
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

    /// An id column spelled by hand: `first`, then `l`, the low parts
    /// and the high parts' rises.
    fn id_column(first: u64, l: u8, lows: &[u64], rises: &[u64]) -> Vec<u8> {
        let mut ids = BytesMut::new();
        put_varint(&mut ids, first);
        ids.put_u8(l);
        let mut bits = BitWriter::new(&mut ids);
        for &low in lows {
            bits.put(low, u32::from(l));
        }
        bits.finish();
        let mut bits = BitWriter::new(&mut ids);
        for &rise in rises {
            bits.put_rice(rise, 0);
        }
        bits.finish();
        ids.to_vec()
    }

    #[test]
    fn an_id_that_does_not_rise_or_overflows_is_refused() {
        // Ids `[top, top + 2]`: a wrapping sum would put the second
        // record before the first. Both reads refuse it.
        let top = u64::MAX - 1;
        let d: Delta = [node_with(top - 1, &[1], &[]), node_with(top, &[2], &[])]
            .into_iter()
            .collect();
        let col = with_delta_segment(&d, SEG_NODE_IDS, |_| id_column(top, 0, &[], &[2]));
        let want = CodecError::VarintOverflow;
        assert_eq!(col.to_delta(), Err(want.clone()));
        assert_eq!(col.node_record(u64::MAX), Err(want.clone()));
        assert_eq!(col.contains(u64::MAX), Err(want.clone()));
        assert_eq!(col.sum_node_into(u64::MAX, &mut Delta::new()), Err(want));

        // Ids `[5, 10, 9]`, and `[5, 10, 10]`: offsets 5 and 4 (or 5)
        // share their high part at `l = 1`, and the low bits fall (or
        // stay). A full read that took them would answer two records
        // for one node or ids out of order; it refuses instead.
        let d: Delta = (1..4u64).map(|i| node_with(i, &[9], &[])).collect();
        let not_rising = CodecError::BadRef {
            what: "node-id gap",
            id: 0,
        };
        for lows in [[1, 0], [1, 1]] {
            let col = with_delta_segment(&d, SEG_NODE_IDS, |_| id_column(5, 1, &lows, &[2, 0]));
            assert_eq!(col.to_delta(), Err(not_rising.clone()), "lows {lows:?}");
        }
        // In order, the same column reads.
        let col = with_delta_segment(&d, SEG_NODE_IDS, |_| id_column(5, 1, &[0, 1], &[2, 0]));
        assert_eq!(col.to_delta().unwrap().sorted_ids(), [5, 9, 10]);
        assert!(col.contains(9).unwrap() && !col.contains(8).unwrap());
    }

    #[test]
    fn a_seek_finds_every_id_and_no_other() {
        // Gaps of one, of a few, and now and then of thousands: high
        // parts that cross word boundaries, runs of ids sharing one
        // high part, and long runs of zeros between ones.
        for (n, spread) in [(2u64, 1u64), (65, 1), (300, 7), (300, 5_000)] {
            let ids: Vec<u64> = (0..n)
                .scan(10u64, |id, i| {
                    *id += 1 + (i * 7919) % spread + (i % 37 == 0) as u64 * 3 * spread;
                    Some(*id)
                })
                .collect();
            let d: Delta = ids.iter().map(|&id| node_with(id, &[1], &[])).collect();
            let col = tree_row(&d);
            assert_eq!(col.to_delta().unwrap(), d);
            let mut probes: Vec<u64> = ids.iter().flat_map(|&id| [id - 1, id, id + 1]).collect();
            probes.extend([0, u64::MAX, ids[ids.len() - 1] + 10_000]);
            for id in probes {
                let want = ids.binary_search(&id).is_ok();
                let fresh = tree_row(&d);
                assert_eq!(
                    fresh.contains(id).unwrap(),
                    want,
                    "n {n}, spread {spread}, id {id}"
                );
                assert_eq!(fresh.node_record(id).unwrap().as_ref(), d.node(id));
            }
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
        let (windows, bits): (Vec<u64>, Vec<u64>) = (0..2)
            .map(|_| {
                let len = get_varint(&mut restarts).unwrap();
                (len, get_varint(&mut restarts).unwrap())
            })
            .unzip();
        assert!(restarts.is_empty(), "one restart per full window");
        // Each window's codes take the bits its restart says.
        let craw = col.seg(SEG_COUNTS);
        let mut counts = Counts::new(&craw, 40, 0).unwrap();
        for want in bits {
            let before = counts.bits_left();
            for _ in 0..RESTART_INTERVAL {
                counts.next().unwrap();
            }
            assert_eq!((before - counts.bits_left()) as u64, want);
        }
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
        // Moving one byte, or one bit, between the two windows keeps
        // the restarts' sums, so only the check against the offsets the
        // full read reaches catches it — where a point read past the
        // first window would skip from a point inside a record, or read
        // heads from inside a code.
        let d = forty_nodes();
        let col = tree_row(&d);
        let mut b: &[u8] = &col.seg(SEG_RESTARTS);
        let [w0, b0, w1, b1] = [(); 4].map(|()| get_varint(&mut b).unwrap());
        for (bad, restarts, behind_the_lie) in [
            (
                w0 + 1,
                vec![w0 + 1, b0, w1 - 1, b1],
                vec![17, 18, 19, 21, 22],
            ),
            (
                w0 - 1,
                vec![w0 - 1, b0, w1 + 1, b1],
                vec![16, 17, 18, 19, 21, 22],
            ),
            (w1 + 1, vec![w0, b0, w1 + 1, b1], vec![32, 33]),
            (
                b0 + 1,
                vec![w0, b0 + 1, w1, b1 - 1],
                vec![16, 17, 18, 19, 21, 22],
            ),
            (b1 - 1, vec![w0, b0, w1, b1 - 1], (32..40).collect()),
        ] {
            let col = with_delta_segment(&d, SEG_RESTARTS, |_| varints(&restarts));
            // A point read alone does not check restarts: on a row
            // nothing has read in full, some records behind the lie are
            // parsed from bytes or heads that are not theirs and
            // answered as `Ok`, or refused where what the read lands on
            // is off the grammar (a skip landing inside a record may
            // fall back in step with the records a few later).
            let wrong: Vec<u64> = (0..40u64)
                .filter(|&i| match col.node_record(3 * i) {
                    Ok(got) => got.as_ref() != d.node(3 * i),
                    Err(_) => true,
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
        let col = with_delta_segment(&d, SEG_RESTARTS, |_| varints(&[w0, b0, w1, b1, 3]));
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
        buf.put_u8(0b11);
        put_varint(&mut buf, u64::MAX);
        assert!(matches!(
            ColumnarEventlist::parse(buf.freeze()),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    /// A header of magic, count, presence bitmap and the spelled
    /// lengths, then `body`.
    fn header(magic: u8, present: u8, lens: &[u64], body: &[u8]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(magic);
        put_varint(&mut buf, 1);
        buf.put_u8(present);
        for &len in lens {
            put_varint(&mut buf, len);
        }
        buf.put_slice(body);
        buf.freeze()
    }

    #[test]
    fn headers_spell_only_the_present_segments() {
        // A row of ids, counts and records spells two lengths: the
        // records run to the row's end.
        let d: Delta = [node_with(3, &[5, 8], &[])].into_iter().collect();
        let row = encode_columnar_delta(&d);
        let col = ColumnarDelta::parse(row.clone()).unwrap();
        let present: Vec<usize> = (0..DELTA_SEGS)
            .filter(|&i| !col.segs[i].is_empty())
            .collect();
        assert_eq!(present, [SEG_NODE_IDS, SEG_COUNTS, SEG_RECORDS]);
        let spelled = 2 + col.segs[SEG_NODE_IDS].len() + col.segs[SEG_COUNTS].len();
        assert_eq!(row.len(), 3 + spelled + col.segs[SEG_RECORDS].len());
        assert_eq!(
            row[2],
            1 << SEG_NODE_IDS | 1 << SEG_COUNTS | 1 << SEG_RECORDS
        );
        // A delta of nothing is its magic, its count and an empty bitmap.
        assert_eq!(
            &encode_columnar_delta(&Delta::new())[..],
            [DELTA_MAGIC, 0, 0]
        );
    }

    #[test]
    fn headers_round_trip_every_presence_pattern() {
        // Every set of empty and non-empty segments of a delta row and
        // of an eventlist row, the non-empty ones of lengths that take
        // one- and two-byte varints: the header parses back to exactly
        // the segments assembled, and a row cut short never parses to
        // more bytes than it has.
        for n in [DELTA_SEGS, ELIST_SEGS] {
            let magic = if n == DELTA_SEGS {
                DELTA_MAGIC
            } else {
                ELIST_MAGIC
            };
            for mask in 0u32..1 << n {
                let segs: Vec<Vec<u8>> = (0..n)
                    .map(|i| {
                        let len = if mask >> i & 1 == 0 {
                            0
                        } else {
                            1 + (i * 97 + mask as usize) % 200
                        };
                        (0..len).map(|b| (b + i) as u8).collect()
                    })
                    .collect();
                let raw: Vec<&[u8]> = segs.iter().map(Vec::as_slice).collect();
                let row = assemble(magic, 300 + mask as usize, &raw);
                let check = |row: Bytes| {
                    let parsed = if n == DELTA_SEGS {
                        parse_header::<DELTA_SEGS>(&row, magic, "row")
                            .map(|h| (h.count, h.segs.to_vec()))
                    } else {
                        parse_header::<ELIST_SEGS>(&row, magic, "row")
                            .map(|h| (h.count, h.segs.to_vec()))
                    };
                    parsed.map(|(count, ranges)| {
                        (
                            count,
                            ranges
                                .iter()
                                .map(|r| row[r.clone()].to_vec())
                                .collect::<Vec<_>>(),
                        )
                    })
                };
                assert_eq!(
                    check(row.clone()).unwrap(),
                    (300 + mask as usize, segs.clone()),
                    "mask {mask:#b}"
                );
                for cut in 0..row.len() {
                    if let Ok((_, got)) = check(row.slice(..cut)) {
                        assert!(
                            got.iter().map(Vec::len).sum::<usize>() < cut,
                            "mask {mask:#b} cut {cut}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn headers_off_the_grammar_are_refused() {
        // A presence bit for a segment the magic does not have.
        for bit in DELTA_SEGS..8 {
            assert_eq!(
                ColumnarDelta::parse(header(DELTA_MAGIC, 1 << bit, &[], &[1])).err(),
                Some(CodecError::BadTag {
                    what: "segment presence",
                    tag: 1 << bit
                })
            );
        }
        // A present segment spelled empty, or a present last segment
        // the row has no bytes for.
        assert_eq!(
            ColumnarDelta::parse(header(DELTA_MAGIC, 0b11, &[0], &[1])).err(),
            Some(CodecError::LengthOverflow {
                what: "segment",
                len: 0
            })
        );
        assert!(matches!(
            ColumnarDelta::parse(header(DELTA_MAGIC, 0b11, &[1], &[1])),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            ColumnarEventlist::parse(header(ELIST_MAGIC, 0b1000_0000, &[], &[])),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // A spelled length past the row's end, and bytes past an empty
        // bitmap.
        assert!(matches!(
            ColumnarDelta::parse(header(DELTA_MAGIC, 0b11, &[5], &[1, 2])),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(
            ColumnarDelta::parse(header(DELTA_MAGIC, 0, &[], &[7])).err(),
            Some(CodecError::TrailingBytes { remaining: 1 })
        );
    }
}
