//! An eventlist row holds a node-id dictionary, a timestamp column,
//! a kind column, a dictionary-index id column, and payload columns
//! (edge weights, the attribute dictionary, attribute-key and
//! attribute-value indexes). All but the weights and the dictionary
//! spell each integer in the bits their row needs (fixed-width and
//! Rice codes, `bits.rs`; least-significant bit first, the last byte
//! zero-padded):
//!
//! ```text
//! node_dict := varint n [varint first [u8 k Rice(gap − 1){n−1}]]
//! times     := [varint first [u8 k Rice(gap){n_events−1}]]
//! kinds     := u8 m, tag{m} ascending, code{n_events} of ⌈log2 m⌉ bits
//! ids       := index{1 or 2 per event} of ⌈log2 n⌉ bits
//! attr_dict := ε | varint n_keys, str{n_keys}, varint n_vals, attr_value{n_vals}
//! attr_keys := id{1 per keyed event} of ⌈log2 (T.keys + n_keys)⌉ bits
//! attr_vals := id{1 per valued event} of ⌈log2 (T.vals + n_vals)⌉ bits
//! ```
//!
//! where `k = ⌊log2(mean gap · ln 2)⌋` is chosen per column, a kind
//! code is the event's tag's rank among the row's `m` tags (no codes
//! at all when `m = 1`), an edge kind has two dictionary indexes, and
//! the node dictionary and times are rising columns
//! (`bits.rs`) from `first + 1` and `first`.
//! The attribute dictionary holds the keys and values the context
//! table `T` lacks, and is empty when there are none; its keys are
//! sorted and its values in order of first use. A non-empty one has
//! a key of its own, or an entry beside the table's keys. Times and
//! node ids are summed with a check: an overflowing gap is an error,
//! never an out-of-order answer. The weights column has one
//! `(f32 weight, u8 directed)` entry per `AddEdge` / `SetEdgeWeight`
//! — unless every one of them is the default `AddEdge { weight: 1.0,
//! directed: false }` (bit-exact), in which case the segment is empty
//! and the kinds column alone says what it held. Any other length is
//! corrupt, and every payload column holds exactly the entries its
//! kinds call for: an unread byte is [`CodecError::TrailingBytes`].
//!
//! The two eventlist reads — [`ColumnarEventlist::to_eventlist`] and
//! the pruned [`ColumnarEventlist::events_touching`] — go through the
//! same column decoders, so on a row the full read accepts they agree.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes, BytesMut};

use super::{
    assemble, dict_idx, extended, get_dict, parse_header, put_dict, read_seg, Header, Interner,
    ELIST_MAGIC, ELIST_SEGS,
};
use crate::attr::AttrValue;
use crate::bits::{get_head, rising_k, width_for, BitReader, BitWriter};
use crate::codec::{get_attr_value, get_f32, get_len, get_u8, put_attr_value, put_f32, put_varint};
use crate::error::CodecError;
use crate::event::{Event, EventKind, Eventlist};
use crate::pair_table::{PairTable, ValueKey, EMPTY};
use crate::types::{NodeId, Time};

const SEG_NODE_DICT: usize = 0;
const SEG_TIMES: usize = 1;
const SEG_KINDS: usize = 2;
const SEG_IDS: usize = 3;
const SEG_WEIGHTS: usize = 4;
const SEG_ATTR_DICT: usize = 5;
const SEG_ATTR_KEYS: usize = 6;
const SEG_ATTR_VALS: usize = 7;

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

fn dict_node(dict: &[NodeId], idx: u32) -> Result<NodeId, CodecError> {
    dict.get(idx as usize)
        .copied()
        .ok_or(CodecError::LengthOverflow {
            what: "node-dict-index",
            len: idx as u64,
        })
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

/// Append an ascending integer column: `varint first`, then — when
/// there is more than one value — `u8 k` and the further values as a
/// rising column from `first + bias` (`bias` 1 for a strictly
/// ascending column, 0 for a non-decreasing one). Nothing at all for an
/// empty column.
fn put_ascending<I>(out: &mut BytesMut, mut values: I, bias: u64)
where
    I: ExactSizeIterator<Item = u64> + DoubleEndedIterator + Clone,
{
    let Some(first) = values.next() else {
        return;
    };
    put_varint(out, first);
    let Some(last) = values.clone().next_back() else {
        return;
    };
    let k = rising_k(first + bias, last, values.len(), bias);
    out.put_u8(k);
    let mut bits = BitWriter::new(out);
    bits.put_rising(first + bias, values, bias, k);
    bits.finish();
}

/// Read all `n` values [`put_ascending`] wrote: what an eventlist's
/// node dictionary and times are decoded with. `n` is held to the bits
/// the column has (every further value takes at least one) before the
/// column is allocated; a value past `u64::MAX` is an error, never a
/// value out of order.
fn get_ascending(mut b: &[u8], n: usize, bias: u64) -> Result<Vec<u64>, CodecError> {
    let (first, k) = get_head(&mut b, n)?;
    let further = n.saturating_sub(1);
    let mut bits = BitReader::new(b);
    bits.check_left(further)?;
    let mut out = Vec::with_capacity(n);
    if n > 0 {
        out.push(first);
    }
    if further > 0 {
        let from = first.checked_add(bias).ok_or(CodecError::VarintOverflow)?;
        bits.get_rising(further, from, bias, k, |v| out.push(v))?;
    }
    bits.finish()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::tests::{reassembled, sample_events};

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
}
