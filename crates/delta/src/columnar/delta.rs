//! A delta row holds a sorted node-id column, a restart column, a
//! pair dictionary, a counts column and a concatenated per-node
//! record segment:
//!
//! ```text
//! ids      := [varint first_id [u8 l, low{n−1} of l bits, high{n−1}]]
//! high     := Rice(rise, 0)
//! restarts := (varint window_len, varint window_bits){⌊n / 16⌋}
//! dict     := ε | varint n_keys, str{n_keys},
//!                 varint n_pairs, (varint key_id, attr_value){n_pairs}
//! counts   := [u8 params [u8 k_attrs] [u8 w_first] code{n}]
//! params   := bits 0-4 k_edges, bit 5 firsts, bit 6 attrs, bit 7 shapes
//! code     := Rice(n_edges, k_edges) [first:w_first]
//!             [Rice(n_attrs, k_attrs)] [shape:3]
//! records  := record{n}
//! ```
//!
//! where the id column is Elias–Fano coded: each further id's offset
//! from the first is split into its low `l` bits, fixed-width and all
//! together (zero-padded to a byte), and its high part, spelled as a
//! unary code of its rise over the previous id's high part
//! (zero-padded too), with `l = ⌊log2(last offset / (n − 1))⌋`
//! (`bits.rs`'s Elias–Fano column). That
//! costs about what Rice-coded gaps would, and a point read can step
//! over every id whose high part lies below the probed id's by
//! counting bits a word at a time, without reading them. An id that
//! does not rise over the one before it, or one that overflows, is
//! refused. A restart is spelled per full window `w` of 16 records (a
//! row of fewer than 16 records has none), as a LevelDB data block
//! keeps a restart point every few keys: `window_len` is the byte
//! length of records `16w .. 16w+16`, `window_bits` the bit length of
//! their codes in the counts column. The counts column holds each
//! record's **head** — what lays its bytes out — as one bit-coded
//! code: its edge count; then, when the `firsts` flag is set and the
//! record has entries, its first entry's neighbour in `w_first` bits,
//! the bit length of the row's largest first neighbour; then its
//! attribute count only when the `attrs` flag says some record of
//! the row has one; then its edge-list's three shape bits only when
//! the `shapes` flag says some record's shape is not the default
//! (every entry undirected, unit-weight, attribute-free). The writer
//! sets `firsts` where that makes the row smaller than spelling each
//! first neighbour as a varint in its record, by more than the width
//! byte, the rounding and a byte of each restart can cost — where the
//! row's first neighbours need about as many bits each; a growing
//! graph's early, popular neighbours fit varints narrower than its
//! widest id. A flag no record needs, a `w_first` past 64 or other
//! than the largest first neighbour's bit length, or a shape other
//! than the default on a record of no entries, is refused: no writer
//! spells any of them (the point read refuses only the width past
//! 64). The dictionary holds the pairs
//! the context table lacks, and is empty when there are none; its
//! keys are the keys of those pairs the table lacks, sorted, a pair's
//! `key_id` names a table key or, past the table's keys, one of them,
//! and its pairs are in order of first use. The full read (`sum_into`)
//! decodes the ids, streams heads and records in lockstep beside them
//! and holds every restart
//! to the bytes and code bits its window actually took. A point read
//! (`node_record`, `sum_node_into`, `contains`) seeks the node's
//! index `i` in the id column — a miss decodes nothing else — sums
//! the first `⌊i / 16⌋` restarts to find its window's records and
//! codes, reads the heads from the window's first to `i`'s, and steps
//! over the `i mod 16` records before it with `codec::skip_record` (a
//! run of default-shape records, varints alone, at once); the
//! window's code bits bound that head walk as its bytes bound the
//! skip, so on every row the full read accepts the two reads agree.
//! Only the full read checks the restarts and the flags: a point
//! read alone does not detect a wrong restart, and may then answer
//! another node's record, or one parsed from inside a record, as `Ok`
//! (a point read of a row nothing has read in full yet).
//!
//! A record is written in the grammar of [`crate::codec`] — only the
//! entry fields its shape leaves open (and no first neighbour the
//! head holds), then the attribute pairs — with every node or edge
//! attribute pair one `varint pair_id`: a table pair, or past the
//! table's pairs one of the row's own; the record codec and its
//! edge-list loops live there. Records are most of every index —
//! most of them a single default edge (`nbr` beside a two-bit code,
//! or no record bytes at all where the code holds it) or a single
//! pair (`pair_id`). Every later neighbour stays a byte-aligned
//! varint gap, so the runs of unit gaps a growing graph's hubs make
//! are left for a store's LZSS to find.
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
//! A **residual row** — magic `0xCD`, the root of a span stored as a
//! signed residual against an earlier span's root
//! ([`encode_columnar_residual_in`]) — is a delta row whose additions
//! are the five segments above, followed by a sixth, its removals:
//!
//! ```text
//! removals := varint n, (varint id_gap, varint n_edges, varint n_pairs,
//!              varint edge_gap{n_edges}, varint pair_gap{n_pairs}){n}
//! ```
//!
//! one entry per node its base loses something of, `n ≥ 1` of them
//! filling the segment exactly, in rising id order:
//! the first id itself and then each id less the one before, less one;
//! then the positions, in the node's summed base record, of the
//! edge-list entries and the attribute pairs it loses — the first
//! position itself, then each less the one before, less one — or, with
//! both counts zero, the whole node. A position needs nothing but the
//! base record: not the pair the base held, which this span's pair
//! table may no longer have. The sum applies the removals, then the
//! additions; a removal of a node or a position the state lacks is
//! [`CodecError::BadRef`], an addition of a key it still holds
//! [`CodecError::RepeatedComponent`]. A residual that removes nothing
//! is spelled as a delta row, byte for byte, so only a row whose
//! removal segment is not empty carries the residual magic, and one
//! whose removal segment is empty is refused.

use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes, BytesMut};

use super::{
    assemble, dict_idx, extended, get_dict, no_trailing, parse_header, put_dict, read_seg, Header,
    DELTA_MAGIC, DELTA_SEGS, RESIDUAL_MAGIC, RESIDUAL_SEGS,
};
use crate::attr::{AttrValue, Attrs};
use crate::bits::{bit_len, check_rice_k, put_elias_fano, rice_k, BitReader, BitWriter, EliasFano};
use crate::codec::{
    get_attr_value, get_len, get_record, get_u8, get_varint, put_attr_value, put_record,
    put_varint, skip_record, skip_varints, RecordHead, MAX_LEN, SHAPE_BITS, SHAPE_DEFAULT,
};
use crate::delta::{Delta, Removal, Residual};
use crate::error::CodecError;
use crate::hash::FxHashMap;
use crate::node::StaticNode;
use crate::pair_table::{PairTable, ValueKey, EMPTY};
use crate::types::NodeId;

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
    let mut window = bits.written();
    for (i, h) in heads.iter().enumerate() {
        bits.put_rice(h.n_edges as u64, k_edges);
        if let Some(first) = h.first {
            bits.put(first, w_first);
        }
        if attrs {
            bits.put_rice(h.n_attrs as u64, k_attrs);
        }
        if shapes {
            bits.put(u64::from(h.shape), SHAPE_BITS);
        }
        if (i + 1) % RESTART_INTERVAL == 0 {
            windows.push(bits.written() - window);
            window = bits.written();
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
        BitReader::new(b).check_left(n)?;
        Ok(Counts {
            bits: BitReader::from_bit(b, skip)?,
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
        self.bits.finish()
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
    let segs = delta_segments(d, table);
    assemble(
        DELTA_MAGIC,
        d.cardinality(),
        &segs.each_ref().map(|s| &s[..]),
    )
}

/// Serialize a signed residual ([`Delta::residual_against`]) in the
/// context of `table`: its additions as [`encode_columnar_delta_in`]
/// spells a delta — which is the whole row when it removes nothing —
/// then, under the residual magic, its removal segment.
pub fn encode_columnar_residual_in(res: &Residual, table: &PairTable) -> Bytes {
    if res.removed.is_empty() {
        return encode_columnar_delta_in(&res.added, table);
    }
    let [ids, restarts, dict, counts, records] = delta_segments(&res.added, table);
    let removals = put_removals(&res.removed);
    assemble(
        RESIDUAL_MAGIC,
        res.added.cardinality(),
        &[&ids, &restarts, &dict, &counts, &records, &removals],
    )
}

/// Spell a removal segment: per node, its id gap less one (the first
/// id in full), its two counts — both zero for the whole node — and the
/// positions it loses, each list as gaps less one.
fn put_removals(removed: &[(NodeId, Removal)]) -> BytesMut {
    let mut out = BytesMut::new();
    put_varint(&mut out, removed.len() as u64);
    let mut prev: Option<NodeId> = None;
    for (id, removal) in removed {
        put_varint(&mut out, prev.map_or(*id, |p| id - p - 1));
        prev = Some(*id);
        let (edges, pairs): (&[u32], &[u32]) = match removal {
            Removal::Node => (&[], &[]),
            Removal::Parts { edges, pairs } => (edges, pairs),
        };
        put_varint(&mut out, edges.len() as u64);
        put_varint(&mut out, pairs.len() as u64);
        for list in [edges, pairs] {
            let mut prev: Option<u32> = None;
            for &at in list {
                put_varint(&mut out, u64::from(prev.map_or(at, |p| at - p - 1)));
                prev = Some(at);
            }
        }
    }
    out
}

/// Read `n` strictly rising positions spelled as gaps less one.
fn get_positions(b: &mut &[u8], n: usize) -> Result<Vec<u32>, CodecError> {
    // Every position is a byte at least.
    if n > b.len() {
        return Err(CodecError::UnexpectedEof {
            needed: n,
            remaining: b.len(),
        });
    }
    let mut out: Vec<u32> = Vec::with_capacity(n.min(b.len()));
    for _ in 0..n {
        let gap = get_varint(b)?;
        let at = match out.last() {
            None => Some(gap),
            Some(&p) => u64::from(p).checked_add(gap).and_then(|v| v.checked_add(1)),
        };
        match at.and_then(|v| u32::try_from(v).ok()) {
            Some(at) => out.push(at),
            None => {
                return Err(CodecError::LengthOverflow {
                    what: "removed position",
                    len: gap,
                })
            }
        }
    }
    Ok(out)
}

/// Read a removal segment, every byte of it: its count of entries of
/// rising node ids, each losing its whole node or the positions it
/// spells. A count the segment has no bytes for, or bytes past the
/// last entry, are refused — so is a segment cut short at an entry's
/// end.
fn get_removals(mut b: &[u8]) -> Result<Vec<(NodeId, Removal)>, CodecError> {
    if b.is_empty() {
        return Ok(Vec::new());
    }
    let n = get_len(&mut b, "removals")?;
    if n == 0 {
        // A residual that removes nothing is a delta row.
        return Err(CodecError::LengthOverflow {
            what: "removals",
            len: 0,
        });
    }
    // Every entry is three bytes at least.
    if n.saturating_mul(3) > b.len() {
        return Err(CodecError::UnexpectedEof {
            needed: n.saturating_mul(3),
            remaining: b.len(),
        });
    }
    let mut out: Vec<(NodeId, Removal)> = Vec::with_capacity(n);
    for _ in 0..n {
        let gap = get_varint(&mut b)?;
        let id = match out.last() {
            None => Some(gap),
            Some(&(p, _)) => p.checked_add(gap).and_then(|v| v.checked_add(1)),
        }
        .ok_or(CodecError::BadRef {
            what: "removed node gap",
            id: gap,
        })?;
        let n_edges = get_len(&mut b, "removed edges")?;
        let n_pairs = get_len(&mut b, "removed pairs")?;
        let removal = if n_edges == 0 && n_pairs == 0 {
            Removal::Node
        } else {
            Removal::Parts {
                edges: get_positions(&mut b, n_edges)?,
                pairs: get_positions(&mut b, n_pairs)?,
            }
        };
        out.push((id, removal));
    }
    no_trailing(b.len())?;
    Ok(out)
}

/// A delta row's five segments: sorted node-id column, restart
/// column, the row's own pair dictionary (the pairs `table` lacks),
/// counts column, concatenated per-node records.
fn delta_segments(d: &Delta, table: &PairTable) -> [BytesMut; DELTA_SEGS] {
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
    put_elias_fano(&mut id_col, &ids);
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

    let dict = own.put_dict(table);
    [id_col, restarts, dict, counts, records]
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
    /// A residual row's removal segment; empty in a delta row.
    removals: Range<usize>,
    /// The removal segment, decoded once.
    removed: OnceLock<Result<Vec<(NodeId, Removal)>, CodecError>>,
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
        let (n_nodes, segs, removals) = if backing.first() == Some(&RESIDUAL_MAGIC) {
            let Header { count, segs } =
                parse_header::<RESIDUAL_SEGS>(&backing, RESIDUAL_MAGIC, "columnar-residual")?;
            let [ids, restarts, dict, counts, records, removals] = segs;
            if removals.is_empty() {
                // A residual that removes nothing is a delta row.
                return Err(CodecError::LengthOverflow {
                    what: "removals",
                    len: 0,
                });
            }
            (count, [ids, restarts, dict, counts, records], removals)
        } else {
            let Header { count, segs } = parse_header(&backing, DELTA_MAGIC, "columnar-delta")?;
            (count, segs, 0..0)
        };
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
            removals,
            removed: OnceLock::new(),
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
    /// [`super::ColumnarEventlist::raw_len_total`]).
    pub fn raw_len_total(&self) -> usize {
        self.segs.iter().map(Range::len).sum::<usize>() + self.removals.len()
    }

    /// A residual row's removals, decoded once: empty in a delta row.
    fn removed(&self) -> Result<&[(NodeId, Removal)], CodecError> {
        self.removed
            .get_or_init(|| get_removals(&read_seg(&self.backing, &self.removals)))
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(|e| e.clone())
    }

    /// Whether this row removes a whole node from the state it is
    /// summed onto — what the `completed` form of
    /// [`ColumnarDelta::sum_into`] cannot say, as it only ever holds
    /// the nodes a sum leaves.
    pub fn removes_a_node(&self) -> Result<bool, CodecError> {
        Ok(self
            .removed()?
            .iter()
            .any(|(_, r)| matches!(r, Removal::Node)))
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
        EliasFano::open(ids, self.n_nodes)?.seek(nid)
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
    /// A residual row first takes its removals out of `state`; the
    /// description each leaves is collected too, and a node it removes
    /// whole is not ([`ColumnarDelta::removes_a_node`]).
    ///
    /// Decodes the id column, then streams the counts and record
    /// cursors in lockstep beside it and holds
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
        for (id, removal) in self.removed()? {
            let left = state.remove_part(*id, removal)?;
            if let (Some(node), Some(completed)) = (left, completed.as_deref_mut()) {
                completed.insert_shared(Arc::clone(node));
            }
        }
        let pairs = self.pairs()?;
        let iraw = self.seg(SEG_NODE_IDS);
        let sraw = self.seg(SEG_RESTARTS);
        let craw = self.seg(SEG_COUNTS);
        let rraw = self.seg(SEG_RECORDS);
        let ids = EliasFano::open(&iraw, self.n_nodes)?;
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
        let (mut window, mut window_bits) = (rb.len(), counts.bits.bits_left());
        for (i, id) in ids.get_all()?.into_iter().enumerate() {
            let head = counts.next()?;
            let node = sum_record(state, id, &head, &mut rb, pairs)?;
            if let Some(completed) = completed.as_deref_mut() {
                completed.insert_shared(Arc::clone(node));
            }
            if (i + 1) % RESTART_INTERVAL == 0 {
                let took = [window - rb.len(), window_bits - counts.bits.bits_left()];
                for took in took {
                    let restart = get_varint(&mut sb)?;
                    if restart != took as u64 {
                        return Err(CodecError::BadRef {
                            what: "restart",
                            id: restart,
                        });
                    }
                }
                (window, window_bits) = (rb.len(), counts.bits.bits_left());
            }
        }
        counts.finish()?;
        no_trailing(sb.len() + rb.len())
    }

    /// [`ColumnarDelta::sum_into`] restricted to one node: apply
    /// `nid`'s removal and then its record, if this row has them, to
    /// `state`. Decodes what [`ColumnarDelta::node_record`] decodes,
    /// and a residual row's removal segment.
    pub fn sum_node_into(&self, nid: NodeId, state: &mut Delta) -> Result<(), CodecError> {
        let removed = self.removed()?;
        if let Ok(at) = removed.binary_search_by_key(&nid, |&(id, _)| id) {
            if let Some((id, removal)) = removed.get(at) {
                state.remove_part(*id, removal)?;
            }
        }
        let Some((head, mut record)) = self.record_at(nid)? else {
            return Ok(());
        };
        sum_record(state, nid, &head, &mut record, self.pairs()?).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_delta;
    use crate::columnar::tests::{reassembled, sample_delta};
    use crate::node::Neighbor;
    use crate::types::EdgeDir;

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
            let before = counts.bits.bits_left();
            for _ in 0..RESTART_INTERVAL {
                counts.next().unwrap();
            }
            assert_eq!((before - counts.bits.bits_left()) as u64, want);
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
}
