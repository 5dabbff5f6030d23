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
//! row, five in a delta row, six in a residual row — a delta row that
//! also removes); `present` has bit `i` set when segment
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
//! Corrupt input is an error, never a panic: all lengths are validated
//! against the codec's `MAX_LEN` cap, and every count against the bits
//! its column has, before allocation; segment ranges are bounds-checked
//! against the backing buffer, and every dictionary index — node, key,
//! value or pair — is range-checked on decode.

mod delta;
mod eventlist;

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{get_len, get_str, get_u8, note_decoded, put_str, put_varint};
use crate::error::CodecError;
use crate::hash::FxHashMap;
pub use crate::pair_table::PairTable;
pub use delta::{
    encode_columnar_delta, encode_columnar_delta_in, encode_columnar_residual_in, ColumnarDelta,
};
pub use eventlist::{encode_columnar_eventlist, encode_columnar_eventlist_in, ColumnarEventlist};

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
/// A delta row that also removes: a signed residual whose removal
/// segment is not empty ([`encode_columnar_residual_in`]). A residual
/// that removes nothing is spelled as a plain delta row.
const RESIDUAL_MAGIC: u8 = 0xCD;

const ELIST_SEGS: usize = 8;

const DELTA_SEGS: usize = 5;

/// A residual row's segments: a delta row's five, then its removals.
const RESIDUAL_SEGS: usize = DELTA_SEGS + 1;

/// The index of `v` in the sorted `dict` it was interned into.
#[inline]
fn dict_idx<T: Ord>(dict: &[T], v: &T) -> u64 {
    dict.partition_point(|d| d < v) as u64
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
    use crate::attr::AttrValue;
    use crate::delta::Delta;
    use crate::event::{Event, EventKind, Eventlist};

    pub(super) fn sample_events() -> Vec<Event> {
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

    pub(super) fn sample_delta() -> Delta {
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

    /// A row of `count` records from its `segs`, segment `i` made
    /// `edit` of what it holds.
    pub(super) fn reassembled(
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
