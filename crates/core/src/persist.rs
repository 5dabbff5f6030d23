//! Index persistence: everything the query paths need lives in the
//! store's five tables, so an index can be re-opened from a store
//! ([`TgiService::open`](crate::TgiService::open)) without the original
//! process — the "persistent, distributed, compact graph history"
//! property of the paper's Fig. 2.
//!
//! Layout recap: `Graph` holds the global descriptor (config, span
//! count, end time, event count, epoch); `Timespans` holds one
//! metadata row per timespan; `Micropartitions` holds the locality
//! partition maps; `Deltas` and `Versions` hold the index body.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{CodecError, FxHashMap, NodeId, StorageLayout, Time};
use hgs_partition::PartitionMap;
use hgs_store::{SimStore, StoreError, Table};

use crate::build::{mp_key, SpanRuntime, TgiView, Writer};
use crate::config::{PartitionStrategy, TgiConfig};
use crate::meta::{roots_named_after, TimespanMeta};

/// Errors from [`TgiService::open`](crate::TgiService::open).
#[derive(Debug)]
pub enum OpenError {
    /// The store holds no graph descriptor (nothing was built here).
    NotFound,
    /// A metadata row failed to decode, contradicts the rows beside
    /// it, or names a row the store lacks — or the rows it describes
    /// do not decode to the latest state.
    Corrupt(CodecError),
    /// The store was unreachable.
    Store(StoreError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::NotFound => write!(f, "no TGI descriptor in store"),
            OpenError::Corrupt(e) => write!(f, "corrupt TGI metadata: {e}"),
            OpenError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Descriptor tag of the one row format. It stands for every table's
/// grammar, the `Versions` rows above all — they carry no magic of
/// their own. Retired, never reused: `0` (row-wise rows), `1` (chain
/// entries spelling `tsid` and `pid`, records opening with two count
/// varints and a shape byte, eventlists always spelling their weights),
/// `2` (chain rows of `count, (time-gap, chunk)*`, which would
/// parse as chunk gaps under this one) and `3` (`AttrIndex` term rows
/// of `(time-gap, nid, flags)` per point, carry points included, which
/// would parse as the bit-coded rows of this one — the eventlist rows
/// of that layout carry their own retired magic) and `4` (delta rows
/// with a byte length per record where a restart every 16 records now
/// stands; they carry their own retired magic too, and the tag moves
/// with it so that a descriptor names the one grammar of all its
/// rows) and `5` (intersection trees grouped from the left, whose
/// `Timespans` rows spelled their arity: the same rows would sum to
/// other leaves under this layout's right-aligned trees) and `6`
/// (eventlist and delta rows with an LZSS bit on every segment length,
/// attribute values spelled in full where a row-local dictionary
/// index now stands; their rows carry retired magics too) and `7`
/// (descriptors spelling a read-cache budget before this tag) and `8`
/// (descriptors opening with `events_per_timespan` and spelling the
/// time-collapse and node-weighting tags, `Timespans` rows spelling
/// `tsid`, end, counts and an aux flag, partition maps spelling their
/// part count and entry count) and `9` (delta and eventlist rows
/// spelling every attribute key, value and pair they name in a
/// dictionary of their own, beside `Timespans` rows with no pair
/// table — rows this layout would read as those of spans without
/// pairs, refused all the same: one tag names one writer of every
/// row) and `10` (delta rows whose records each opened with a head
/// byte, beside a varint id column; they carry a retired magic too)
/// and `11` (row headers spelling a segment count and every segment's
/// length, records spelling their first neighbour as a varint, and
/// chain and term rows spelling their integers in whole bytes; the
/// delta and eventlist rows carry retired magics too) and `12`
/// (`Graph/meta` rows of three varints, with no epoch: an index
/// re-opened from one published its watermarks from 1 again) and `13`
/// (every span's root stored in full, and `Deltas` rows placed by
/// `(tsid, sid)`: the roots of its spans past a block head would read
/// as residuals against roots they were not taken from, and its rows
/// of spans past the first block are not where this layout looks).
/// A store tagged otherwise is refused, not answered from.
const LAYOUT_TAG: u64 = 14;

/// Serialize the construction configuration: the layout tag, then
/// every other field of [`TgiConfig`] in declaration order.
pub(crate) fn encode_config(cfg: &TgiConfig) -> Bytes {
    let mut buf = BytesMut::new();
    let layout = match cfg.layout {
        StorageLayout::Columnar => LAYOUT_TAG,
    };
    put_varint(&mut buf, layout);
    put_varint(&mut buf, cfg.events_per_timespan as u64);
    put_varint(&mut buf, cfg.eventlist_size as u64);
    put_varint(&mut buf, cfg.arity as u64);
    put_varint(&mut buf, cfg.partition_size as u64);
    put_varint(&mut buf, cfg.horizontal_partitions as u64);
    let strat = match cfg.strategy {
        PartitionStrategy::Random => 0u64,
        PartitionStrategy::Locality {
            replicate_boundary: false,
        } => 1,
        PartitionStrategy::Locality {
            replicate_boundary: true,
        } => 2,
    };
    put_varint(&mut buf, strat);
    put_varint(&mut buf, cfg.version_chains as u64);
    put_varint(&mut buf, cfg.secondary_indexes as u64);
    buf.freeze()
}

/// Decode [`encode_config`].
pub(crate) fn decode_config(mut buf: &[u8]) -> Result<TgiConfig, CodecError> {
    let b = &mut buf;
    // One row format. A descriptor tagged otherwise, or empty, does
    // not describe rows this code can read: refuse it here rather than
    // report every row corrupt later.
    let layout = match get_varint(b) {
        Ok(LAYOUT_TAG) => StorageLayout::Columnar,
        other => {
            return Err(CodecError::BadTag {
                what: "StorageLayout",
                tag: other.unwrap_or(0) as u8,
            })
        }
    };
    let events_per_timespan = get_varint(b)? as usize;
    let eventlist_size = get_varint(b)? as usize;
    let arity = get_varint(b)? as usize;
    let partition_size = get_varint(b)? as usize;
    let horizontal_partitions = get_varint(b)?;
    let horizontal_partitions =
        u32::try_from(horizontal_partitions).map_err(|_| CodecError::LengthOverflow {
            what: "horizontal_partitions",
            len: horizontal_partitions,
        })?;
    let strategy = match get_varint(b)? {
        0 => PartitionStrategy::Random,
        1 => PartitionStrategy::Locality {
            replicate_boundary: false,
        },
        2 => PartitionStrategy::Locality {
            replicate_boundary: true,
        },
        t => {
            return Err(CodecError::BadTag {
                what: "PartitionStrategy",
                tag: t as u8,
            })
        }
    };
    let version_chains = get_varint(b)? != 0;
    // Every index stores its secondary indexes: a descriptor spelling
    // 0 here names an index without its `AttrIndex` rows, which no
    // query path reads around.
    if get_varint(b)? == 0 {
        return Err(CodecError::BadTag {
            what: "secondary_indexes",
            tag: 0,
        });
    }
    no_trailing_bytes(b)?;
    let cfg = TgiConfig {
        events_per_timespan,
        eventlist_size,
        arity,
        partition_size,
        horizontal_partitions,
        strategy,
        version_chains,
        layout,
        secondary_indexes: true,
    };
    // The query paths divide by these numbers: hold a stored
    // descriptor to the bounds the build path asserts.
    match cfg.out_of_bounds() {
        Some((what, len)) => Err(CodecError::LengthOverflow { what, len }),
        None => Ok(cfg),
    }
}

/// A descriptor row ends where its grammar does: an unread byte means
/// the row is not the one this code wrote.
fn no_trailing_bytes(rest: &[u8]) -> Result<(), CodecError> {
    match rest.len() {
        0 => Ok(()),
        remaining => Err(CodecError::TrailingBytes { remaining }),
    }
}

/// Serialize the `Graph/meta` row, the commit record: span count, end
/// time, event count and the epoch it publishes.
pub(crate) fn encode_graph_meta(
    span_count: usize,
    end_time: Time,
    event_count: usize,
    epoch: u64,
) -> Bytes {
    let mut buf = BytesMut::new();
    put_varint(&mut buf, span_count as u64);
    put_varint(&mut buf, end_time);
    put_varint(&mut buf, event_count as u64);
    put_varint(&mut buf, epoch);
    buf.freeze()
}

/// Decode [`encode_graph_meta`]. A span is named by a `u32` tsid, and
/// a build that wrote a descriptor wrote a span; nothing is allocated
/// for the count itself. The first commit publishes epoch 1.
fn decode_graph_meta(mut buf: &[u8]) -> Result<(u32, Time, usize, u64), CodecError> {
    let b = &mut buf;
    let span_count = get_varint(b)?;
    let end_time = get_varint(b)?;
    let event_count = get_varint(b)? as usize;
    let epoch = get_varint(b)?;
    no_trailing_bytes(b)?;
    let span_count = match u32::try_from(span_count) {
        Ok(n) if n > 0 => n,
        _ => {
            return Err(CodecError::LengthOverflow {
                what: "span count",
                len: span_count,
            })
        }
    };
    match epoch {
        0 => Err(CodecError::BadRef {
            what: "epoch",
            id: 0,
        }),
        _ => Ok((span_count, end_time, event_count, epoch)),
    }
}

/// Serialize the explicit entries of a locality partition map for the
/// `Micropartitions` table (the paper's node -> micro-partition map) —
/// all of them, not only the nodes alive when the span closed: a
/// reopened index derives every read's `pid` (a chain entry's
/// included) from this row, for a node the span removed too. The row
/// is `(id gap, pid)*` in node order, ending with the row; its part
/// count is the span row's pid count for the `sid`.
pub(crate) fn encode_partition_map(map: &PartitionMap) -> Bytes {
    let mut entries: Vec<(NodeId, u32)> = map.entries().collect();
    entries.sort_unstable();
    let mut buf = BytesMut::with_capacity(entries.len() * 3);
    let mut prev = 0u64;
    for (id, pid) in entries {
        put_varint(&mut buf, id - prev);
        prev = id;
        put_varint(&mut buf, pid as u64);
    }
    buf.freeze()
}

/// Decode [`encode_partition_map`] for a span whose `sid` has `parts`
/// micro-partitions. Node ids rise from entry to entry, and a pid
/// names one of the `parts`: a repeated node would be read from
/// whichever entry came last, and a pid past the part count sends a
/// node to a micro-partition the span never wrote.
fn decode_partition_map(mut buf: &[u8], parts: u32) -> Result<PartitionMap, CodecError> {
    let b = &mut buf;
    // An entry is an id gap and a pid: two bytes at least.
    let mut map: FxHashMap<NodeId, u32> = FxHashMap::default();
    map.reserve(b.len() / 2);
    let mut prev: Option<NodeId> = None;
    while !b.is_empty() {
        let gap = get_varint(b)?;
        let id = match prev {
            None => Some(gap),
            Some(prev) if gap > 0 => prev.checked_add(gap),
            Some(_) => None,
        }
        .ok_or(CodecError::BadRef {
            what: "partition map id gap",
            id: gap,
        })?;
        prev = Some(id);
        let pid = get_varint(b)?;
        match u32::try_from(pid) {
            Ok(p) if p < parts => map.insert(id, p),
            _ => {
                return Err(CodecError::BadRef {
                    what: "partition map pid",
                    id: pid,
                })
            }
        };
    }
    Ok(PartitionMap::explicit(map, parts))
}

impl Writer {
    /// Re-open an index previously built on `store`, reconstructing
    /// all in-memory metadata from the persisted tables, at the default
    /// widths and read-cache budget.
    pub(crate) fn open(store: Arc<SimStore>) -> Result<Writer, OpenError> {
        // Global descriptor: both rows share placement token 0.
        let (meta_row, cfg_row) = match &store
            .multi_get(Table::Graph, &[b"meta", b"config"], 0)
            .map_err(OpenError::Store)?[..]
        {
            [Some(meta), Some(cfg)] => (meta.clone(), cfg.clone()),
            _ => return Err(OpenError::NotFound),
        };
        // The config first: its layout tag names the grammar of every
        // other row, `Graph/meta` included.
        let cfg = decode_config(&cfg_row).map_err(OpenError::Corrupt)?;
        let (span_count, end_time, event_count, epoch) =
            decode_graph_meta(&meta_row).map_err(OpenError::Corrupt)?;

        // Per-timespan metadata and partition maps. A row spells
        // neither its `tsid` (the key's) nor its end (the next row's
        // `c_0`): each row closes the span before it, held to the rule
        // the spans keep across rows, and the first opens at time 0.
        let bad_ref = |what, id| OpenError::Corrupt(CodecError::BadRef { what, id });
        let mut spans: Vec<SpanRuntime> = Vec::new();
        for tsid in 0..span_count {
            let row = store
                .multi_get(
                    Table::Timespans,
                    &[&tsid.to_be_bytes()],
                    hgs_delta::hash_u64(tsid as u64),
                )
                .map_err(OpenError::Store)?
                .pop()
                .flatten()
                .ok_or(bad_ref("timespan", tsid as u64))?;
            let meta = TimespanMeta::decode(&row, tsid, cfg.horizontal_partitions, cfg.arity)
                .map_err(OpenError::Corrupt)?;
            let start = meta.range.start;
            match spans.last_mut() {
                Some(prev) => prev.meta.close_at(start).map_err(OpenError::Corrupt)?,
                None if start != 0 => return Err(bad_ref("timespan start", start)),
                None => {}
            }
            let maps = match cfg.strategy {
                PartitionStrategy::Random => meta
                    .pid_counts
                    .iter()
                    .map(|&p| PartitionMap::random(p))
                    .collect(),
                PartitionStrategy::Locality { .. } => {
                    let mut maps = Vec::with_capacity(meta.pid_counts.len());
                    for (sid, &parts) in (0u32..).zip(&meta.pid_counts) {
                        let key = mp_key(tsid, sid);
                        let token = hgs_store::PlacementKey::of_span(tsid, sid).token();
                        let blob = store
                            .multi_get(Table::Micropartitions, &[&key], token)
                            .map_err(OpenError::Store)?
                            .pop()
                            .flatten()
                            .ok_or(bad_ref("partition map", sid as u64))?;
                        maps.push(decode_partition_map(&blob, parts).map_err(OpenError::Corrupt)?);
                    }
                    maps
                }
            };
            spans.push(SpanRuntime {
                meta,
                maps: Arc::new(maps),
            });
        }

        let mut writer = Writer {
            view: TgiView {
                cfg,
                store,
                spans: spans.into_iter().map(Arc::new).collect(),
                end_time,
                event_count,
                node_count: 0,
                edge_count: 0,
                clients: 1,
                read_cache: Arc::new(crate::read_cache::ReadCache::with_shards(
                    crate::config::DEFAULT_READ_CACHE_BYTES,
                    crate::read_cache::DEFAULT_READ_CACHE_SHARDS,
                )),
                epoch,
            },
            tail_state: hgs_delta::Delta::new(),
            roots: Vec::new(),
            encode_width: crate::build::host_parallelism(),
            poisoned: false,
        };
        // Rows that do not sum to a state are damage the descriptor did
        // not show, not an unreachable store.
        let read = |e| match e {
            StoreError::Corrupt(e) => OpenError::Corrupt(e),
            e => OpenError::Store(e),
        };
        // The tail state (needed for appends) is the latest snapshot;
        // the view's shape summary follows it.
        if end_time > 0 {
            writer.tail_state = writer.view.try_snapshot(end_time).map_err(read)?;
            writer.view.node_count = writer.tail_state.cardinality();
            writer.view.edge_count = writer.tail_state.edge_count();
        }
        // The roots the next spans of the block are stored against, each
        // summed from its chain: those of a writer that was never
        // re-opened.
        for tsid in roots_named_after(span_count - 1) {
            let roots = writer.view.try_root_states(tsid).map_err(read)?;
            writer.roots.push((tsid, roots));
        }
        Ok(writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrip() {
        for cfg in [
            TgiConfig::default(),
            TgiConfig::deltagraph(),
            TgiConfig::default().with_strategy(PartitionStrategy::Locality {
                replicate_boundary: true,
            }),
            TgiConfig {
                arity: 3,
                ..TgiConfig::default()
            },
        ] {
            // The pattern names every field, with no `..`: a field added
            // to `TgiConfig` without a place in the descriptor fails to
            // compile here, which keeps session state out of the config.
            let TgiConfig {
                events_per_timespan,
                eventlist_size,
                arity,
                partition_size,
                horizontal_partitions,
                strategy,
                version_chains,
                layout,
                secondary_indexes,
            } = decode_config(&encode_config(&cfg)).unwrap();
            assert_eq!(
                (
                    (events_per_timespan, eventlist_size, arity, partition_size),
                    (horizontal_partitions, strategy, version_chains),
                    (layout, secondary_indexes),
                ),
                (
                    (
                        cfg.events_per_timespan,
                        cfg.eventlist_size,
                        cfg.arity,
                        cfg.partition_size
                    ),
                    (cfg.horizontal_partitions, cfg.strategy, cfg.version_chains),
                    (cfg.layout, cfg.secondary_indexes),
                )
            );
        }
        // The layout tag is the first varint (one byte): a descriptor
        // tagged 0 to 12 (the retired formats), or empty, is refused
        // rather than opened as something else.
        let blob = encode_config(&TgiConfig::default());
        assert_eq!(blob[0] as u64, LAYOUT_TAG);
        let retired = |tag: u8| [&[tag], &blob[1..]].concat();
        for bad in (0..LAYOUT_TAG as u8).map(retired).chain([Vec::new()]) {
            assert!(matches!(
                decode_config(&bad),
                Err(CodecError::BadTag {
                    what: "StorageLayout",
                    ..
                })
            ));
        }
        // Every descriptor of this layout ends with the secondary-index
        // flag, and every index stores those rows: a descriptor that
        // spells 0 there is refused, not opened with the index off. So
        // is one cut right before the flag, and one a byte too long.
        let unindexed = [&blob[..blob.len() - 1], &[0]].concat();
        assert_eq!(
            decode_config(&unindexed).map(drop),
            Err(CodecError::BadTag {
                what: "secondary_indexes",
                tag: 0
            })
        );
        assert!(matches!(
            decode_config(&blob[..blob.len() - 1]),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(
            decode_config(&[&blob[..], &[0]].concat()).map(drop),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    /// A tag-8 descriptor opened with `events_per_timespan`, where this
    /// layout's tag stands, and spelled the time-collapse (1) and
    /// node-weighting (0) tags before its own. Whatever its span size,
    /// it is refused: read as a tag, only a span size of 10 names this
    /// layout, and then the row is two varints too long.
    #[test]
    fn a_tag_8_descriptor_is_refused_whatever_its_span_size() {
        for events_per_timespan in [1, 8, 9, 10, 127, 128, 20_000, 1 << 40] {
            let cfg = TgiConfig {
                events_per_timespan,
                eventlist_size: 1,
                ..TgiConfig::default()
            };
            let blob = encode_config(&cfg);
            let (fields, secondary) = blob[1..].split_at(blob.len() - 2);
            let mut old = BytesMut::new();
            old.extend_from_slice(fields);
            for v in [1, 0, 8] {
                put_varint(&mut old, v);
            }
            old.extend_from_slice(secondary);
            let got = decode_config(&old).map(drop);
            if events_per_timespan == LAYOUT_TAG as usize {
                assert_eq!(got, Err(CodecError::TrailingBytes { remaining: 2 }));
            } else {
                assert!(
                    matches!(
                        got,
                        Err(CodecError::BadTag {
                            what: "StorageLayout",
                            ..
                        })
                    ),
                    "span size {events_per_timespan}: {got:?}"
                );
            }
        }
    }

    /// `Graph/meta` and `Graph/config` end where their grammars do: a
    /// row one byte longer than the build wrote does not open.
    #[test]
    fn a_descriptor_row_one_byte_longer_is_refused() {
        let events = hgs_datagen::WikiGrowth::sized(300).generate();
        let cfg = TgiConfig::default()
            .with_timespan(200)
            .with_eventlist_size(50);
        let svc = crate::TgiService::try_build(cfg, hgs_store::StoreConfig::new(1, 1), &events)
            .expect("healthy build");
        let store = svc.store();
        let put = |key: &[u8], value: Vec<u8>| {
            let row = hgs_store::PutRow::new(Table::Graph, key.to_vec(), 0, value.into());
            store.try_put_batch(vec![row]).expect("healthy store");
        };
        for key in [&b"meta"[..], b"config"] {
            let built = store.multi_get(Table::Graph, &[key], 0).unwrap()[0]
                .clone()
                .expect("the build wrote the row");
            put(key, [&built[..], &[0]].concat());
            assert!(
                matches!(
                    crate::TgiService::open(Arc::clone(&store)).map(drop),
                    Err(OpenError::Corrupt(CodecError::TrailingBytes {
                        remaining: 1
                    }))
                ),
                "{}",
                String::from_utf8_lossy(key)
            );
            put(key, built.to_vec());
            crate::TgiService::open(Arc::clone(&store)).expect("the rows as built open");
        }
    }

    /// A `Timespans` row spells no tree shape, no `tsid` and no end: a
    /// reopened index derives each span's shape from its checkpoints
    /// and the descriptor's arity, its end from the next span's start,
    /// and gets the live view's spans whole — at arity 2, at arity 3,
    /// and at the clipped arity of a copy-log build, whose spans are
    /// flat trees — after a build and an append whose close of the
    /// build's last span never reached the store.
    #[test]
    fn reopened_spans_are_the_live_views() {
        let events = hgs_datagen::WikiGrowth::sized(2_000).generate();
        let cut = 1_000
            + events[1_000..]
                .iter()
                .position(|e| e.time > events[999].time)
                .unwrap();
        let tree = TgiConfig::default()
            .with_timespan(700)
            .with_eventlist_size(100);
        for cfg in [
            tree,
            TgiConfig { arity: 3, ..tree },
            TgiConfig::copy_log(100).with_timespan(700),
        ] {
            let svc = crate::TgiService::try_build(
                cfg,
                hgs_store::StoreConfig::new(2, 1),
                &events[..cut],
            )
            .unwrap();
            svc.try_append_events(&events[cut..]).unwrap();
            let live = svc.pin();
            let reopened = crate::TgiService::open(live.store().clone()).unwrap().pin();
            let metas = |t: &TgiView| -> Vec<TimespanMeta> {
                t.spans.iter().map(|s| s.meta.clone()).collect()
            };
            let built = metas(&live);
            assert!(built.len() > 2, "{cfg:?}");
            assert_eq!(metas(&reopened), built, "{cfg:?}");
            assert_eq!(built.last().unwrap().range.end, Time::MAX);
            // Trees of 7 leaves are ragged; a copy log's are flat.
            let flat = built.iter().all(|m| m.shape.height() <= 1);
            let ragged = built.iter().any(|m| m.shape.pad > 0);
            let copy_log = cfg.arity > 3;
            assert_eq!((flat, ragged), (copy_log, !copy_log), "{built:?}");
        }
    }

    /// `Graph/meta` spells the epoch it publishes, last: a row of three
    /// varints, as written before it did, is refused, and so is epoch
    /// 0, which no commit publishes.
    #[test]
    fn a_graph_meta_without_an_epoch_is_refused() {
        let meta = encode_graph_meta(2, 50, 40, 3);
        assert_eq!(decode_graph_meta(&meta), Ok((2, 50, 40, 3)));
        assert!(matches!(
            decode_graph_meta(&meta[..3]),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(
            decode_graph_meta(&encode_graph_meta(2, 50, 40, 0)),
            Err(CodecError::BadRef {
                what: "epoch",
                id: 0
            })
        );
    }

    #[test]
    fn open_on_empty_store_is_not_found() {
        let store = Arc::new(SimStore::new(hgs_store::StoreConfig::new(1, 1)));
        assert!(matches!(
            crate::TgiService::open(store),
            Err(OpenError::NotFound)
        ));
    }
}
