//! The one independent oracle of the `hgs-core` suites: brute-force
//! replay of the event history. An index answer must equal replay of
//! the history it was built from — however it was built (any encode
//! width, one build or build plus appends) and however it is read.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use hgs_core::{KhopStrategy, TgiConfig, TgiService, TgiView, TimespanMeta, ELIST_BASE};
use hgs_datagen::{SkewedLabels, WikiGrowth};
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{normalize_events, AttrValue, Delta, Event, EventKind, NodeId, Time, TimeRange};
use hgs_store::{DeltaKey, PutRow, SimStore, StoreConfig, Table};

/// A generator case of the prop suites: `events` with a busy hub.
/// After every event node 0 gains an edge (its weight cycling, so an
/// entry can come back with another value), and now and then loses
/// one — its description differs between any two checkpoints, in every
/// chunk of every span, so under the component-granular intersection
/// tree its pieces sit on every row of every root-to-leaf path.
pub(crate) fn with_busy_hub(events: Vec<Event>) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len() * 2);
    for (i, e) in events.into_iter().enumerate() {
        let (time, i) = (e.time, i as u64);
        out.push(e);
        let dst = 1 + (i * 7) % 39;
        let kind = if i % 5 == 4 {
            EventKind::RemoveEdge { src: 0, dst }
        } else {
            EventKind::AddEdge {
                src: 0,
                dst,
                weight: 1.0 + (i % 3) as f32,
                directed: false,
            }
        };
        out.push(Event::new(time, kind));
    }
    out
}

pub(crate) fn touches(e: &Event, id: NodeId) -> bool {
    let (a, b) = e.kind.touched();
    a == id || b == Some(id)
}

/// Reference node history: the events of `normalized` touching `nid`
/// strictly inside `range`, in trace order. The index stores the
/// *normalized* stream (`normalize_events`: `RemoveNode` expanded into
/// explicit `RemoveEdge` events) and histories are stated over it.
pub(crate) fn node_events_by_replay(
    normalized: &[Event],
    nid: NodeId,
    range: TimeRange,
) -> Vec<Event> {
    normalized
        .iter()
        .filter(|e| touches(e, nid) && e.time > range.start && e.time < range.end)
        .cloned()
        .collect()
}

/// The span descriptors an index persisted, in `tsid` order, each
/// read under its key's `tsid` and closed where the next one opens.
pub(crate) fn span_metas(tgi: &TgiView) -> Vec<TimespanMeta> {
    let cfg = tgi.config();
    let rows: BTreeMap<Vec<u8>, Bytes> = tgi
        .store()
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Timespans.tag())
        .collect();
    let mut metas: Vec<TimespanMeta> = Vec::new();
    for (key, row) in rows {
        let tsid = u32::from_be_bytes(key[1..].try_into().unwrap());
        let meta = TimespanMeta::decode(&row, tsid, cfg.horizontal_partitions, cfg.arity).unwrap();
        if let Some(prev) = metas.last_mut() {
            prev.close_at(meta.range.start).unwrap();
        }
        metas.push(meta);
    }
    metas
}

/// The `(tsid, chunk)` whose `[c_j, c_{j+1})` holds time `t`, from the
/// spans' checkpoints alone (a span's last chunk runs to its range's
/// end).
pub(crate) fn chunk_of(metas: &[TimespanMeta], t: Time) -> (u32, u32) {
    let meta = metas
        .iter()
        .find(|m| m.range.contains(t))
        .expect("the spans cover every event time");
    (meta.tsid, meta.leaf_for_time(t) as u32)
}

/// Reference version chain, as `(tsid, chunk)` pairs in order: the
/// eventlist chunks holding an event of `normalized` touching `nid`.
pub(crate) fn chain_by_replay(
    normalized: &[Event],
    nid: NodeId,
    metas: &[TimespanMeta],
) -> Vec<(u32, u32)> {
    let chunks: BTreeSet<(u32, u32)> = normalized
        .iter()
        .filter(|e| touches(e, nid))
        .map(|e| chunk_of(metas, e.time))
        .collect();
    chunks.into_iter().collect()
}

/// A node's version chain as the `(tsid, chunk)` pairs its rows store.
pub(crate) fn chain_chunks(tgi: &TgiView, nid: NodeId) -> Vec<(u32, u32)> {
    let chain = tgi.try_version_chain(nid).unwrap();
    chain.into_iter().map(|e| (e.tsid, e.chunk)).collect()
}

/// Reference attribute predicate: the node-ids of the replayed state
/// at `t` whose attribute `key` equals `value`, sorted.
pub(crate) fn nodes_matching_by_replay(
    events: &[Event],
    key: &str,
    value: &AttrValue,
    t: Time,
) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = Delta::snapshot_by_replay(events, t)
        .iter()
        .filter(|n| n.attrs.get(key) == Some(value))
        .map(|n| n.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Reference attribute history (the rule of
/// `benchmark/src/oracle.rs::attr_points`): every `SetNodeAttr` of
/// `key` on `nid` is a point — time 0 and re-sets of the same value
/// included — and a removal of the attribute or of the node is a
/// `None` point only while the key is present.
pub(crate) fn attr_history_by_replay(
    events: &[Event],
    nid: NodeId,
    key: &str,
) -> Vec<(Time, Option<AttrValue>)> {
    let mut out = Vec::new();
    let mut present = false;
    for e in events {
        match &e.kind {
            EventKind::SetNodeAttr { id, key: k, value } if *id == nid && k == key => {
                out.push((e.time, Some(value.clone())));
                present = true;
            }
            EventKind::RemoveNodeAttr { id, key: k } if *id == nid && k == key && present => {
                out.push((e.time, None));
                present = false;
            }
            EventKind::RemoveNode { id } if *id == nid && present => {
                out.push((e.time, None));
                present = false;
            }
            _ => {}
        }
    }
    out
}

/// `WikiGrowth`'s 20 000-event trace: the benchmark's `wiki100k`
/// shape, scaled down.
pub(crate) fn wiki20k() -> Vec<Event> {
    WikiGrowth::sized(20_000).generate()
}

/// The benchmark's labelled `skew106k` shape, scaled down.
pub(crate) fn skew21k() -> Vec<Event> {
    SkewedLabels {
        nodes: 1_600,
        edge_events: 12_000,
        attr_churn: 6_000,
        ..SkewedLabels::default()
    }
    .generate()
}

/// The first cut at or past `at` where the time rises: an append from
/// there starts past the end of what was built before it.
pub(crate) fn align(events: &[Event], mut at: usize) -> usize {
    while at > 0 && at < events.len() && events[at].time <= events[at - 1].time {
        at += 1;
    }
    at
}

/// Build `events` under `cfg` on four machines — in one go when
/// `batch` is `None`, else 40 % of them and then appends of `batch`
/// events, every cut moved forward to a time boundary.
pub(crate) fn build_in_batches(
    events: &[Event],
    cfg: TgiConfig,
    batch: Option<usize>,
) -> Arc<TgiService> {
    let built = batch.map_or(events.len(), |_| align(events, events.len() * 2 / 5));
    let svc = TgiService::try_build(cfg, StoreConfig::new(4, 1), &events[..built]).unwrap();
    let mut at = built;
    while let Some(batch) = batch.filter(|_| at < events.len()) {
        let next = align(events, (at + batch).min(events.len()));
        svc.try_append_events(&events[at..next]).unwrap();
        at = next;
    }
    svc
}

/// Reference k-hop: breadth-first over the replayed state.
pub(crate) fn khop_by_replay(state: &Delta, center: NodeId, k: usize) -> Delta {
    let mut seen = BTreeSet::new();
    if state.contains(center) {
        seen.insert(center);
    }
    let mut frontier: Vec<NodeId> = seen.iter().copied().collect();
    for _ in 0..k {
        let nbrs: Vec<NodeId> = frontier
            .iter()
            .filter_map(|&id| state.node(id))
            .flat_map(|n| n.all_neighbors())
            .collect();
        frontier = nbrs.into_iter().filter(|&n| seen.insert(n)).collect();
    }
    state.restrict(|id| seen.contains(&id))
}

/// Every query primitive against replay of `events`: snapshots at
/// every client width, at the history's edges and at every distinct
/// event time — so every checkpoint and every eventlist prefix is
/// read back (strided down to ~300 times on the longer generated
/// traces) — and per node the static-vertex fetch, the full history,
/// the version chain and both k-hop strategies.
pub(crate) fn assert_answers_equal_replay(tgi: &TgiView, events: &[Event]) {
    let end = events.last().map(|e| e.time).unwrap_or(0);
    let event_times: BTreeSet<Time> = events.iter().map(|e| e.time).collect();
    let stride = event_times.len().div_ceil(300).max(1);
    let mut times: BTreeSet<Time> = event_times.into_iter().step_by(stride).collect();
    times.extend([0, end / 3, end / 2, end, end + 1]);
    let views = [1usize, 2, 4].map(|c| tgi.with_clients(c));
    for t in times {
        let want = Delta::snapshot_by_replay(events, t);
        for view in &views {
            assert_eq!(
                view.try_snapshot(t).unwrap(),
                want,
                "snapshot mismatch at t={t} c={}",
                view.clients()
            );
        }
    }
    let normalized = normalize_events(events);
    let metas = span_metas(tgi);
    let mid = Delta::snapshot_by_replay(events, end / 2);
    let range = TimeRange::new(0, end + 1);
    let initial = Delta::snapshot_by_replay(events, range.start);
    for nid in 0..8u64 {
        assert_eq!(
            tgi.try_node_at(nid, end / 2).unwrap().as_ref(),
            mid.node(nid),
            "node_at mismatch for nid={nid}"
        );
        let h = tgi.try_node_history(nid, range).unwrap();
        assert_eq!(
            h.initial.as_ref(),
            initial.node(nid),
            "initial of nid={nid}"
        );
        assert_eq!(
            h.events,
            node_events_by_replay(&normalized, nid, range),
            "node_history mismatch for nid={nid}"
        );
        // A chain is exactly the chunks holding the node's events, in
        // order: no chunk missed, none named twice, none without one.
        assert_eq!(
            chain_chunks(tgi, nid),
            chain_by_replay(&normalized, nid, &metas),
            "version_chain of nid={nid}"
        );
        for strategy in [KhopStrategy::ViaSnapshot, KhopStrategy::Recursive] {
            assert_eq!(
                tgi.try_khop_with(nid, end / 2, 2, strategy).unwrap(),
                khop_by_replay(&mid, nid, 2),
                "khop mismatch for nid={nid} strategy={strategy:?}"
            );
        }
    }
}

/// Index of the weights segment among an eventlist row's eight.
pub(crate) const ELIST_SEG_WEIGHTS: usize = 4;

/// Index of the row's own attribute dictionary among an eventlist
/// row's eight segments.
pub(crate) const ELIST_SEG_ATTR_DICT: usize = 5;

/// Index of the id column among a delta row's five segments.
pub(crate) const DELTA_SEG_NODE_IDS: usize = 0;

/// Index of the restart column among a delta row's five segments.
pub(crate) const DELTA_SEG_RESTARTS: usize = 1;

/// Index of the row's own pair dictionary among a delta row's five
/// segments.
pub(crate) const DELTA_SEG_PAIR_DICT: usize = 2;

/// Index of the counts column — every record's head — among a delta
/// row's five segments.
pub(crate) const DELTA_SEG_COUNTS: usize = 3;

/// Index of the record segment among a delta row's five segments.
pub(crate) const DELTA_SEG_RECORDS: usize = 4;

/// Index of the removal segment, the sixth of a residual row (magic
/// `0xCD`): a root stored against its base's root that takes something
/// out of it.
pub(crate) const DELTA_SEG_REMOVALS: usize = 5;

/// A stored columnar row taken apart as its header lays it out (see
/// `hgs_delta::columnar`), what a test needs to look inside a row or to
/// put one back together with a segment swapped: magic, record count,
/// then every segment's bytes — the magic says how many segments there
/// are, a presence bitmap which of them are spelled, and every spelled
/// one but the last has a length varint.
pub(crate) struct RowSegments {
    pub magic: u8,
    pub count: u64,
    pub segs: Vec<Vec<u8>>,
}

/// Segments of a delta row (magic `0xCB`), of an eventlist row (magic
/// `0xCC`) and of a residual row (magic `0xCD`).
fn segment_count(magic: u8) -> usize {
    match magic {
        0xCB => 5,
        0xCC => 8,
        0xCD => 6,
        _ => panic!("no row has magic {magic:#x}"),
    }
}

impl RowSegments {
    pub(crate) fn parse(row: &[u8]) -> RowSegments {
        let (magic, mut b) = (row[0], &row[1..]);
        let count = get_varint(&mut b).unwrap();
        let (present, rest) = b.split_first().unwrap();
        b = rest;
        let n = segment_count(magic);
        assert_eq!(
            u32::from(*present) >> n,
            0,
            "presence bits past the row's segments"
        );
        let last = (0..n).rev().find(|i| present & 1 << i != 0);
        let lens: Vec<usize> = (0..n)
            .map(|i| match present & 1 << i {
                0 => 0,
                _ if Some(i) == last => usize::MAX,
                _ => get_varint(&mut b).unwrap() as usize,
            })
            .collect();
        let mut segs = Vec::new();
        for len in lens {
            let (seg, rest) = b.split_at(len.min(b.len()));
            segs.push(seg.to_vec());
            b = rest;
        }
        assert!(b.is_empty(), "segments cover the row");
        RowSegments { magic, count, segs }
    }

    pub(crate) fn assemble(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u8(self.magic);
        put_varint(&mut out, self.count);
        let present = (self.segs.iter().enumerate())
            .fold(0u8, |bits, (i, s)| bits | u8::from(!s.is_empty()) << i);
        out.put_u8(present);
        let last = self.segs.iter().rposition(|s| !s.is_empty()).unwrap_or(0);
        for seg in self.segs[..last].iter().filter(|s| !s.is_empty()) {
            put_varint(&mut out, seg.len() as u64);
        }
        for seg in &self.segs {
            out.put_slice(seg);
        }
        out.freeze()
    }
}

/// Every stored eventlist row, keyed as the `Deltas` table keys it.
pub(crate) fn stored_eventlist_rows(store: &SimStore) -> Vec<(DeltaKey, Bytes)> {
    let mut rows: Vec<(DeltaKey, Bytes)> = store
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Deltas.tag())
        .filter_map(|(k, v)| Some((DeltaKey::decode(&k[1..])?, v)))
        .filter(|(k, _)| k.did >= ELIST_BASE && k.did < hgs_core::AUX_BASE)
        .collect();
    rows.sort_by_key(|(k, _)| *k);
    rows.dedup_by_key(|(k, _)| *k);
    rows
}

/// Write `value` under `key` on every machine, so that whichever
/// replica a read lands on serves it.
pub(crate) fn put_everywhere(store: &SimStore, table: Table, key: &[u8], value: Bytes) {
    let rows = (0..store.machine_count() as u64)
        .map(|token| PutRow::new(table, key.to_vec(), token, value.clone()))
        .collect();
    store.try_put_batch(rows).expect("healthy store");
}
