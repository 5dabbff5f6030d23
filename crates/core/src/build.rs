//! TGI construction — the paper's Index Manager (§4.4 *Construction
//! and Update*).
//!
//! Construction proceeds a timespan at a time:
//!
//! 1. the span's events are chunked every `l` events (timestamp
//!    groups never split), defining checkpoint times `c_0..c_{q-1}`;
//! 2. a partition map per horizontal partition is computed (hash for
//!    [`PartitionStrategy::Random`]; LDG+KL over the Ω-collapsed span
//!    graph for [`PartitionStrategy::Locality`]), and the span's pair
//!    table — every attribute pair its rows can name — is collected in
//!    one pass over the pre-span tail state and the span's events;
//!    every row below is encoded against it
//!    ([`hgs_delta::columnar`]), and the span's `Timespans` row
//!    stores it;
//! 3. the span is replayed once per horizontal partition: at each
//!    checkpoint the per-`sid` partitioned snapshot (leaf) is pushed
//!    into a progressive intersection-tree builder which stores the
//!    root — in full at a block head and at span 1, else as a signed
//!    residual against its base's root (§ *Residual roots* below) — and
//!    every `child − parent` derived delta, micro-partitioned by `pid`
//!    (§ *Intersection tree* below);
//! 4. each chunk's events are scoped per `sid`, sub-partitioned per
//!    `pid`, and stored as partitioned eventlists; the same walk of the
//!    chunk replays it and yields the version-chain rows and the
//!    secondary-index term points (`attr_index.rs`) of the nodes the
//!    `sid` owns;
//! 5. under locality+replication, auxiliary 1-hop boundary deltas are
//!    stored per (leaf, `sid`, `pid`).
//!
//! Updates append in batches ([`TgiService::try_append_events`]), equivalent to the
//! paper's "create an independent TGI with the new events and merge":
//! new timespans continue the id sequence and version chains gain one
//! row per new span, and no stored row is rewritten but `Graph/meta`.
//! The previous last span's open time range is closed in the published
//! view only: a `Timespans` row spells no end, a reader takes it from
//! the next span's first checkpoint.
//!
//! ## Intersection tree
//!
//! The tree's two operators work on **components**, not on whole node
//! descriptions ([`hgs_delta::delta`]): a component is one edge-list
//! entry (keyed `(nid, nbr, dir)`, compared with its weight and
//! attributes), one attribute pair `(nid, key)`, or the bare existence
//! of `nid`. A parent holds the nodes present in every child, each
//! with exactly the entries and pairs identical in every child; a
//! child's stored delta holds the full record of a node its parent
//! lacks, else only the entries and pairs the parent's record lacks,
//! and no record at all when that is nothing. So a leaf is the **net
//! presence** of its components along its tree path — its base roots
//! (below) first, then its own span's root-to-leaf rows: below the
//! root, a component is stored on exactly one row of the path, the
//! highest tree node all of whose leaves agree on it, and a residual
//! root adds what its base's root lacks and removes what the base
//! holds and it does not. A hub that gains one edge per checkpoint
//! pays a few entries per new edge (below), not its whole edge-list
//! per leaf. The record grammar is unchanged (a stored piece is an
//! ordinary record with a shorter edge-list), and readers rebuild a
//! leaf with the component-wise path sum
//! ([`hgs_delta::ColumnarDelta::sum_into`]) over the one tree path
//! ([`TimespanMeta`]'s `tree_path`), which treats a repeated component,
//! or the removal of one the sum lacks, as corruption.
//!
//! ## Residual roots
//!
//! Every span's tree stores a root, and the root re-states the part of
//! the graph common to the whole span — which, at small appends, is
//! nearly all of it, span after span. So the spans of a horizontal
//! partition are grouped in **blocks** of [`hgs_store::SPAN_BLOCK`]
//! (32): a block head stores its root in full, and every other span's
//! root is a signed residual ([`hgs_delta::Residual`]) against the root
//! of its Fenwick base, the span less the lowest set bit of its index
//! in the block — which is itself stored against its own base, so a
//! root sums at most five base roots, all of its block
//! (`meta.rs::root_bases`). No base is span 0, whose root is the empty
//! graph's (its first checkpoint is the state before any event): span
//! 1 stores its root in full, and block 0's later spans name span 1
//! wherever their Fenwick chains name span 0, so spans 2, 4, 8 and 16
//! store residuals too. A block's spans share one placement
//! ([`hgs_store::PlacementKey::of_span`]), so the base roots travel in
//! the round trip that already carries a span's path. The encoder
//! items get each `sid`'s base root in full and hand back their own;
//! the writer keeps only the roots a later span of the block still
//! names (at most five per `sid`), and a re-opened writer sums them
//! back from the store.
//!
//! Each tree is laid out **from the right** ([`TreeShape`]): its leaves
//! are the last `q` positions of a complete `arity`-ary tree, so the
//! ragged group of a level is its first. Across the tree a component is
//! stored once on every node of the canonical cover of the leaves it
//! lives through, and in a mostly growing history those leaves are a
//! suffix `[s, q)`: one node per nonzero base-`arity` digit of `q − s`
//! (`popcount(q − s)` at arity 2, 2.56 copies on average over a full
//! span's 40 leaves, where a tree grouped from the left stores 3.18 —
//! it adds a node under every ragged right edge). The mirror has a
//! price: the late leaves, which a left-grouped tree reached through
//! lone-child levels whose rows are empty, sit under full groups, so
//! their paths cross more nonempty rows. On a growing span the layout
//! swaps rows per path for copies per component and their sum stays the
//! same; reads fetch the same bytes in the same round trips, over more
//! rows, and the index, the bytes every build writes and every read
//! across several leaves shrink. Nothing selects the layout: it is the
//! shape's, and the descriptor's layout tag names it.
//!
//! ## Write path
//!
//! There is one: every span is encoded as **one work item per
//! horizontal partition** on
//! [`hgs_store::parallel_steal`] and every row reaches the
//! store through [`SimStore::try_put_batch`]. Each item replays the
//! span scoped to its `sid` (full-state replay when aux boundary
//! replication needs other partitions' node records), builds its own
//! intersection tree, and walks each chunk once — bucketing its
//! eventlists, extending the chains of its own nodes and applying the
//! events that name one (every event, under replication) — then
//! encodes the chain rows and the term points of its own nodes. A
//! batch reaches the encoder normalized (`RemoveNode`s expanded by one
//! replay of the batch on the tail state), which is what lets a scoped
//! item skip the events that name none of its nodes; outputs merge in
//! deterministic order — rows by `sid`, then chain rows by `sid`, then
//! term rows by term — into a [`WriteBuffer`] that flushes **one round
//! trip per machine** every `WRITE_BATCH_ROWS` rows and at the span's
//! end.
//! The descriptor rows that make a span reachable follow as batches of
//! their own — each span's `Timespans` row, then one `Graph/meta` row
//! per append (with `Graph/config` beside it in the index's first) —
//! so they retry, back off and classify [`StoreError::Transient`] vs
//! [`StoreError::Unavailable`] like every other row.
//!
//! The writer's **encode width** is its own number, not the read-side
//! client width: by default the items fan out over
//! `min(available_parallelism, ns)` workers while reads stay at one
//! client; an explicit width ([`TgiService::try_build_on`]) sets both,
//! and at width 1 the items run inline, one after the other. Every
//! width is property-tested to produce byte-for-byte identical stores.
//!
//! [`TgiService::try_append_events`]: crate::service::TgiService::try_append_events
//! [`TgiService::try_build_on`]: crate::service::TgiService::try_build_on

use std::sync::Arc;

use hgs_delta::columnar::{
    encode_columnar_delta_in, encode_columnar_eventlist_in, encode_columnar_residual_in,
};
use hgs_delta::{
    CodecError, Delta, Event, EventKind, Eventlist, FxHashMap, NodeId, PairTable, Removal,
    Residual, Time, TimeRange,
};
use hgs_partition::{cut_events, locality_partition, CollapsedGraph, PartitionMap};
use hgs_store::{
    chain_key, node_placement_token, parallel_steal, term_key, term_token, DeltaKey, PlacementKey,
    PutRow, SimStore, StoreError, Table, WriteBuffer,
};

use crate::attr_index::{span_term_rows, Held, SpanTermPoints};
use crate::config::{PartitionStrategy, TgiConfig};
use crate::meta::{
    encode_chain, root_bases, roots_named_after, sid_of, ChainEntry, TimespanMeta, TreeShape,
    AUX_BASE, ELIST_BASE,
};
use crate::persist::{encode_config, encode_graph_meta, encode_partition_map};

/// Runtime state of one built timespan. Once pushed into a
/// [`TgiView`] the runtime is *sealed*: published views share it by
/// `Arc` and never mutate it (closing a span's open time range swaps
/// in a fresh `Arc`, leaving older views on the old one).
pub(crate) struct SpanRuntime {
    pub meta: TimespanMeta,
    /// Partition map per horizontal partition (shared between the
    /// open-ended and the closed incarnation of the same span).
    pub maps: Arc<Vec<PartitionMap>>,
}

impl SpanRuntime {
    /// Where this span keeps `nid`, as `(sid, pid)`: its horizontal
    /// partition — the span holds one map per `sid`, so the hash is
    /// taken over the very vector it indexes — and the micro-partition
    /// that map assigns. The build buckets a node's records and events
    /// by this rule, so it is what every node-scoped read derives — a
    /// chain entry's `pid` included, which is why no row stores one.
    pub(crate) fn placement(&self, nid: NodeId) -> (u32, u32) {
        let sid = sid_of(nid, self.maps.len() as u32);
        (sid, self.maps[sid as usize].assign(nid))
    }

    /// The partition map of horizontal partition `sid`; `None` when the
    /// span has no such partition — `sid` holds no node, and a read of
    /// it answers empty.
    pub(crate) fn map(&self, sid: u32) -> Option<&PartitionMap> {
        self.maps.get(sid as usize)
    }
}

/// An immutable, cheaply-clonable snapshot of the index's sealed
/// read state: configuration, store handle, per-span metadata and
/// partition maps, and the summary counters the query planner needs.
///
/// Every read path lives on `TgiView`, the one read handle. A clone
/// shares the spans, the store and the read cache by `Arc` — this is
/// what [`TgiService`](crate::TgiService) publishes as the
/// watermark: readers pin one clone and keep answering from that
/// sealed prefix no matter what the writer does behind them.
#[derive(Clone)]
pub struct TgiView {
    pub(crate) cfg: TgiConfig,
    pub(crate) store: Arc<SimStore>,
    pub(crate) spans: Vec<Arc<SpanRuntime>>,
    pub(crate) end_time: Time,
    pub(crate) event_count: usize,
    /// Node/edge cardinality of the tail state at publication time
    /// (the query planner's k-hop strategy needs graph-shape summary
    /// numbers without holding the writer's mutable tail state).
    pub(crate) node_count: usize,
    pub(crate) edge_count: usize,
    pub(crate) clients: usize,
    /// Session-wide byte-budgeted sharded LRU read cache shared by
    /// every query path *and every published view* (index rows are
    /// write-once, so entries never go stale across watermarks); see
    /// [`crate::read_cache`].
    pub(crate) read_cache: Arc<crate::read_cache::ReadCache>,
    /// Monotonic publication counter: bumped once per successful
    /// append, and spelled by the `Graph/meta` that commits it, so a
    /// re-open continues it. [`TgiService`](crate::TgiService) uses it
    /// as the watermark readers pin.
    pub(crate) epoch: u64,
}

/// The writer behind a [`TgiService`](crate::TgiService).
///
/// Owns the current sealed read state (a [`TgiView`]) plus the
/// writer-only append state: the running tail used to normalize and
/// replay further batches, and the poison flag.
pub(crate) struct Writer {
    pub(crate) view: TgiView,
    pub(crate) tail_state: Delta,
    /// The roots, in full and per `sid`, that a later span of the
    /// current block still stores its root against
    /// ([`roots_named_after`] the last span), ascending by `tsid`.
    pub(crate) roots: Vec<(u32, Vec<Delta>)>,
    /// Worker count of the write path's per-`sid` span encode. The
    /// host's parallelism unless an explicit width was given
    /// (`TgiService::try_build_on`), in which case it equals the
    /// view's read-side `clients`.
    pub(crate) encode_width: usize,
    /// Set when an append failed partway (see
    /// [`Writer::try_append_events`]); further appends are refused.
    pub(crate) poisoned: bool,
}

/// Errors from the fallible build path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A store write reached zero replicas.
    Store(StoreError),
    /// A previous `try_append_events` failed partway: some of that
    /// batch's rows and span-metadata updates are persisted and the
    /// in-memory tail state has advanced, so retrying the batch on
    /// this writer would double-apply events. Once the cluster is
    /// healthy, [`TgiService::try_recover`](crate::TgiService::try_recover)
    /// re-opens the writer from the store in place.
    Poisoned,
    /// The batch breaks the caller contract: the event at `time`
    /// precedes `floor` — the previous event of the batch, or the end
    /// of the indexed history. Detected before anything is written or
    /// advanced, so the writer is **not** poisoned: fix the batch and
    /// append again.
    OutOfOrder { time: Time, floor: Time },
    /// The configuration breaks the caller contract: construction
    /// parameter `field` holds `value`, outside its bounds (the query
    /// paths divide by these numbers; `secondary_indexes` is never
    /// `false`). Detected before anything is written.
    BadConfig { field: &'static str, value: u64 },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Store(e) => write!(f, "index write failed: {e}"),
            BuildError::Poisoned => write!(
                f,
                "index writer poisoned by an earlier failed append; recover it once the cluster heals"
            ),
            BuildError::OutOfOrder { time, floor } => write!(
                f,
                "batch rejected, nothing written: event at time {time} precedes {floor} \
                 (batches must be chronologically sorted and start at or after the index end)"
            ),
            BuildError::BadConfig { field, value } => write!(
                f,
                "configuration rejected, nothing written: {field} = {value} is out of bounds"
            ),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Store(e) => Some(e),
            BuildError::Poisoned | BuildError::OutOfOrder { .. } | BuildError::BadConfig { .. } => {
                None
            }
        }
    }
}

impl From<StoreError> for BuildError {
    fn from(e: StoreError) -> BuildError {
        BuildError::Store(e)
    }
}

impl Writer {
    /// Build an index over `events` (chronologically sorted) on
    /// `store`, encoding spans on `encode_width` workers and reading at
    /// `clients`. Every built index starts at the default read-cache
    /// budget; the store keeps whatever retry policy it has. A
    /// configuration out of its bounds is refused with
    /// [`BuildError::BadConfig`] before any row is written.
    pub(crate) fn try_build(
        cfg: TgiConfig,
        store: Arc<SimStore>,
        events: &[Event],
        clients: usize,
        encode_width: usize,
    ) -> Result<Writer, BuildError> {
        if let Some((field, value)) = cfg.out_of_bounds() {
            return Err(BuildError::BadConfig { field, value });
        }
        let mut writer = Writer {
            view: TgiView {
                cfg,
                store,
                spans: Vec::new(),
                end_time: 0,
                event_count: 0,
                node_count: 0,
                edge_count: 0,
                clients,
                read_cache: Arc::new(crate::read_cache::ReadCache::with_shards(
                    crate::config::DEFAULT_READ_CACHE_BYTES,
                    crate::read_cache::DEFAULT_READ_CACHE_SHARDS,
                )),
                epoch: 0,
            },
            tail_state: Delta::new(),
            roots: Vec::new(),
            encode_width,
            poisoned: false,
        };
        writer.try_append_events(events)?;
        Ok(writer)
    }

    /// Append a batch of events (the contract is
    /// `TgiService::try_append_events`'s). An out-of-order batch is
    /// refused with [`BuildError::OutOfOrder`] before anything is
    /// written; any other error leaves the writer poisoned, because
    /// some of the batch's rows may be persisted and the tail state may
    /// have advanced. Normalization needs the edges *entering* the
    /// batch, so it runs against the tail state.
    pub(crate) fn try_append_events(&mut self, events: &[Event]) -> Result<(), BuildError> {
        if self.poisoned {
            return Err(BuildError::Poisoned);
        }
        let events = &hgs_delta::normalize_events_from(&self.tail_state, events)[..];
        if events.is_empty() {
            if self.view.spans.is_empty() {
                // An index over an empty history still answers queries
                // (with empty results): materialize one empty span.
                self.poisoned = true;
                self.build_span(&[], TimeRange::new(0, Time::MAX))?;
                self.commit()?;
                self.poisoned = false;
            }
            return Ok(());
        }
        // Caller contract: time never runs backwards, within the batch
        // or against the indexed history. Refused before anything is
        // written, so the writer stays usable.
        let mut floor = self.view.end_time;
        for e in events {
            if e.time < floor {
                return Err(BuildError::OutOfOrder {
                    time: e.time,
                    floor,
                });
            }
            floor = e.time;
        }

        // Everything past this point mutates persisted and in-memory
        // state; stay poisoned unless the whole batch lands.
        self.poisoned = true;
        // Close the previous open-ended span at the batch start, in the
        // view only: its stored row spells no end, the next span's
        // `c_0` is it. The closed incarnation is a *fresh* `Arc`
        // (sharing the maps): views published before this append keep
        // the open-ended span runtime and stay byte-identical at their
        // pinned watermark.
        let mut start = 0;
        if let (Some(last), Some(first)) = (self.view.spans.last_mut(), events.first()) {
            start = last.meta.range.start.max(first.time);
            let mut meta = last.meta.clone();
            meta.range.end = start;
            *last = Arc::new(SpanRuntime {
                meta,
                maps: Arc::clone(&last.maps),
            });
        }

        for (span, range) in cut_events(events, self.view.cfg.events_per_timespan, start) {
            self.build_span(span, range)?;
        }
        self.view.end_time = events
            .last()
            .map(|e| e.time + 1)
            .unwrap_or(self.view.end_time);
        self.view.event_count += events.len();
        self.commit()?;
        self.view.node_count = self.tail_state.cardinality();
        self.view.edge_count = self.tail_state.edge_count();
        self.poisoned = false;
        Ok(())
    }

    // ------------------------------------------------------------------
    // span construction
    // ------------------------------------------------------------------

    fn build_span(&mut self, events: &[Event], range: TimeRange) -> Result<(), StoreError> {
        let store = Arc::clone(&self.view.store);
        let mut buf = WriteBuffer::new(&store, WRITE_BATCH_ROWS);
        let result = self.build_span_buffered(events, range, &mut buf);
        if result.is_err() {
            // The build already failed; pending rows would only trip
            // the buffer's lost-write drop guard.
            buf.abandon();
        }
        result
    }

    fn build_span_buffered(
        &mut self,
        events: &[Event],
        range: TimeRange,
        buf: &mut WriteBuffer<'_>,
    ) -> Result<(), StoreError> {
        let cfg = self.view.cfg;
        let tsid = self.view.spans.len() as u32;
        let ns = cfg.horizontal_partitions;

        // 1. Chunk the span's events every `l`, snapping timestamp
        // groups; checkpoint c_j = state before chunk j.
        let (mut checkpoints, chunks): (Vec<Time>, Vec<&[Event]>) =
            cut_events(events, cfg.eventlist_size, range.start)
                .map(|(chunk, r)| (r.start, chunk))
                .unzip();
        if checkpoints.is_empty() {
            checkpoints.push(range.start);
        }
        let q = checkpoints.len();
        let shape = TreeShape::new(q, cfg.arity);

        // 2. Partition maps per sid.
        let maps = self.compute_maps(events, range, ns);
        let pid_counts: Vec<u32> = maps.iter().map(|m| m.parts()).collect();
        // The span's pair table, before any row is encoded against it.
        let pairs = Arc::new(span_pair_table(&self.tail_state, events));

        // The roots this span's root is stored against: those of its
        // root bases, the last of which it names directly.
        let bases = root_bases(tsid);
        let mut roots = std::mem::take(&mut self.roots);
        roots.retain(|(t, _)| bases.contains(t));
        let base_roots = match (bases.last(), roots.last()) {
            (None, _) => None,
            (Some(base), Some((t, kept))) if t == base => Some(&kept[..]),
            (Some(&base), _) => {
                return Err(StoreError::Corrupt(CodecError::BadRef {
                    what: "base root",
                    id: u64::from(base),
                }))
            }
        };

        // 3-5. Replay the span, emitting leaves / eventlists / aux /
        // version chains / term rows.
        let span = SpanInput {
            chunks: &chunks,
            start: range.start,
            shape: &shape,
            maps: &maps,
            pairs: &pairs,
            base_roots,
            tsid,
            cfg,
        };
        let own_roots = self.encode_span(&span, buf)?;
        roots.push((tsid, own_roots));
        let named = roots_named_after(tsid);
        roots.retain(|(t, _)| named.contains(t));
        self.roots = roots;

        // Persist locality partition maps for reconstructability.
        if matches!(cfg.strategy, PartitionStrategy::Locality { .. }) {
            for (sid, map) in maps.iter().enumerate() {
                let blob = encode_partition_map(map);
                let key = mp_key(tsid, sid as u32);
                buf.push(
                    Table::Micropartitions,
                    key.to_vec(),
                    PlacementKey::of_span(tsid, sid as u32).token(),
                    blob,
                )?;
            }
        }

        // Ship the span's remaining rows before the metadata row that
        // makes them reachable.
        buf.flush()?;

        // Then that row, as a batch of one: retried, backed off and
        // classified like every other write.
        let meta = TimespanMeta {
            tsid,
            range,
            checkpoints,
            shape,
            pid_counts,
            pairs,
        };
        let key = tsid.to_be_bytes().to_vec();
        let token = hgs_delta::hash_u64(tsid as u64);
        let row = PutRow::new(Table::Timespans, key, token, meta.encode());
        self.view.store.try_put_batch(vec![row])?;
        self.view.spans.push(Arc::new(SpanRuntime {
            meta,
            maps: Arc::new(maps),
        }));
        Ok(())
    }

    /// Encode one span: one work item per horizontal partition on the
    /// work-stealing queue ([`parallel_steal`], fan-out clamped to
    /// `min(encode_width, ns)`, inline at width 1). Each item replays
    /// the span restricted to its own `sid` (or over the full state
    /// when aux boundary replication needs other partitions' node
    /// records) and encodes its own rows; the driver only merges them
    /// in deterministic order: every item's tree, aux and eventlist
    /// rows in `sid` order, then every item's version-chain rows, then
    /// one secondary-index row per term, in term-byte order. Returns
    /// the span's root of each `sid`, in full.
    fn encode_span(
        &mut self,
        span: &SpanInput<'_>,
        buf: &mut WriteBuffer<'_>,
    ) -> Result<Vec<Delta>, StoreError> {
        let ns = span.cfg.horizontal_partitions;
        let replicate = span.cfg.replicates_boundary();
        // Per-item starting state: the sid's own partition for scoped
        // replay, or a full-state clone when aux rows must look up
        // out-of-partition neighbor records. The tail state is moved
        // out: the items' end states are the next one.
        let tail = std::mem::take(&mut self.tail_state);
        let items: Vec<(u32, Delta)> = if replicate {
            (0..ns).map(|sid| (sid, tail.clone())).collect()
        } else {
            partition_state(&tail, ns)
                .into_iter()
                .enumerate()
                .map(|(sid, part)| (sid as u32, part))
                .collect()
        };
        drop(tail);
        let mut outputs: Vec<SidSpanOutput> =
            parallel_steal(items, self.encode_width, |(sid, state)| {
                encode_sid_span(sid, state, span)
            });
        // Each item has already replayed the span: the next tail state
        // is their end states — any one of them when every item
        // replayed the whole graph, else their (disjoint) union. Its
        // iteration order reaches no row: every reader of the tail
        // state sorts what it takes from it.
        self.tail_state = if replicate {
            outputs
                .first_mut()
                .map(|out| std::mem::take(&mut out.state))
                .unwrap_or_default()
        } else {
            let mut tail =
                Delta::with_capacity(outputs.iter().map(|o| o.state.cardinality()).sum());
            for out in &mut outputs {
                tail.sum_assign_owned(std::mem::take(&mut out.state));
            }
            tail
        };
        let mut chain_rows = Vec::with_capacity(outputs.len());
        let mut terms = Vec::with_capacity(outputs.len());
        let mut roots = Vec::with_capacity(outputs.len());
        for out in outputs {
            for row in out.rows {
                buf.push_row(row)?;
            }
            chain_rows.push(out.chain_rows);
            terms.push(out.terms);
            roots.push(out.root);
        }
        for row in chain_rows.into_iter().flatten() {
            buf.push_row(row)?;
        }
        // Secondary temporal indexes: one self-contained change-point
        // row per (term, span), batched with everything else — zero
        // extra round trips per span.
        for (term, blob) in span_term_rows(terms) {
            buf.push(
                Table::AttrIndex,
                term_key(hgs_delta::TERM_KIND_VALUE, &term, span.tsid),
                term_token(hgs_delta::TERM_KIND_VALUE, &term),
                blob,
            )?;
        }
        Ok(roots)
    }

    fn compute_maps(&self, events: &[Event], range: TimeRange, ns: u32) -> Vec<PartitionMap> {
        let ps = self.view.cfg.partition_size;
        match self.view.cfg.strategy {
            PartitionStrategy::Random => {
                // Estimate end-of-span node count to size the pid space.
                let adds = events
                    .iter()
                    .filter(|e| matches!(e.kind, hgs_delta::EventKind::AddNode { .. }))
                    .count();
                let est_total = self.tail_state.cardinality() + adds;
                let per_sid = (est_total as f64 / ns as f64).ceil() as usize;
                let parts = per_sid.div_ceil(ps).max(1) as u32;
                (0..ns).map(|_| PartitionMap::random(parts)).collect()
            }
            PartitionStrategy::Locality { .. } => {
                let collapsed = CollapsedGraph::collapse(&self.tail_state, events, range);
                (0..ns)
                    .map(|sid| {
                        let sub = collapsed.induced(|id| sid_of(id, ns) == sid);
                        let parts = sub.len().div_ceil(ps).max(1) as u32;
                        locality_partition(&sub, parts)
                    })
                    .collect()
            }
        }
    }

    /// Write `Graph/meta`, the commit record of the next epoch, and
    /// move the view to that epoch once it is durable. The first
    /// commit writes `Graph/config` in the same batch; the config
    /// never changes.
    fn commit(&mut self) -> Result<(), StoreError> {
        let view = &self.view;
        let epoch = view.epoch + 1;
        let meta = encode_graph_meta(view.spans.len(), view.end_time, view.event_count, epoch);
        let mut rows = vec![PutRow::new(Table::Graph, b"meta".to_vec(), 0, meta)];
        if view.epoch == 0 {
            let config = encode_config(&view.cfg);
            rows.push(PutRow::new(Table::Graph, b"config".to_vec(), 0, config));
        }
        view.store.try_put_batch(rows)?;
        self.view.epoch = epoch;
        Ok(())
    }
}

impl TgiView {
    // ------------------------------------------------------------------
    // read-side accessors (sealed state only)
    // ------------------------------------------------------------------

    /// Index configuration.
    pub fn config(&self) -> &TgiConfig {
        &self.cfg
    }

    /// Backing store.
    pub fn store(&self) -> &Arc<SimStore> {
        &self.store
    }

    /// Number of built timespans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// One past the last indexed event time.
    pub fn end_time(&self) -> Time {
        self.end_time
    }

    /// Total events indexed.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Total stored bytes (replicas included) — the index-size column
    /// of Table 1.
    pub fn storage_bytes(&self) -> usize {
        self.store.stored_bytes()
    }

    /// The view's client width (inherited from the service that
    /// published it, or set by [`TgiView::with_clients`]).
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// This view at fetch parallelism `c` (taken as-is, never below
    /// one): a cheap clone sharing the spans, the store and the read
    /// cache, so `view.with_clients(4).try_snapshots(&times)` is how
    /// one call runs wider — or, with `1`, narrower inside an outer
    /// fan-out — than the rest of the session.
    pub fn with_clients(&self, c: usize) -> TgiView {
        TgiView {
            clients: c.max(1),
            ..self.clone()
        }
    }

    /// Publication counter of this view: the watermark a pinned
    /// reader is answering at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn span_index_for(&self, t: Time) -> usize {
        let i = self.spans.partition_point(|s| s.meta.range.end <= t);
        i.min(self.spans.len() - 1)
    }

    pub(crate) fn span_for(&self, t: Time) -> &SpanRuntime {
        &self.spans[self.span_index_for(t)]
    }

    /// Span `tsid` of this view — a tree path's base roots name
    /// earlier spans of the one read; one the view lacks names nothing
    /// stored.
    pub(crate) fn span_of(&self, tsid: u32) -> Result<&SpanRuntime, StoreError> {
        self.spans
            .get(tsid as usize)
            .map(|span| &**span)
            .ok_or(StoreError::Corrupt(CodecError::BadRef {
                what: "timespan",
                id: u64::from(tsid),
            }))
    }
}

/// Rows the span write buffer accumulates before it flushes one
/// batched round trip per machine (a span flushes once more at its end
/// regardless). This bounds the buffer's flush cadence, not build
/// memory: the per-`sid` encode stages a whole span's rows before they
/// reach the buffer.
const WRITE_BATCH_ROWS: usize = 8192;

/// The host's available parallelism — the default encode width.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What every per-`sid` work item of one span shares, borrowed from
/// the driver.
struct SpanInput<'a> {
    chunks: &'a [&'a [Event]],
    start: Time,
    shape: &'a TreeShape,
    maps: &'a [PartitionMap],
    pairs: &'a PairTable,
    /// The root of the span's base, in full, per `sid`; `None` for a
    /// block head, which stores its root in full.
    base_roots: Option<&'a [Delta]>,
    tsid: u32,
    cfg: TgiConfig,
}

/// One work item's encoded output: its tree, aux and eventlist rows in
/// deterministic emit order, the version-chain rows and the term points
/// of its own nodes, the state its replay ended in — the sid's share of
/// the next tail state, or the whole of it when the item replayed the
/// full graph — and its tree's root in full.
struct SidSpanOutput {
    rows: Vec<PutRow>,
    chain_rows: Vec<PutRow>,
    terms: SpanTermPoints,
    state: Delta,
    root: Delta,
}

/// Encode one horizontal partition's share of a span: replay the
/// span's events — scoped to the sid's node set, or over the full
/// state when aux replication needs out-of-partition neighbor records
/// — pushing each checkpoint's partitioned snapshot into this sid's
/// intersection tree — its root stored as a residual against the
/// base's root of the `sid`, when the span has a base — and walk each
/// chunk once, bucketing its eventlists as it replays it. The item
/// alone writes the version
/// chains and reads the term points of its own nodes, those `sid_of`
/// puts in its `sid`. Purely in-memory: emitted rows are collected,
/// never written, so work items cannot observe store failures (the
/// driver's buffered flush does).
///
/// A scoped item applies only the events that name one of its own
/// nodes, and skipping the rest is exact: a scoped replay neither
/// creates nor modifies an out-of-scope endpoint, so such an event
/// changes nothing here but for a foreign `RemoveNode`, which scrubs
/// own holders' edges to the removed node. Every batch reaches the
/// encoder normalized ([`hgs_delta::normalize_events_from`]), so those
/// holders have already lost their edges through the explicit
/// `RemoveEdge`s before it, which name them and are applied. A
/// replicating item holds the whole graph and applies every event.
fn encode_sid_span(sid: u32, mut state: Delta, span: &SpanInput<'_>) -> SidSpanOutput {
    let (cfg, tsid, shape, maps, pairs) = (span.cfg, span.tsid, span.shape, span.maps, span.pairs);
    let (ns, replicate) = (cfg.horizontal_partitions, cfg.replicates_boundary());
    let own = |id: NodeId| sid_of(id, ns) == sid;
    let map = &maps[sid as usize];
    let mut rows: Vec<PutRow> = Vec::new();
    let mut chains: FxHashMap<NodeId, Vec<ChainEntry>> = FxHashMap::default();
    let mut terms = SpanTermPoints::default();
    for node in state.iter().filter(|n| own(n.id)) {
        terms.carry(node, span.start);
    }
    let base = span.base_roots.and_then(|roots| roots.get(sid as usize));
    let mut pos = 0u64;
    let mut acc = TreeAccumulator::new(shape.clone());
    for j in 0..shape.leaves {
        let leaf = if replicate {
            // Full-state replay: extract this sid's partition for the
            // leaf and emit its aux boundary rows from the full state.
            emit_aux(sid, j as u64, &state, span, &mut rows);
            state.restrict(own)
        } else {
            state.clone()
        };
        acc.push_leaf(leaf, &mut |level, idx, delta| {
            let did = shape.did(level, idx);
            match base.filter(|_| level == shape.height()) {
                Some(base) => {
                    let res = delta.residual_against(base);
                    emit_tree_row(sid, did, &res.added, res.removed, span, &mut rows);
                }
                None => emit_tree_row(sid, did, delta, Vec::new(), span, &mut rows),
            }
        });
        let Some(&chunk) = span.chunks.get(j) else {
            continue;
        };
        // One walk of the chunk: place each own endpoint once, give
        // its `pid`'s bucket one copy of the event *instance* (raw
        // traces do repeat events; comparing placements, not event
        // values, keeps them) and its chain an entry for the chunk,
        // then replay the event — unless it names no own node.
        let chunk_idx = j as u32;
        let mut buckets: FxHashMap<(u32, u32), Vec<Event>> = FxHashMap::default();
        for ev in chunk {
            let (a, b) = ev.kind.touched();
            let mut placed = None;
            for nid in std::iter::once(a).chain(b.filter(|&b| b != a)) {
                if !own(nid) {
                    continue;
                }
                let pid = map.assign(nid);
                if placed != Some(pid) {
                    buckets.entry((sid, pid)).or_default().push(ev.clone());
                    placed = Some(pid);
                }
                if cfg.version_chains {
                    let chain = chains.entry(nid).or_default();
                    let entry = ChainEntry {
                        tsid,
                        chunk: chunk_idx,
                        pid,
                    };
                    if chain.last() != Some(&entry) {
                        chain.push(entry);
                    }
                }
            }
            if replicate || placed.is_some() {
                let held = own(a).then(|| Held::before(&ev.kind, &state)).flatten();
                state.apply_event_in(&ev.kind, |id| replicate || own(id));
                if let Some(held) = held {
                    terms.change(pos, ev.time, a, held, state.node(a));
                }
            }
            pos += 1;
        }
        emit_eventlist_rows(tsid, chunk_idx, buckets, pairs, &mut rows);
    }
    // One append-only chain row per own node the span touches, keyed
    // `(nid, tsid)`: fresh by construction (each span has a distinct
    // `tsid`), so extending a chain never rereads or rewrites earlier
    // rows, and a failed write omits whole per-span segments, never half
    // of one. A node's entries come out of the chunk loop in increasing
    // chunk order, one per chunk whose bucket holds the node.
    let chain_rows = chains
        .into_iter()
        .map(|(nid, entries)| {
            let value = encode_chain(&entries, shape.leaves);
            let key = chain_key(nid, tsid).to_vec();
            PutRow::new(Table::Versions, key, node_placement_token(nid), value)
        })
        .collect();
    SidSpanOutput {
        rows,
        chain_rows,
        terms,
        state,
        root: acc.into_root(),
    }
}

/// Encode bucketed eventlists as store rows, against the span's
/// `pairs`.
fn emit_eventlist_rows(
    tsid: u32,
    chunk_idx: u32,
    buckets: FxHashMap<(u32, u32), Vec<Event>>,
    pairs: &PairTable,
    rows: &mut Vec<PutRow>,
) {
    for ((sid, pid), evs) in buckets {
        let el = Eventlist::from_sorted(evs);
        let key = DeltaKey::new(tsid, sid, ELIST_BASE + chunk_idx as u64, pid);
        rows.push(PutRow::new(
            Table::Deltas,
            key.encode().to_vec(),
            key.placement().token(),
            encode_columnar_eventlist_in(&el, pairs),
        ));
    }
}

/// Emit one sid's aux boundary rows for leaf `leaf`: for each `pid` of
/// this sid, the replicated states of out-of-partition 1-hop neighbors
/// (Fig. 5d). Needs the *full* graph state for neighbor lookups.
fn emit_aux(sid: u32, leaf: u64, state: &Delta, span: &SpanInput<'_>, rows: &mut Vec<PutRow>) {
    let ns = span.cfg.horizontal_partitions;
    let map = &span.maps[sid as usize];
    let mut aux: FxHashMap<u32, Delta> = FxHashMap::default();
    for n in state.iter() {
        if sid_of(n.id, ns) != sid {
            continue;
        }
        let pid = map.assign(n.id);
        for nbr in n.all_neighbors() {
            let same = sid_of(nbr, ns) == sid && map.assign(nbr) == pid;
            if !same {
                if let Some(nbr_state) = state.node(nbr) {
                    aux.entry(pid).or_default().insert(nbr_state.clone());
                }
            }
        }
    }
    for (pid, delta) in aux {
        let key = DeltaKey::new(span.tsid, sid, AUX_BASE + leaf, pid);
        rows.push(PutRow::new(
            Table::Deltas,
            key.encode().to_vec(),
            key.placement().token(),
            encode_columnar_delta_in(&delta, span.pairs),
        ));
    }
}

/// Split a state into per-`sid` partitioned snapshots in one pass.
fn partition_state(state: &Delta, ns: u32) -> Vec<Delta> {
    let mut parts = state.group_by(|id| sid_of(id, ns));
    (0..ns)
        .map(|sid| parts.remove(&sid).unwrap_or_default())
        .collect()
}

/// Emit tree row `did` of `sid` — what it `added`, and what it
/// `removed` from its base's root (nothing but for a residual root) —
/// micro-partitioned by the span's map, a node's removals beside its
/// additions under the pid the map assigns it, and encoded against the
/// span's pairs: a micro-partition that removes nothing is a plain
/// delta row.
fn emit_tree_row(
    sid: u32,
    did: u64,
    added: &Delta,
    removed: Vec<(NodeId, Removal)>,
    span: &SpanInput<'_>,
    rows: &mut Vec<PutRow>,
) {
    let map = &span.maps[sid as usize];
    let mut by_pid: FxHashMap<u32, Residual> = FxHashMap::default();
    for (pid, added) in added.group_by(|id| map.assign(id)) {
        by_pid.entry(pid).or_default().added = added;
    }
    for (id, removal) in removed {
        let part = by_pid.entry(map.assign(id)).or_default();
        part.removed.push((id, removal));
    }
    for (pid, part) in by_pid {
        let key = DeltaKey::new(span.tsid, sid, did, pid);
        rows.push(PutRow::new(
            Table::Deltas,
            key.encode().to_vec(),
            key.placement().token(),
            encode_columnar_residual_in(&part, span.pairs),
        ));
    }
}

/// The pair table of a span, in one pass over what its rows can name:
/// every attribute pair the pre-span `state`'s nodes and edges hold,
/// every pair the span's `events` set, and every key they remove. Each
/// tree, aux and eventlist row of the span then finds all of its pairs
/// in the table and spells no dictionary of its own.
fn span_pair_table(state: &Delta, events: &[Event]) -> PairTable {
    let held = state.iter().flat_map(|n| {
        let on_edges = n
            .edges
            .iter()
            .flat_map(|e| e.attrs.iter().flat_map(|a| a.iter()));
        n.attrs.iter().chain(on_edges)
    });
    let set = events.iter().filter_map(|e| match &e.kind {
        EventKind::SetNodeAttr { key, value, .. } | EventKind::SetEdgeAttr { key, value, .. } => {
            Some((key.as_str(), value))
        }
        _ => None,
    });
    let removed = events.iter().filter_map(|e| match &e.kind {
        EventKind::RemoveNodeAttr { key, .. } | EventKind::RemoveEdgeAttr { key, .. } => {
            Some(key.as_str())
        }
        _ => None,
    });
    PairTable::new(held.chain(set), removed)
}

/// Key for a persisted partition map blob.
pub(crate) fn mp_key(tsid: u32, sid: u32) -> [u8; 8] {
    let mut k = [0u8; 8];
    k[0..4].copy_from_slice(&tsid.to_be_bytes());
    k[4..8].copy_from_slice(&sid.to_be_bytes());
    k
}

/// Progressive k-ary intersection-tree builder.
///
/// Leaves are pushed in order; when the last child of a group arrives
/// ([`TreeShape`] lays the tree out from the right, so a level's first
/// group may hold fewer than `arity` children and every other group is
/// full) the group's parent (the component-wise intersection) is
/// computed, each child's derived delta (`child − parent`, the
/// components the parent lacks) is emitted, the children are dropped,
/// and the parent is pushed one level up. The last leaf closes a group
/// on every level, so it emits the root, in full, and keeps it
/// ([`TreeAccumulator::into_root`]). Memory never exceeds
/// `arity × height` retained deltas.
struct TreeAccumulator {
    shape: TreeShape,
    /// Pending `(idx, delta)` children per level.
    pending: Vec<Vec<(usize, Delta)>>,
    next_leaf: usize,
    root: Delta,
}

impl TreeAccumulator {
    fn new(shape: TreeShape) -> TreeAccumulator {
        let levels = shape.level_sizes.len();
        TreeAccumulator {
            shape,
            pending: vec![Vec::new(); levels],
            next_leaf: 0,
            root: Delta::new(),
        }
    }

    /// The root, once the last leaf is pushed.
    fn into_root(self) -> Delta {
        self.root
    }

    /// Push the next leaf; `emit(level, idx, delta)` is called for
    /// every stored delta that becomes final.
    fn push_leaf(&mut self, leaf: Delta, emit: &mut impl FnMut(usize, usize, &Delta)) {
        let idx = self.next_leaf;
        self.next_leaf += 1;
        debug_assert!(idx < self.shape.leaves);
        self.push(0, idx, leaf, emit);
    }

    fn push(
        &mut self,
        level: usize,
        idx: usize,
        delta: Delta,
        emit: &mut impl FnMut(usize, usize, &Delta),
    ) {
        if level == self.shape.height() {
            // This is the root: hand it on in full.
            emit(level, idx, &delta);
            self.root = delta;
            return;
        }
        self.pending[level].push((idx, delta));
        if self.shape.closes_group(level, idx) {
            self.reduce_level(level, emit);
        }
    }

    fn reduce_level(&mut self, level: usize, emit: &mut impl FnMut(usize, usize, &Delta)) {
        let children = std::mem::take(&mut self.pending[level]);
        debug_assert!(!children.is_empty());
        let refs: Vec<&Delta> = children.iter().map(|(_, d)| d).collect();
        let parent = Delta::intersection_many(&refs);
        for (idx, child) in &children {
            let derived = child.difference(&parent);
            emit(level, *idx, &derived);
        }
        let (_, parent_idx) = self.shape.parent(level, children[0].0);
        self.push(level + 1, parent_idx, parent, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TgiService;
    use hgs_delta::columnar::encode_columnar_delta;
    use hgs_delta::StaticNode;
    use hgs_store::StoreConfig;
    use std::borrow::Cow;

    /// A writer over `events` on a fresh cluster, at the default widths.
    fn writer(cfg: TgiConfig, store_cfg: StoreConfig, events: &[Event]) -> Writer {
        let store = Arc::new(SimStore::new(store_cfg));
        Writer::try_build(cfg, store, events, 1, host_parallelism()).expect("healthy build")
    }

    /// Push `leaves` through a [`TreeAccumulator`]; the emitted
    /// (stored) deltas by did.
    fn emit_tree(shape: &TreeShape, leaves: &[Delta]) -> FxHashMap<u64, Delta> {
        let mut emitted: FxHashMap<u64, Delta> = FxHashMap::default();
        let mut acc = TreeAccumulator::new(shape.clone());
        let mut emit = |level: usize, idx: usize, delta: &Delta| {
            let prev = emitted.insert(shape.did(level, idx), delta.clone());
            assert!(prev.is_none(), "each tree node is emitted once");
        };
        for leaf in leaves {
            acc.push_leaf(leaf.clone(), &mut emit);
        }
        emitted
    }

    /// Leaves that share *part* of a hub: node 0 gains a neighbor per
    /// checkpoint, has one edge that comes and goes, one whose weight
    /// changes once, one attribute that changes every other leaf and
    /// one that never does; node 1 never changes; node 2 is gone from
    /// the last leaf; every leaf has a node of its own.
    fn hub_leaves(q: u64) -> Vec<Delta> {
        use hgs_delta::{AttrValue, EdgeDir, Neighbor};
        (0..q)
            .map(|j| {
                let mut hub = StaticNode::new(0);
                for nbr in 1..=3 + j {
                    let w = if nbr == 2 && j >= 3 { 2.5 } else { 1.0 };
                    hub.insert_edge(Neighbor::weighted(nbr, EdgeDir::Both, w));
                }
                if j % 2 == 1 {
                    hub.insert_edge(Neighbor::new(500, EdgeDir::Out));
                }
                hub.attrs.set("label", AttrValue::Int(j as i64 / 2));
                hub.attrs.set("kind", AttrValue::Int(7));
                let mut one = StaticNode::new(1);
                one.insert_edge(Neighbor::new(0, EdgeDir::Both));
                let mut d: Delta = [hub, one, StaticNode::new(10 + j)].into_iter().collect();
                if j + 1 < q || q == 1 {
                    d.insert(StaticNode::new(2));
                }
                d
            })
            .collect()
    }

    /// `(node, key, value)` of every edge-list entry and attribute
    /// pair of `d`, rendered comparable.
    fn components(d: &Delta) -> Vec<(NodeId, String, String)> {
        let mut out = Vec::new();
        for n in d.iter() {
            for e in &n.edges {
                let value = format!("{} {:?}", e.weight.to_bits(), e.attrs);
                out.push((n.id, format!("e{} {:?}", e.nbr, e.dir), value));
            }
            for (k, v) in n.attrs.iter() {
                out.push((n.id, format!("a{k}"), format!("{v:?}")));
            }
        }
        out.sort();
        out
    }

    /// The shapes the tree tests run over: arities 2 and 3, complete
    /// trees and ragged first groups (a nonzero `pad`), a single leaf.
    const SHAPES: [(u64, usize); 10] = [
        (5, 2),
        (4, 2),
        (7, 3),
        (9, 3),
        (2, 2),
        (1, 2),
        (12, 2),
        (40, 2),
        (41, 2),
        (40, 3),
    ];

    #[test]
    fn tree_accumulator_reconstructs_leaves() {
        // Rebuild every leaf from the stored form of its path: each
        // emitted delta encoded as a row, summed root first.
        for (q, arity) in SHAPES {
            let shape = TreeShape::new(q as usize, arity);
            let leaves = hub_leaves(q);
            let rows: FxHashMap<u64, hgs_delta::ColumnarDelta> = emit_tree(&shape, &leaves)
                .iter()
                .map(|(&did, d)| {
                    let row = hgs_delta::ColumnarDelta::parse(encode_columnar_delta(d));
                    (did, row.expect("just encoded"))
                })
                .collect();
            for (j, leaf) in leaves.iter().enumerate() {
                let mut rebuilt = Delta::new();
                for did in shape.path_to_leaf(j) {
                    rows[&did]
                        .sum_into(&mut rebuilt, None)
                        .expect("no component repeats along a path");
                }
                assert_eq!(&rebuilt, leaf, "leaf {j} of {q}, arity {arity}");
            }
        }
    }

    /// The storage invariant the component-wise path sum (and the
    /// readability of older indexes) rests on: over every root-to-leaf
    /// path, each component of the leaf is stored on exactly one row,
    /// and nothing else is. And the reason the tree is small: no
    /// component is stored in every child of a parent — it would be in
    /// the parent instead — which is what fails if the parent goes back
    /// to keeping only nodes identical in every child.
    #[test]
    fn each_component_is_stored_on_exactly_one_row_of_a_path() {
        for (q, arity) in SHAPES {
            let shape = TreeShape::new(q as usize, arity);
            let leaves = hub_leaves(q);
            let emitted = emit_tree(&shape, &leaves);
            assert_eq!(emitted.len(), shape.node_count());
            for (j, leaf) in leaves.iter().enumerate() {
                let path = shape.path_to_leaf(j);
                let mut stored: Vec<_> = path
                    .iter()
                    .flat_map(|did| components(&emitted[did]))
                    .collect();
                stored.sort();
                assert_eq!(stored, components(leaf), "leaf {j} of {q}, arity {arity}");
                for n in leaf.iter() {
                    let records = path.iter().filter(|did| emitted[did].contains(n.id));
                    assert!(records.count() >= 1, "node {} exists on the path", n.id);
                }
                // A record below the root always carries something the
                // rows above it lack, or introduces its node.
                for (depth, did) in path.iter().enumerate() {
                    for n in emitted[did].iter() {
                        let above = path[..depth].iter().any(|up| emitted[up].contains(n.id));
                        assert!(!above || n.degree() + n.attrs.len() > 0, "empty piece");
                    }
                }
            }
            for level in 0..shape.height() {
                let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
                for idx in 0..shape.level_sizes[level] {
                    groups
                        .entry(shape.parent(level, idx).1)
                        .or_default()
                        .push(idx);
                }
                for (parent, children) in groups {
                    if let [only] = children[..] {
                        // A lone child's parent holds all of it.
                        assert!(emitted[&shape.did(level, only)].is_empty());
                        continue;
                    }
                    let mut common = components(&emitted[&shape.did(level, children[0])]);
                    for &idx in &children[1..] {
                        let sibling = components(&emitted[&shape.did(level, idx)]);
                        common.retain(|c| sibling.contains(c));
                    }
                    assert_eq!(common, vec![], "level {level}, parent {parent}, q {q}");
                }
            }
        }
    }

    /// A hub that gains one neighbor per checkpoint: the edge to `k`
    /// lives over leaves `[k, 40)`, a suffix, which a tree laid out from
    /// the right stores on one node per set bit of `40 − k` —
    /// `Σ popcount(40 − k)` = 100 entries over `k` in `1..40`. Grouped
    /// from the left, the same leaves cost 124.
    #[test]
    fn a_growing_hub_is_stored_once_per_node_of_each_suffix_cover() {
        use hgs_delta::{EdgeDir, Neighbor};
        let q = 40u64;
        let leaves: Vec<Delta> = (0..q)
            .map(|j| {
                let mut hub = StaticNode::new(0);
                for nbr in 1..=j {
                    hub.insert_edge(Neighbor::new(nbr, EdgeDir::Both));
                }
                [hub].into_iter().collect()
            })
            .collect();
        let emitted = emit_tree(&TreeShape::new(q as usize, 2), &leaves);
        let entries: usize = emitted
            .values()
            .flat_map(|d| d.iter())
            .map(|n| n.edges.len())
            .sum();
        let covers: u32 = (1..q).map(|k| (q - k).count_ones()).sum();
        assert_eq!((entries, covers), (100, 100));
    }

    #[test]
    fn tree_accumulator_root_holds_common_core() {
        let shape = TreeShape::new(4, 2);
        // Node 42 is identical in all leaves; each has one of its own.
        let leaves: Vec<Delta> = (0..4u64)
            .map(|j| {
                [StaticNode::new(42), StaticNode::new(100 + j)]
                    .into_iter()
                    .collect()
            })
            .collect();
        let emitted = emit_tree(&shape, &leaves);
        let root = emitted.get(&0).expect("root emitted");
        assert!(root.contains(42), "common node lives in the root");
        assert_eq!(root.cardinality(), 1, "unique nodes are not in the root");
    }

    /// A default build encodes at the host's width but its reads stay
    /// at one client: a cold snapshot costs exactly the store batches
    /// it costs on an explicit width-1 service.
    #[test]
    fn default_build_reads_at_width_one() {
        let events = hgs_datagen::WikiGrowth::sized(3_000).generate();
        let cfg = TgiConfig::default().with_timespan(1_000);
        let cold_snapshot_batches = |tgi: &TgiView| {
            let batches = |tgi: &TgiView| -> u64 {
                tgi.store().stats_snapshot().iter().map(|m| m.batches).sum()
            };
            let before = batches(tgi);
            tgi.try_snapshot(tgi.end_time()).expect("healthy read");
            batches(tgi) - before
        };
        let default = TgiService::try_build(cfg, StoreConfig::new(4, 1), &events)
            .expect("build")
            .pin();
        let store = Arc::new(SimStore::new(StoreConfig::new(4, 1)));
        let one = TgiService::try_build_on(cfg, store, &events, 1)
            .expect("build")
            .pin();
        assert_eq!(default.clients(), 1);
        let batches = cold_snapshot_batches(&default);
        assert!(batches > 0);
        assert_eq!(batches, cold_snapshot_batches(&one));
    }

    /// The append path normalizes a batch on the writer's tail state,
    /// and that agrees with the whole history's normalization: a batch
    /// without `RemoveNode` comes back borrowed and equal to its part
    /// of it; one with removals comes back expanded against the live
    /// graph, equal to that part too.
    #[test]
    fn a_batch_normalizes_on_the_tail_state_as_the_history_does() {
        let base = hgs_datagen::WikiGrowth::sized(800).generate();
        let trace = hgs_datagen::augment_with_churn(&base, 500, 0.5, 7);
        let (built, churn) = trace.split_at(base.len());
        let tgi = writer(TgiConfig::default(), StoreConfig::new(2, 1), built);
        let as_suffix = |batch: &[Event]| {
            let whole = hgs_delta::normalize_events(&[built, batch].concat());
            whole[hgs_delta::normalize_events(built).len()..].to_vec()
        };

        let plain = hgs_delta::normalize_events_from(&tgi.tail_state, churn);
        assert!(matches!(plain, Cow::Borrowed(_)));
        assert_eq!(&plain[..], &as_suffix(churn)[..]);

        // Remove the three best-connected live nodes after the churn.
        let mut by_degree: Vec<&hgs_delta::StaticNode> = tgi.tail_state.iter().collect();
        by_degree.sort_by_key(|n| (std::cmp::Reverse(n.degree()), n.id));
        let mut with_removals = churn.to_vec();
        let mut t = churn.last().expect("churn events").time;
        for n in &by_degree[..3] {
            t += 1;
            with_removals.push(Event::new(t, EventKind::RemoveNode { id: n.id }));
        }
        let expanded = hgs_delta::normalize_events_from(&tgi.tail_state, &with_removals);
        assert!(matches!(expanded, Cow::Owned(_)));
        assert_eq!(&expanded[..], &as_suffix(&with_removals)[..]);
        assert!(
            expanded.len() > with_removals.len(),
            "incident edges were made explicit"
        );
    }

    /// The next tail state is taken from the span encoders' own
    /// replays, not from a second one: after a build and appends whose
    /// churn removes nodes, it equals an in-order replay of the trace —
    /// scoped per `sid`, where each item skips the events that name
    /// none of its nodes (all of them at one partition, none skipped),
    /// and with every item replaying the whole graph for aux
    /// replication.
    #[test]
    fn tail_state_equals_an_in_order_replay() {
        let base = hgs_datagen::WikiGrowth::sized(1_200).generate();
        let mut trace = hgs_datagen::augment_with_churn(&base, 900, 0.4, 11);
        // Every 40th churn event removes the node it touched instead.
        for e in trace[base.len()..].iter_mut().step_by(40) {
            let (id, _) = e.kind.touched();
            e.kind = hgs_delta::EventKind::RemoveNode { id };
        }
        let mut replay = Delta::new();
        for e in &trace {
            replay.apply_event(&e.kind);
        }
        let (built, churn) = trace.split_at(base.len());
        let strategies = [
            PartitionStrategy::Random,
            PartitionStrategy::Locality {
                replicate_boundary: false,
            },
            PartitionStrategy::Locality {
                replicate_boundary: true,
            },
        ];
        for (ns, strategy) in [1, 3, 4]
            .into_iter()
            .flat_map(|ns| strategies.map(|s| (ns, s)))
        {
            let cfg = TgiConfig {
                events_per_timespan: 400,
                eventlist_size: 50,
                partition_size: 40,
                horizontal_partitions: ns,
                strategy,
                ..TgiConfig::default()
            };
            let mut tgi = writer(cfg, StoreConfig::new(2, 1), built);
            for batch in churn.chunks(300) {
                tgi.try_append_events(batch).unwrap();
            }
            assert!(tgi.view.span_count() > 4, "{ns} {strategy:?}");
            assert_eq!(tgi.tail_state, replay, "{ns} {strategy:?}");
        }
    }

    #[test]
    fn partition_state_unions_back() {
        let mut d = Delta::new();
        for i in 0..50u64 {
            d.apply_event(&hgs_delta::EventKind::AddNode { id: i });
        }
        let parts = partition_state(&d, 4);
        let mut u = Delta::new();
        for p in &parts {
            u.sum_assign(p);
        }
        assert_eq!(u, d);
        assert!(parts.iter().all(|p| p.cardinality() > 0));
    }
}
