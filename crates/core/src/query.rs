//! TGI retrieval — the paper's Query Manager and Algorithms 1–5
//! (§4.6): snapshot retrieval, node history, k-hop neighborhoods (both
//! strategies), and 1-hop neighborhood history.
//!
//! # Error-handling contract
//!
//! Every retrieval primitive has exactly one spelling, `try_*`,
//! returning `Result<_, `[`StoreError`]`>`: when **all** replicas of a
//! chunk the query needs are down, the query fails with
//! [`StoreError::Unavailable`] instead of silently returning a
//! *smaller* graph. A caller that wants a panic on a healthy cluster
//! writes `.unwrap()` / `.expect(..)` at the call site. Fetch
//! parallelism is a property of the view
//! ([`TgiView::with_clients`]), not of the call.
//!
//! A missing *row* (`Ok(None)` / empty scan) is not an error — deltas
//! that were never written (empty micro-partitions) are legitimately
//! absent — with one exception: an eventlist row a version chain names
//! was written beside the chain entry, so its absence is
//! [`StoreError::Corrupt`], like a row that does not decode.

use std::sync::Arc;

use hgs_delta::{
    CodecError, ColumnarDelta, ColumnarEventlist, Delta, Event, Eventlist, FxHashMap, FxHashSet,
    NodeId, PairTable, StaticNode, Time, TimeRange,
};
use hgs_store::{
    chain_key_tsid, chain_prefix, node_placement_token, parallel_steal, DeltaKey, PlacementKey,
    StoreError, Table,
};

use crate::build::{SpanRuntime, TgiView};
use crate::config::PartitionStrategy;
use crate::costs::{access_cost, CostProfile, IndexKind, QueryKind};
use crate::meta::{decode_chain, sid_of, ChainEntry, AUX_BASE, ELIST_BASE};
use crate::read_cache::{CacheKey, Cached};

/// How to fetch a k-hop neighborhood (§4.6, Algorithms 3 & 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KhopStrategy {
    /// Fetch the whole snapshot, then filter (Algorithm 3). Wins for
    /// large `k`.
    ViaSnapshot,
    /// Fetch the node, then its neighbors, recursively (Algorithm 4),
    /// exploiting micro-partitions and auxiliary replicas. Wins for
    /// `k <= 2`.
    Recursive,
}

/// The history of one node over a time range (Algorithm 2's result):
/// its state at the range start plus every event touching it within
/// the range.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHistory {
    /// The node.
    pub id: NodeId,
    /// Queried half-open range.
    pub range: TimeRange,
    /// State as of `range.start` (`None` if the node did not exist).
    pub initial: Option<StaticNode>,
    /// Chronological events touching the node strictly after
    /// `range.start` and before `range.end`.
    pub events: Vec<Event>,
}

impl NodeHistory {
    /// Number of change points in the range.
    pub fn change_count(&self) -> usize {
        self.events.len()
    }

    /// Materialize the version sequence: `(time, state)` starting with
    /// the initial state, then one entry per distinct event timestamp.
    pub fn versions(&self) -> Vec<(Time, Option<StaticNode>)> {
        let mut out = Vec::with_capacity(self.events.len() + 1);
        let mut scratch = Delta::new();
        if let Some(n) = &self.initial {
            scratch.insert(n.clone());
        }
        out.push((self.range.start, self.initial.clone()));
        let mut i = 0usize;
        while i < self.events.len() {
            let t = self.events[i].time;
            while i < self.events.len() && self.events[i].time == t {
                scratch.apply_event_in(&self.events[i].kind, |id| id == self.id);
                i += 1;
            }
            out.push((t, scratch.node(self.id).cloned()));
        }
        out
    }

    /// State of the node as of time `t` within the queried range.
    pub fn state_at(&self, t: Time) -> Option<StaticNode> {
        debug_assert!(self.range.contains(t) || t == self.range.start);
        let mut scratch = Delta::new();
        if let Some(n) = &self.initial {
            scratch.insert(n.clone());
        }
        for e in self.events.iter().take_while(|e| e.time <= t) {
            scratch.apply_event_in(&e.kind, |id| id == self.id);
        }
        scratch.node(self.id).cloned()
    }
}

/// The 1-hop neighborhood history of a node (Algorithm 5's result).
#[derive(Debug, Clone)]
pub struct NeighborhoodHistory {
    /// The center node's history.
    pub center: NodeHistory,
    /// Histories of every node that was a neighbor at some point in
    /// the range.
    pub neighbors: Vec<NodeHistory>,
    /// Queried range.
    pub range: TimeRange,
}

impl NeighborhoodHistory {
    /// Materialize the neighborhood subgraph as of `t`: the center and
    /// its *current* neighbors at `t`, with their states.
    pub fn subgraph_at(&self, t: Time) -> Delta {
        let mut out = Delta::new();
        let Some(center) = self.center.state_at(t) else {
            return out;
        };
        let current: FxHashSet<NodeId> = center.all_neighbors().collect();
        for h in &self.neighbors {
            if current.contains(&h.id) {
                if let Some(s) = h.state_at(t) {
                    out.insert(s);
                }
            }
        }
        out.insert(center);
        out
    }

    /// All distinct change timepoints in the neighborhood.
    pub fn change_times(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .center
            .events
            .iter()
            .chain(self.neighbors.iter().flat_map(|h| h.events.iter()))
            .map(|e| e.time)
            .collect();
        times.sort_unstable();
        times.dedup();
        times
    }
}

/// A fetched delta row in whichever state the read cache holds it
/// under its [`CacheKey::Row`]. A cache state, not a stored format —
/// every stored row is columnar.
///
/// * `Col` is **the row's own records**, header parsed, columns
///   decoded on demand: what a node-scoped path leaves, so a
///   single-node probe reads the node-index column alone. For an aux
///   row a record is a whole description; for a tree row it is a
///   *piece* — the entries and pairs of the node that no row above it
///   on the path holds.
/// * `Full` (tree rows only) is **path-complete**: for every node the
///   row has a record for, the node's whole description as of that
///   tree node, i.e. the row's pieces already merged onto everything
///   above it. It is what a full-replay path leaves after summing the
///   row, so summing it again is a node-level
///   [`Delta::sum_assign`] of shared `Arc`s.
///
/// Either way a tree row means something only in path order:
/// [`DeltaHandle::sum_into`] is the one place a tree row is applied
/// to a state, and every reader walks its path **root first**, where a
/// `Full` row *replaces* what shallower rows gave a node and a `Col`
/// row *adds* to it. (A walk that stopped at the first row holding the
/// node would return a fragment.)
#[derive(Clone)]
pub(crate) enum DeltaHandle {
    Full(Arc<Delta>),
    Col(Arc<ColumnarDelta>),
}

impl DeltaHandle {
    /// Parse a fetched row's header (columns stay undecoded); its
    /// pairs resolve through its span's `pairs`.
    pub(crate) fn parse(
        bytes: bytes::Bytes,
        pairs: &Arc<PairTable>,
    ) -> Result<DeltaHandle, StoreError> {
        ColumnarDelta::parse_in(bytes, pairs)
            .map(|c| DeltaHandle::Col(Arc::new(c)))
            .map_err(StoreError::Corrupt)
    }

    /// The stored record of `nid` in this **aux** row (a whole
    /// description), if any. A columnar row decodes its node-index
    /// column here, so corruption surfaces as [`StoreError::Corrupt`]
    /// instead of a panic.
    fn record(&self, nid: NodeId) -> Result<Option<StaticNode>, StoreError> {
        match self {
            DeltaHandle::Full(d) => Ok(d.node(nid).cloned()),
            DeltaHandle::Col(c) => c.node_record(nid).map_err(StoreError::Corrupt),
        }
    }

    /// The path sum's one step: apply this **tree** row to `state`,
    /// which must be the sum of the rows above it on the path (for
    /// `only = Some(nid)`, of their records for `nid` — the row is then
    /// applied for that node alone and nothing else of it is decoded).
    ///
    /// With `collect`, a `Col` row applied in full also returns its
    /// path-complete form for the caller to cache as `Full`. A row
    /// that repeats a component the state already holds is
    /// [`StoreError::Corrupt`]; `state` is then partly summed and must
    /// be dropped.
    pub(crate) fn sum_into(
        &self,
        state: &mut Delta,
        only: Option<NodeId>,
        collect: bool,
    ) -> Result<Option<Arc<Delta>>, StoreError> {
        match (self, only) {
            (DeltaHandle::Full(d), None) => state.sum_assign(d),
            (DeltaHandle::Full(d), Some(nid)) => {
                if let Some(n) = d.node(nid) {
                    state.insert(n.clone());
                }
            }
            (DeltaHandle::Col(c), Some(nid)) => {
                c.sum_node_into(nid, state).map_err(StoreError::Corrupt)?
            }
            (DeltaHandle::Col(c), None) => {
                // A row that removes a whole node has no path-complete
                // form: that holds only the nodes a sum leaves.
                let collect = collect && !c.removes_a_node().map_err(StoreError::Corrupt)?;
                let mut completed = collect.then(|| Delta::with_capacity(c.n_nodes()));
                c.sum_into(state, completed.as_mut())
                    .map_err(StoreError::Corrupt)?;
                return Ok(completed.map(Arc::new));
            }
        }
        Ok(None)
    }
}

/// A fetched eventlist row in whichever state the read cache holds
/// it (see [`DeltaHandle`]: `Full` after a full replay, `Col` after a
/// node-scoped fetch). Node-scoped callers pull only the events
/// touching one node, which a `Col` row answers without materializing
/// the payload columns of events the node never touches.
#[derive(Clone)]
pub(crate) enum ElistHandle {
    Full(Arc<Eventlist>),
    Col(Arc<ColumnarEventlist>),
}

impl ElistHandle {
    /// Chronological events touching `nid`. A columnar row decodes its
    /// payload columns here, so corruption surfaces as
    /// [`StoreError::Corrupt`] instead of a panic.
    fn events_touching(&self, nid: NodeId) -> Result<Vec<Event>, StoreError> {
        match self {
            ElistHandle::Full(el) => Ok(el.filter_by_node(nid).cloned().collect()),
            ElistHandle::Col(c) => c.events_touching(nid).map_err(StoreError::Corrupt),
        }
    }

    /// Roll `state` forward by the events touching `nid` at or before
    /// `t`, applied to `nid` alone.
    fn replay_node(&self, state: &mut Delta, nid: NodeId, t: Time) -> Result<(), StoreError> {
        let events = self.events_touching(nid)?;
        for e in events.iter().take_while(|e| e.time <= t) {
            state.apply_event_in(&e.kind, |id| id == nid);
        }
        Ok(())
    }
}

/// One keyed `Deltas` row, as [`TgiView::try_fetch_rows`] returns it.
/// Its `did` decides the kind: an eventlist chunk (`ELIST_BASE ..
/// AUX_BASE`) is `Events`, a tree or aux row is `Tree`.
enum Row {
    Tree(DeltaHandle),
    Events(ElistHandle),
}

impl TgiView {
    // ------------------------------------------------------------------
    // Algorithm 1: snapshot retrieval
    // ------------------------------------------------------------------

    /// The full graph as of time `t` (Algorithm 1), fetched with the
    /// view's client width: errors when all replicas of any chunk the
    /// query still has to fetch are down, instead of returning a
    /// silently incomplete graph.
    ///
    /// Runs as a degenerate one-time plan through the multipoint
    /// machinery ([`TgiView::try_snapshots`]), so it consults and
    /// populates the session-wide read cache: a warm repeat pays only
    /// the checkpoint-state clone and the eventlist replay, never the
    /// tree-path fetch + decode.
    pub fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        let mut out = [Delta::new()];
        self.fill_snapshots(&[t], &mut out)?;
        let [state] = out;
        Ok(state)
    }

    // ------------------------------------------------------------------
    // static vertex / micro-partition fetches
    // ------------------------------------------------------------------

    /// State of one node as of `t` (a *static vertex* fetch in Table
    /// 1's terms): touches only the node's micro-partition along the
    /// tree path, and decodes only the columns that hold the node.
    ///
    /// The node's checkpoint record is its net presence along the
    /// span's tree path: its base roots' records, each at the node's
    /// micro-partition of its own span, then the span's root-to-leaf
    /// pieces — the node's components are spread over every row where
    /// one first became common, and a residual root may take some away
    /// — so every path row is consulted, base roots first. Whatever the
    /// cache does not hold, path rows and the eventlist row alike,
    /// travels in **one** batched multi-get (a block's spans share a
    /// placement chunk). Each row answers "do you hold this node?"
    /// from its node-index columns alone; only the node's own record
    /// slices are ever parsed. The eventlist
    /// roll-forward likewise materializes only the events touching the
    /// node (normalization expands `RemoveNode` into explicit
    /// `RemoveEdge`s, so those events are sufficient).
    pub fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        let span = self.span_for(t);
        let (sid, pid) = span.placement(nid);
        let meta = &span.meta;
        let j = meta.leaf_for_time(t);
        let mut scratch = Delta::new();
        // A checkpoint state materialized by a full-replay path
        // already holds the summed record — use it instead of walking.
        let mut keys = match self
            .read_cache
            .get(CacheKey::Part(meta.tsid, sid, pid, j as u32))
        {
            Some(Cached::Delta(d)) => {
                if let Some(n) = d.node(nid) {
                    scratch.insert(n.clone());
                }
                Vec::new()
            }
            _ => {
                let mut keys = Vec::new();
                for (tsid, did) in meta.tree_path(j) {
                    let of = self.span_of(tsid)?;
                    keys.push((of, did, of.placement(nid).1));
                }
                keys
            }
        };
        keys.push((span, ELIST_BASE + j as u64, pid));
        // Path rows base roots first, then the eventlist.
        for row in self.try_fetch_rows(sid, &keys)?.into_iter().flatten() {
            match row {
                Row::Tree(d) => {
                    d.sum_into(&mut scratch, Some(nid), false)?;
                }
                Row::Events(el) => el.replay_node(&mut scratch, nid, t)?,
            }
        }
        Ok(scratch.node(nid).cloned())
    }

    /// Rows `keys` — `(span, did, pid)` of horizontal partition `sid`,
    /// every span of one block, which share a placement
    /// ([`PlacementKey::of_span`]) — in `keys` order (`None`: no such
    /// row), each row's pairs resolved through its own span's table:
    /// the one point read of `Deltas` rows, behind the static-vertex
    /// fetch, the micro-partition fetch, the eventlist chunks of node
    /// histories and the aux replicas of a k-hop.
    ///
    /// Rows the read cache holds, in either state or as known-absent,
    /// are served from it. The rest travel in **one** batched multi-get
    /// — re-run on every miss, so a down chunk surfaces
    /// [`StoreError::Unavailable`] — and are cached header-parsed, so
    /// a caller decodes just the columns its probes touch. A
    /// confirmed-absent row is cached as such: write-once rows cannot
    /// appear later in a sealed span.
    fn try_fetch_rows(
        &self,
        sid: u32,
        keys: &[(&SpanRuntime, u64, u32)],
    ) -> Result<Vec<Option<Row>>, StoreError> {
        let cache_key = |&(span, did, pid): &(&SpanRuntime, u64, u32)| {
            CacheKey::Row(span.meta.tsid, sid, did, pid)
        };
        // Per key what the cache knows; `None` is a miss, to be fetched.
        let probed: Vec<Option<Option<Row>>> = keys
            .iter()
            .map(|k| match self.read_cache.get(cache_key(k))? {
                Cached::Delta(d) => Some(Some(Row::Tree(DeltaHandle::Full(d)))),
                Cached::ColDelta(c) => Some(Some(Row::Tree(DeltaHandle::Col(c)))),
                Cached::Elist(e) => Some(Some(Row::Events(ElistHandle::Full(e)))),
                Cached::ColElist(c) => Some(Some(Row::Events(ElistHandle::Col(c)))),
                Cached::Absent => Some(None),
                Cached::TermPoints(_) => None,
            })
            .collect();
        let missing: Vec<DeltaKey> = keys
            .iter()
            .zip(&probed)
            .filter(|(_, hit)| hit.is_none())
            .map(|(&(span, did, pid), _)| DeltaKey::new(span.meta.tsid, sid, did, pid))
            .collect();
        let mut fetched = match missing.first() {
            None => Vec::new(),
            Some(first) => {
                debug_assert!(missing.iter().all(|k| k.placement() == first.placement()));
                let encoded: Vec<[u8; 20]> = missing.iter().map(DeltaKey::encode).collect();
                let refs: Vec<&[u8]> = encoded.iter().map(|k| &k[..]).collect();
                let token = first.placement().token();
                self.store.multi_get(Table::Deltas, &refs, token)?
            }
        }
        .into_iter();
        keys.iter()
            .zip(probed)
            .map(|(k, hit)| {
                if let Some(hit) = hit {
                    return Ok(hit);
                }
                let Some(bytes) = fetched.next().flatten() else {
                    self.read_cache.put(cache_key(k), Cached::Absent);
                    return Ok(None);
                };
                let pairs = &k.0.meta.pairs;
                let (row, cached) = if (ELIST_BASE..AUX_BASE).contains(&k.1) {
                    let c =
                        ColumnarEventlist::parse_in(bytes, pairs).map_err(StoreError::Corrupt)?;
                    let c = Arc::new(c);
                    (
                        Row::Events(ElistHandle::Col(c.clone())),
                        Cached::ColElist(c),
                    )
                } else {
                    let c = ColumnarDelta::parse_in(bytes, pairs).map_err(StoreError::Corrupt)?;
                    let c = Arc::new(c);
                    (Row::Tree(DeltaHandle::Col(c.clone())), Cached::ColDelta(c))
                };
                self.read_cache.put(cache_key(k), cached);
                Ok(Some(row))
            })
            .collect()
    }

    /// Reconstruct the state of micro-partition `(sid, pid)` as of
    /// `t`: tree-path micro-deltas + the eventlist chunk, a degenerate
    /// single-partition chunk plan over the shared read cache. A base
    /// root is micro-partitioned by its own span's map, so each is read
    /// in the parts that can hold a node of `pid` — under
    /// [`PartitionStrategy::Random`], when its part count and those of
    /// all the bases after it are multiples of this span's `k`, its
    /// parts `pid, pid + k, …`; else all of them, since a later base's
    /// residual removes what the bases before it hold — and what the
    /// sum of them holds is cut to the
    /// micro-partition before the span's own rows are applied.
    ///
    /// The checkpoint state (path rows summed, before replay) caches
    /// under [`CacheKey::Part`]; a cached one leaves only the eventlist
    /// to read. Rows come through [`TgiView::try_fetch_rows`], so a row
    /// the cache holds in either form is not fetched again, and a miss
    /// — eviction included — re-runs the fallible fetch: a down chunk
    /// surfaces [`StoreError::Unavailable`] instead of a stale or
    /// partial state. The eventlist is replayed whole, so it is kept
    /// decoded.
    pub(crate) fn try_fetch_partition_state(
        &self,
        span: &SpanRuntime,
        sid: u32,
        pid: u32,
        t: Time,
    ) -> Result<Delta, StoreError> {
        let meta = &span.meta;
        let tsid = meta.tsid;
        let ns = self.cfg.horizontal_partitions;
        let j = meta.leaf_for_time(t);
        let part_key = CacheKey::Part(tsid, sid, pid, j as u32);
        let base = match self.read_cache.get(part_key.clone()) {
            Some(Cached::Delta(d)) => Some(d),
            _ => None,
        };
        let mut keys: Vec<(&SpanRuntime, u64, u32)> = Vec::new();
        if base.is_none() {
            let path = meta
                .tree_path(j)
                .into_iter()
                .map(|(of, did)| Ok((self.span_of(of)?, did)))
                .collect::<Result<Vec<_>, StoreError>>()?;
            let parts =
                |of: &SpanRuntime| of.meta.pid_counts.get(sid as usize).copied().unwrap_or(0);
            let k = parts(span);
            let hashed = self.cfg.strategy == PartitionStrategy::Random && k > 0;
            // A hashed map is `hash % k`: a base whose part count is a
            // multiple of this span's `k` holds the nodes of `pid` in its
            // parts `pid, pid + k, …` alone. But a base's residual removes
            // what the bases before it hold, so the bases up to the last
            // one `k` does not divide are read whole.
            let whole = path
                .iter()
                .rposition(|&(of, _)| of.meta.tsid != tsid && !(hashed && parts(of) % k == 0))
                .map_or(0, |last| last + 1);
            for (i, (of, did)) in path.into_iter().enumerate() {
                if of.meta.tsid == tsid {
                    keys.push((of, did, pid));
                    continue;
                }
                let (first, step) = if i < whole { (0, 1) } else { (pid, k as usize) };
                keys.extend((first..parts(of)).step_by(step).map(|p| (of, did, p)));
            }
        }
        let bases = keys.iter().filter(|k| k.0.meta.tsid != tsid).count();
        keys.push((span, ELIST_BASE + j as u64, pid));
        let rows = self.try_fetch_rows(sid, &keys)?;

        // Checkpoint state, base roots first, then the per-time
        // eventlist replay.
        let mut state = base.as_deref().cloned().unwrap_or_default();
        let mut elist = None;
        for (i, (&(of, did, p), row)) in keys.iter().zip(rows).enumerate() {
            if i == bases && bases > 0 {
                if let Some(map) = span.map(sid) {
                    state = state.restrict(|id| map.assign(id) == pid);
                }
            }
            let key = CacheKey::Row(of.meta.tsid, sid, did, p);
            match row {
                Some(Row::Tree(d)) => self.sum_tree_row(&mut state, key, &d)?,
                Some(Row::Events(ElistHandle::Full(e))) => elist = Some(e),
                Some(Row::Events(ElistHandle::Col(c))) => {
                    let e = Arc::new(c.to_eventlist().map_err(StoreError::Corrupt)?);
                    self.read_cache.put(key, Cached::Elist(e.clone()));
                    elist = Some(e);
                }
                None => {}
            }
        }
        if base.is_none() && self.read_cache.is_enabled() {
            self.read_cache
                .put(part_key, Cached::Delta(Arc::new(state.clone())));
        }
        if let (Some(el), Some(map)) = (elist, span.map(sid)) {
            for e in el.events().iter().take_while(|e| e.time <= t) {
                state.apply_event_in(&e.kind, |id| sid_of(id, ns) == sid && map.assign(id) == pid);
            }
        }
        Ok(state)
    }

    // ------------------------------------------------------------------
    // Algorithm 2: node history via version chains
    // ------------------------------------------------------------------

    /// The version chain of a node (empty when chains are disabled or
    /// the node never appeared): one prefix scan over the node's
    /// append-only chain rows, concatenated in key (i.e. `tsid`, i.e.
    /// chronological) order, so entries come out in `(tsid, chunk)`
    /// order. A row stores the set of chunks holding the node's events
    /// and nothing else; its `tsid` is read off its key and its `pid`
    /// off the span's partition map, and a row naming a chunk its span
    /// does not have is [`StoreError::Corrupt`] (see [`ChainEntry`]).
    /// Rows of spans sealed after this view are skipped undecoded —
    /// they are not part of its prefix, whatever state they are in.
    pub fn try_version_chain(&self, nid: NodeId) -> Result<Vec<ChainEntry>, StoreError> {
        let rows = self.store.scan_prefix_batch(
            Table::Versions,
            &[&chain_prefix(nid)],
            node_placement_token(nid),
        )?;
        let mut chain = Vec::new();
        for (key, bytes) in rows.into_iter().flatten() {
            let tsid =
                chain_key_tsid(&key).ok_or(StoreError::Corrupt(CodecError::LengthOverflow {
                    what: "Versions key",
                    len: key.len() as u64,
                }))?;
            let Some(span) = self.spans.get(tsid as usize) else {
                continue;
            };
            let (_sid, pid) = span.placement(nid);
            let chunk_count = span.meta.checkpoints.len();
            chain
                .extend(decode_chain(&bytes, tsid, pid, chunk_count).map_err(StoreError::Corrupt)?);
        }
        Ok(chain)
    }

    /// Every event touching `nid` with `after < time < before`
    /// (`after = None`: from time 0 on), in trace order — the one
    /// routine behind every node-centric history read (Algorithm 2
    /// without its initial state).
    ///
    /// One rule locates the events, with or without chains: per span of
    /// this view, the chunks whose checkpoints can bound an event of
    /// the range ([`TimespanMeta::chunk_overlaps`]) at the node's
    /// micro-partition — the Log scan Table 1 prices at `|G|`, all an
    /// index built without chains
    /// ([`TgiConfig::version_chains`](crate::TgiConfig) off) can do —
    /// and, when the index keeps version chains, only those the node's
    /// chain names. The build names a chunk only beside the node's
    /// non-empty bucket, so a named chunk whose row is absent is
    /// [`StoreError::Corrupt`], never a shorter history; without chains
    /// an absent row is an empty bucket. A span's chunks share a
    /// placement, so whatever the read cache does not hold travels in
    /// one multi-get per span. Chunks are concatenated in `(tsid,
    /// chunk)` order and never re-sorted: events sharing a timestamp
    /// keep the order they were ingested in.
    ///
    /// [`TimespanMeta::chunk_overlaps`]: crate::TimespanMeta::chunk_overlaps
    pub(crate) fn node_events(
        &self,
        nid: NodeId,
        after: Option<Time>,
        before: Time,
    ) -> Result<Vec<Event>, StoreError> {
        let sid = sid_of(nid, self.cfg.horizontal_partitions);
        let chains = self.cfg.version_chains;
        // `(span, chunk, pid)` in `(tsid, chunk)` order. A chain is in
        // that order already, and filtering its entries costs the
        // node's chunks where filtering every chunk costs the spans'.
        let refs: Vec<(&SpanRuntime, u32, u32)> = if chains {
            let chain = self.try_version_chain(nid)?;
            chain
                .into_iter()
                .filter_map(|e| {
                    let span = self.spans.get(e.tsid as usize)?;
                    let overlaps = span.meta.chunk_overlaps(e.chunk, after, before);
                    overlaps.then_some((&**span, e.chunk, e.pid))
                })
                .collect()
        } else {
            let mut refs = Vec::new();
            for span in &self.spans {
                let (meta, (_sid, pid)) = (&span.meta, span.placement(nid));
                let chunks = meta.chunks_overlapping(after, before);
                refs.extend(chunks.map(|chunk| (&**span, chunk, pid)));
            }
            refs
        };
        // One fetch per span: its `(span, did, pid)` keys.
        let mut spans: Vec<Vec<(&SpanRuntime, u64, u32)>> = Vec::new();
        for (span, chunk, pid) in refs {
            let key = (span, ELIST_BASE + chunk as u64, pid);
            match spans.last_mut() {
                Some(keys)
                    if keys
                        .first()
                        .is_some_and(|k| k.0.meta.tsid == span.meta.tsid) =>
                {
                    keys.push(key)
                }
                _ => spans.push(vec![key]),
            }
        }
        let in_range = |e: &Event| after.is_none_or(|a| e.time > a) && e.time < before;
        let lists: Vec<Result<Vec<Event>, StoreError>> =
            parallel_steal(spans, self.clients, |keys| {
                let mut events = Vec::new();
                let rows = self.try_fetch_rows(sid, &keys)?;
                for (row, &(_, did, _pid)) in rows.iter().zip(&keys) {
                    match row {
                        Some(Row::Events(el)) => {
                            events.extend(el.events_touching(nid)?.into_iter().filter(in_range))
                        }
                        _ if chains => {
                            return Err(StoreError::Corrupt(CodecError::BadRef {
                                what: "chain chunk without an eventlist row",
                                id: did - ELIST_BASE,
                            }))
                        }
                        _ => {}
                    }
                }
                Ok(events)
            });
        let mut events: Vec<Event> = Vec::new();
        for list in lists {
            events.extend(list?);
        }
        Ok(events)
    }

    /// Node history over `range` (Algorithm 2): initial state at
    /// `range.start`, then all events touching the node inside the
    /// range (`node_events`), fetched with the view's client width.
    pub fn try_node_history(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<NodeHistory, StoreError> {
        Ok(NodeHistory {
            id: nid,
            range,
            initial: self.try_node_at(nid, range.start)?,
            events: self.node_events(nid, Some(range.start), range.end)?,
        })
    }

    // ------------------------------------------------------------------
    // Algorithms 3 & 4: k-hop neighborhood
    // ------------------------------------------------------------------

    /// The k-hop neighborhood of `center` as of `t`, as a partitioned
    /// snapshot restricted to the neighborhood's nodes. The fetch
    /// strategy (Algorithm 3 vs 4) is picked automatically from the
    /// Table-1 access-cost estimators; use [`TgiView::try_khop_with`] to
    /// force one.
    pub fn try_khop(&self, center: NodeId, t: Time, k: usize) -> Result<Delta, StoreError> {
        self.try_khop_with(center, t, k, self.khop_strategy_for(t, k))
    }

    /// K-hop neighborhood with an explicit strategy (§4.6, Algorithms
    /// 3 & 4).
    pub fn try_khop_with(
        &self,
        center: NodeId,
        t: Time,
        k: usize,
        strategy: KhopStrategy,
    ) -> Result<Delta, StoreError> {
        match strategy {
            KhopStrategy::ViaSnapshot => self.try_khop_via_snapshot(center, t, k),
            KhopStrategy::Recursive => self.try_khop_recursive(center, t, k),
        }
    }

    /// Pick the cheaper k-hop strategy for this index and `k` by
    /// evaluating the paper's Table-1 access-cost formulas
    /// ([`crate::costs::access_cost`]) on the index's current shape:
    /// the recursive walk costs roughly one micro-partition one-hop
    /// fetch per frontier node (`~|R|^(k-1)` of them), while the
    /// via-snapshot plan pays the fixed full-path cost once.
    fn khop_strategy_for(&self, t: Time, k: usize) -> KhopStrategy {
        let span = self.span_for(t);
        let s = (self.node_count.max(1)) as f64;
        let g = (self.event_count.max(1)) as f64;
        let e = self.cfg.eventlist_size as f64;
        let h = (span.meta.shape.height().max(1)) as f64;
        let pid_total: u32 = span.meta.pid_counts.iter().sum();
        let p = (pid_total as f64 / span.meta.pid_counts.len().max(1) as f64).max(1.0);
        let r = (2.0 * self.edge_count as f64 / s).max(1.0);
        let w = CostProfile {
            g,
            s,
            e,
            h,
            v: (g / s).max(1.0),
            r,
            p,
            c: (2.0 * g / s).max(1.0),
        };
        let (snap_cost, _) = access_cost(IndexKind::Tgi, QueryKind::Snapshot, &w);
        let (hop_cost, _) = access_cost(IndexKind::Tgi, QueryKind::OneHop, &w);
        let recursive_cost = hop_cost * r.powi(k.saturating_sub(1) as i32);
        if recursive_cost <= snap_cost {
            KhopStrategy::Recursive
        } else {
            KhopStrategy::ViaSnapshot
        }
    }

    fn try_khop_via_snapshot(
        &self,
        center: NodeId,
        t: Time,
        k: usize,
    ) -> Result<Delta, StoreError> {
        let snap = self.try_snapshot(t)?;
        let keep = bfs_set(&snap, center, k);
        Ok(snap.restrict(|id| keep.contains(&id)))
    }

    fn try_khop_recursive(&self, center: NodeId, t: Time, k: usize) -> Result<Delta, StoreError> {
        let span = self.span_for(t);
        let j = span.meta.leaf_for_time(t) as u32;

        let mut part_states: FxHashMap<(u32, u32), Delta> = FxHashMap::default();
        let mut elist_cache: FxHashMap<(u32, u32), Option<Row>> = FxHashMap::default();

        let (center_sid, center_pid) = span.placement(center);
        let center_state = self.try_fetch_partition_state(span, center_sid, center_pid, t)?;

        // Auxiliary 1-hop replicas (Fig. 5d): states of boundary
        // neighbors at checkpoint j, to be rolled forward with their
        // own eventlist chunks. Aux rows are write-once too, so they
        // ride the same read cache — held by `Arc`, never deep-copied
        // (the resolve closure only ever reads one record of it).
        let aux = if self.cfg.replicates_boundary() {
            let key = (span, AUX_BASE + j as u64, center_pid);
            self.try_fetch_rows(center_sid, &[key])?.pop().flatten()
        } else {
            None
        };
        part_states.insert((center_sid, center_pid), center_state);

        let mut result: Delta = Delta::new();
        let resolve = |nid: NodeId,
                       part_states: &mut FxHashMap<(u32, u32), Delta>,
                       elist_cache: &mut FxHashMap<(u32, u32), Option<Row>>|
         -> Result<Option<StaticNode>, StoreError> {
            let (sid, pid) = span.placement(nid);
            if let Some(state) = part_states.get(&(sid, pid)) {
                return Ok(state.node(nid).cloned());
            }
            // Aux fast path: state at checkpoint + roll forward with the
            // node's own eventlist chunk only (columnar rows answer the
            // record probe and the touching-events pull without
            // materializing unrelated columns).
            let aux_base = match &aux {
                Some(Row::Tree(a)) => a.record(nid)?,
                _ => None,
            };
            if let Some(base) = aux_base {
                let el = match elist_cache.entry((sid, pid)) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        let key = (span, ELIST_BASE + j as u64, pid);
                        slot.insert(self.try_fetch_rows(sid, &[key])?.pop().flatten())
                    }
                };
                let mut scratch = Delta::new();
                scratch.insert(base);
                if let Some(Row::Events(el)) = el {
                    el.replay_node(&mut scratch, nid, t)?;
                }
                return Ok(scratch.node(nid).cloned());
            }
            // Full micro-partition fetch.
            let state = self.try_fetch_partition_state(span, sid, pid, t)?;
            let out = state.node(nid).cloned();
            part_states.insert((sid, pid), state);
            Ok(out)
        };

        let mut frontier: Vec<NodeId> = vec![center];
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        seen.insert(center);
        for hop in 0..=k {
            let mut next: Vec<NodeId> = Vec::new();
            for nid in frontier.drain(..) {
                let Some(node) = resolve(nid, &mut part_states, &mut elist_cache)? else {
                    continue;
                };
                if hop < k {
                    for nbr in node.all_neighbors() {
                        if seen.insert(nbr) {
                            next.push(nbr);
                        }
                    }
                }
                result.insert(node);
            }
            frontier = next;
        }
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Algorithm 5: 1-hop neighborhood history
    // ------------------------------------------------------------------

    /// The evolving 1-hop neighborhood of `nid` over `range`
    /// (Algorithm 5): the center's history plus the history of every
    /// node that is its neighbor at any point in the range.
    pub fn try_one_hop_history(
        &self,
        nid: NodeId,
        range: TimeRange,
    ) -> Result<NeighborhoodHistory, StoreError> {
        let center = self.try_node_history(nid, range)?;
        let mut nbrs: FxHashSet<NodeId> = FxHashSet::default();
        if let Some(n) = &center.initial {
            nbrs.extend(n.all_neighbors());
        }
        for e in &center.events {
            let (a, b) = e.kind.touched();
            if a != nid {
                nbrs.insert(a);
            }
            if let Some(b) = b {
                if b != nid {
                    nbrs.insert(b);
                }
            }
        }
        let mut list: Vec<NodeId> = nbrs.into_iter().collect();
        list.sort_unstable();
        let fetched: Vec<Result<NodeHistory, StoreError>> =
            parallel_steal(list, self.clients, |m| self.try_node_history(m, range));
        let neighbors = fetched.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(NeighborhoodHistory {
            center,
            neighbors,
            range,
        })
    }
}

impl TgiView {
    // ------------------------------------------------------------------
    // bulk fetch (the TAF parallel-fetch protocol's per-worker unit)
    // ------------------------------------------------------------------

    /// All node histories of one horizontal partition over `range`:
    /// the partition's state at `range.start` plus, per node, the
    /// events touching it strictly inside the range. Nodes that first
    /// appear mid-range are included with `initial == None`. A `sid` at
    /// or past the horizontal partition count holds no node, so its
    /// answer is empty.
    ///
    /// This is the bulk equivalent of Algorithm 2 and the fetch unit
    /// of the TAF protocol (Fig. 10: each analytics worker pulls whole
    /// horizontal partitions); one call per `sid` reconstructs the
    /// whole `SoN`. The eventlist chunks of every span of one placement
    /// block are pulled in one grouped scan (one round-trip per block,
    /// through the fill's prefix reader), and store failures are
    /// propagated instead of silently dropping a block's worth of
    /// events.
    pub fn try_node_histories_for_sid(
        &self,
        sid: u32,
        range: TimeRange,
    ) -> Result<Vec<NodeHistory>, StoreError> {
        let ns = self.cfg.horizontal_partitions;
        // Initial states: the sid's slice of the snapshot at range.start.
        let initial = self.try_sid_state_at(sid, range.start)?;
        let mut histories: FxHashMap<NodeId, NodeHistory> = FxHashMap::default();
        for n in initial.iter() {
            histories.insert(
                n.id,
                NodeHistory {
                    id: n.id,
                    range,
                    initial: Some(n.clone()),
                    events: Vec::new(),
                },
            );
        }
        // Every eventlist chunk overlapping (range.start, range.end), in
        // `(tsid, chunk)` order — which keeps events of one time in
        // trace order — read one grouped scan per placement block.
        let chunks: Vec<(u32, u64)> = self
            .spans
            .iter()
            .filter(|span| span.map(sid).is_some())
            .flat_map(|span| {
                let meta = &span.meta;
                let overlapping = meta.chunks_overlapping(Some(range.start), range.end);
                overlapping.map(|chunk| (meta.tsid, ELIST_BASE + u64::from(chunk)))
            })
            .collect();
        let block = |&(tsid, _): &(u32, u64)| PlacementKey::of_span(tsid, sid);
        for scanned in chunks.chunk_by(|a, b| block(a) == block(b)) {
            let rows = self.span_rows(sid, scanned)?;
            for &(tsid, did) in scanned {
                let span = self.span_of(tsid)?;
                let Some(map) = span.map(sid) else {
                    continue;
                };
                for (k, v) in rows.get(&(tsid, did)).into_iter().flatten() {
                    let Some(dk) = DeltaKey::decode(k) else {
                        continue;
                    };
                    let el = self.decoded_elist(span, sid, dk.did, dk.pid, v)?;
                    for e in el.events() {
                        if e.time <= range.start || e.time >= range.end {
                            continue;
                        }
                        let (a, b) = e.kind.touched();
                        // A node's events live exactly in its own pid's
                        // list, which also dedups the cross-pid copies.
                        for nid in [Some(a), b].into_iter().flatten() {
                            if sid_of(nid, ns) != sid || map.assign(nid) != dk.pid {
                                continue;
                            }
                            histories
                                .entry(nid)
                                .or_insert_with(|| NodeHistory {
                                    id: nid,
                                    range,
                                    initial: None,
                                    events: Vec::new(),
                                })
                                .events
                                .push(e.clone());
                            if b == Some(a) {
                                break;
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<NodeHistory> = histories.into_values().collect();
        for h in out.iter_mut() {
            h.events.sort_by_key(|e| e.time);
        }
        out.sort_by_key(|h| h.id);
        Ok(out)
    }
}

/// BFS over a materialized snapshot (used by Algorithm 3).
fn bfs_set(snap: &Delta, center: NodeId, k: usize) -> FxHashSet<NodeId> {
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    if snap.node(center).is_none() {
        return seen;
    }
    seen.insert(center);
    let mut frontier = vec![center];
    for _ in 0..k {
        let mut next = Vec::new();
        for id in frontier {
            if let Some(n) = snap.node(id) {
                for nbr in n.all_neighbors() {
                    if seen.insert(nbr) {
                        next.push(nbr);
                    }
                }
            }
        }
        frontier = next;
    }
    seen
}
