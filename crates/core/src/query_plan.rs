//! Multipoint snapshot retrieval planner (§4.6).
//!
//! Temporal queries frequently ask for the graph at *many* time points
//! (evolution plots, TAF fetches, multipoint analytics). The naive
//! approach — one [`TgiView::try_snapshot`] per time — refetches, re-decodes
//! and re-materializes the entire root-to-leaf delta path for every
//! point, even though the paths of nearby time points are mostly
//! identical. This module plans a whole batch of query times at once:
//!
//! 1. **Group** the times by timespan and by tree leaf (eventlist
//!    chunk);
//! 2. **Union** the root-to-leaf delta ids of all requested leaves per
//!    `(tsid, sid)` chunk and **fetch** each `(sid, did, pid)` row
//!    exactly once through the store's grouped-scan API
//!    ([`hgs_store::SimStore::scan_prefix_batch`] — one round-trip per
//!    chunk instead of one per delta);
//! 3. **Decode** each row at most once, ever: decoded rows and the
//!    materialized per-leaf checkpoint states land in the session-wide
//!    byte-budgeted LRU [`ReadCache`](crate::read_cache::ReadCache)
//!    ([`TgiView::set_read_cache_budget`]), shared with every single-point
//!    query path. Index rows are write-once (spans are append-only),
//!    so cached entries can never go stale. Each chunk's eventlist
//!    scan is *never* skipped — a fully-down chunk still surfaces
//!    [`StoreError::Unavailable`](hgs_store::StoreError) rather than
//!    being papered over by the cache;
//! 4. **Materialize** each requested snapshot by cloning the shared
//!    leaf state at its divergence point and replaying only the
//!    per-time eventlist suffix (times within one leaf advance a
//!    single replay cursor and capture states as it passes them).
//!
//! Together the shared fetch, the decode cache and the
//! clone-at-divergence materialization make `k` time points cost about
//! one shared path walk plus the unavoidable output construction — the
//! `~1×+ε` behaviour the paper's DeltaGraph ancestry promises, instead
//! of `k×`.
//!
//! # Parallel fill (`clients > 1`)
//!
//! With `c` fetch clients the fill is decomposed into one work item
//! per `(sid, leaf)` pulled from a shared work-stealing queue
//! ([`hgs_store::parallel::parallel_steal`]): a hot leaf or a skewed
//! horizontal partition delays only its own item, not a statically
//! assigned chunk of followers, and the fan-out is clamped to the item
//! count so degenerate single-point plans never over-spawn. Each item
//! probes (and on a miss populates) the per-`(tsid, sid, leaf)`
//! checkpoint-state cache tier
//! ([`CacheKey::SidLeaf`](crate::read_cache)), so warm multi-client
//! snapshots replay only eventlist suffixes instead of re-summing
//! whole tree paths. The sequential path's whole-graph leaf states are
//! composed from the same per-sid entries, so either path warms the
//! other. Per-item partials merge into input-indexed output slots
//! under explicit filled-ness flags — a legitimately *empty* partial
//! (a sid with no state at `t`) is never conflated with "not yet
//! filled".

use std::sync::Arc;

use hgs_delta::{ColumnarEventlist, Delta, Eventlist, FxHashMap, FxHashSet, Time};
use hgs_store::parallel::parallel_steal;
use hgs_store::{DeltaKey, PlacementKey, StoreError, Table};

use crate::build::{SpanRuntime, TgiView};
use crate::meta::{sid_of, ELIST_BASE};
use crate::query::DeltaHandle;
use crate::read_cache::{CacheKey, Cached};
use crate::scope::apply_event_scoped;

/// Fully decode a stored eventlist row (no cache involvement): the
/// full-replay paths' decoder and the uncached reference path's. A row
/// that fails to decode surfaces [`StoreError::Corrupt`] through the
/// `try_*` surface instead of panicking mid-query.
pub(crate) fn decode_elist_blob(bytes: &bytes::Bytes) -> Result<Eventlist, StoreError> {
    ColumnarEventlist::parse(bytes.clone())
        .and_then(|c| c.to_eventlist())
        .map_err(StoreError::Corrupt)
}

/// How much fetch work a multipoint plan shares, before running it.
///
/// `shared_fetch_units` counts the distinct `(sid, did)` rows the plan
/// pulls (each exactly once); `naive_fetch_units` counts what `k`
/// independent [`TgiView::try_snapshot`] calls would pull. Their ratio is the
/// planner's fetch saving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Number of requested time points.
    pub times: usize,
    /// Distinct timespans touched.
    pub span_groups: usize,
    /// Distinct (timespan, leaf) groups — one eventlist fetch each.
    pub leaf_groups: usize,
    /// Distinct (sid, did) fetch units the plan retrieves once.
    pub shared_fetch_units: usize,
    /// Fetch units a naive per-time loop would retrieve.
    pub naive_fetch_units: usize,
    /// Store round-trips the plan issues (one grouped scan per
    /// (timespan, sid) chunk).
    pub round_trips: usize,
}

/// Times of one leaf group: `(output slot, time)`, ascending by time.
struct LeafGroup {
    leaf: usize,
    times: Vec<(usize, Time)>,
}

/// All leaf groups of one timespan, ascending by leaf index.
struct SpanGroup {
    span_idx: usize,
    leaves: Vec<LeafGroup>,
}

/// A planned multipoint retrieval (internal representation).
pub(crate) struct MultipointPlan {
    groups: Vec<SpanGroup>,
    n_times: usize,
}

impl MultipointPlan {
    pub(crate) fn new(tgi: &TgiView, times: &[Time]) -> MultipointPlan {
        // span_idx -> leaf -> [(slot, t)], kept ordered so materialized
        // states distribute deterministically.
        let mut groups: Vec<SpanGroup> = Vec::new();
        let mut by_span: FxHashMap<usize, FxHashMap<usize, Vec<(usize, Time)>>> =
            FxHashMap::default();
        for (slot, &t) in times.iter().enumerate() {
            let span_idx = tgi.span_index_for(t);
            let leaf = tgi.spans[span_idx].meta.leaf_for_time(t);
            by_span
                .entry(span_idx)
                .or_default()
                .entry(leaf)
                .or_default()
                .push((slot, t));
        }
        let mut span_ids: Vec<usize> = by_span.keys().copied().collect();
        span_ids.sort_unstable();
        for span_idx in span_ids {
            // hgs-lint: allow(no-panic-in-try, "span_ids are by_span's own keys, each removed exactly once")
            let leaves_map = by_span.remove(&span_idx).expect("key listed");
            let mut leaf_ids: Vec<usize> = leaves_map.keys().copied().collect();
            leaf_ids.sort_unstable();
            let leaves = leaf_ids
                .into_iter()
                .map(|leaf| {
                    let mut ts = leaves_map[&leaf].clone();
                    ts.sort_by_key(|&(_, t)| t);
                    LeafGroup { leaf, times: ts }
                })
                .collect();
            groups.push(SpanGroup { span_idx, leaves });
        }
        MultipointPlan {
            groups,
            n_times: times.len(),
        }
    }

    /// Summarize the plan's sharing against the per-time naive loop.
    fn summary(&self, tgi: &TgiView) -> PlanSummary {
        let ns = tgi.cfg.horizontal_partitions as usize;
        let mut s = PlanSummary {
            times: self.n_times,
            span_groups: self.groups.len(),
            ..PlanSummary::default()
        };
        for g in &self.groups {
            let meta = &tgi.spans[g.span_idx].meta;
            let mut union: FxHashSet<u64> = FxHashSet::default();
            for lg in &g.leaves {
                s.leaf_groups += 1;
                let path = meta.shape.path_to_leaf(lg.leaf);
                // Naive: every time refetches its whole path + elist.
                s.naive_fetch_units += lg.times.len() * ns * (path.len() + 1);
                union.extend(path);
                union.insert(ELIST_BASE + lg.leaf as u64);
            }
            s.shared_fetch_units += ns * union.len();
            s.round_trips += ns;
        }
        s
    }
}

/// Rows of one `(tsid, sid)` batch, grouped by did.
type RowsByDid = FxHashMap<u64, Vec<(Vec<u8>, bytes::Bytes)>>;

/// One sid's share of a span group, fetched once (a single grouped
/// scan) and shared by all of that sid's `(sid, leaf)` work items:
/// the per-leaf checkpoint states resolved from the cache at fetch
/// time (held by `Arc`, so later eviction cannot strand a replay
/// whose tree rows were skipped) plus the scanned rows.
struct SidGroupFetch {
    /// Cached checkpoint state per leaf index of the group, if any.
    bases: Vec<Option<Arc<Delta>>>,
    rows: RowsByDid,
}

impl TgiView {
    /// Inspect how a multipoint retrieval over `times` would share
    /// fetch work (without touching the store).
    pub fn plan_multipoint(&self, times: &[Time]) -> PlanSummary {
        MultipointPlan::new(self, times).summary(self)
    }

    /// Multipoint snapshot retrieval through the shared-path planner:
    /// the graph state at each requested time, in input order.
    ///
    /// Equivalent to (and tested against) `times.len()` independent
    /// [`TgiView::try_snapshot`] calls, but each tree-path delta row is
    /// fetched once per `(tsid, sid)` chunk and decoded at most once,
    /// ever; each snapshot is materialized by cloning the shared leaf
    /// state and replaying only its per-time eventlist suffix. Each
    /// chunk's eventlist scan is never skipped, so failures still
    /// surface as [`StoreError::Unavailable`](hgs_store::StoreError).
    /// The fill runs at the view's client width
    /// ([`TgiView::with_clients`]); the degenerate `times.len() == 1`
    /// form of this is what [`TgiView::try_snapshot`] runs.
    pub fn try_snapshots(&self, times: &[Time]) -> Result<Vec<Delta>, StoreError> {
        let c = self.clients;
        let plan = MultipointPlan::new(self, times);
        let mut out: Vec<Delta> = (0..times.len()).map(|_| Delta::new()).collect();
        // Explicit per-slot filled-ness for the parallel merge: a
        // legitimately *empty* first partial (a sid with no state
        // before `t`) must not be mistaken for "not yet filled", or a
        // later partial for the same slot would wholesale-overwrite
        // instead of summing.
        let mut filled = vec![false; times.len()];
        let ns = self.cfg.horizontal_partitions;
        for group in &plan.groups {
            // hgs-lint: allow(no-panic-in-try, "plan groups carry span_idx values produced by enumerating self.spans")
            let span = &self.spans[group.span_idx];
            if c <= 1 {
                self.fill_group_sequential(span, &group.leaves, &mut out)?;
                continue;
            }
            // Parallel clients: one work item per (sid, leaf) pulled
            // from a shared work-stealing queue — skewed partitions
            // and hot leaves no longer gate the group on the slowest
            // sid. The *fetch* stays batched per sid (one grouped
            // scan covering all of the group's leaves, exactly like
            // the sequential path): whichever item of a sid is
            // claimed first performs it, and the sid's other items
            // share the result through a `OnceLock`. Cache probes for
            // the per-sid checkpoint states happen at fetch time and
            // the resulting `Arc`s ride along, so an eviction between
            // fetch and replay can never strand an item with rows
            // that lack its tree path. Items return per-time
            // partials, merged in deterministic item order; any
            // failed item fails the whole batch.
            let tsid = span.meta.tsid;
            let fetches: Vec<std::sync::OnceLock<Result<SidGroupFetch, StoreError>>> =
                (0..ns).map(|_| std::sync::OnceLock::new()).collect();
            // Leaf-major item order spreads the workers' initial
            // claims across sids, so the per-sid fetches overlap
            // instead of queueing behind one lock.
            let items: Vec<(u32, usize)> = (0..group.leaves.len())
                .flat_map(|li| (0..ns).map(move |sid| (sid, li)))
                .collect();
            let per_item: Vec<Result<Vec<Delta>, StoreError>> =
                parallel_steal(items.clone(), c, |(sid, li)| {
                    // hgs-lint: allow(no-panic-in-try, "work items carry sid < ns and fetches holds ns entries")
                    let fetch = fetches[sid as usize].get_or_init(|| {
                        let bases: Vec<Option<Arc<Delta>>> = group
                            .leaves
                            .iter()
                            .map(|lg| {
                                let key = CacheKey::SidLeaf(tsid, sid, lg.leaf as u32);
                                match self.read_cache.get(key) {
                                    Some(Cached::Delta(d)) => Some(d),
                                    _ => None,
                                }
                            })
                            .collect();
                        let need_tree: Vec<bool> = bases.iter().map(|b| b.is_none()).collect();
                        let rows = self.span_rows(span, &group.leaves, &need_tree, sid)?;
                        Ok(SidGroupFetch { bases, rows })
                    });
                    match fetch {
                        Ok(f) => self.fill_sid_leaf(
                            span,
                            // hgs-lint: allow(no-panic-in-try, "li enumerates group.leaves; the fetch built one base slot per leaf")
                            &group.leaves[li],
                            sid,
                            // hgs-lint: allow(no-panic-in-try, "li enumerates group.leaves; the fetch built one base slot per leaf")
                            f.bases[li].clone(),
                            &f.rows,
                        ),
                        Err(e) => Err(e.clone()),
                    }
                });
            for ((_, li), partials) in items.into_iter().zip(per_item) {
                // hgs-lint: allow(no-panic-in-try, "slot indices were assigned by the planner from times.len()")
                let lg = &group.leaves[li];
                for ((slot, _), partial) in lg.times.iter().zip(partials?) {
                    // hgs-lint: allow(no-panic-in-try, "slot indices were assigned by the planner from times.len()")
                    if filled[*slot] {
                        // hgs-lint: allow(no-panic-in-try, "slot indices were assigned by the planner from times.len()")
                        out[*slot].sum_assign_owned(partial);
                    } else {
                        // hgs-lint: allow(no-panic-in-try, "slot indices were assigned by the planner from times.len()")
                        out[*slot] = partial;
                        // hgs-lint: allow(no-panic-in-try, "slot indices were assigned by the planner from times.len()")
                        filled[*slot] = true;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Fetch one `(tsid, sid)` chunk's rows for a span group — the
    /// union of the tree paths of `tree_leaves` plus the eventlist
    /// chunks of every leaf — in a single grouped scan. Leaves whose
    /// checkpoint state is already cached are omitted from the tree
    /// union (their eventlist prefixes still hit the same
    /// `(tsid, sid)` placement, so a down chunk surfaces either way).
    fn span_rows(
        &self,
        span: &SpanRuntime,
        leaves: &[LeafGroup],
        tree_leaves: &[bool],
        sid: u32,
    ) -> Result<RowsByDid, StoreError> {
        let meta = &span.meta;
        let mut dids: Vec<u64> = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for (lg, &need_tree) in leaves.iter().zip(tree_leaves) {
            if need_tree {
                for did in meta.shape.path_to_leaf(lg.leaf) {
                    if seen.insert(did) {
                        dids.push(did);
                    }
                }
            }
            dids.push(ELIST_BASE + lg.leaf as u64);
        }
        let prefixes: Vec<[u8; 16]> = dids
            .iter()
            .map(|&did| DeltaKey::delta_prefix(meta.tsid, sid, did))
            .collect();
        let refs: Vec<&[u8]> = prefixes.iter().map(|p| &p[..]).collect();
        let token = PlacementKey::new(meta.tsid, sid).token();
        let groups = self.store.scan_prefix_batch(Table::Deltas, &refs, token)?;
        Ok(dids.into_iter().zip(groups).collect())
    }

    /// Sum a tree row into `state` — the sum of the rows above it on
    /// the path — and, when the row arrived as pieces and the cache is
    /// on, keep its path-complete form under `key`, so the next sum
    /// of this row is a node-level one.
    pub(crate) fn sum_tree_row(
        &self,
        state: &mut Delta,
        key: CacheKey,
        row: &DeltaHandle,
    ) -> Result<(), StoreError> {
        if let Some(full) = row.sum_into(state, None, self.read_cache.is_enabled())? {
            self.read_cache.put(key, Cached::Delta(full));
        }
        Ok(())
    }

    /// Sum one horizontal partition's scanned root-to-leaf path into
    /// `state`: `rows` are its tree rows as `(did, pid, bytes)` in path
    /// order (root first). Micro-partitions hold disjoint node sets,
    /// so they are summed one after the other — each one's rows root
    /// first — which keeps the few hundred nodes a piece can land on
    /// hot while its path is applied.
    ///
    /// `through_cache` probes the read cache per row and leaves the
    /// row's path-complete form there. Full-replay callers need every
    /// record, so a lazily-decoded columnar entry left by a
    /// node-scoped path does not satisfy the probe: the row is applied
    /// from its bytes and the entry refreshed (write-once rows make
    /// this safe).
    pub(crate) fn sum_scanned_path(
        &self,
        state: &mut Delta,
        tsid: u32,
        sid: u32,
        mut rows: Vec<(u64, u32, bytes::Bytes)>,
        through_cache: bool,
    ) -> Result<(), StoreError> {
        rows.sort_by_key(|&(_, pid, _)| pid); // stable: path order within a pid
        for (did, pid, bytes) in rows {
            if !through_cache {
                DeltaHandle::parse(bytes)?.sum_into(state, None, false)?;
                continue;
            }
            let key = CacheKey::Row(tsid, sid, did, pid);
            let row = match self.read_cache.get(key.clone()) {
                Some(Cached::Delta(d)) => DeltaHandle::Full(d),
                _ => DeltaHandle::parse(bytes)?,
            };
            self.sum_tree_row(state, key, &row)?;
        }
        Ok(())
    }

    /// Decode a fetched eventlist row through the read cache (see
    /// [`TgiView::sum_scanned_path`] for the columnar-entry refresh
    /// rule).
    pub(crate) fn decoded_elist(
        &self,
        tsid: u32,
        sid: u32,
        did: u64,
        pid: u32,
        bytes: &bytes::Bytes,
    ) -> Result<Arc<Eventlist>, StoreError> {
        let key = CacheKey::Row(tsid, sid, did, pid);
        match self.read_cache.get(key) {
            Some(Cached::Elist(e)) => Ok(e),
            _ => self.insert_decoded_elist(tsid, sid, did, pid, bytes),
        }
    }

    /// Decode an eventlist row and insert it without a prior cache
    /// probe — for callers that already observed the miss (avoids
    /// double-counting it and a redundant lock round-trip).
    pub(crate) fn insert_decoded_elist(
        &self,
        tsid: u32,
        sid: u32,
        did: u64,
        pid: u32,
        bytes: &bytes::Bytes,
    ) -> Result<Arc<Eventlist>, StoreError> {
        let e = Arc::new(decode_elist_blob(bytes)?);
        self.read_cache
            .put(CacheKey::Row(tsid, sid, did, pid), Cached::Elist(e.clone()));
        Ok(e)
    }

    /// Sequential (single fetch client) materialization of one span
    /// group: one grouped scan per sid, then per leaf a shared
    /// checkpoint state — cached across calls — cloned once per
    /// requested time and rolled forward by a single replay cursor.
    fn fill_group_sequential(
        &self,
        span: &SpanRuntime,
        leaves: &[LeafGroup],
        out: &mut [Delta],
    ) -> Result<(), StoreError> {
        let meta = &span.meta;
        let tsid = meta.tsid;
        let ns = self.cfg.horizontal_partitions;
        // Resolve cached checkpoint states first so the grouped scans
        // only carry the tree paths of leaves that still need
        // building (the fetch itself never disappears: every
        // `(tsid, sid)` chunk is still scanned for its eventlists).
        // The whole-graph `Leaf` state is exactly the sum of the
        // per-sid `SidLeaf` states, so a cache warmed by parallel
        // fills (which populate the per-sid tier) spares the tree
        // fetch here too — and vice versa.
        let bases: Vec<Option<Arc<Delta>>> = leaves
            .iter()
            .map(
                |lg| match self.read_cache.get(CacheKey::Leaf(tsid, lg.leaf as u32)) {
                    Some(Cached::Delta(d)) => Some(d),
                    _ => None,
                },
            )
            .collect();
        // sid_bases[li][sid]: the per-sid tier, probed only while the
        // whole-leaf state is absent.
        let sid_bases: Vec<Vec<Option<Arc<Delta>>>> = leaves
            .iter()
            .zip(&bases)
            .map(|(lg, base)| {
                if base.is_some() {
                    vec![None; ns as usize]
                } else {
                    (0..ns)
                        .map(|sid| {
                            let key = CacheKey::SidLeaf(tsid, sid, lg.leaf as u32);
                            match self.read_cache.get(key) {
                                Some(Cached::Delta(d)) => Some(d),
                                _ => None,
                            }
                        })
                        .collect()
                }
            })
            .collect();
        let mut per_sid: Vec<RowsByDid> = Vec::with_capacity(ns as usize);
        for sid in 0..ns {
            let need_tree: Vec<bool> = (0..leaves.len())
                .map(|li| bases[li].is_none() && sid_bases[li][sid as usize].is_none())
                .collect();
            per_sid.push(self.span_rows(span, leaves, &need_tree, sid)?);
        }
        for (li, (lg, base)) in leaves.iter().zip(bases).enumerate() {
            // Shared checkpoint state of this leaf (all sids), cached:
            // it derives purely from write-once rows, composed as the
            // sum of the per-sid states (each built by the same
            // routine the parallel fill uses and cached in its own
            // right for it to reuse).
            let base = match base {
                Some(d) => d,
                None => {
                    let mut state = Delta::new();
                    for (sid, rows) in per_sid.iter().enumerate() {
                        let sid_state = match &sid_bases[li][sid] {
                            Some(d) => Arc::clone(d),
                            None => self.build_sid_leaf_state(span, lg.leaf, sid as u32, rows)?,
                        };
                        match Arc::try_unwrap(sid_state) {
                            Ok(ours) => state.sum_assign_owned(ours),
                            Err(shared) => state.sum_assign(&shared),
                        }
                    }
                    let arc = Arc::new(state);
                    self.read_cache.put(
                        CacheKey::Leaf(tsid, lg.leaf as u32),
                        Cached::Delta(arc.clone()),
                    );
                    arc
                }
            };
            // Eventlist pieces of this leaf, all sids.
            let elist_did = ELIST_BASE + lg.leaf as u64;
            let mut pieces: Vec<(u32, u32, Arc<Eventlist>)> = Vec::new();
            for (sid, rows) in per_sid.iter().enumerate() {
                let Some(rows) = rows.get(&elist_did) else {
                    continue;
                };
                for (k, bytes) in rows {
                    let Some(dk) = DeltaKey::decode(k) else {
                        continue;
                    };
                    let el = self.decoded_elist(tsid, sid as u32, elist_did, dk.pid, bytes)?;
                    pieces.push((sid as u32, dk.pid, el));
                }
            }
            for ((slot, _), state) in lg
                .times
                .iter()
                .zip(self.replay_leaf_times(span, base, &pieces, &lg.times))
            {
                out[*slot] = state;
            }
        }
        Ok(())
    }

    /// One horizontal partition's contribution to every time of one
    /// leaf group — the parallel fill's work-stealing unit.
    ///
    /// `base` is the per-`(tsid, sid, leaf)` checkpoint state as
    /// resolved from the read cache when this sid's rows were fetched
    /// (see [`SidGroupFetch`]): on a hit the tree path was dropped
    /// from the grouped scan entirely and the item replays only this
    /// sid's eventlist suffix; on a miss the state is rebuilt here
    /// from (cached) tree-path rows in root-to-leaf order and the
    /// tier is populated for the next client. The eventlist prefix is
    /// always scanned, so a down chunk surfaces
    /// [`StoreError::Unavailable`] even on a fully-warm state.
    /// Returns one partial per requested time, aligned with
    /// `lg.times`.
    fn fill_sid_leaf(
        &self,
        span: &SpanRuntime,
        lg: &LeafGroup,
        sid: u32,
        base: Option<Arc<Delta>>,
        rows: &RowsByDid,
    ) -> Result<Vec<Delta>, StoreError> {
        let tsid = span.meta.tsid;
        let base = match base {
            Some(d) => d,
            None => self.build_sid_leaf_state(span, lg.leaf, sid, rows)?,
        };
        // Eventlist pieces of this sid (all pids), then the shared
        // cursor replay.
        let elist_did = ELIST_BASE + lg.leaf as u64;
        let mut pieces: Vec<(u32, u32, Arc<Eventlist>)> = Vec::new();
        if let Some(rows) = rows.get(&elist_did) {
            for (k, bytes) in rows {
                let Some(dk) = DeltaKey::decode(k) else {
                    continue;
                };
                let el = self.decoded_elist(tsid, sid, elist_did, dk.pid, bytes)?;
                pieces.push((sid, dk.pid, el));
            }
        }
        Ok(self.replay_leaf_times(span, base, &pieces, &lg.times))
    }

    /// Sum one sid's tree-path rows for `leaf` into a checkpoint
    /// state and cache it under its `SidLeaf` key. Both fill paths —
    /// sequential composition and parallel work items — build per-sid
    /// states through this one routine, so the tier's entries are
    /// identical whichever path populated them.
    fn build_sid_leaf_state(
        &self,
        span: &SpanRuntime,
        leaf: usize,
        sid: u32,
        rows: &RowsByDid,
    ) -> Result<Arc<Delta>, StoreError> {
        let meta = &span.meta;
        let tsid = meta.tsid;
        let mut state = Delta::new();
        let mut path_rows = Vec::new();
        for did in meta.shape.path_to_leaf(leaf) {
            for (k, bytes) in rows.get(&did).into_iter().flatten() {
                if let Some(dk) = DeltaKey::decode(k) {
                    path_rows.push((did, dk.pid, bytes.clone()));
                }
            }
        }
        self.sum_scanned_path(&mut state, tsid, sid, path_rows, true)?;
        let arc = Arc::new(state);
        self.read_cache.put(
            CacheKey::SidLeaf(tsid, sid, leaf as u32),
            Cached::Delta(arc.clone()),
        );
        Ok(arc)
    }

    /// Clone `base` once at the divergence point (the leaf), then
    /// advance a single replay cursor per eventlist piece over
    /// `times` (ascending), capturing one state per time. The shared
    /// materialization tail of both fill paths.
    fn replay_leaf_times(
        &self,
        span: &SpanRuntime,
        base: Arc<Delta>,
        pieces: &[(u32, u32, Arc<Eventlist>)],
        times: &[(usize, Time)],
    ) -> Vec<Delta> {
        let ns = self.cfg.horizontal_partitions;
        // A state no cache kept (budget 0, or an oversized entry) is
        // ours alone: replay onto it instead of onto a copy.
        let mut cur: Delta = Arc::try_unwrap(base).unwrap_or_else(|shared| (*shared).clone());
        let mut cursors = vec![0usize; pieces.len()];
        let mut out: Vec<Delta> = Vec::with_capacity(times.len());
        for (i, &(_, t)) in times.iter().enumerate() {
            for (pi, (sid, pid, el)) in pieces.iter().enumerate() {
                let map = &span.maps[*sid as usize];
                let evs = el.events();
                while cursors[pi] < evs.len() && evs[cursors[pi]].time <= t {
                    apply_event_scoped(&mut cur, &evs[cursors[pi]].kind, |id| {
                        sid_of(id, ns) == *sid && map.assign(id) == *pid
                    });
                    cursors[pi] += 1;
                }
            }
            if i + 1 == times.len() {
                out.push(std::mem::take(&mut cur));
            } else {
                out.push(cur.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Tgi;
    use hgs_delta::Event;
    use hgs_delta::EventKind;

    /// Planner grouping: duplicate and unsorted times land in the
    /// right leaf groups with their original output slots.
    #[test]
    fn plan_groups_preserve_slots() {
        let events: Vec<Event> = (0..200u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let tgi = Tgi::try_build(
            crate::TgiConfig {
                events_per_timespan: 200,
                eventlist_size: 50,
                partition_size: 50,
                horizontal_partitions: 1,
                ..crate::TgiConfig::default()
            },
            hgs_store::StoreConfig::new(1, 1),
            &events,
        )
        .unwrap();
        let times = [150u64, 10, 150, 60];
        let plan = MultipointPlan::new(&tgi, &times);
        let slots: Vec<usize> = plan
            .groups
            .iter()
            .flat_map(|g| g.leaves.iter())
            .flat_map(|lg| lg.times.iter().map(|&(slot, _)| slot))
            .collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "every slot appears once");
        let summary = plan.summary(&tgi);
        assert_eq!(summary.times, 4);
        assert!(summary.shared_fetch_units <= summary.naive_fetch_units);
    }

    /// Warm multi-client fills hit the per-`(tsid, sid, leaf)` state
    /// tier (not just decoded rows), and the tiers are coherent: a
    /// parallel fill warms the sequential path's leaf composition and
    /// vice versa.
    #[test]
    fn parallel_fill_hits_and_warms_the_state_tier() {
        let events: Vec<Event> = (0..400u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let tgi = Tgi::try_build(
            crate::TgiConfig {
                events_per_timespan: 400,
                eventlist_size: 100,
                partition_size: 50,
                horizontal_partitions: 2,
                ..crate::TgiConfig::default()
            },
            hgs_store::StoreConfig::new(2, 1),
            &events,
        )
        .unwrap();
        let (wide, narrow) = (tgi.with_clients(4), tgi.with_clients(1));
        let times = [120u64, 320];
        let cold = wide.try_snapshots(&times).unwrap();
        let s0 = tgi.cache_stats();
        assert_eq!(s0.state_hits, 0, "cold cache has no state hits");
        assert!(s0.state_misses > 0, "cold fill probes the state tier");
        let warm = wide.try_snapshots(&times).unwrap();
        let s1 = tgi.cache_stats();
        assert!(
            s1.state_hits > s0.state_hits,
            "warm parallel fill must hit per-(tsid, sid, leaf) states: {s1:?}"
        );
        assert_eq!(cold, warm);
        // The sequential path composes its whole-leaf states from the
        // per-sid entries the parallel fill populated: no row decode
        // beyond what is already cached, same result.
        let seq = narrow.try_snapshots(&times).unwrap();
        assert_eq!(seq, warm);
        let s2 = tgi.cache_stats();
        assert_eq!(
            s2.row_misses, s1.row_misses,
            "sequential pass after a parallel warm-up re-decodes nothing"
        );
        // And a sequential warm-up serves later parallel fills.
        let par = wide.try_snapshots(&times).unwrap();
        assert_eq!(par, seq);
        let s3 = tgi.cache_stats();
        assert_eq!(s3.row_misses, s2.row_misses);
        assert!(s3.state_hits > s2.state_hits);
    }

    /// The read cache is byte-bounded and serves repeat plans.
    #[test]
    fn read_cache_hits_on_repeat_and_respects_budget() {
        let events: Vec<Event> = (0..400u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let tgi = Tgi::try_build(
            crate::TgiConfig {
                events_per_timespan: 400,
                eventlist_size: 100,
                partition_size: 100,
                horizontal_partitions: 1,
                ..crate::TgiConfig::default()
            },
            hgs_store::StoreConfig::new(1, 1),
            &events,
        )
        .unwrap();
        let times = [100u64, 300];
        let first = tgi.try_snapshots(&times).unwrap();
        let s0 = tgi.cache_stats();
        assert_eq!(s0.hits, 0, "cold cache");
        assert!(s0.misses > 0);
        assert!(s0.bytes <= s0.budget);
        let second = tgi.try_snapshots(&times).unwrap();
        let s1 = tgi.cache_stats();
        assert!(s1.hits > 0, "repeat plan must hit the cache");
        assert_eq!(first, second);
        // Disabling the cache keeps results identical.
        tgi.set_read_cache_budget(0);
        assert_eq!(tgi.cache_stats().bytes, 0, "budget 0 evicts everything");
        let third = tgi.try_snapshots(&times).unwrap();
        assert_eq!(first, third);
        let s2 = tgi.cache_stats();
        let fourth = tgi.try_snapshots(&times).unwrap();
        let s3 = tgi.cache_stats();
        assert_eq!(s2.hits, s3.hits, "disabled cache never hits");
        assert_eq!(first, fourth);
    }
}
