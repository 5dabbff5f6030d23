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
//! 2. **Union** the tree paths of all requested leaves — the span's
//!    base roots, then its root-to-leaf delta ids — per `(tsid, sid)`
//!    chunk and **fetch** each `(sid, did, pid)` row
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
//! # One fill, at every width
//!
//! A span group is materialized by one routine, `fill_group`, whatever
//! the view's client width ([`TgiView::with_clients`]). It probes the
//! whole-graph checkpoint state of each requested leaf
//! ([`CacheKey::Leaf`](crate::read_cache) — *the unit of a cached
//! whole-graph checkpoint is the leaf*), then runs three kinds of work
//! item: one grouped scan per sid; one tree-path sum per `(sid, leaf)`
//! still to build, merged into its leaf's state as it is produced
//! (sids hold disjoint nodes); and, per leaf, the tail — cache the
//! state, decode the eventlists, replay to each requested time. The
//! width only says how many [`hgs_store::parallel_steal`]
//! workers pull those items: a hot leaf or a skewed horizontal
//! partition delays only its own item, the fan-out is clamped to the
//! item count, and at width 1 every item runs inline. Answers, store
//! requests and cache entries are the same at every width.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hgs_delta::{ColumnarEventlist, Delta, Eventlist, FxHashMap, FxHashSet, Time};
use hgs_store::{parallel_steal, DeltaKey, PlacementKey, StoreError, Table};

use crate::build::{SpanRuntime, TgiView};
use crate::meta::{root_bases, sid_of, TimespanMeta, ELIST_BASE};
use crate::query::DeltaHandle;
use crate::read_cache::{CacheKey, Cached};

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
    span: Arc<SpanRuntime>,
    leaves: Vec<LeafGroup>,
}

/// A planned multipoint retrieval (internal representation).
pub(crate) struct MultipointPlan {
    groups: Vec<SpanGroup>,
    n_times: usize,
}

impl MultipointPlan {
    pub(crate) fn new(tgi: &TgiView, times: &[Time]) -> MultipointPlan {
        // span_idx -> leaf -> [(slot, t)], walked in key order so
        // materialized states distribute deterministically.
        let mut by_span: BTreeMap<usize, BTreeMap<usize, Vec<(usize, Time)>>> = BTreeMap::new();
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
        let groups = by_span
            .into_iter()
            .map(|(span_idx, leaves)| SpanGroup {
                span: Arc::clone(&tgi.spans[span_idx]),
                leaves: leaves
                    .into_iter()
                    .map(|(leaf, mut times)| {
                        times.sort_by_key(|&(_, t)| t);
                        LeafGroup { leaf, times }
                    })
                    .collect(),
            })
            .collect();
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
            let meta = &g.span.meta;
            let mut union: FxHashSet<(u32, u64)> = FxHashSet::default();
            for lg in &g.leaves {
                s.leaf_groups += 1;
                let path = meta.tree_path(lg.leaf);
                // Naive: every time refetches its whole path + elist.
                s.naive_fetch_units += lg.times.len() * ns * (path.len() + 1);
                union.extend(path);
                union.insert((meta.tsid, ELIST_BASE + lg.leaf as u64));
            }
            s.shared_fetch_units += ns * union.len();
            s.round_trips += ns;
        }
        s
    }
}

/// Rows of one `sid`'s grouped scan, by `(tsid, did)`.
type RowsByDid = FxHashMap<(u32, u64), Vec<(Vec<u8>, bytes::Bytes)>>;

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
        let mut out: Vec<Delta> = (0..times.len()).map(|_| Delta::new()).collect();
        self.fill_snapshots(times, &mut out)?;
        Ok(out)
    }

    /// Fill `out[i]`, one empty state per time, with the graph state at
    /// `times[i]`, one span group of the multipoint plan at a time.
    pub(crate) fn fill_snapshots(
        &self,
        times: &[Time],
        out: &mut [Delta],
    ) -> Result<(), StoreError> {
        for group in &MultipointPlan::new(self, times).groups {
            self.fill_group(&group.span, &group.leaves, out)?;
        }
        Ok(())
    }

    /// One horizontal partition's slice of the snapshot at `t`: the
    /// fill's grouped scan and path sum for the one `(sid, leaf)`,
    /// replayed to `t`. It is the initial state of
    /// [`TgiView::try_node_histories_for_sid`], TAF's per-partition
    /// fetch. Nothing but rows is cached — a cached checkpoint is a
    /// whole leaf.
    pub(crate) fn try_sid_state_at(&self, sid: u32, t: Time) -> Result<Delta, StoreError> {
        let span = self.span_for(t);
        let leaf = span.meta.leaf_for_time(t);
        let rows = self.span_rows(sid, &fill_rows(&span.meta, &[(leaf, true)]))?;
        let mut state = self.sum_sid_path(sid, &span.meta.tree_path(leaf), &rows)?;
        let mut pieces = Vec::new();
        self.leaf_pieces(span, leaf, sid, &rows, &mut pieces)?;
        self.replay_until(span, &mut state, &pieces, &mut vec![0; pieces.len()], t);
        Ok(state)
    }

    /// Materialize one span group into its output slots — the one fill
    /// every width runs (see the module docs). Checkpoint states the
    /// cache holds drop their tree paths from the scans; the scans
    /// themselves never disappear (every `(tsid, sid)` chunk is still
    /// read for its eventlists), so a down chunk surfaces
    /// [`StoreError::Unavailable`] even on a fully warm state. Any
    /// failed item fails the whole batch.
    fn fill_group(
        &self,
        span: &SpanRuntime,
        leaves: &[LeafGroup],
        out: &mut [Delta],
    ) -> Result<(), StoreError> {
        let tsid = span.meta.tsid;
        let c = self.clients;
        let bases: Vec<Option<Arc<Delta>>> = leaves
            .iter()
            .map(
                |lg| match self.read_cache.get(CacheKey::Leaf(tsid, lg.leaf as u32)) {
                    Some(Cached::Delta(d)) => Some(d),
                    _ => None,
                },
            )
            .collect();
        let wanted: Vec<(usize, bool)> = leaves
            .iter()
            .zip(&bases)
            .map(|(lg, base)| (lg.leaf, base.is_none()))
            .collect();
        let sids: Vec<u32> = (0..self.cfg.horizontal_partitions).collect();
        let scanned = fill_rows(&span.meta, &wanted);
        let per_sid: Vec<RowsByDid> = parallel_steal(sids, c, |sid| self.span_rows(sid, &scanned))
            .into_iter()
            .collect::<Result<_, _>>()?;

        // Leaf-major, so at width 1 a leaf's sid states are summed and
        // merged back to back, and at any width the workers' first
        // claims spread over the sids.
        let built: Vec<Mutex<Delta>> = leaves.iter().map(|_| Mutex::default()).collect();
        let sums: Vec<(usize, &Mutex<Delta>, u32, &RowsByDid)> = wanted
            .iter()
            .zip(&built)
            .filter(|((_, build), _)| *build)
            .flat_map(|(&(leaf, _), state)| {
                (0u32..)
                    .zip(&per_sid)
                    .map(move |(sid, rows)| (leaf, state, sid, rows))
            })
            .collect();
        parallel_steal(sums, c, |(leaf, state, sid, rows)| {
            let sid_state = self.sum_sid_path(sid, &span.meta.tree_path(leaf), rows)?;
            state.lock().sum_assign_owned(sid_state);
            Ok(())
        })
        .into_iter()
        .collect::<Result<(), StoreError>>()?;

        let tails: Vec<(&LeafGroup, Option<Arc<Delta>>, Delta)> = leaves
            .iter()
            .zip(bases)
            .zip(built)
            .map(|((lg, base), built)| (lg, base, built.into_inner()))
            .collect();
        let filled = parallel_steal(tails, c, |(lg, base, built)| {
            let base = base.unwrap_or_else(|| {
                let state = Arc::new(built);
                self.read_cache.put(
                    CacheKey::Leaf(tsid, lg.leaf as u32),
                    Cached::Delta(state.clone()),
                );
                state
            });
            let mut pieces = Vec::new();
            for (sid, rows) in (0u32..).zip(&per_sid) {
                self.leaf_pieces(span, lg.leaf, sid, rows, &mut pieces)?;
            }
            Ok(self.replay_leaf_times(span, base, &pieces, &lg.times))
        });
        for (lg, states) in leaves.iter().zip(filled) {
            for (&(slot, _), state) in lg.times.iter().zip(states?) {
                out[slot] = state;
            }
        }
        Ok(())
    }

    /// Fetch every micro-partition of the rows `scanned` — `(tsid,
    /// did)` of spans of this view, all of one block, which share a
    /// placement ([`PlacementKey::of_span`]) — of horizontal partition
    /// `sid` in a single grouped scan: the one prefix read of the
    /// fill's rows ([`fill_rows`]), of a span's root and of the
    /// eventlist chunks of a partition's node histories.
    pub(crate) fn span_rows(
        &self,
        sid: u32,
        scanned: &[(u32, u64)],
    ) -> Result<RowsByDid, StoreError> {
        let Some(&(first, _)) = scanned.first() else {
            return Ok(RowsByDid::default());
        };
        if let Some(&(tsid, _)) = scanned.iter().find(|r| r.0 as usize >= self.spans.len()) {
            return Err(StoreError::Corrupt(hgs_delta::CodecError::BadRef {
                what: "timespan",
                id: u64::from(tsid),
            }));
        }
        let token = PlacementKey::of_span(first, sid);
        debug_assert!(scanned
            .iter()
            .all(|&(tsid, _)| PlacementKey::of_span(tsid, sid) == token));
        let prefixes: Vec<[u8; 16]> = scanned
            .iter()
            .map(|&(tsid, did)| DeltaKey::delta_prefix(tsid, sid, did))
            .collect();
        let refs: Vec<&[u8]> = prefixes.iter().map(|p| &p[..]).collect();
        let groups = self
            .store
            .scan_prefix_batch(Table::Deltas, &refs, token.token())?;
        Ok(scanned.iter().copied().zip(groups).collect())
    }

    /// Span `tsid`'s root of every horizontal partition, in full: its
    /// root bases' roots and its own, summed — what the writer stores a
    /// later span's root against, read back by a re-opened one.
    pub(crate) fn try_root_states(&self, tsid: u32) -> Result<Vec<Delta>, StoreError> {
        let chain: Vec<(u32, u64)> = root_bases(tsid)
            .into_iter()
            .chain([tsid])
            .map(|t| (t, 0))
            .collect();
        (0..self.cfg.horizontal_partitions)
            .map(|sid| self.sum_sid_path(sid, &chain, &self.span_rows(sid, &chain)?))
            .collect()
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

    /// Sum one horizontal partition's scanned tree path into `state`:
    /// `rows` are its tree rows as `(span, did, pid, bytes)` in path
    /// order (base roots first). Each span's rows are summed after every
    /// earlier span's — a base root applies to all of the sum below it
    /// — and a span's micro-partitions, which hold disjoint node sets,
    /// one after the other, each one's rows root first, which keeps the
    /// few hundred nodes a piece can land on hot while its path is
    /// applied.
    ///
    /// Each row probes the read cache and leaves its path-complete
    /// form there. Full-replay callers need every record, so a
    /// lazily-decoded columnar entry left by a node-scoped path does
    /// not satisfy the probe: the row is applied from its bytes and the
    /// entry refreshed (write-once rows make this safe).
    fn sum_scanned_path(
        &self,
        state: &mut Delta,
        sid: u32,
        mut rows: Vec<(&SpanRuntime, u64, u32, bytes::Bytes)>,
    ) -> Result<(), StoreError> {
        // Stable: path order within a span's micro-partition.
        rows.sort_by_key(|&(span, _, pid, _)| (span.meta.tsid, pid));
        for (span, did, pid, bytes) in rows {
            let key = CacheKey::Row(span.meta.tsid, sid, did, pid);
            let row = match self.read_cache.get(key.clone()) {
                Some(Cached::Delta(d)) => DeltaHandle::Full(d),
                _ => DeltaHandle::parse(bytes, &span.meta.pairs)?,
            };
            self.sum_tree_row(state, key, &row)?;
        }
        Ok(())
    }

    /// Decode a fetched eventlist row through the read cache (see
    /// [`TgiView::sum_scanned_path`] for the columnar-entry refresh
    /// rule). A row that fails to decode surfaces
    /// [`StoreError::Corrupt`] instead of panicking mid-query.
    pub(crate) fn decoded_elist(
        &self,
        span: &SpanRuntime,
        sid: u32,
        did: u64,
        pid: u32,
        bytes: &bytes::Bytes,
    ) -> Result<Arc<Eventlist>, StoreError> {
        let key = CacheKey::Row(span.meta.tsid, sid, did, pid);
        if let Some(Cached::Elist(e)) = self.read_cache.get(key.clone()) {
            return Ok(e);
        }
        let e = Arc::new(
            ColumnarEventlist::parse_in(bytes.clone(), &span.meta.pairs)
                .and_then(|c| c.to_eventlist())
                .map_err(StoreError::Corrupt)?,
        );
        self.read_cache.put(key, Cached::Elist(e.clone()));
        Ok(e)
    }

    /// One sid's sum of the tree rows `path` — a leaf's tree path, or a
    /// root's chain of base roots — out of `rows`, base roots first,
    /// through the row tier of the cache.
    fn sum_sid_path(
        &self,
        sid: u32,
        path: &[(u32, u64)],
        rows: &RowsByDid,
    ) -> Result<Delta, StoreError> {
        let mut path_rows = Vec::new();
        for &(tsid, did) in path {
            let span = self.span_of(tsid)?;
            for (k, bytes) in rows.get(&(tsid, did)).into_iter().flatten() {
                if let Some(dk) = DeltaKey::decode(k) {
                    path_rows.push((span, did, dk.pid, bytes.clone()));
                }
            }
        }
        let mut state = Delta::new();
        self.sum_scanned_path(&mut state, sid, path_rows)?;
        Ok(state)
    }

    /// Decode one sid's eventlist pieces of `leaf` out of `rows`
    /// (through the cache), appending `(sid, pid, eventlist)` to
    /// `pieces`.
    fn leaf_pieces(
        &self,
        span: &SpanRuntime,
        leaf: usize,
        sid: u32,
        rows: &RowsByDid,
        pieces: &mut Vec<(u32, u32, Arc<Eventlist>)>,
    ) -> Result<(), StoreError> {
        let elist_did = ELIST_BASE + leaf as u64;
        for (k, bytes) in rows.get(&(span.meta.tsid, elist_did)).into_iter().flatten() {
            if let Some(dk) = DeltaKey::decode(k) {
                let el = self.decoded_elist(span, sid, elist_did, dk.pid, bytes)?;
                pieces.push((sid, dk.pid, el));
            }
        }
        Ok(())
    }

    /// Clone `base` once at the divergence point (the leaf), then
    /// advance a single replay cursor per eventlist piece over
    /// `times` (ascending), capturing one state per time.
    fn replay_leaf_times(
        &self,
        span: &SpanRuntime,
        base: Arc<Delta>,
        pieces: &[(u32, u32, Arc<Eventlist>)],
        times: &[(usize, Time)],
    ) -> Vec<Delta> {
        // A state no cache kept (budget 0, or an oversized entry) is
        // ours alone: replay onto it instead of onto a copy.
        let mut cur: Delta = Arc::try_unwrap(base).unwrap_or_else(|shared| (*shared).clone());
        let mut cursors = vec![0usize; pieces.len()];
        let mut out: Vec<Delta> = Vec::with_capacity(times.len());
        for (i, &(_, t)) in times.iter().enumerate() {
            self.replay_until(span, &mut cur, pieces, &mut cursors, t);
            if i + 1 == times.len() {
                out.push(std::mem::take(&mut cur));
            } else {
                out.push(cur.clone());
            }
        }
        out
    }

    /// Apply to `cur` the events at or before `t` that each piece's
    /// cursor has not passed yet, scoped to the piece's
    /// micro-partition.
    fn replay_until(
        &self,
        span: &SpanRuntime,
        cur: &mut Delta,
        pieces: &[(u32, u32, Arc<Eventlist>)],
        cursors: &mut [usize],
        t: Time,
    ) {
        let ns = self.cfg.horizontal_partitions;
        for ((sid, pid, el), cursor) in pieces.iter().zip(cursors) {
            let map = &span.maps[*sid as usize];
            let evs = el.events();
            while *cursor < evs.len() && evs[*cursor].time <= t {
                cur.apply_event_in(&evs[*cursor].kind, |id| {
                    sid_of(id, ns) == *sid && map.assign(id) == *pid
                });
                *cursor += 1;
            }
        }
    }
}

/// The rows a span group's fill scans, per `(leaf, build)` of
/// `leaves`: the leaf's eventlist chunk and — when its checkpoint state
/// is still to build — its tree path, base roots included (paths
/// unioned across leaves). A leaf whose state is cached still has its
/// eventlist prefix scanned on the same placement, so a down chunk
/// surfaces either way.
fn fill_rows(meta: &TimespanMeta, leaves: &[(usize, bool)]) -> Vec<(u32, u64)> {
    let mut rows: Vec<(u32, u64)> = Vec::new();
    let mut seen: FxHashSet<(u32, u64)> = FxHashSet::default();
    for &(leaf, build) in leaves {
        if build {
            for row in meta.tree_path(leaf) {
                if seen.insert(row) {
                    rows.push(row);
                }
            }
        }
        rows.push((meta.tsid, ELIST_BASE + leaf as u64));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TgiService;
    use hgs_delta::Event;
    use hgs_delta::EventKind;

    /// Planner grouping: duplicate and unsorted times land in the
    /// right leaf groups with their original output slots.
    #[test]
    fn plan_groups_preserve_slots() {
        let events: Vec<Event> = (0..200u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let tgi = TgiService::try_build(
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
        .unwrap()
        .pin();
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

    /// A fill at any width leaves, and is served by, the same `Leaf`
    /// entries: after one cold fill, a pass at any other width probes
    /// one state per leaf, hits every one, inserts nothing and decodes
    /// no row.
    #[test]
    fn parallel_fill_hits_and_warms_the_state_tier() {
        let events: Vec<Event> = (0..400u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let times = [120u64, 320];
        for (cold_c, warm_cs) in [(4usize, [4usize, 1, 2]), (1, [1, 4, 2])] {
            let tgi = TgiService::try_build(
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
            .unwrap()
            .pin();
            let leaves = tgi.plan_multipoint(&times).leaf_groups as u64;
            let cold = tgi.with_clients(cold_c).try_snapshots(&times).unwrap();
            let s0 = tgi.cache_stats();
            assert_eq!(s0.state_hits, 0, "cold cache has no state hits");
            assert_eq!(s0.state_misses, leaves, "one state probe per leaf");
            let mut before = s0;
            for c in warm_cs {
                let warm = tgi.with_clients(c).try_snapshots(&times).unwrap();
                assert_eq!(warm, cold, "cold at c={cold_c}, warm at c={c}");
                let after = tgi.cache_stats();
                assert_eq!(after.state_hits, before.state_hits + leaves, "c={c}");
                assert_eq!(after.state_misses, before.state_misses, "c={c}");
                assert_eq!(after.row_misses, before.row_misses, "c={c}: no row decoded");
                assert_eq!(
                    after.insertions, before.insertions,
                    "c={c}: nothing new cached"
                );
                before = after;
            }
        }
    }

    /// The read cache is byte-bounded and serves repeat plans.
    #[test]
    fn read_cache_hits_on_repeat_and_respects_budget() {
        let events: Vec<Event> = (0..400u64)
            .map(|i| Event::new(i, EventKind::AddNode { id: i }))
            .collect();
        let tgi = TgiService::try_build(
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
        .unwrap()
        .pin();
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
