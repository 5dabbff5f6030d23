//! Session-wide, byte-budgeted LRU read cache shared by **every** TGI
//! query path.
//!
//! The paper's retrieval costs (§4.5, Table 1) are dominated by
//! fetching and decoding root-to-leaf delta paths. Index rows are
//! write-once — construction appends new timespans and never rewrites
//! a stored delta — so their decode products can be cached forever
//! without invalidation. This module holds those products for the
//! whole session:
//!
//! * decoded tree-delta and eventlist rows (`CacheKey::Row`),
//! * decoded secondary-index rows (`CacheKey::Term`),
//! * materialized whole-graph leaf checkpoint states
//!   (`CacheKey::Leaf` — the one form a snapshot checkpoint is cached
//!   in, left and served by snapshot retrieval at every client
//!   width), and
//! * materialized micro-partition checkpoint states
//!   (`CacheKey::Part`, left by the recursive k-hop — TAF `sots` roots
//!   included — and read by it and by `node_at`),
//!
//! four tiers under one byte budget (every index starts at
//! [`DEFAULT_READ_CACHE_BYTES`](crate::DEFAULT_READ_CACHE_BYTES);
//! [`TgiView::set_read_cache_budget`] changes it). Eviction is true
//! least-recently-used — an intrusive doubly-linked list threaded
//! through a dense vector of the live entries, `O(1)` per touch —
//! **never** a wholesale clear, so a working set one entry over budget
//! degrades by exactly one entry, not to a zero hit rate.
//!
//! # Concurrency
//!
//! The cache is **lock-striped**: entries are sharded by `CacheKey`
//! hash over [`DEFAULT_READ_CACHE_SHARDS`]
//! independent LRU lists, each behind its own mutex, so concurrent
//! readers pinned to different watermarks (see
//! [`TgiService`](crate::TgiService)) contend only when they
//! touch the *same* stripe. The per-shard byte budgets always sum to
//! the configured total; eviction is per-shard LRU. A shard's lock is
//! only ever held for the pointer surgery of one lookup or insert —
//! never across a store fetch or a decode (the `lock-ordering` lint
//! rule enforces this workspace-wide).
//!
//! # Failure semantics
//!
//! A cache *hit* may legitimately skip the store (the entry is an
//! exact copy of write-once data — morally a local replica). A *miss*
//! — including a miss caused by eviction — must re-run the original
//! fallible fetch, so a degraded cluster surfaces
//! [`StoreError::Unavailable`](hgs_store::StoreError) instead of
//! being papered over with a stale or partial graph. The query-path
//! code in [`query`](crate::query) and [`query_plan`](crate::query_plan)
//! upholds this: nothing is ever synthesized on a miss.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use hgs_delta::{ColumnarDelta, ColumnarEventlist, Delta, Eventlist, FxHashMap, FxHasher};

use crate::build::TgiView;

/// What one cached entry describes.
///
/// `Clone` but deliberately not `Copy`: the secondary-index variant
/// carries its term bytes (an `Arc<[u8]>`, so clones are cheap).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// `(tsid, sid, did, pid)` — one stored row's decode product.
    Row(u32, u32, u64, u32),
    /// `(tsid, kind, term)` — one secondary-index row's decoded
    /// change-point list (see [`crate::attr_index`]).
    Term(u32, u8, Arc<[u8]>),
    /// `(tsid, leaf)` — whole-graph checkpoint state (all sids/pids).
    Leaf(u32, u32),
    /// `(tsid, sid, pid, leaf)` — one micro-partition's checkpoint
    /// state (tree-path rows summed, before eventlist replay).
    Part(u32, u32, u32, u32),
}

impl CacheKey {
    /// Whether this entry is a materialized checkpoint *state*
    /// (`Leaf` / `Part`) rather than a decoded row —
    /// states and rows keep separate hit/miss counters so tests and
    /// `benchmark/` can see path-replay sharing, not just decode
    /// sharing.
    pub(crate) fn is_state(&self) -> bool {
        !matches!(self, CacheKey::Row(..) | CacheKey::Term(..))
    }
}

/// A cached decode product.
pub(crate) enum Cached {
    Delta(Arc<Delta>),
    Elist(Arc<Eventlist>),
    /// A lazily-decoded columnar delta row: all memoized column
    /// materializations share the row's single backing buffer.
    ColDelta(Arc<ColumnarDelta>),
    /// A lazily-decoded columnar eventlist row (see
    /// [`Cached::ColDelta`]).
    ColElist(Arc<ColumnarEventlist>),
    /// A decoded value-term change-point row of the secondary index.
    TermPoints(Arc<Vec<hgs_delta::TermPoint>>),
    /// The row is known to be absent from the store (legitimately —
    /// empty micro-partitions are never written). Absence of a
    /// write-once row is itself immutable, so it caches safely.
    Absent,
}

/// Fixed per-entry bookkeeping charge (key + links + map slot).
const ENTRY_OVERHEAD: usize = 64;

impl Cached {
    /// Byte footprint charged against the budget.
    ///
    /// Columnar entries charge the shared backing buffer **once** plus
    /// the total length of every column segment (known up front from
    /// the row's header): the charge is fixed when the entry is
    /// inserted and already covers any column the entry later
    /// materializes, so lazy decodes never grow an entry past its
    /// accounted weight and the backing `Bytes` is never counted
    /// per-column.
    fn weight(&self) -> usize {
        ENTRY_OVERHEAD
            + match self {
                Cached::Delta(d) => d.weight_bytes(),
                Cached::Elist(e) => e.weight_bytes(),
                Cached::ColDelta(c) => c.backing_len() + c.raw_len_total(),
                Cached::ColElist(c) => c.backing_len() + c.raw_len_total(),
                Cached::TermPoints(p) => hgs_delta::term_points_weight(p),
                Cached::Absent => 0,
            }
    }

    /// Cheap handle copy (`Arc` clone, not a deep copy).
    fn shallow(&self) -> Cached {
        match self {
            Cached::Delta(d) => Cached::Delta(d.clone()),
            Cached::Elist(e) => Cached::Elist(e.clone()),
            Cached::ColDelta(c) => Cached::ColDelta(c.clone()),
            Cached::ColElist(c) => Cached::ColElist(c.clone()),
            Cached::TermPoints(p) => Cached::TermPoints(p.clone()),
            Cached::Absent => Cached::Absent,
        }
    }
}

/// Point-in-time counters of the read cache, via
/// [`TgiView::cache_stats`] or
/// [`TgiService::cache_stats`](crate::TgiService::cache_stats) — every
/// view of one service shares its cache, so both read the same
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (rows + states).
    pub hits: u64,
    /// Lookups that fell through to a store fetch + decode
    /// (rows + states).
    pub misses: u64,
    /// Decoded-row (`Row`) lookups answered from the cache.
    pub row_hits: u64,
    /// Decoded-row (`Row`) lookups that missed.
    pub row_misses: u64,
    /// Checkpoint-state (`Leaf`/`Part`) lookups answered
    /// from the cache — a state hit skips a whole tree-path replay,
    /// not just one decode.
    pub state_hits: u64,
    /// Checkpoint-state lookups that missed (the state had to be
    /// rebuilt from rows).
    pub state_misses: u64,
    /// Entries inserted since construction.
    pub insertions: u64,
    /// Entries evicted (least-recently-used first) to hold the budget.
    pub evictions: u64,
    /// Bytes currently retained (always `<= budget`).
    pub bytes: usize,
    /// Configured byte budget (`0` disables caching).
    pub budget: usize,
}

/// Sentinel entry index for "no neighbor".
const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Cached,
    weight: usize,
    /// Towards the most-recently-used end.
    prev: usize,
    /// Towards the least-recently-used end.
    next: usize,
}

/// Intrusive LRU list + index over a dense vector of the live entries.
/// All links are indices into it, so a touch is pointer surgery, never
/// a re-hash or reallocation; a removal moves the last entry into the
/// freed index and relinks it, so the vector has no holes.
struct Inner {
    map: FxHashMap<CacheKey, usize>,
    entries: Vec<Entry>,
    /// Most-recently-used entry (`NIL` when empty).
    head: usize,
    /// Least-recently-used entry (`NIL` when empty).
    tail: usize,
    bytes: usize,
    budget: usize,
    insertions: u64,
    evictions: u64,
}

impl Inner {
    fn unlink(&mut self, at: usize) {
        let Entry { prev, next, .. } = self.entries[at];
        match prev {
            NIL => self.head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    fn push_front(&mut self, at: usize) {
        let old_head = self.head;
        let e = &mut self.entries[at];
        e.prev = NIL;
        e.next = old_head;
        if old_head != NIL {
            self.entries[old_head].prev = at;
        }
        self.head = at;
        if self.tail == NIL {
            self.tail = at;
        }
    }

    /// Evict the entry at `at`: the last entry moves into its index,
    /// and its neighbours and map slot follow it.
    fn evict(&mut self, at: usize) {
        self.unlink(at);
        let e = self.entries.swap_remove(at);
        self.map.remove(&e.key);
        self.bytes -= e.weight;
        self.evictions += 1;
        if let Some(moved) = self.entries.get(at) {
            let (prev, next) = (moved.prev, moved.next);
            if let Some(slot) = self.map.get_mut(&moved.key) {
                *slot = at;
            }
            match prev {
                NIL => self.head = at,
                p => self.entries[p].next = at,
            }
            match next {
                NIL => self.tail = at,
                n => self.entries[n].prev = at,
            }
        }
    }

    /// Evict least-recently-used entries until the budget holds.
    fn enforce_budget(&mut self) {
        while self.bytes > self.budget && self.tail != NIL {
            self.evict(self.tail);
        }
    }
}

/// Shard (stripe) count of every index's read cache: entries are
/// sharded by key hash over this many independent LRU lists, each
/// behind its own mutex with its own slice of the byte budget (the
/// slices sum to the total), so concurrent pinned readers do not
/// serialize on one lock.
pub const DEFAULT_READ_CACHE_SHARDS: usize = 8;

/// Split `total` bytes over `n` shards so the per-shard budgets sum
/// to exactly `total` (the first `total % n` shards carry one extra
/// byte).
fn shard_budgets(total: usize, n: usize) -> impl Iterator<Item = usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(move |i| base + usize::from(i < extra))
}

/// The stripe a key routes to among `n` shards. Deterministic (FxHash
/// of the key, remixed through the splitmix finalizer so consecutive
/// row ids spread), so a key always routes to the same shard and the
/// sharded cache partitions the key space exactly.
fn shard_of(key: &CacheKey, n: usize) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (hgs_delta::hash_u64(h.finish()) % n as u64) as usize
}

/// The session-wide read cache, shared by `Arc` between every query
/// path and every published [`TgiView`]; all methods take `&self` and
/// are safe under concurrent readers and a concurrent writer.
///
/// Lock-striped by key hash: each shard is an independent LRU behind
/// its own mutex with its own slice of the byte budget (the slices
/// always sum to the configured total).
pub(crate) struct ReadCache {
    shards: Box<[Mutex<Inner>]>,
    /// Configured total budget, mirrored outside the shard locks so
    /// [`ReadCache::is_enabled`] is a lock-free load.
    total_budget: AtomicUsize,
    row_hits: AtomicU64,
    row_misses: AtomicU64,
    state_hits: AtomicU64,
    state_misses: AtomicU64,
}

impl ReadCache {
    /// Empty cache with an explicit stripe count (`shards >= 1`; a
    /// single stripe recovers the exact global-LRU semantics the unit
    /// and property tests pin down).
    pub(crate) fn with_shards(budget: usize, shards: usize) -> ReadCache {
        let n = shards.max(1);
        ReadCache {
            shards: shard_budgets(budget, n)
                .map(|b| {
                    Mutex::new(Inner {
                        map: FxHashMap::default(),
                        entries: Vec::new(),
                        head: NIL,
                        tail: NIL,
                        bytes: 0,
                        budget: b,
                        insertions: 0,
                        evictions: 0,
                    })
                })
                .collect(),
            total_budget: AtomicUsize::new(budget),
            row_hits: AtomicU64::new(0),
            row_misses: AtomicU64::new(0),
            state_hits: AtomicU64::new(0),
            state_misses: AtomicU64::new(0),
        }
    }

    /// The stripe `key` lives in (see [`shard_of`]).
    fn shard_of(&self, key: &CacheKey) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Look up `key`, promoting it to most-recently-used in its shard
    /// on a hit. Row and checkpoint-state lookups are counted
    /// separately (see [`CacheStats`]).
    pub(crate) fn get(&self, key: CacheKey) -> Option<Cached> {
        let mut inner = self.shards[self.shard_of(&key)].lock();
        let (hits, misses) = if key.is_state() {
            (&self.state_hits, &self.state_misses)
        } else {
            (&self.row_hits, &self.row_misses)
        };
        match inner.map.get(&key).copied() {
            Some(slot) => {
                inner.unlink(slot);
                inner.push_front(slot);
                hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.entries[slot].value.shallow())
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, then evict that shard's
    /// least-recently-used entries until its budget slice holds again.
    /// An entry larger than the shard's whole slice is rejected up
    /// front — letting it in would evict the shard's entire working
    /// set before the entry finally evicted itself, recreating the
    /// clear-on-overflow pathology this cache exists to remove.
    pub(crate) fn put(&self, key: CacheKey, value: Cached) {
        let mut inner = self.shards[self.shard_of(&key)].lock();
        if inner.budget == 0 {
            return;
        }
        let weight = value.weight();
        if weight > inner.budget {
            // Drop any smaller stale version of the key; leave the
            // rest of the working set untouched.
            if let Some(slot) = inner.map.get(&key).copied() {
                inner.evict(slot);
            }
            return;
        }
        if let Some(slot) = inner.map.get(&key).copied() {
            // Rows are write-once, so a re-insert carries an identical
            // value; just refresh recency (and weight, defensively).
            inner.unlink(slot);
            inner.push_front(slot);
            let e = &mut inner.entries[slot];
            let old = e.weight;
            e.value = value;
            e.weight = weight;
            inner.bytes = inner.bytes - old + weight;
        } else {
            let slot = inner.entries.len();
            inner.entries.push(Entry {
                key: key.clone(),
                value,
                weight,
                prev: NIL,
                next: NIL,
            });
            inner.map.insert(key, slot);
            inner.push_front(slot);
            inner.bytes += weight;
            inner.insertions += 1;
        }
        inner.enforce_budget();
    }

    /// Whether caching is on (total `budget > 0`). Lock-free: lets
    /// callers on the hot path skip building a value (e.g. a deep
    /// state clone) whose `put` would be a guaranteed no-op, without
    /// touching any shard mutex.
    pub(crate) fn is_enabled(&self) -> bool {
        self.total_budget.load(Ordering::Relaxed) > 0
    }

    /// Change the total byte budget, re-slicing it over the shards
    /// and evicting each shard's least-recently-used entries (never a
    /// wholesale clear) until its new slice holds.
    pub(crate) fn set_budget(&self, budget: usize) {
        self.total_budget.store(budget, Ordering::Relaxed);
        for (shard, slice) in self
            .shards
            .iter()
            .zip(shard_budgets(budget, self.shards.len()))
        {
            let mut inner = shard.lock();
            inner.budget = slice;
            inner.enforce_budget();
        }
    }

    /// Current counters, aggregated over every shard. The hit/miss
    /// counters are global atomics; `insertions`/`evictions`/`bytes`
    /// sum the per-shard ledgers, and `budget` is the configured
    /// total (= the sum of the per-shard slices).
    pub(crate) fn stats(&self) -> CacheStats {
        let row_hits = self.row_hits.load(Ordering::Relaxed);
        let row_misses = self.row_misses.load(Ordering::Relaxed);
        let state_hits = self.state_hits.load(Ordering::Relaxed);
        let state_misses = self.state_misses.load(Ordering::Relaxed);
        let mut stats = CacheStats {
            hits: row_hits + state_hits,
            misses: row_misses + state_misses,
            row_hits,
            row_misses,
            state_hits,
            state_misses,
            insertions: 0,
            evictions: 0,
            bytes: 0,
            budget: 0,
        };
        for shard in self.shards.iter() {
            let inner = shard.lock();
            stats.insertions += inner.insertions;
            stats.evictions += inner.evictions;
            stats.bytes += inner.bytes;
            stats.budget += inner.budget;
        }
        stats
    }

    /// Number of live entries across all shards.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Live keys in most-recently-used-first order, per shard in
    /// shard order (with one shard this is the exact global recency
    /// order the reference-model tests pin down).
    #[cfg(test)]
    fn keys_mru_first(&self) -> Vec<CacheKey> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            let mut cur = inner.head;
            while cur != NIL {
                let e = &inner.entries[cur];
                out.push(e.key.clone());
                cur = e.next;
            }
        }
        out
    }
}

impl TgiView {
    /// Re-budget the session-wide read cache (in bytes; `0` disables
    /// caching). Over-budget entries are evicted least-recently-used
    /// first; retained entries keep serving hits.
    pub fn set_read_cache_budget(&self, bytes: usize) {
        self.read_cache.set_budget(bytes);
    }

    /// Counters of the session-wide read cache: hits, misses,
    /// insertions, evictions, retained bytes and the configured byte
    /// budget. Hits and misses are additionally split into
    /// decoded-row vs checkpoint-state counters
    /// ([`CacheStats::row_hits`] / [`CacheStats::state_hits`], …) —
    /// a state hit spares a whole tree-path replay, not just one
    /// decode, so the split is what the cache tests assert on.
    pub fn cache_stats(&self) -> CacheStats {
        self.read_cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::StaticNode;
    use proptest::prelude::*;

    /// A delta of `n` plain nodes weighs `ENTRY_OVERHEAD + 8n` in the
    /// cache's accounting — a convenient knob for the tests below.
    fn delta_entry(n: usize) -> Cached {
        let mut d = Delta::new();
        for i in 0..n as u64 {
            d.insert(StaticNode::new(i));
        }
        Cached::Delta(Arc::new(d))
    }

    fn key(i: u64) -> CacheKey {
        CacheKey::Row(0, 0, i, 0)
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits exactly three 10-node entries. One shard: the
        // test pins the exact global recency order.
        let w = delta_entry(10).weight();
        let cache = ReadCache::with_shards(3 * w, 1);
        for i in 0..3 {
            cache.put(key(i), delta_entry(10));
        }
        assert_eq!(cache.len(), 3);
        // Touch key 0: key 1 becomes the LRU.
        assert!(cache.get(key(0)).is_some());
        cache.put(key(3), delta_entry(10));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(key(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(key(0)).is_some(), "recently-touched survives");
        assert!(cache.get(key(2)).is_some());
        assert!(cache.get(key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.budget);
    }

    #[test]
    fn shrinking_the_budget_evicts_incrementally_not_wholesale() {
        let w = delta_entry(10).weight();
        let cache = ReadCache::with_shards(4 * w, 1);
        for i in 0..4 {
            cache.put(key(i), delta_entry(10));
        }
        cache.set_budget(2 * w);
        // The two most-recently-inserted entries survive — a clear()
        // would have taken the whole working set down.
        assert_eq!(cache.keys_mru_first(), vec![key(3), key(2)]);
        cache.set_budget(0);
        assert_eq!(cache.len(), 0);
        // Disabled cache refuses inserts.
        cache.put(key(9), delta_entry(1));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn oversized_entry_does_not_stick_but_rest_survives() {
        let w = delta_entry(4).weight();
        let cache = ReadCache::with_shards(3 * w, 1);
        cache.put(key(0), delta_entry(4));
        cache.put(key(1), delta_entry(4));
        // An entry bigger than the whole budget cannot be retained...
        cache.put(key(2), delta_entry(1000));
        assert!(cache.get(key(2)).is_none());
        // ...and it must not flush the resident working set on its
        // way through (that would be clear-on-overflow again).
        assert!(cache.get(key(0)).is_some(), "working set survives");
        assert!(cache.get(key(1)).is_some(), "working set survives");
        // The accounting stays within budget.
        let s = cache.stats();
        assert!(s.bytes <= s.budget, "{} > {}", s.bytes, s.budget);
        // Refreshing an existing key with an oversized value drops
        // that key only.
        cache.put(key(1), delta_entry(1000));
        assert!(cache.get(key(1)).is_none(), "oversized refresh drops key");
        assert!(cache.get(key(0)).is_some(), "other entries untouched");
    }

    /// Row and checkpoint-state lookups keep separate counters, and
    /// the headline `hits`/`misses` are always their sum.
    #[test]
    fn state_and_row_counters_are_split() {
        let cache = ReadCache::with_shards(1 << 20, DEFAULT_READ_CACHE_SHARDS);
        let row = key(1);
        let term = CacheKey::Term(0, 0, Arc::from(&b"EntityType"[..]));
        let state = CacheKey::Part(0, 2, 0, 3);
        assert!(state.is_state() && !row.is_state() && !term.is_state());
        cache.put(row.clone(), delta_entry(2));
        cache.put(
            term.clone(),
            Cached::TermPoints(Arc::new(vec![hgs_delta::TermPoint {
                time: 0,
                nid: 1,
                carry: false,
                became: true,
            }])),
        );
        cache.put(state.clone(), delta_entry(2));
        assert!(cache.get(row).is_some());
        assert!(cache.get(term).is_some());
        assert!(cache.get(state).is_some());
        assert!(cache.get(CacheKey::Leaf(0, 9)).is_none());
        assert!(cache.get(CacheKey::Part(0, 0, 0, 9)).is_none());
        assert!(cache.get(key(99)).is_none());
        let s = cache.stats();
        assert_eq!((s.row_hits, s.row_misses), (2, 1));
        assert_eq!((s.state_hits, s.state_misses), (1, 2));
        assert_eq!(s.hits, s.row_hits + s.state_hits);
        assert_eq!(s.misses, s.row_misses + s.state_misses);
    }

    /// Reference LRU model: MRU-first vector of `(key, weight)`.
    struct Model {
        entries: Vec<(u64, usize)>,
        budget: usize,
    }

    impl Model {
        fn touch(&mut self, k: u64) -> bool {
            if let Some(pos) = self.entries.iter().position(|&(e, _)| e == k) {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
                true
            } else {
                false
            }
        }

        fn put(&mut self, k: u64, w: usize) {
            if self.budget == 0 {
                return;
            }
            if w > self.budget {
                // Oversized entries are rejected (a stale smaller
                // version of the key is dropped), never flushed
                // through the working set.
                self.entries.retain(|&(e, _)| e != k);
                return;
            }
            if !self.touch(k) {
                self.entries.insert(0, (k, w));
            }
            self.entries[0].1 = w;
            while self.bytes() > self.budget && !self.entries.is_empty() {
                self.entries.pop();
            }
        }

        fn bytes(&self) -> usize {
            self.entries.iter().map(|&(_, w)| w).sum()
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Put(u64, usize),
        Get(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..24, 0usize..40).prop_map(|(k, n)| Op::Put(k, n)),
            2 => (0u64..24).prop_map(Op::Get),
        ]
    }

    proptest! {
        /// Under arbitrary insert/lookup sequences the cache (a) never
        /// exceeds its byte budget, (b) retains exactly what a
        /// reference LRU model retains, in the same recency order —
        /// i.e. eviction is least-recently-used-first, not wholesale.
        #[test]
        fn matches_reference_lru_and_respects_budget(
            ops in prop::collection::vec(arb_op(), 1..120),
            budget_entries in 0usize..12,
        ) {
            let unit = delta_entry(0).weight(); // ENTRY_OVERHEAD
            let budget = budget_entries * (unit + 8 * 20);
            let cache = ReadCache::with_shards(budget, 1);
            let mut model = Model { entries: Vec::new(), budget };
            for op in ops {
                match op {
                    Op::Put(k, n) => {
                        cache.put(key(k), delta_entry(n));
                        model.put(k, unit + 8 * n);
                    }
                    Op::Get(k) => {
                        let hit = cache.get(key(k)).is_some();
                        let model_hit = model.touch(k);
                        prop_assert_eq!(hit, model_hit, "hit mismatch on {}", k);
                    }
                }
                let s = cache.stats();
                prop_assert!(s.bytes <= s.budget, "over budget: {:?}", s);
                prop_assert_eq!(s.bytes, model.bytes(), "byte accounting diverged");
                let got = cache.keys_mru_first();
                let want: Vec<CacheKey> =
                    model.entries.iter().map(|&(k, _)| key(k)).collect();
                prop_assert_eq!(got, want, "retention/recency order diverged");
            }
        }

        /// The sharded cache behaves exactly like one independent
        /// reference LRU per stripe: keys route deterministically,
        /// each stripe holds its slice of the budget, and the
        /// aggregated stats sum the stripes.
        #[test]
        fn sharded_cache_matches_per_shard_reference_models(
            ops in prop::collection::vec(arb_op(), 1..120),
            budget_entries in 0usize..16,
            shards in 1usize..6,
        ) {
            let unit = delta_entry(0).weight();
            let budget = budget_entries * (unit + 8 * 20);
            let cache = ReadCache::with_shards(budget, shards);
            let mut models: Vec<Model> = shard_budgets(budget, shards)
                .map(|b| Model { entries: Vec::new(), budget: b })
                .collect();
            for op in ops {
                match op {
                    Op::Put(k, n) => {
                        cache.put(key(k), delta_entry(n));
                        models[shard_of(&key(k), shards)].put(k, unit + 8 * n);
                    }
                    Op::Get(k) => {
                        let hit = cache.get(key(k)).is_some();
                        let model_hit = models[shard_of(&key(k), shards)].touch(k);
                        prop_assert_eq!(hit, model_hit, "hit mismatch on {}", k);
                    }
                }
                let s = cache.stats();
                prop_assert!(s.bytes <= s.budget, "over budget: {:?}", s);
                prop_assert_eq!(s.budget, budget, "shard budgets must sum to the total");
                let model_bytes: usize = models.iter().map(|m| m.bytes()).sum();
                prop_assert_eq!(s.bytes, model_bytes, "byte accounting diverged");
                // Per-stripe recency: keys_mru_first walks the shards
                // in order, so it must equal the models' concatenation.
                let got = cache.keys_mru_first();
                let want: Vec<CacheKey> = models
                    .iter()
                    .flat_map(|m| m.entries.iter().map(|&(k, _)| key(k)))
                    .collect();
                prop_assert_eq!(got, want, "per-shard retention/recency diverged");
            }
        }
    }

    /// Satellite invariant check: under concurrent mixed-key traffic
    /// from several threads the aggregated stats stay coherent —
    /// budgets sum to the configured total, retained bytes never
    /// exceed it, every lookup is counted exactly once, and the
    /// insertion/eviction ledger matches the live entry count.
    #[test]
    fn concurrent_mixed_key_traffic_keeps_aggregate_invariants() {
        let w = delta_entry(10).weight();
        let budget = 13 * w; // deliberately not divisible by the stripes
        let cache = ReadCache::with_shards(budget, 4);
        let threads = 4;
        let gets_per_thread = 400u64;
        let puts_per_thread = 200u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = &cache;
                s.spawn(move || {
                    // Overlapping key ranges: every pair of threads
                    // contends on some stripes.
                    for i in 0..puts_per_thread {
                        let k = key((t as u64 * 7 + i) % 40);
                        cache.put(k, delta_entry(10));
                    }
                    for i in 0..gets_per_thread {
                        let _unused: Option<Cached> = cache.get(key(i % 50));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(
            s.budget, budget,
            "shard budgets sum to the configured total"
        );
        assert!(
            s.bytes <= s.budget,
            "retained {} > budget {}",
            s.bytes,
            s.budget
        );
        assert_eq!(
            s.hits + s.misses,
            threads as u64 * gets_per_thread,
            "every lookup counted exactly once"
        );
        assert_eq!(s.hits, s.row_hits + s.state_hits);
        assert_eq!(s.misses, s.row_misses + s.state_misses);
        assert_eq!(
            s.insertions - s.evictions,
            cache.len() as u64,
            "insertion/eviction ledger matches live entries"
        );
        // Shrinking under load already happened above; shrinking to a
        // sliver now must re-balance every stripe's slice.
        cache.set_budget(2 * w);
        let s = cache.stats();
        assert_eq!(s.budget, 2 * w);
        assert!(s.bytes <= s.budget);
        cache.set_budget(0);
        assert_eq!(cache.len(), 0, "zero budget drains every stripe");
        assert!(!cache.is_enabled());
    }
}
