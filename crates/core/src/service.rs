//! Concurrent serving: snapshot-isolated reads over live ingest.
//!
//! The paper positions TGI as infrastructure for "snapshot retrieval
//! and temporal analytics at scale" — an always-available service over
//! an ever-growing history, not a single-owner handle. [`TgiService`]
//! is that service layer and the one owning handle: it builds
//! ([`TgiService::try_build`]) or re-opens ([`TgiService::open`]) an
//! index, then one writer appends event batches while any number of
//! reader threads keep answering snapshot/history/k-hop queries, each
//! isolated at the **watermark** it observed at entry.
//!
//! # Watermark semantics
//!
//! The index is append-only at span granularity: an append writes its
//! *new* timespans' rows and then `Graph/meta`, its commit record, and
//! rewrites no other row. Closing the previous open span's time range
//! is per-view metadata: no `Timespans` row spells its end, which
//! [`TgiService::open`] derives from the next span's start (see
//! [`TgiService::try_append_events`]). The writer therefore
//! publishes, at the end of each successful append, an immutable
//! [`TgiView`] — config, span metadata, partition maps and summary
//! counters — tagged with a monotonically increasing epoch. That
//! publication *is* the watermark:
//!
//! * [`TgiService::pin`] hands a reader an `Arc<TgiView>` of the
//!   latest published watermark. Everything the reader does through
//!   that view answers from the sealed prefix the watermark denotes —
//!   byte-identical before, during and after any concurrent append.
//! * Rows belonging to an in-flight append are unreachable from every
//!   published view (their spans are not in any published `TgiView`),
//!   so no reader ever observes a partially written span.
//! * Publication happens strictly **after** the batch's rows are
//!   flushed and the graph descriptor is persisted (the
//!   `watermark-publish` lint rule guards this ordering), and the
//!   epoch counter is stored with release ordering after the view
//!   swap — a reader that sees watermark `n` can reach every row of
//!   epoch `n`.
//!
//! # Failure semantics
//!
//! A failed append poisons the *writer* ([`BuildError::Poisoned`] on
//! retry) and publishes nothing:
//! already-pinned readers and new [`TgiService::pin`] calls keep
//! answering at the last durable watermark. Once the cluster heals,
//! [`TgiService::try_recover`] re-opens the writer from the durable
//! state *in place* — same service, same shared cache, watermark
//! sequence intact — and finishes with an anti-entropy pass
//! ([`SimStore::try_repair`]) that re-replicates any rows a degraded
//! write left short.
//!
//! # Caching
//!
//! All views share one lock-striped [`read
//! cache`](crate::read_cache): index rows are write-once, so an entry
//! cached at watermark `n` is still exact at watermark `n+k`; the
//! stripes keep concurrent pinned readers from serializing on a
//! single cache mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hgs_delta::Event;
use hgs_store::{RepairReport, SimStore, StoreConfig};

use crate::build::{host_parallelism, BuildError, TgiView, Writer};
use crate::config::TgiConfig;
use crate::persist::OpenError;
use crate::read_cache::CacheStats;

/// A shared, concurrently-usable TGI: one serialized writer, any
/// number of watermark-pinned readers. Cheap to share as
/// `Arc<TgiService>` across threads.
pub struct TgiService {
    /// The writer with its mutable append state. Locked only by
    /// appends (and writer-side accessors); never by readers.
    writer: Mutex<Writer>,
    /// The latest published watermark. Readers take the read lock
    /// just long enough to clone the `Arc`.
    published: RwLock<Arc<TgiView>>,
    /// Epoch of the latest published watermark, readable without any
    /// lock. Stored with release ordering after the view swap.
    watermark: AtomicU64,
}

impl TgiService {
    /// Serve `writer`, publishing its current state as the first
    /// watermark.
    fn serve(writer: Writer) -> Arc<TgiService> {
        let view = Arc::new(writer.view.clone());
        let watermark = AtomicU64::new(view.epoch());
        Arc::new(TgiService {
            writer: Mutex::new(writer),
            published: RwLock::new(view),
            watermark,
        })
    }

    /// Build an index over `events` (chronologically sorted) on a
    /// fresh simulated cluster and serve it, reading at one client and
    /// encoding at the host's parallelism. Errors with
    /// [`StoreError::Unavailable`](hgs_store::StoreError::Unavailable)
    /// (wrapped in [`BuildError::Store`]) if any write is accepted by
    /// zero replicas — a build against a degraded cluster must not
    /// silently drop deltas.
    pub fn try_build(
        cfg: TgiConfig,
        store_cfg: StoreConfig,
        events: &[Event],
    ) -> Result<Arc<TgiService>, BuildError> {
        let store = Arc::new(SimStore::new(store_cfg));
        Writer::try_build(cfg, store, events, 1, host_parallelism()).map(TgiService::serve)
    }

    /// [`TgiService::try_build`] on an existing store, e.g. one whose
    /// machines, fault plan or counters the caller already holds (the
    /// store keeps its own retry policy,
    /// [`SimStore::set_retry_policy`]), at an explicit width `c`: span
    /// encoding fans out over `c` work-stealing clients (one work item
    /// per horizontal partition). Like [`TgiView::with_clients`], `c`
    /// is taken as-is, never below one. The service keeps `c` as the
    /// client width of the views it publishes and as the encode width
    /// of further appends — `c = 1` is how a writer stays off the cores
    /// its readers use. Every width writes the same rows.
    pub fn try_build_on(
        cfg: TgiConfig,
        store: Arc<SimStore>,
        events: &[Event],
        c: usize,
    ) -> Result<Arc<TgiService>, BuildError> {
        Writer::try_build(cfg, store, events, c.max(1), c.max(1)).map(TgiService::serve)
    }

    /// Re-open and serve an index previously built on `store`,
    /// reconstructing all in-memory metadata from the persisted tables.
    /// The service answers queries identically and accepts further
    /// appends. Like a fresh build it reads at one client, encodes at
    /// the host's parallelism and starts at
    /// [`DEFAULT_READ_CACHE_BYTES`](crate::DEFAULT_READ_CACHE_BYTES):
    /// none of those is stored with the index.
    pub fn open(store: Arc<SimStore>) -> Result<Arc<TgiService>, OpenError> {
        Writer::open(store).map(TgiService::serve)
    }

    /// Pin the latest published watermark. The returned view is
    /// immutable: every query through it answers from the sealed
    /// prefix of that watermark, unaffected by concurrent appends.
    /// Pin once per logical query (or per request) and run every
    /// sub-query against the same view — that is what makes a
    /// multi-fetch answer internally consistent.
    pub fn pin(&self) -> Arc<TgiView> {
        Arc::clone(&self.published.read())
    }

    /// Epoch of the latest published watermark (lock-free).
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Append a batch of events, publishing a new watermark on
    /// success. Appends serialize on the writer lock; readers are
    /// never blocked — they keep answering at the previous watermark
    /// until the swap, and at their pinned view regardless.
    ///
    /// On error the service publishes nothing and every reader —
    /// pinned or future — stays at the last durable watermark. A
    /// [`BuildError::OutOfOrder`] batch is refused up front and the
    /// next good batch appends normally; any other error poisons the
    /// writer. Returns the new watermark epoch on success.
    ///
    /// The batch must be chronologically sorted and must not start
    /// before the current end of history. It is normalized first
    /// ([`hgs_delta::normalize_events`]) against the writer's live
    /// state: `RemoveNode` events gain explicit `RemoveEdge` events for
    /// their incident edges, so partitioned eventlists and version
    /// chains reach every affected node. Closing the previous open
    /// span's time range is per-view metadata, never a rewrite of a
    /// sealed row: the append writes its new spans' rows and
    /// `Graph/meta`, and nothing else.
    ///
    /// Any index write that reached zero replicas surfaces as
    /// [`StoreError::Unavailable`](hgs_store::StoreError::Unavailable)
    /// (wrapped in [`BuildError::Store`]); writes that reach only
    /// *some* replicas succeed with degraded durability and are counted
    /// in [`SimStore::partial_put_count`]. An append is **not atomic**:
    /// after any such error some of the batch's rows may be persisted
    /// and the writer's live state may have advanced, which is why it
    /// poisons (see [`TgiService::try_recover`]).
    pub fn try_append_events(&self, events: &[Event]) -> Result<u64, BuildError> {
        let mut writer = self.writer.lock();
        writer.try_append_events(events)?;
        // Publish only after the append's rows are flushed and the
        // graph descriptor is durable (both happen inside
        // `try_append_events`, before it returns Ok): watermark
        // publication must never make unflushed rows reachable.
        let view = Arc::new(writer.view.clone());
        let epoch = view.epoch();
        *self.published.write() = view;
        self.watermark.store(epoch, Ordering::Release);
        Ok(epoch)
    }

    /// Whether an earlier append failed partway, refusing further
    /// appends (the read side keeps serving the last watermark).
    pub fn is_poisoned(&self) -> bool {
        self.writer.lock().poisoned
    }

    /// Aggregated counters of the shared read cache (all views of
    /// this service share one cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.pin().cache_stats()
    }

    /// Re-budget the shared read cache (see
    /// [`TgiView::set_read_cache_budget`]).
    pub fn set_read_cache_budget(&self, bytes: usize) {
        self.pin().set_read_cache_budget(bytes);
    }

    /// The backing store of the served index.
    pub fn store(&self) -> Arc<SimStore> {
        Arc::clone(self.pin().store())
    }

    /// Recover a poisoned writer in place and repair the store.
    ///
    /// A failed append leaves the writer poisoned at the last durable
    /// watermark (readers never stopped serving it). Once the cluster
    /// heals — machines healed, fault plan detached or its windows
    /// elapsed — this re-opens the index from the store's durable
    /// state, carries the service's runtime state over to the fresh
    /// writer (shared read cache, client and encode widths; the
    /// watermark is the commit record's and the retry policy the
    /// store's, so neither left it), and finishes with an
    /// anti-entropy pass so rows degraded by the same fault window are
    /// re-replicated.
    /// Appends work again afterwards; the next one publishes the next
    /// epoch in the service's watermark sequence.
    ///
    /// On an unpoisoned writer this is just the anti-entropy pass
    /// behind the writer lock. If the store is still refusing reads
    /// the re-open fails with an honest [`OpenError`] and the writer
    /// stays poisoned — call again once the cluster actually healed.
    pub fn try_recover(&self) -> Result<RepairReport, OpenError> {
        let mut writer = self.writer.lock();
        if writer.poisoned {
            let store = Arc::clone(&writer.view.store);
            let mut reopened = Writer::open(store)?;
            // Runtime state is not persisted; carry it across the
            // swap so recovery is invisible to everything but the
            // poison flag.
            reopened.view.read_cache = Arc::clone(&writer.view.read_cache);
            reopened.view.clients = writer.view.clients;
            reopened.encode_width = writer.encode_width;
            *writer = reopened;
        }
        writer.view.store.try_repair().map_err(OpenError::Store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::EventKind;

    /// A growing chain with one event per timestamp, so the history
    /// can be split into append batches at any index.
    fn chain_events(n: u64) -> Vec<Event> {
        let mut evs = Vec::new();
        let mut t = 1;
        for i in 0..n {
            evs.push(Event::new(t, EventKind::AddNode { id: i }));
            t += 1;
            if i > 0 {
                evs.push(Event::new(
                    t,
                    EventKind::AddEdge {
                        src: i - 1,
                        dst: i,
                        weight: 1.0,
                        directed: false,
                    },
                ));
                t += 1;
            }
        }
        evs
    }

    #[test]
    fn explicit_widths_set_both_widths_and_the_default_only_the_encode() {
        let widths = |svc: &TgiService| {
            let writer = svc.writer.lock();
            (writer.view.clients(), writer.encode_width)
        };
        let svc = TgiService::try_build(TgiConfig::default(), StoreConfig::new(1, 1), &[]).unwrap();
        assert_eq!(widths(&svc), (1, host_parallelism()));
        let store = Arc::new(SimStore::new(StoreConfig::new(1, 1)));
        let svc = TgiService::try_build_on(TgiConfig::default(), store, &[], 5).unwrap();
        assert_eq!(widths(&svc), (5, 5));
        assert_eq!(svc.pin().clients(), 5, "published views read at 5");
    }

    /// The store owns its retry policy: a build on a store with a
    /// policy installed leaves that policy in place.
    #[test]
    fn a_build_keeps_the_stores_retry_policy() {
        let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
        let policy = hgs_store::RetryPolicy {
            max_attempts: 2,
            ..hgs_store::RetryPolicy::default()
        };
        assert_ne!(policy, hgs_store::RetryPolicy::default());
        store.set_retry_policy(policy);
        let evs = chain_events(30);
        TgiService::try_build_on(TgiConfig::default(), Arc::clone(&store), &evs, 2).unwrap();
        assert_eq!(store.retry_policy(), policy);
    }

    /// The read-cache budget is session state: an opened index starts
    /// at the default whatever budget its builder ran at.
    #[test]
    fn an_opened_index_starts_at_the_default_budget() {
        let svc = TgiService::try_build(
            TgiConfig::default(),
            StoreConfig::new(2, 1),
            &chain_events(30),
        )
        .unwrap();
        svc.set_read_cache_budget(0);
        let opened = TgiService::open(svc.store()).unwrap();
        assert_eq!(svc.cache_stats().budget, 0);
        assert_eq!(opened.cache_stats().budget, crate::DEFAULT_READ_CACHE_BYTES);
    }

    #[test]
    fn watermark_advances_per_append_and_pins_are_stable() {
        let evs = chain_events(60);
        let svc = TgiService::try_build(
            TgiConfig::default()
                .with_timespan(50)
                .with_eventlist_size(20),
            StoreConfig::new(4, 1),
            &evs[..40],
        )
        .unwrap();
        let w0 = svc.watermark();
        assert_eq!(w0, 1, "initial build publishes the first watermark");
        let pinned = svc.pin();
        assert_eq!(pinned.epoch(), w0);
        let t = pinned.end_time();
        let before = pinned.try_snapshot(t).unwrap();
        // Node 19 is touched on both sides of the cut; an open-ended
        // range must not reach past the pinned prefix.
        let open = hgs_delta::TimeRange::new(0, hgs_delta::Time::MAX);
        let history_before = pinned.try_node_history(19, open).unwrap();
        let w1 = svc.try_append_events(&evs[40..]).unwrap();
        assert_eq!(w1, w0 + 1);
        assert_eq!(svc.watermark(), w1);
        // The pinned view still answers from its own sealed prefix...
        assert_eq!(pinned.try_snapshot(t).unwrap(), before);
        assert_eq!(pinned.try_node_history(19, open).unwrap(), history_before);
        let history_now = svc.pin().try_node_history(19, open).unwrap();
        assert!(history_now.events.len() > history_before.events.len());
        assert_eq!(pinned.epoch(), w0);
        // ...while a fresh pin sees the appended history.
        let now = svc.pin();
        assert_eq!(now.epoch(), w1);
        assert!(now.event_count() > pinned.event_count());
    }

    #[test]
    fn recover_unpoisons_the_writer_and_keeps_the_watermark_sequence() {
        let evs = chain_events(120);
        let store = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
        let svc = TgiService::try_build_on(
            TgiConfig::default()
                .with_timespan(50)
                .with_eventlist_size(20),
            Arc::clone(&store),
            &evs[..40],
            3,
        )
        .expect("clean build");
        let w1 = svc.try_append_events(&evs[40..80]).unwrap();
        // Take the whole cluster down transiently: the next append
        // fails and poisons the writer, readers stay at w1.
        let mut plan = hgs_store::FaultPlan::new(0xBAD);
        for m in 0..store.machine_count() {
            plan = plan.with_outage(m, 0, u64::MAX);
        }
        store.set_fault_plan(Some(plan));
        assert!(svc.try_append_events(&evs[80..]).is_err());
        assert!(svc.is_poisoned());
        assert_eq!(svc.watermark(), w1);
        let pinned = svc.pin();
        // Recovery while the cluster is still refusing is honest.
        assert!(svc.try_recover().is_err());
        assert!(svc.is_poisoned());
        // Heal (detach the plan), recover in place, append again.
        store.set_fault_plan(None);
        let report = svc.try_recover().expect("healed cluster reopens");
        assert_eq!(report.still_degraded, 0);
        assert!(!svc.is_poisoned());
        {
            let writer = svc.writer.lock();
            assert_eq!(
                (writer.view.clients(), writer.encode_width),
                (3, 3),
                "both widths survive recovery"
            );
        }
        let w2 = svc.try_append_events(&evs[80..]).unwrap();
        assert_eq!(w2, w1 + 1, "watermark sequence survives recovery");
        assert_eq!(pinned.epoch(), w1, "pre-failure pins are untouched");
        // The recovered service answers identically to a never-faulted
        // build over the same history.
        let oracle = TgiService::try_build(
            TgiConfig::default()
                .with_timespan(50)
                .with_eventlist_size(20),
            StoreConfig::new(4, 2),
            &evs,
        )
        .unwrap();
        let now = svc.pin();
        let t = now.end_time();
        assert_eq!(
            now.try_snapshot(t).unwrap(),
            oracle.pin().try_snapshot(t).unwrap()
        );
    }

    #[test]
    fn readers_pin_across_concurrent_appends() {
        let evs = chain_events(300);
        let svc = TgiService::try_build(
            TgiConfig::default()
                .with_timespan(100)
                .with_eventlist_size(40)
                .with_horizontal(2),
            StoreConfig::new(4, 1),
            &evs[..100],
        )
        .unwrap();
        let pinned = svc.pin();
        let t = pinned.end_time();
        let baseline = pinned.try_snapshot(t).unwrap();
        std::thread::scope(|s| {
            let svc = &svc;
            let evs = &evs;
            let reader = {
                let pinned = Arc::clone(&pinned);
                let baseline = baseline.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(pinned.try_snapshot(t).unwrap(), baseline);
                        std::thread::yield_now();
                    }
                })
            };
            s.spawn(move || {
                for batch in evs[100..].chunks(50) {
                    svc.try_append_events(batch).unwrap();
                }
            });
            reader.join().expect("reader panicked");
        });
        let batches = evs[100..].chunks(50).count() as u64;
        assert_eq!(svc.watermark(), 1 + batches, "one publication per append");
        let latest = svc.pin();
        assert_eq!(
            latest
                .try_snapshot(latest.end_time())
                .unwrap()
                .cardinality(),
            300,
            "latest watermark sees the whole history"
        );
    }

    /// `Graph/meta` spells the epoch it publishes, so a re-opened
    /// service continues the watermark rather than restarting it.
    #[test]
    fn a_reopened_service_continues_the_watermark() {
        let evs = chain_events(80);
        let cfg = TgiConfig::default()
            .with_timespan(50)
            .with_eventlist_size(20);
        let svc = TgiService::try_build(cfg, StoreConfig::new(2, 1), &evs[..60]).unwrap();
        svc.try_append_events(&evs[60..100]).unwrap();
        svc.try_append_events(&evs[100..130]).unwrap();
        let opened = TgiService::open(svc.store()).unwrap();
        assert_eq!(opened.watermark(), 3);
        assert_eq!(opened.pin().epoch(), 3);
        assert_eq!(opened.try_append_events(&evs[130..]).unwrap(), 4);
        let end = evs.last().unwrap().time + 1;
        let whole = TgiService::try_build(cfg, StoreConfig::new(2, 1), &evs).unwrap();
        assert_eq!(
            opened.pin().try_snapshot(end).unwrap(),
            whole.pin().try_snapshot(end).unwrap()
        );
    }

    /// An index built over no events writes its commit record too: it
    /// re-opens at watermark 1 and accepts an append.
    #[test]
    fn an_empty_index_reopens_and_accepts_an_append() {
        let evs = chain_events(30);
        let empty =
            TgiService::try_build(TgiConfig::default(), StoreConfig::new(1, 1), &[]).unwrap();
        assert_eq!(empty.watermark(), 1);
        let opened = TgiService::open(empty.store()).unwrap();
        assert_eq!(opened.watermark(), 1);
        assert_eq!(opened.try_append_events(&evs).unwrap(), 2);
        let end = evs.last().unwrap().time + 1;
        let whole =
            TgiService::try_build(TgiConfig::default(), StoreConfig::new(1, 1), &evs).unwrap();
        assert_eq!(
            opened.pin().try_snapshot(end).unwrap(),
            whole.pin().try_snapshot(end).unwrap()
        );
    }
}
