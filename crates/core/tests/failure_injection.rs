//! Failure injection: when every replica of a chunk a query needs is
//! down, the `try_*` read path must return
//! `StoreError::Unavailable` — never a silently *smaller* graph — and
//! a build against a dead cluster must error instead of dropping
//! deltas.

mod common;

use std::sync::Arc;

use hgs_core::{BuildError, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::TimeRange;
use hgs_store::{PlacementKey, SimStore, StoreConfig, StoreError};

fn trace() -> Vec<hgs_delta::Event> {
    WikiGrowth::sized(3_000).generate()
}

fn cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 1_200,
        eventlist_size: 150,
        partition_size: 60,
        ..TgiConfig::default()
    }
}

#[test]
fn down_chunk_errors_instead_of_shrinking_the_snapshot() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    let reference = tgi.try_snapshot(t).expect("healthy cluster");

    // With replication 1, failing any machine that holds part of the
    // query's delta path must surface as Unavailable. A machine that
    // happens to hold nothing the query needs may still answer — but
    // then the answer must be *complete*, never a subset.
    let mut errors = 0;
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
        match tgi.try_snapshot(t) {
            Err(StoreError::Unavailable { .. }) => errors += 1,
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(snap) => assert_eq!(
                snap, reference,
                "a readable snapshot must never silently shrink"
            ),
        }
        tgi.store().heal_machine(m);
    }
    assert!(errors > 0, "no machine failure surfaced as Unavailable");
    assert_eq!(tgi.try_snapshot(t).unwrap(), reference, "healed cluster");
}

#[test]
fn every_read_primitive_surfaces_total_failure() {
    let events = trace();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
    }
    let range = TimeRange::new(end / 4, (3 * end) / 4);
    assert!(matches!(
        tgi.try_snapshot(end / 2),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_snapshots(&[end / 3, end / 2]),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_node_at(0, end / 2),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_node_history(0, range),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_one_hop_history(0, range),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_khop(0, end / 2, 2),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_node_histories_for_sid(0, range),
        Err(StoreError::Unavailable { .. })
    ));
}

/// A horizontal partition the index does not have holds no node: TAF's
/// per-partition fetch answers empty, on a healthy cluster — it used
/// to panic on an index out of bounds where the partition's initial
/// state answered.
#[test]
fn a_sid_past_the_partition_count_answers_empty() {
    let events = trace();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let ns = tgi.config().horizontal_partitions;
    let range = TimeRange::new(0, end + 1);
    assert!(!tgi.try_node_histories_for_sid(0, range).unwrap().is_empty());
    for sid in [ns, 99, u32::MAX] {
        assert!(tgi
            .try_node_histories_for_sid(sid, range)
            .unwrap()
            .is_empty());
    }
}

/// The read cache may serve fully-warm reads without touching the
/// store (its entries are exact copies of write-once rows), but an
/// *evicted* entry is gone: the next read must re-run the fallible
/// fetch and surface `Unavailable` when the row's replicas are dead —
/// never serve a stale or partial graph reconstructed around the gap.
#[test]
fn evicted_row_refetch_surfaces_unavailable_not_stale_data() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let nid = 0u64;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();

    // Warm the cache with this exact read.
    let healthy = tgi.try_node_at(nid, t).expect("healthy cluster");
    assert!(tgi.cache_stats().bytes > 0, "warm cache retains entries");

    // Kill every replica. The warm cache legitimately still answers —
    // its entries are copies of immutable rows, morally replicas.
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
    }
    assert_eq!(
        tgi.try_node_at(nid, t).expect("served from warm cache"),
        healthy,
        "a warm hit must serve the exact same state"
    );

    // Evict the rows (LRU pressure via a zero budget — no wholesale
    // clear() path exists anymore, this drains the LRU tail-first).
    tgi.set_read_cache_budget(0);
    assert_eq!(tgi.cache_stats().bytes, 0);
    tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);

    // The re-fetch must fail loudly, not serve stale/partial data.
    assert!(matches!(
        tgi.try_node_at(nid, t),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_snapshot(t),
        Err(StoreError::Unavailable { .. })
    ));

    // Healed cluster: the same read round-trips to the same answer.
    tgi.store().heal_all();
    assert_eq!(tgi.try_node_at(nid, t).unwrap(), healthy);
}

/// A warm *snapshot* still notices a dead chunk: the planner's
/// per-chunk eventlist scan is never skipped, so even a fully-cached
/// leaf state cannot mask total chunk unavailability.
#[test]
fn warm_snapshot_still_surfaces_dead_chunks() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    tgi.try_snapshot(t).expect("warm the cache");
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
    }
    assert!(matches!(
        tgi.try_snapshot(t),
        Err(StoreError::Unavailable { .. })
    ));
}

/// The work-stealing parallel fill must be all-or-nothing: with a
/// chunk's replicas dead, `try_snapshots` surfaces
/// `StoreError::Unavailable` at *every* fetch parallelism — never a
/// partial snapshot assembled from the items that did succeed — and
/// whether a given machine failure is fatal does not depend on `c`.
#[test]
fn dead_chunk_mid_steal_surfaces_unavailable_at_every_parallelism() {
    let events = trace();
    let end = events.last().unwrap().time;
    let times = [end / 4, end / 2, (3 * end) / 4];
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    let reference = tgi
        .with_clients(1)
        .try_snapshots(&times)
        .expect("healthy cluster");
    let cs = [1usize, 2, 4, 8];
    let mut fatal_machines = 0;
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
        let errors = cs
            .iter()
            .filter(|&&c| match tgi.with_clients(c).try_snapshots(&times) {
                Err(StoreError::Unavailable { .. }) => true,
                Err(other) => panic!("unexpected error kind: {other}"),
                Ok(snaps) => {
                    assert_eq!(
                        snaps, reference,
                        "a readable batch must be complete (m={m} c={c})"
                    );
                    false
                }
            })
            .count();
        assert!(
            errors == 0 || errors == cs.len(),
            "machine {m}: failure must be fatal at every c or none, got {errors}/{}",
            cs.len()
        );
        fatal_machines += usize::from(errors > 0);
        tgi.store().heal_machine(m);
    }
    assert!(fatal_machines > 0, "no machine failure was ever fatal");
    assert_eq!(
        tgi.with_clients(4).try_snapshots(&times).unwrap(),
        reference
    );
}

#[test]
fn replication_masks_a_single_machine_failure() {
    let events = trace();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    let reference = tgi.try_snapshot(end / 2).unwrap();
    tgi.store().fail_machine(1);
    assert_eq!(
        tgi.try_snapshot(end / 2).unwrap(),
        reference,
        "replica failover must keep reads exact"
    );
    let shared = tgi.try_snapshots(&[end / 3, end / 2, end]).unwrap();
    assert_eq!(shared[1], reference);
}

#[test]
fn build_against_dead_cluster_errors() {
    let events = trace();
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 1)));
    for m in 0..store.machine_count() {
        store.fail_machine(m);
    }
    assert!(matches!(
        TgiService::try_build_on(cfg(), store, &events),
        Err(BuildError::Store(StoreError::Unavailable { .. }))
    ));
}

/// Write-path failure injection for the batched path: a machine dying
/// before the span's `put_batch` flush must surface
/// `StoreError::Unavailable` from `try_build` — never a silently
/// shrunken index — and the whole flushed batch must still be
/// processed, with the failed/partial put counters accounting for
/// every row that could not land (rows on healthy machines included
/// in the puts count).
#[test]
fn machine_death_mid_batched_build_surfaces_unavailable_and_accounts_rows() {
    let events = trace();
    for c in [1usize, 4] {
        let store = Arc::new(SimStore::new(StoreConfig::new(4, 1)));
        // Kill the machine holding span 0 / sid 0's delta chunk, so
        // the *batched write* itself is what fails (not an earlier
        // metadata read).
        store.fail_machine(store.machine_for(PlacementKey::new(0, 0).token(), 0));
        let before = store.stats_snapshot();
        let err = TgiService::try_build_on_c(cfg(), store.clone(), &events, c)
            .err()
            .expect("build with a dead machine must fail");
        assert!(matches!(
            err,
            BuildError::Store(StoreError::Unavailable { .. })
        ));
        // Every row of the failed flush is accounted: the batch was
        // processed to completion, so rows placed on live machines
        // landed (counted in puts) and every row aimed at the dead
        // machine is in failed_puts — none simply vanished.
        let diff = SimStore::stats_since(&store.stats_snapshot(), &before);
        let live_puts: u64 = diff.iter().map(|m| m.puts).sum();
        assert!(
            store.failed_put_count() > 0,
            "c={c}: dead-machine rows must be counted as failed"
        );
        assert!(live_puts > 0, "c={c}: healthy machines' rows still land");
        assert_eq!(store.partial_put_count(), 0, "r=1 writes cannot be partial");
    }
}

/// Same injection against `try_append_events`: the first append lands
/// healthy, the machine dies, the second append fails loudly and
/// poisons the writer, and the batch's rows are all accounted.
#[test]
fn machine_death_mid_batched_append_surfaces_unavailable_and_accounts_rows() {
    let events = trace();
    let mid = events.len() / 2;
    for c in [1usize, 4] {
        let store = Arc::new(SimStore::new(StoreConfig::new(4, 1)));
        let svc = TgiService::try_build_on_c(cfg(), store.clone(), &events[..mid], c)
            .expect("healthy build");
        assert_eq!(store.failed_put_count(), 0);
        let rows_before_failure = store.row_count();
        // The append continues the timespan sequence: kill the machine
        // holding the next span's sid-0 delta chunk.
        let next_tsid = svc.pin().span_count() as u32;
        store.fail_machine(store.machine_for(PlacementKey::new(next_tsid, 0).token(), 0));
        assert!(matches!(
            svc.try_append_events(&events[mid..]),
            Err(BuildError::Store(StoreError::Unavailable { .. }))
        ));
        assert!(svc.is_poisoned(), "c={c}: failed append must poison");
        assert!(
            store.failed_put_count() > 0,
            "c={c}: the dead machine's rows are accounted as failed"
        );
        assert!(
            store.row_count() >= rows_before_failure,
            "c={c}: a failed batch never un-writes existing rows"
        );
        // Replication masks the same failure: the identical append on
        // an r=2 cluster succeeds with partial-put accounting instead.
        let store2 = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
        let svc2 = TgiService::try_build_on_c(cfg(), store2.clone(), &events[..mid], c)
            .expect("healthy build");
        store2.fail_machine(store2.machine_for(PlacementKey::new(next_tsid, 0).token(), 0));
        svc2.try_append_events(&events[mid..])
            .expect("one replica is enough");
        assert!(
            store2.partial_put_count() > 0,
            "c={c}: degraded writes must be counted partial"
        );
        assert_eq!(store2.failed_put_count(), 0);
    }
}

#[test]
fn degraded_build_succeeds_but_counts_partial_writes() {
    let events = trace();
    let end = events.last().unwrap().time;
    let store = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
    store.fail_machine(2);
    let tgi = TgiService::try_build_on(cfg(), store, &events)
        .expect("one replica is enough to build")
        .pin();
    assert!(
        tgi.store().partial_put_count() > 0,
        "writes that missed the down replica must be accounted"
    );
    assert_eq!(tgi.store().failed_put_count(), 0);
    // The surviving replicas answer exactly.
    let healthy = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    assert_eq!(
        tgi.try_snapshot(end / 2).unwrap(),
        healthy.try_snapshot(end / 2).unwrap()
    );
}

#[test]
fn label_index_reads_surface_total_failure_and_heal() {
    let events = hgs_datagen::SkewedLabels {
        nodes: 200,
        edge_events: 1_000,
        attr_churn: 500,
        ..Default::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    for m in 0..tgi.store().machine_count() {
        tgi.store().fail_machine(m);
    }
    assert!(matches!(
        tgi.try_nodes_with_label_at("Label00", t),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_nodes_matching_at(
            hgs_datagen::CHURN_KEY,
            &hgs_delta::AttrValue::Text("A".into()),
            t
        ),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        tgi.try_attr_history(0, hgs_core::LABEL_KEY),
        Err(StoreError::Unavailable { .. })
    ));
    tgi.store().heal_all();
    // Healed: the history and the indexed answer are the replay
    // oracle's.
    assert_eq!(
        tgi.try_attr_history(0, hgs_core::LABEL_KEY)
            .expect("healed"),
        common::attr_history_by_replay(&events, 0, hgs_core::LABEL_KEY)
    );
    let got = tgi.try_nodes_with_label_at("Label00", t).expect("healed");
    let want = common::nodes_matching_by_replay(
        &events,
        hgs_core::LABEL_KEY,
        &hgs_delta::AttrValue::Text("Label00".into()),
        t,
    );
    assert_eq!(got, want);
    assert!(
        !got.is_empty(),
        "the hot label matches someone at mid-trace"
    );
}

#[test]
fn disabled_index_fallback_is_explicit_never_silent() {
    let events = hgs_datagen::SkewedLabels {
        nodes: 200,
        edge_events: 1_000,
        attr_churn: 500,
        ..Default::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let off = TgiService::try_build(
        cfg().with_secondary_indexes(false),
        StoreConfig::new(3, 1),
        &events,
    )
    .unwrap()
    .pin();
    // The fallback materializes a snapshot, and an attribute history
    // (index or no index) walks the node's version chain; on a dead
    // cluster both must error — never return an empty answer.
    for m in 0..off.store().machine_count() {
        off.store().fail_machine(m);
    }
    assert!(matches!(
        off.try_nodes_with_label_at("Label00", t),
        Err(StoreError::Unavailable { .. })
    ));
    assert!(matches!(
        off.try_attr_history(0, hgs_core::LABEL_KEY),
        Err(StoreError::Unavailable { .. })
    ));
    off.store().heal_all();
    // Healed, the fallback answers the same as an indexed build.
    let on = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    assert_eq!(
        off.try_nodes_with_label_at("Label00", t).expect("fallback"),
        on.try_nodes_with_label_at("Label00", t).expect("indexed"),
    );
    assert_eq!(
        off.try_attr_history(0, hgs_core::LABEL_KEY)
            .expect("healed"),
        on.try_attr_history(0, hgs_core::LABEL_KEY)
            .expect("indexed"),
    );
}

/// Transient outages are not machine deaths: a seeded [`FaultPlan`]
/// window makes every replica refuse for a stretch of *simulated
/// time*, the read path surfaces `StoreError::Transient` (honest
/// about the retry budget it burned), and once the window elapses the
/// same read answers again — nothing is ever healed by hand.
#[test]
fn transient_outage_surfaces_transient_and_self_heals_with_time() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    let reference = tgi.try_snapshot(t).expect("healthy cluster");
    // A zero cache budget forces every read below to the store.
    tgi.set_read_cache_budget(0);
    let store = tgi.store();
    let mut plan = hgs_store::FaultPlan::new(7);
    for m in 0..store.machine_count() {
        plan = plan.with_outage(m, 0, 100_000);
    }
    store.set_fault_plan(Some(plan));
    match tgi.try_snapshot(t) {
        Err(StoreError::Transient { .. }) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
        Ok(_) => panic!("a total outage cannot answer"),
    }
    // Simulated time passes the window (plus breaker cooldown): the
    // identical read round-trips to the identical answer.
    store.advance_clock(1_000_000);
    assert_eq!(tgi.try_snapshot(t).expect("window elapsed"), reference);
}

/// Per-request flakes are absorbed by retries and replica failover
/// (a retry only happens when every replica flaked in one sweep, so
/// the rate is high enough to provoke some):
/// every readable answer is byte-identical to the fault-free
/// reference, any error is an honest `Transient`, and the stats
/// snapshot shows the retry layer did the absorbing.
#[test]
fn flaky_cluster_answers_exactly_or_errs_honestly() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    let reference = tgi.try_snapshot(t).expect("healthy cluster");
    tgi.set_read_cache_budget(0);
    let store = tgi.store();
    store.set_retry_policy(hgs_store::RetryPolicy {
        max_attempts: 8,
        breaker_threshold: 0,
        ..hgs_store::RetryPolicy::default()
    });
    store.set_fault_plan(Some(
        hgs_store::FaultPlan::new(0xF1A6).with_flake_per_mille(250),
    ));
    let mut ok = 0;
    for _ in 0..8 {
        match tgi.try_snapshot(t) {
            Ok(snap) => {
                assert_eq!(snap, reference, "flaky reads must never shrink the graph");
                ok += 1;
            }
            Err(StoreError::Transient { .. }) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(
        ok > 0,
        "25% flakes under failover + 8 attempts mostly answer"
    );
    let retries: u64 = store.stats_snapshot().iter().map(|m| m.retries).sum();
    assert!(retries > 0, "the answers came through the retry layer");
    store.set_fault_plan(None);
    assert_eq!(tgi.try_snapshot(t).expect("detached plan"), reference);
}
