//! Chaos properties: under an *arbitrary* seeded fault schedule
//! (transient outage windows × per-request flakes × corrupt-on-read ×
//! straggler latency), every TGI operation either answers
//! **byte-identically** to a no-fault oracle or returns an honest
//! error (`Transient`/`Unavailable`/`Corrupt`) — never a panic, never
//! a silently smaller graph. And once the faults are gone and
//! `try_repair` has run, a store degraded mid-build is byte-identical
//! to one that never saw a fault.

use std::sync::Arc;

use hgs_core::{TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{Event, EventKind, Time, TimeRange};
use hgs_store::{CostModel, FaultPlan, RetryPolicy, SimStore, StoreConfig, StoreError};
use proptest::prelude::*;

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..24;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.prop_map(|id| EventKind::RemoveNode { id }),
        3 => (0u64..24, 0u64..24).prop_map(|(src, dst)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed: false }
        }),
        1 => (0u64..24, 0u64..24).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..3), 30..150).prop_map(|kinds| {
        let mut t = 1u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    })
}

/// An arbitrary chaos schedule over a 3-machine cluster: every fault
/// class the plan supports, in moderate doses so most operations can
/// still succeed through retries and failover.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u16..250,
        0u16..120,
        prop::collection::vec((0usize..3, 0u64..2_000, 1u64..6_000), 0..3),
        prop_oneof![
            1 => Just(None),
            2 => (0usize..3, 1.0f64..4.0).prop_map(Some),
        ],
    )
        .prop_map(|(seed, flake, corrupt, outages, latency)| {
            let mut plan = FaultPlan::new(seed)
                .with_flake_per_mille(flake)
                .with_corrupt_per_mille(corrupt);
            for (m, from, len) in outages {
                plan = plan.with_outage(m, from, from.saturating_add(len));
            }
            if let Some((m, f)) = latency {
                plan = plan.with_latency_multiplier(m, f);
            }
            plan
        })
}

fn small_cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 60,
        eventlist_size: 16,
        partition_size: 8,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
}

/// Allowed failure modes under a fault plan with no permanently dead
/// machines: retry exhaustion and wire corruption. Anything else —
/// and in particular any panic — is a bug.
fn honest(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Transient { .. } | StoreError::Unavailable { .. } | StoreError::Corrupt(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The read battery under chaos: every Ok equals the no-fault
    /// oracle (cold cache and warm cache alike), every Err is honest.
    #[test]
    fn faulted_reads_answer_exactly_or_err_honestly(
        events in arb_history(),
        plan in arb_plan(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let tgi = TgiService::try_build_on_c(
            small_cfg(),
            Arc::new(SimStore::new(StoreConfig::new(3, 2))),
            &events,
            c,
        )
        .expect("fault-free build").pin();
        let end = tgi.end_time();
        let times = [end / 2, end];
        let range = TimeRange::new(0, end + 1);
        let nids = [0u64, 7, 13];

        // Oracle answers on the healthy cluster, then drain the cache
        // so the first faulted pass is a genuine store read.
        let oracle_snaps: Vec<_> = times
            .iter()
            .map(|&t| tgi.try_snapshot(t).expect("oracle"))
            .collect();
        let oracle_hist: Vec<_> = nids
            .iter()
            .map(|&n| tgi.try_node_history(n, range).expect("oracle"))
            .collect();
        let oracle_khop = tgi.try_khop(nids[0], end, 2).expect("oracle");
        tgi.set_read_cache_budget(0);
        tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);

        tgi.store().set_fault_plan(Some(plan));
        // Two passes: pass 0 reads cold, pass 1 may be served by
        // whatever pass 0 managed to cache — both must agree with the
        // oracle whenever they answer at all.
        for pass in 0..2 {
            for (i, &t) in times.iter().enumerate() {
                match tgi.try_snapshot(t) {
                    Ok(snap) => prop_assert_eq!(
                        &snap, &oracle_snaps[i],
                        "snapshot(t={}) diverged on pass {}", t, pass
                    ),
                    Err(e) => prop_assert!(honest(&e), "dishonest error: {}", e),
                }
            }
            match tgi.try_snapshots(&times) {
                Ok(snaps) => prop_assert_eq!(&snaps, &oracle_snaps, "multipoint diverged"),
                Err(e) => prop_assert!(honest(&e), "dishonest error: {}", e),
            }
            for (i, &n) in nids.iter().enumerate() {
                match tgi.try_node_history(n, range) {
                    Ok(h) => prop_assert_eq!(
                        &h, &oracle_hist[i],
                        "history({}) diverged on pass {}", n, pass
                    ),
                    Err(e) => prop_assert!(honest(&e), "dishonest error: {}", e),
                }
            }
            match tgi.try_khop(nids[0], end, 2) {
                Ok(k) => prop_assert_eq!(&k, &oracle_khop, "khop diverged on pass {}", pass),
                Err(e) => prop_assert!(honest(&e), "dishonest error: {}", e),
            }
        }

        // Detached plan, breakers reset: the cluster is exactly the
        // healthy one again.
        tgi.store().set_fault_plan(None);
        for (i, &t) in times.iter().enumerate() {
            prop_assert_eq!(&tgi.try_snapshot(t).expect("healed"), &oracle_snaps[i]);
        }
    }

    /// A build that survives chaos leaves — after the plan detaches
    /// and one repair pass runs — a store byte-identical to a build
    /// that never saw a fault. A build that does not survive fails
    /// honestly.
    #[test]
    fn faulted_build_repairs_to_a_byte_identical_store(
        events in arb_history(),
        plan in arb_plan(),
    ) {
        let cfg = small_cfg();
        let store = Arc::new(SimStore::new(StoreConfig::new(3, 2)));
        store.set_retry_policy(RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        });
        store.set_fault_plan(Some(plan));
        match TgiService::try_build_on(cfg, Arc::clone(&store), &events) {
            Err(e) => {
                // An overwhelmed build is allowed — but only with an
                // honest store error, and without poisoning the
                // *store* (a later build on the same cluster works).
                match e {
                    hgs_core::BuildError::Store(se) => prop_assert!(honest(&se), "dishonest: {}", se),
                    other => prop_assert!(false, "unexpected build error kind: {}", other),
                }
            }
            Ok(svc) => {
                let tgi = svc.pin();
                store.set_fault_plan(None);
                let report = store.try_repair().expect("repair on a healed cluster");
                prop_assert_eq!(report.still_degraded, 0, "nothing may stay degraded");
                prop_assert_eq!(store.under_replicated_count(), 0);
                // Byte-identical to the never-faulted build: same rows,
                // same replicas, same bytes.
                let oracle_store = Arc::new(SimStore::new(StoreConfig::new(3, 2)));
                let oracle = TgiService::try_build_on(cfg, Arc::clone(&oracle_store), &events)
                    .expect("fault-free build").pin();
                prop_assert_eq!(store.content_rows(), oracle_store.content_rows());
                let end = tgi.end_time();
                prop_assert_eq!(
                    tgi.try_snapshot(end).expect("repaired"),
                    oracle.try_snapshot(end).expect("oracle")
                );
            }
        }
    }

    /// Chaos against the service writer: an append either publishes
    /// the next watermark with oracle-identical answers, or fails
    /// honestly, poisons, and `try_recover` restores the service in
    /// place once the plan detaches.
    #[test]
    fn service_append_under_chaos_recovers_to_the_oracle(
        events in arb_history(),
        plan in arb_plan(),
    ) {
        // Cut at a strict time boundary so the append is legal.
        let mut cut = (events.len() / 2).max(1);
        while cut < events.len() && events[cut].time <= events[cut - 1].time {
            cut += 1;
        }
        if cut >= events.len() {
            // Degenerate history with nothing left to append.
            return Ok(());
        }

        let store = Arc::new(SimStore::new(StoreConfig::new(3, 2)));
        let svc = TgiService::try_build_on(small_cfg(), Arc::clone(&store), &events[..cut])
            .expect("fault-free build");
        let w0 = svc.watermark();
        store.set_fault_plan(Some(plan));
        match svc.try_append_events(&events[cut..]) {
            Ok(w1) => {
                prop_assert_eq!(w1, w0 + 1);
                store.set_fault_plan(None);
                prop_assert_eq!(store.try_repair().expect("repair").still_degraded, 0);
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, hgs_core::BuildError::Store(ref se) if honest(se)),
                    "dishonest append failure: {}", e
                );
                prop_assert!(svc.is_poisoned());
                prop_assert_eq!(svc.watermark(), w0, "failed appends publish nothing");
                store.set_fault_plan(None);
                svc.try_recover().expect("recovery on a healed cluster");
                let w1 = svc
                    .try_append_events(&events[cut..])
                    .expect("recovered writer accepts the replay");
                prop_assert_eq!(w1, w0 + 1, "watermark sequence survives recovery");
            }
        }
        // Either way the service now serves the full history exactly.
        let oracle = TgiService::try_build_on(
            small_cfg(),
            Arc::new(SimStore::new(StoreConfig::new(3, 2))),
            &events,
        )
        .expect("oracle build").pin();
        let view = svc.pin();
        let end = view.end_time();
        prop_assert_eq!(
            view.try_snapshot(end).expect("served"),
            oracle.try_snapshot(end).expect("oracle")
        );
    }
}

/// The canonical seeded schedule — one machine out for good, 60‰
/// flakes, 20‰ corrupt reads, a 3× straggler — against a 2 000-read
/// hot-node battery (m=4, r=2, cache off) at every read width: ≥ 75 %
/// of the reads answer, through visible retries and an open breaker,
/// the straggler shows in the cost model, every `Ok` equals the
/// no-fault answer, every `Err` is honest. And the fault layer is free
/// when off: a zero-rate plan changes no store counter of the battery.
#[test]
fn canonical_schedule_is_masked_and_a_zero_rate_plan_is_free() {
    let events = WikiGrowth::sized(2_000).generate();
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    tgi.set_read_cache_budget(0);
    let (store, end) = (tgi.store(), tgi.end_time());
    let queries: Vec<(u64, Time)> = (0..2_000u64)
        .map(|i| (i % 32, if i % 2 == 0 { end } else { end / 2 }))
        .collect();
    let oracle: Vec<_> = queries
        .iter()
        .map(|&(nid, t)| tgi.try_node_at(nid, t).expect("healthy"))
        .collect();
    // One battery under `plan` at width `c`: how many reads answered,
    // the store counters it moved, and its modeled seconds.
    let battery = |plan: Option<FaultPlan>, c: usize| {
        store.set_fault_plan(plan);
        let view = tgi.with_clients(c);
        let before = store.stats_snapshot();
        let mut ok = 0;
        for (&(nid, t), want) in queries.iter().zip(&oracle) {
            match view.try_node_at(nid, t) {
                Ok(got) => {
                    assert_eq!(&got, want, "node_at({nid}, {t}) diverged at c={c}");
                    ok += 1;
                }
                Err(e) => assert!(honest(&e), "dishonest error: {e}"),
            }
        }
        let moved = SimStore::stats_since(&store.stats_snapshot(), &before);
        let slow = store.latency_multipliers();
        let modeled = CostModel::default().estimate_seconds_with_latency(&moved, c, &slow);
        store.set_fault_plan(None);
        (ok, moved, modeled)
    };
    let seed = 0xC4A0_5EED;
    let chaos = FaultPlan::new(seed)
        .with_outage(1, 0, u64::MAX)
        .with_flake_per_mille(60)
        .with_corrupt_per_mille(20)
        .with_latency_multiplier(2, 3.0);
    for c in [1usize, 2, 4] {
        let (base_ok, base, base_modeled) = battery(None, c);
        let (zero_ok, zero, _) = battery(Some(FaultPlan::new(seed)), c);
        assert_eq!((base_ok, zero_ok), (queries.len(), queries.len()));
        assert_eq!(zero, base, "c={c}: a zero-rate plan moved a store counter");
        assert_eq!(zero.iter().map(|m| m.retries).sum::<u64>(), 0);
        let (ok, moved, modeled) = battery(Some(chaos.clone()), c);
        assert!(ok * 4 >= queries.len() * 3, "c={c}: {ok} of 2000 answered");
        assert!(moved.iter().any(|m| m.retries > 0), "c={c}: no retries");
        assert!(moved.iter().any(|m| m.breaker_opens > 0), "c={c}: no open");
        assert!(modeled > base_modeled, "c={c}: straggler not in the model");
    }
}

/// One machine misses the whole second half of the trace (r = 2, so
/// the append survives); once it heals, one anti-entropy pass brings
/// the store back to byte-identity with a never-faulted build.
#[test]
fn append_beside_a_dead_machine_repairs_to_byte_identity() {
    let events = WikiGrowth::sized(4_000).generate();
    let mid = (2_000..4_000)
        .find(|&i| events[i].time > events[i - 1].time)
        .expect("an append starts strictly after the indexed end");
    let build_then_append = |dead: bool| {
        let store = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
        let svc =
            TgiService::try_build_on(TgiConfig::default(), Arc::clone(&store), &events[..mid])
                .expect("healthy build");
        if dead {
            store.fail_machine(1);
        }
        svc.try_append_events(&events[mid..])
            .expect("r=2 append survives one dead machine");
        store
    };
    let store = build_then_append(true);
    let degraded = store.under_replicated_count();
    assert!(degraded > 0, "the dead machine must have missed rows");
    store.heal_machine(1);
    let report = store.try_repair().expect("repair on a healed cluster");
    assert_eq!((report.repaired, report.still_degraded), (degraded, 0));
    let never_faulted = build_then_append(false);
    assert_eq!(store.content_rows(), never_faulted.content_rows());
}
