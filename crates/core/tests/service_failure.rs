//! Failure injection under concurrency: a machine dying mid-append
//! poisons the *writer* of a [`TgiService`] — `BuildError::Store` on
//! the failing batch, `BuildError::Poisoned` on retry — while pinned
//! readers, and every fresh pin, stay at the last durable watermark
//! and keep answering byte-identically from its sealed spans.
//!
//! Store availability is orthogonal: with the failure still live, a
//! sealed-span read whose rows sat on the dead machine surfaces
//! `StoreError::Unavailable` exactly as on a single-owner handle
//! (`failure_injection.rs`) — but any *readable* answer must equal the
//! pre-failure baseline, and after healing every read does.

use std::sync::Arc;

use hgs_core::{BuildError, OpenError, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_store::{FaultPlan, PlacementKey, StoreConfig, StoreError};

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
fn machine_death_mid_append_poisons_writer_while_pinned_readers_answer() {
    let events = trace();
    let mid = events.len() / 2;
    let svc =
        TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events[..mid]).expect("healthy");
    let store = svc.store();
    let w0 = svc.watermark();
    let pinned = svc.pin();
    let t = pinned.end_time();
    let baseline = pinned.try_snapshot(t).expect("healthy read");

    // Kill the machine the *next* span's sid-0 delta chunk lands on,
    // then run the doomed append concurrently with a pinned reader.
    let next_tsid = pinned.span_count() as u32;
    store.fail_machine(store.machine_for(PlacementKey::new(next_tsid, 0).token(), 0));
    std::thread::scope(|s| {
        let svc = &svc;
        let events = &events;
        let reader = {
            let pinned = Arc::clone(&pinned);
            let baseline = baseline.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    // With r = 1 the dead machine may hold sealed rows
                    // too; an unreadable chunk errs loudly, but a
                    // readable answer is byte-identical — never a
                    // shrunken graph, never a torn span.
                    match pinned.try_snapshot(t) {
                        Ok(snap) => assert_eq!(snap, baseline, "pinned read diverged"),
                        Err(StoreError::Unavailable { .. }) => {}
                        Err(other) => panic!("unexpected error kind: {other}"),
                    }
                    std::thread::yield_now();
                }
            })
        };
        s.spawn(move || {
            assert!(matches!(
                svc.try_append_events(&events[mid..]),
                Err(BuildError::Store(StoreError::Unavailable { .. }))
            ));
        });
        reader.join().expect("reader panicked");
    });

    // The failed append published nothing.
    assert!(svc.is_poisoned());
    assert_eq!(svc.watermark(), w0, "no watermark for a failed append");
    assert_eq!(
        svc.pin().epoch(),
        w0,
        "fresh pins stay at the durable watermark"
    );
    assert!(matches!(
        svc.try_append_events(&events[mid..]),
        Err(BuildError::Poisoned)
    ));

    // Healed, both the old pin and a fresh one answer the baseline.
    store.heal_all();
    assert_eq!(pinned.try_snapshot(t).expect("healed"), baseline);
    let fresh = svc.pin();
    assert_eq!(fresh.epoch(), w0);
    assert_eq!(fresh.event_count(), pinned.event_count());
    assert_eq!(fresh.try_snapshot(t).expect("healed"), baseline);
}

/// Same recovery contract under *transient* faults: the outage that
/// poisons the writer is a seeded [`FaultPlan`] window rather than a
/// permanent kill, so nothing is ever "healed" by hand — the plan is
/// detached and [`TgiService::try_recover`] re-opens the writer in
/// place on the same service, with the watermark sequence intact.
#[test]
fn recovery_reopens_from_durable_state_and_serves_the_full_history() {
    let events = trace();
    let mid = events.len() / 2;
    let svc =
        TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events[..mid]).expect("healthy");
    let store = svc.store();
    let w0 = svc.watermark();
    let pinned = svc.pin();
    let t = pinned.end_time();
    let baseline = pinned.try_snapshot(t).expect("healthy read");

    // The machine the next span's sid-0 chunk lands on refuses for the
    // whole append: the batch fails, the error is honest about the
    // fault being transient, and the writer poisons.
    let next_tsid = pinned.span_count() as u32;
    let victim = store.machine_for(PlacementKey::new(next_tsid, 0).token(), 0);
    store.set_fault_plan(Some(hgs_store::FaultPlan::new(0x5EED).with_outage(
        victim,
        0,
        u64::MAX,
    )));
    assert!(matches!(
        svc.try_append_events(&events[mid..]),
        Err(BuildError::Store(StoreError::Transient { .. }))
    ));
    assert!(svc.is_poisoned());

    // Faults over: detach the plan and recover the same service in
    // place. The descriptor was persisted only for durable watermarks,
    // so orphan rows of the failed batch are unreachable and the same
    // append replays cleanly.
    store.set_fault_plan(None);
    svc.try_recover().expect("healed cluster reopens in place");
    assert!(!svc.is_poisoned());
    assert_eq!(svc.watermark(), w0, "recovery publishes nothing by itself");
    assert_eq!(
        svc.pin().try_snapshot(t).expect("recovered read"),
        baseline,
        "recovery serves the last durable watermark"
    );
    let w1 = svc
        .try_append_events(&events[mid..])
        .expect("recovered writer accepts the replayed batch");
    assert_eq!(w1, w0 + 1, "watermark sequence survives recovery");

    // The recovered service's full history equals a from-scratch build.
    let end = events.last().unwrap().time;
    let oracle = TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    let now = svc.pin();
    assert_eq!(
        now.try_snapshot(end).expect("recovered"),
        oracle.try_snapshot(end).expect("oracle")
    );
    assert_eq!(now.event_count(), events.len());
}

/// Recovery on a cluster that is still degraded: the descriptor rows
/// are readable but a `Deltas` chunk of the tail snapshot is not. The
/// re-open must report that as [`OpenError::Store`] — not panic under
/// the writer lock — and leave the service serving its old watermark.
#[test]
fn recovery_on_a_still_degraded_cluster_is_an_error_not_a_panic() {
    let events = trace();
    let mid = events.len() / 2;
    let svc =
        TgiService::try_build(cfg(), StoreConfig::new(8, 1), &events[..mid]).expect("healthy");
    let store = svc.store();
    let w0 = svc.watermark();
    let pinned = svc.pin();
    let t = pinned.end_time();
    let baseline = pinned.try_snapshot(t).expect("healthy read");

    // A machine holding a delta chunk of the last sealed span but none
    // of the rows a re-open reads first (graph descriptor at token
    // 0, one `Timespans` row per span).
    let spans = pinned.span_count() as u32;
    let descriptor_machines: Vec<usize> = std::iter::once(0)
        .chain((0..spans).map(|tsid| hgs_delta::hash::hash_u64(tsid as u64)))
        .map(|token| store.machine_for(token, 0))
        .collect();
    let victim = (0..pinned.config().horizontal_partitions)
        .map(|sid| store.machine_for(PlacementKey::new(spans - 1, sid).token(), 0))
        .find(|m| !descriptor_machines.contains(m))
        .expect("some tail chunk lives apart from the descriptor rows");

    // Version-chain rows spread over every machine, so the dead one
    // fails the append and poisons the writer.
    store.fail_machine(victim);
    assert!(svc.try_append_events(&events[mid..]).is_err());
    assert!(svc.is_poisoned());

    assert!(matches!(
        svc.try_recover(),
        Err(OpenError::Store(StoreError::Unavailable { .. }))
    ));
    assert!(svc.is_poisoned(), "a failed recovery changes nothing");
    assert_eq!(svc.watermark(), w0);
    let still = svc.pin();
    assert_eq!(still.epoch(), w0);
    // Reads that avoid the dead machine answer exactly as before.
    let answered = baseline
        .iter()
        .filter(|n| match still.try_node_at(n.id, t) {
            Ok(got) => {
                assert_eq!(got.as_ref(), Some(*n), "node {} diverged", n.id);
                true
            }
            Err(StoreError::Unavailable { .. }) => false,
            Err(other) => panic!("unexpected error kind: {other}"),
        })
        .count();
    assert!(answered > 0, "the old watermark still serves reads");

    store.heal_machine(victim);
    svc.try_recover().expect("healed cluster reopens in place");
    assert!(!svc.is_poisoned());
    assert_eq!(svc.pin().try_snapshot(t).expect("recovered read"), baseline);
    let w1 = svc
        .try_append_events(&events[mid..])
        .expect("recovered writer accepts the replayed batch");
    assert_eq!(w1, w0 + 1);
}

#[test]
fn out_of_order_batch_is_refused_without_poisoning_the_service() {
    let events = trace();
    let mid = events.len() / 2;
    let svc =
        TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events[..mid]).expect("healthy");
    let w0 = svc.watermark();
    let end = svc.pin().end_time();

    // A batch that re-sends the tail of the indexed prefix.
    assert_eq!(
        svc.try_append_events(&events[mid - 10..]),
        Err(BuildError::OutOfOrder {
            time: events[mid - 10].time,
            floor: end
        })
    );
    assert!(!svc.is_poisoned());
    assert_eq!(svc.watermark(), w0, "a refused batch publishes nothing");
    assert_eq!(svc.pin().end_time(), end);

    // The next good batch publishes exactly the next watermark.
    let w1 = svc.try_append_events(&events[mid..]).expect("good batch");
    assert_eq!(w1, w0 + 1);
    assert_eq!(svc.watermark(), w1);
    let view = svc.pin();
    let t = view.end_time();
    assert_eq!(
        view.try_snapshot(t).expect("healthy read"),
        hgs_delta::Delta::snapshot_by_replay(&events, t)
    );
}

/// The rows that make an append reachable — every `Timespans` row,
/// `Graph/meta`, `Graph/config` — go through the same retried
/// `put_batch` as the rows they describe. With every machine alive and
/// one request in ten flaking, an append may exhaust its retry budget
/// (an honest `Transient`) but must never report `Unavailable`, the
/// permanent-death error, and nearly always lands. When those rows
/// were single un-retried puts, about half of these appends failed
/// with `Unavailable { table: Timespans }` and poisoned the writer.
#[test]
fn flaky_appends_retry_descriptor_rows_and_never_report_unavailable() {
    const SEEDS: u64 = 120;
    let events = WikiGrowth::sized(800).generate();
    let mut mid = events.len() / 2;
    while events[mid].time == events[mid - 1].time {
        mid += 1;
    }
    let cfg = TgiConfig {
        events_per_timespan: 200,
        eventlist_size: 50,
        partition_size: 40,
        ..TgiConfig::default()
    };
    let mut landed = 0;
    for seed in 0..SEEDS {
        let svc =
            TgiService::try_build(cfg, StoreConfig::new(4, 1), &events[..mid]).expect("healthy");
        let plan = FaultPlan::new(seed).with_flake_per_mille(100);
        svc.store().set_fault_plan(Some(plan));
        match svc.try_append_events(&events[mid..]) {
            Ok(_) => landed += 1,
            Err(BuildError::Store(StoreError::Transient { .. })) => {}
            Err(other) => panic!("seed {seed}: no machine is dead, yet the append says: {other}"),
        }
    }
    assert!(
        landed * 100 >= SEEDS * 95,
        "only {landed} of {SEEDS} flaky appends landed"
    );
}
