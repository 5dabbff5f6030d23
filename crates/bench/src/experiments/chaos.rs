//! Chaos experiment: what the fault/retry/repair layer costs and what
//! it buys.
//!
//! Three read phases run the same hot-node battery over one index
//! (m=4, r=2, cache off so every op is a real store round trip):
//!
//! * **baseline** — no fault plan attached: the pre-chaos fast path.
//! * **plan_zero** — a [`FaultPlan`] with every rate at zero: measures
//!   the pure overhead of having the fault/retry machinery engaged
//!   (the CI gate bounds this against the baseline).
//! * **chaos** — the canonical schedule: one machine in a persistent
//!   outage window (failover + circuit-breaker territory), 60‰ request
//!   flakes, 20‰ corrupt-on-read, and a 3× straggler multiplier on one
//!   machine (visible in `model_secs`, the cost-model estimate).
//!
//! Every `Ok` answer is verified against the no-fault oracle computed
//! before the plan attaches; every `Err` must be an honest
//! `Transient`/`Unavailable`/`Corrupt`. Availability is `ok / ops`.
//!
//! A separate **repair** scenario exercises the anti-entropy path
//! deterministically: build half the trace healthy, kill one machine,
//! append the rest (every row covering that machine lands partial and
//! enters the under-replication ledger), heal, run
//! [`SimStore::try_repair`] — and assert the repaired store is
//! **byte-identical** to a never-faulted build of the full trace.

use std::sync::Arc;
use std::time::Instant;

use hgs_delta::{Event, StaticNode, Time};
use hgs_store::{FaultPlan, SimStore, StoreConfig, StoreError};

use crate::datasets::*;
use crate::harness::*;

/// Seed for the canonical chaos schedule (fixed: the committed
/// artifact must be reproducible).
pub const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Machine held in a persistent outage during the chaos phase.
const OUTAGE_MACHINE: usize = 1;
/// Machine carrying the 3× straggler latency multiplier.
const SLOW_MACHINE: usize = 2;

/// Timed reads per phase × client setting.
const OPS: usize = 2_000;

/// One phase × client-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct ChaosRow {
    /// `baseline`, `plan_zero` or `chaos`.
    pub phase: &'static str,
    /// Parallel fetch clients (`with_clients`).
    pub clients: usize,
    /// Timed reads issued.
    pub ops: u64,
    /// Reads that answered — each verified byte-identical to the
    /// no-fault oracle (a divergent answer panics the run).
    pub ok: u64,
    /// `ok / ops`.
    pub availability: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Cost-model seconds for the whole battery — where the straggler
    /// latency multiplier shows up.
    pub model_secs: f64,
    /// Store-level retry sweeps the battery consumed.
    pub retries: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
}

/// Outcome of the deterministic repair scenario.
#[derive(Debug, Clone, Copy)]
pub struct RepairOutcome {
    /// Rows the dead machine missed (ledger size before repair).
    pub degraded_rows: usize,
    /// Rows the anti-entropy pass re-replicated.
    pub repaired: usize,
    /// Rows still degraded after the pass (must be 0).
    pub still_degraded: usize,
    /// Whether the repaired store dumped byte-identical to a
    /// never-faulted build of the same trace.
    pub byte_identical: bool,
}

fn honest(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Transient { .. } | StoreError::Unavailable { .. } | StoreError::Corrupt(_)
    )
}

/// The canonical chaos schedule.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(CHAOS_SEED)
        .with_outage(OUTAGE_MACHINE, 0, u64::MAX)
        .with_flake_per_mille(60)
        .with_corrupt_per_mille(20)
        .with_latency_multiplier(SLOW_MACHINE, 3.0)
}

/// Run the hot-node battery once and fold the answers into a row.
/// `oracle[i]` is the no-fault answer of query `i`.
fn run_phase(
    phase: &'static str,
    tgi: &hgs_core::TgiView,
    c: usize,
    queries: &[(u64, Time)],
    oracle: &[Option<StaticNode>],
) -> ChaosRow {
    let before = tgi.store().stats_snapshot();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(queries.len());
    let mut ok = 0u64;
    let (_, report) = timed_on(tgi.store(), c, || {
        for (i, &(nid, t)) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let got = tgi.try_node_at(nid, t);
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            match got {
                Ok(answer) => {
                    assert_eq!(
                        answer, oracle[i],
                        "{phase}: node_at({nid}, {t}) diverged from the no-fault oracle"
                    );
                    ok += 1;
                }
                Err(e) => assert!(honest(&e), "{phase}: dishonest error: {e}"),
            }
        }
    });
    let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    lat_ns.sort_unstable();
    let pct = |p: f64| lat_ns[((lat_ns.len() - 1) as f64 * p).round() as usize] as f64 / 1_000.0;
    ChaosRow {
        phase,
        clients: c,
        ops: queries.len() as u64,
        ok,
        availability: ok as f64 / queries.len() as f64,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        model_secs: report.modeled_secs,
        retries: diff.iter().map(|m| m.retries).sum(),
        breaker_opens: diff.iter().map(|m| m.breaker_opens).sum(),
    }
}

/// Advance `i` to the next strict time boundary (an append must start
/// strictly after the indexed end).
fn align(events: &[Event], mut i: usize) -> usize {
    while i > 0 && i < events.len() && events[i].time <= events[i - 1].time {
        i += 1;
    }
    i
}

/// Deterministic repair scenario: one machine misses the whole second
/// half of the trace, then anti-entropy brings the store back to
/// byte-identical with a never-faulted build.
fn repair_scenario(events: &[Event]) -> RepairOutcome {
    let cfg = paper_default_cfg();
    let mid = align(events, events.len() / 2);
    let store = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
    let mut tgi = hgs_core::Tgi::try_build_on(cfg, Arc::clone(&store), &events[..mid])
        .expect("healthy build of the first half");
    store.fail_machine(OUTAGE_MACHINE);
    tgi.try_append_events(&events[mid..])
        .expect("r=2 append survives one dead machine");
    let degraded_rows = store.under_replicated_count();
    assert!(degraded_rows > 0, "the dead machine must have missed rows");
    store.heal_machine(OUTAGE_MACHINE);
    let report = store.try_repair().expect("repair on a healed cluster");

    // Same build-then-append sequence (span seals depend on where the
    // append cut lands), just without the dead machine.
    let oracle_store = Arc::new(SimStore::new(StoreConfig::new(4, 2)));
    let mut oracle = hgs_core::Tgi::try_build_on(cfg, Arc::clone(&oracle_store), &events[..mid])
        .expect("never-faulted oracle build");
    oracle
        .try_append_events(&events[mid..])
        .expect("never-faulted oracle append");
    RepairOutcome {
        degraded_rows,
        repaired: report.repaired,
        still_degraded: report.still_degraded,
        byte_identical: store.content_rows() == oracle_store.content_rows(),
    }
}

/// The chaos experiment: availability, latency and retry cost under
/// the canonical fault schedule, plus the deterministic repair
/// scenario; printed as TSV and returned for JSON emission.
pub fn chaos() -> (Vec<ChaosRow>, RepairOutcome) {
    banner(
        "Chaos",
        "availability + retry/failover cost under a seeded fault schedule",
        &format!(
            "m=4 r=2 paper cfg cache-off, seed {CHAOS_SEED:#x}: outage on m{OUTAGE_MACHINE}, \
             60‰ flakes, 20‰ corrupt reads, 3x straggler on m{SLOW_MACHINE}"
        ),
    );
    let events = dataset1();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 2), &events);
    let hot = sample_nodes(&events, 32, 4);
    assert!(!hot.is_empty(), "hot set must be non-empty");
    let end = tgi.end_time();
    let queries: Vec<(u64, Time)> = (0..OPS)
        .map(|i| {
            let t = if i % 2 == 0 { end } else { end / 2 };
            (hot[i % hot.len()], t.max(1))
        })
        .collect();
    // No-fault oracle answers, computed before any plan attaches.
    let oracle: Vec<Option<StaticNode>> = queries
        .iter()
        .map(|&(nid, t)| tgi.try_node_at(nid, t).expect("healthy oracle read"))
        .collect();

    header(&[
        "phase", "c", "ops", "ok", "avail", "p50_us", "p99_us", "model_s", "retries", "opens",
    ]);
    let mut rows = Vec::new();
    for c in clients_sweep() {
        let view = tgi.with_clients(c);
        for (phase, plan) in [
            ("baseline", None),
            ("plan_zero", Some(FaultPlan::new(CHAOS_SEED))),
            ("chaos", Some(chaos_plan())),
        ] {
            tgi.store().set_fault_plan(plan);
            let row = run_phase(phase, &view, c, &queries, &oracle);
            println!(
                "{}\t{}\t{}\t{}\t{:.4}\t{:.1}\t{:.1}\t{}\t{}\t{}",
                row.phase,
                row.clients,
                row.ops,
                row.ok,
                row.availability,
                row.p50_us,
                row.p99_us,
                secs(row.model_secs),
                row.retries,
                row.breaker_opens,
            );
            rows.push(row);
        }
        // Detach + breaker reset so the next client width starts clean.
        tgi.store().set_fault_plan(None);
    }

    let repair = repair_scenario(&events);
    println!(
        "# repair: {} degraded rows -> {} repaired, {} still degraded, byte_identical={}",
        repair.degraded_rows, repair.repaired, repair.still_degraded, repair.byte_identical
    );
    (rows, repair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    /// Miniature end-to-end: the chaos phase degrades availability but
    /// never correctness, and the repair scenario restores
    /// byte-identity.
    #[test]
    fn chaos_battery_and_repair_smoke() {
        let events = WikiGrowth::sized(4_000).generate();
        let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 2), &events);
        let hot = sample_nodes(&events, 8, 2);
        let end = tgi.end_time();
        let queries: Vec<(u64, Time)> =
            (0..200).map(|i| (hot[i % hot.len()], end.max(1))).collect();
        let oracle: Vec<Option<StaticNode>> = queries
            .iter()
            .map(|&(nid, t)| tgi.try_node_at(nid, t).expect("healthy"))
            .collect();

        tgi.store().set_fault_plan(Some(FaultPlan::new(CHAOS_SEED)));
        let zero = run_phase("plan_zero", &tgi, 1, &queries, &oracle);
        assert_eq!(zero.ok, zero.ops, "a zero-rate plan refuses nothing");
        assert_eq!(zero.retries, 0);

        tgi.store().set_fault_plan(Some(chaos_plan()));
        let chaos = run_phase("chaos", &tgi, 1, &queries, &oracle);
        assert!(chaos.ok > 0, "failover must keep most answers flowing");
        assert!(
            chaos.retries > 0,
            "the outage machine forces retry sweeps ({} ok)",
            chaos.ok
        );

        let repair = repair_scenario(&events);
        assert!(repair.degraded_rows > 0);
        assert_eq!(repair.repaired, repair.degraded_rows);
        assert_eq!(repair.still_degraded, 0);
        assert!(repair.byte_identical, "repair must restore byte-identity");
    }
}
