//! Multipoint snapshot retrieval: shared-path planner vs the naive
//! per-time loop (§4.6's path-sharing claim, beyond the paper's
//! single-point figures).
//!
//! For growing batch sizes `k`, times are spread across the trace and
//! retrieved twice: once as `k` independent uncached snapshot calls
//! (refetching the whole root-to-leaf path per time) and once through
//! [`hgs_core::TgiView::try_snapshots`] (union of paths fetched once per
//! chunk, grouped scans, clone-at-divergence). Reported per `k`: wall
//! seconds, store requests and round-trips for both plans, plus the
//! planner's predicted fetch sharing.

use hgs_core::Tgi;
use hgs_delta::{Delta, Time};
use hgs_store::{SimStore, StoreConfig};

use crate::datasets::*;
use crate::harness::*;

/// One row of the comparison: naive loop vs shared planner at batch
/// size `k`. `shared_cold_secs` is the first planner execution on an
/// empty decode cache; `shared_secs` is the steady state (median of
/// three warm runs), which is what a serving system pays.
#[derive(Debug, Clone, Copy)]
pub struct MultipointRow {
    pub k: usize,
    /// Parallel fetch clients the shared plan ran with (the naive
    /// loop is always sequential — it is the per-time reference).
    pub clients: usize,
    pub naive_secs: f64,
    pub shared_cold_secs: f64,
    pub shared_secs: f64,
    pub naive_requests: u64,
    pub shared_requests: u64,
    pub shared_round_trips: u64,
    pub planned_shared_units: usize,
    pub planned_naive_units: usize,
}

/// Measure one batch size on a prepared index. Resets the shared read
/// cache first so `shared_cold_secs` is genuinely cold. The naive loop
/// uses the cache-bypassing snapshot path — single-point `try_snapshot`
/// runs through the same planner + cache, so timing it would
/// measure the cache, not the per-time refetch this row contrasts.
pub fn multipoint_row(tgi: &mut Tgi, times: &[Time], c: usize) -> MultipointRow {
    tgi.set_read_cache_budget(0);
    tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);
    let tgi = &*tgi;
    let naive = |ts: &[Time]| -> Vec<Delta> {
        ts.iter()
            .map(|&t| tgi.try_snapshot_uncached_c(t, 1).expect("healthy store"))
            .collect()
    };
    let view = tgi.with_clients(c);
    let shared = || view.try_snapshots(times).expect("healthy store");

    let (shared_snaps, cold_rep) = timed(tgi, c, shared);
    let shared_secs = median3([0, 1, 2].map(|_| timed(tgi, c, shared).1.wall_secs));
    let naive_secs = median3([0, 1, 2].map(|_| timed(tgi, 1, || naive(times)).1.wall_secs));
    let (naive_snaps, naive_rep) = timed(tgi, 1, || naive(times));
    assert_eq!(naive_snaps, shared_snaps, "planner must match naive");

    let before = tgi.store().stats_snapshot();
    let (_, shared_rep) = timed(tgi, c, shared);
    let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    let shared_round_trips: u64 = diff.iter().map(|m| m.batches).sum();

    let plan = tgi.plan_multipoint(times);
    MultipointRow {
        k: times.len(),
        clients: c,
        naive_secs,
        shared_cold_secs: cold_rep.wall_secs,
        shared_secs,
        naive_requests: naive_rep.requests(),
        shared_requests: shared_rep.requests(),
        shared_round_trips,
        planned_shared_units: plan.shared_fetch_units,
        planned_naive_units: plan.naive_fetch_units,
    }
}

/// The multipoint experiment over dataset 1: rows for k in
/// {2, 4, 8, 16}, printed as TSV and returned for JSON emission.
pub fn multipoint() -> Vec<MultipointRow> {
    banner(
        "Multipoint",
        "shared-path multipoint retrieval vs naive per-time loop",
        "m=4 r=1 ps=500 l=500, c from HGS_CLIENTS (default 1,2,4)",
    );
    let events = dataset1();
    let mut tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
    header(&[
        "k",
        "c",
        "naive_s",
        "shared_cold_s",
        "shared_s",
        "speedup",
        "naive_reqs",
        "shared_reqs",
        "round_trips",
    ]);
    let mut rows = Vec::new();
    let mut push = |row: MultipointRow| {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.2}\t{}\t{}\t{}",
            row.k,
            row.clients,
            secs(row.naive_secs),
            secs(row.shared_cold_secs),
            secs(row.shared_secs),
            row.naive_secs / row.shared_secs.max(1e-9),
            row.naive_requests,
            row.shared_requests,
            row.shared_round_trips,
        );
        rows.push(row);
    };
    for k in [2usize, 4, 8, 16] {
        let times = growth_times(&events, k);
        push(multipoint_row(&mut tgi, &times, 1));
    }
    // Clients sweep at a fixed batch size: the work-stealing parallel
    // fill must keep matching the naive reference at every c (the
    // equality assert inside `multipoint_row` checks each run).
    let times = growth_times(&events, 8);
    for c in clients_sweep() {
        if c == 1 {
            continue; // already covered by the k-sweep above
        }
        push(multipoint_row(&mut tgi, &times, c));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn shared_plan_issues_fewer_requests() {
        let events = WikiGrowth::sized(4_000).generate();
        let mut tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
        let times = growth_times(&events, 4);
        let row = multipoint_row(&mut tgi, &times, 1);
        assert!(
            row.shared_requests < row.naive_requests,
            "shared {} vs naive {}",
            row.shared_requests,
            row.naive_requests
        );
        assert!(row.planned_shared_units < row.planned_naive_units);
        assert!(row.shared_round_trips as usize <= row.planned_shared_units);
    }

    /// The parallel (work-stealing) fill also shares fetches — and the
    /// row's internal equality assert pins it to the naive reference.
    #[test]
    fn parallel_shared_plan_matches_and_shares() {
        let events = WikiGrowth::sized(4_000).generate();
        let mut tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
        let times = growth_times(&events, 4);
        let row = multipoint_row(&mut tgi, &times, 4);
        assert_eq!(row.clients, 4);
        assert!(
            row.shared_requests < row.naive_requests,
            "shared {} vs naive {}",
            row.shared_requests,
            row.naive_requests
        );
    }
}
