//! Read-cache experiment: cold vs warm single-point retrieval over a
//! Zipf-repeated working set.
//!
//! The paper's retrieval cost (§4.5, Table 1) is dominated by fetching
//! and decoding root-to-leaf delta paths. A serving system sees the
//! same hot times and nodes over and over; the session-wide LRU read
//! cache should make every repeat pay only clone-and-replay time.
//! Three workloads, each a Zipf-weighted query stream over a small
//! working set (hot items queried far more often than cold ones):
//!
//! * `snapshot` — single-point [`TgiView::try_snapshot`](hgs_core::TgiView::try_snapshot) at repeated times;
//! * `node_at` — static-vertex fetches of repeated nodes;
//! * `taf_node_t` — TAF `node_t` retrievals (SoN select pushdown) of
//!   repeated nodes over a fixed range;
//! * `multipoint` — batched [`TgiView::try_snapshots`](hgs_core::TgiView::try_snapshots) at every parallelism
//!   of the [`clients_sweep`] knob (`HGS_CLIENTS`, default `1,2,4`):
//!   the parallel fill's per-`(tsid, sid, leaf)` checkpoint-state
//!   tier must turn warm multi-client batches into eventlist-suffix
//!   replays (state hits, not just row hits). Parallel results are
//!   asserted equal to sequential and to the cache-bypassing
//!   reference before timing starts.
//!
//! Reported per workload: cache-disabled (cold/bypassed) wall seconds
//! per pass, warm wall seconds per pass (median of three, after one
//! priming pass), and the cache counters, row/state hit split
//! included. The CI smoke gate asserts warm < cold at every clients
//! setting and `state_hits > 0` for the multipoint rows; the
//! committed artifact (`BENCH_cache.json`) tracks the full-size run,
//! where warm single-point snapshots must be ≥ 2x faster than cold.

use std::sync::Arc;

use hgs_core::Tgi;
use hgs_delta::TimeRange;
use hgs_store::StoreConfig;
use hgs_taf::TgiHandler;

use crate::datasets::*;
use crate::harness::*;

/// The budget every workload runs under (the library default).
pub const CACHE_BUDGET_BYTES: usize = hgs_core::DEFAULT_READ_CACHE_BYTES;

/// One workload's cold/warm comparison.
#[derive(Debug, Clone, Copy)]
pub struct CacheRow {
    pub workload: &'static str,
    /// Parallel fetch clients the workload ran with.
    pub clients: usize,
    pub cold_secs: f64,
    pub warm_secs: f64,
    pub hits: u64,
    pub misses: u64,
    /// Checkpoint-state hits (Leaf/SidLeaf/Part tiers) within `hits`.
    pub state_hits: u64,
    /// Checkpoint-state misses within `misses`.
    pub state_misses: u64,
    pub cache_bytes: usize,
}

impl CacheRow {
    pub fn speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-9)
    }
}

/// Deterministic Zipf-ish sequence: `len` indices into `0..n`, rank
/// `r` drawn with weight `1/(r+1)` via a fixed LCG (no RNG dependency,
/// reproducible across runs).
pub fn zipf_sequence(n: usize, len: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0);
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut acc = 0.0;
        let mut pick = n - 1;
        for (r, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                pick = r;
                break;
            }
        }
        out.push(pick);
    }
    out
}

/// Run one workload. "Cold" is the honest bypassed baseline: the
/// cache is disabled, so *every* query pays the full fetch + decode
/// (a cold pass with the cache on would already serve its own repeats
/// warm, hiding most of the contrast). "Warm" re-enables the budget,
/// primes with one pass, then takes the median of three timed passes;
/// cache counters are bracketed around the warm phase.
fn run_workload(
    tgi: &Tgi,
    workload: &'static str,
    clients: usize,
    mut pass: impl FnMut(),
) -> CacheRow {
    tgi.set_read_cache_budget(0);
    let cold_secs = median3([0, 1, 2].map(|_| {
        let t0 = std::time::Instant::now();
        pass();
        t0.elapsed().as_secs_f64()
    }));
    tgi.set_read_cache_budget(CACHE_BUDGET_BYTES);
    pass();
    let s0 = tgi.cache_stats();
    let warm_secs = median3([0, 1, 2].map(|_| {
        let t0 = std::time::Instant::now();
        pass();
        t0.elapsed().as_secs_f64()
    }));
    let s1 = tgi.cache_stats();
    assert!(
        s1.bytes <= s1.budget,
        "{workload}: cache bytes {} exceed budget {}",
        s1.bytes,
        s1.budget
    );
    CacheRow {
        workload,
        clients,
        cold_secs,
        warm_secs,
        hits: s1.hits - s0.hits,
        misses: s1.misses - s0.misses,
        state_hits: s1.state_hits - s0.state_hits,
        state_misses: s1.state_misses - s0.state_misses,
        cache_bytes: s1.bytes,
    }
}

/// The read-cache experiment over dataset 1, printed as TSV and
/// returned for JSON emission.
pub fn read_cache() -> Vec<CacheRow> {
    banner(
        "ReadCache",
        "cold vs warm single-point retrieval, Zipf-repeated working set",
        "m=4 r=1 ps=500 l=500 budget=64MiB",
    );
    let events = dataset1();
    let end = events.last().unwrap().time;
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);

    // Working sets: 8 hot times, 16 hot nodes, Zipf-repeated.
    let times = growth_times(&events, 8);
    let time_seq: Vec<u64> = zipf_sequence(times.len(), 48, 0xCAC4E)
        .into_iter()
        .map(|i| times[i])
        .collect();
    let nodes = sample_nodes(&events, 16, 4);
    let node_seq: Vec<u64> = zipf_sequence(nodes.len(), 96, 0xCAC4E)
        .into_iter()
        .map(|i| nodes[i])
        .collect();
    let range = TimeRange::new(end / 4, (3 * end) / 4);

    header(&[
        "workload",
        "c",
        "cold_s",
        "warm_s",
        "speedup",
        "hits",
        "misses",
        "state_hits",
        "cache_mb",
    ]);
    let mut rows = Vec::new();
    let mut push = |row: CacheRow| {
        println!(
            "{}\t{}\t{}\t{}\t{:.2}\t{}\t{}\t{}\t{:.1}",
            row.workload,
            row.clients,
            secs(row.cold_secs),
            secs(row.warm_secs),
            row.speedup(),
            row.hits,
            row.misses,
            row.state_hits,
            row.cache_bytes as f64 / (1 << 20) as f64,
        );
        rows.push(row);
    };

    push(run_workload(&tgi, "snapshot", 1, || {
        for &t in &time_seq {
            std::hint::black_box(tgi.try_snapshot(t).expect("healthy store"));
        }
    }));
    push(run_workload(&tgi, "node_at", 1, || {
        for &id in &node_seq {
            std::hint::black_box(tgi.try_node_at(id, end / 2).expect("healthy store"));
        }
    }));
    // Multipoint batches at every parallelism of the sweep: the warm
    // runs must land in the per-(tsid, sid, leaf) state tier. Before
    // timing, pin down correctness: every parallelism must equal the
    // cache-bypassing reference (and hence each other).
    let batch = growth_times(&events, 6);
    let reference: Vec<_> = batch
        .iter()
        .map(|&t| tgi.try_snapshot_uncached_c(t, 1).expect("healthy store"))
        .collect();
    for c in clients_sweep() {
        let view = tgi.with_clients(c);
        assert_eq!(
            view.try_snapshots(&batch).expect("healthy store"),
            reference,
            "parallel (c={c}) multipoint must equal the sequential reference"
        );
        let batch = batch.clone();
        push(run_workload(&tgi, "multipoint", c, move || {
            std::hint::black_box(view.try_snapshots(&batch).expect("healthy store"));
        }));
    }
    // TAF node_t: the handler shares the same Tgi, so its fetches ride
    // the same cache. Re-wrap per run to keep borrows simple.
    let shared = Arc::new(tgi);
    {
        let handler = TgiHandler::new(shared.clone(), 1);
        let ids = node_seq.clone();
        push(run_workload(&shared, "taf_node_t", 1, || {
            let son = handler
                .son()
                .timeslice(range)
                .select_ids(ids.clone())
                .try_fetch()
                .expect("healthy store");
            std::hint::black_box(son.len());
        }));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;
    use hgs_store::SimStore;

    #[test]
    fn zipf_sequence_is_deterministic_and_skewed() {
        let a = zipf_sequence(8, 64, 7);
        let b = zipf_sequence(8, 64, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 8));
        let hot = a.iter().filter(|&&i| i == 0).count();
        let cold = a.iter().filter(|&&i| i == 7).count();
        assert!(hot > cold, "rank 0 must dominate rank 7: {hot} vs {cold}");
    }

    /// Warm passes hit the cache and issue far fewer store requests
    /// than cold ones (wall-clock gates live in CI where timing is
    /// meaningful; request counts are deterministic here).
    #[test]
    fn warm_pass_hits_cache_and_saves_requests() {
        let events = WikiGrowth::sized(6_000).generate();
        let end = events.last().unwrap().time;
        let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
        tgi.set_read_cache_budget(CACHE_BUDGET_BYTES);
        let times = growth_times(&events, 4);
        let seq: Vec<u64> = zipf_sequence(times.len(), 16, 1)
            .into_iter()
            .map(|i| times[i])
            .collect();

        let before = tgi.store().stats_snapshot();
        for &t in &seq {
            tgi.try_snapshot(t).expect("healthy store");
        }
        let cold = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let s_cold = tgi.cache_stats();

        let before = tgi.store().stats_snapshot();
        for &t in &seq {
            tgi.try_snapshot(t).expect("healthy store");
        }
        let warm = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let s_warm = tgi.cache_stats();

        let cold_rows: u64 = cold.iter().map(|m| m.rows_read).sum();
        let warm_rows: u64 = warm.iter().map(|m| m.rows_read).sum();
        assert!(
            warm_rows < cold_rows,
            "warm {warm_rows} rows vs cold {cold_rows}"
        );
        assert!(s_warm.hits > s_cold.hits);
        assert!(s_warm.bytes <= s_warm.budget);

        // node_at over a hot node set: the second pass is all hits.
        let nodes = sample_nodes(&events, 8, 2);
        for &id in &nodes {
            let _ = tgi.try_node_at(id, end / 2).expect("healthy store");
        }
        let before = tgi.store().stats_snapshot();
        for &id in &nodes {
            let _ = tgi.try_node_at(id, end / 2).expect("healthy store");
        }
        let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let repeat_requests: u64 = diff.iter().map(|m| m.gets + m.scans).sum();
        assert_eq!(
            repeat_requests, 0,
            "fully-warm node_at must not touch the store"
        );
    }
}
