//! Smoke benchmark seeding the repo's perf trajectory
//! (`BENCH_baseline.json`).
//!
//! Builds a TGI over a small `WikiGrowth` trace through the shared
//! harness and times the operations every later optimization PR will
//! be judged against: index construction, single- and multi-client
//! snapshot retrieval, static node fetch, and node-history retrieval.
//! Results are written as JSON to the path given as the first CLI
//! argument (default `BENCH_baseline.json` in the current directory).
//!
//! ```text
//! cargo run --release -p hgs-bench --bin bench_baseline -- BENCH_baseline.json
//! ```

use std::time::Instant;

use hgs_bench::{build_tgi, growth_times, paper_default_cfg, sample_nodes, timed};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::decoded_bytes;
use hgs_delta::TimeRange;
use hgs_store::StoreConfig;

const EVENTS: usize = 20_000;
const REPEATS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median wall-clock seconds of `f` over [`REPEATS`] runs.
fn time_median<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(samples)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());

    let events = WikiGrowth::sized(EVENTS).generate();
    let end = events.last().unwrap().time;

    let t0 = Instant::now();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
    let build_secs = t0.elapsed().as_secs_f64();

    let snapshot_c1 = time_median(|| tgi.try_snapshot(end / 2).expect("healthy store"));
    let view = tgi.with_clients(4);
    let snapshot_c4 = time_median(|| view.try_snapshot(end / 2).expect("healthy store"));
    let (_, report) = timed(&tgi, 4, || {
        view.try_snapshot(end / 2).expect("healthy store")
    });

    let nodes = sample_nodes(&events, 8, 4);
    let node_at = time_median(|| {
        for &id in &nodes {
            std::hint::black_box(tgi.try_node_at(id, end / 2).expect("healthy store"));
        }
    });
    let range = TimeRange::new(end / 4, (3 * end) / 4);
    let node_history = time_median(|| {
        for &id in &nodes {
            std::hint::black_box(tgi.try_node_history(id, range).expect("healthy store"));
        }
    });

    // Decode-path rows: cold wall time plus codec bytes materialized
    // (the cache is still off, so every query decodes stored rows; the
    // `node_at_pruning` test in hgs-core holds the pruned-fetch bound).
    let decode_cold = time_median(|| tgi.try_snapshot(end / 2).expect("healthy store"));
    let node_at_cold = time_median(|| {
        for &id in &nodes {
            std::hint::black_box(tgi.try_node_at(id, end / 2).expect("healthy store"));
        }
    });
    let b0 = decoded_bytes();
    std::hint::black_box(tgi.try_snapshot(end / 2).expect("healthy store"));
    let snapshot_bytes = decoded_bytes() - b0;
    let b0 = decoded_bytes();
    for &id in &nodes {
        std::hint::black_box(tgi.try_node_at(id, end / 2).expect("healthy store"));
    }
    let node_at_bytes = (decoded_bytes() - b0) / nodes.len() as u64;
    // Naive multipoint (one independent cache-bypassing snapshot per
    // time) vs the shared-path planner behind `try_snapshots`. CI
    // gates on shared < naive. `build_tgi` disables the read cache so
    // the raw numbers above stay cache-free; the planner's steady
    // state (what a serving system pays) needs it back on.
    tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);
    let times = growth_times(&events, 4);
    let multipoint = time_median(|| {
        times
            .iter()
            .map(|&t| tgi.try_snapshot_uncached_c(t, 1).expect("healthy store"))
            .collect::<Vec<_>>()
    });
    let multipoint_shared = time_median(|| tgi.try_snapshots(&times).expect("healthy store"));

    let json = format!(
        "{{\n  \
         \"dataset\": \"WikiGrowth\",\n  \
         \"events\": {EVENTS},\n  \
         \"store\": {{\"machines\": 4, \"replication\": 1}},\n  \
         \"build_secs\": {build_secs:.4},\n  \
         \"storage_bytes\": {storage},\n  \
         \"snapshot_c1_secs\": {snapshot_c1:.5},\n  \
         \"snapshot_c4_secs\": {snapshot_c4:.5},\n  \
         \"snapshot_modeled_secs\": {modeled:.5},\n  \
         \"snapshot_requests\": {requests},\n  \
         \"node_at_x8_secs\": {node_at:.5},\n  \
         \"node_history_x8_secs\": {node_history:.5},\n  \
         \"decode_cold_secs\": {decode_cold:.5},\n  \
         \"node_at_cold_secs\": {node_at_cold:.5},\n  \
         \"snapshot_bytes_decoded\": {snapshot_bytes},\n  \
         \"node_at_bytes_decoded_per_query\": {node_at_bytes},\n  \
         \"multipoint_x4_secs\": {multipoint:.5},\n  \
         \"multipoint_shared_secs\": {multipoint_shared:.5}\n\
         }}\n",
        storage = tgi.storage_bytes(),
        modeled = report.modeled_secs,
        requests = report.requests(),
    );

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    print!("{json}");
}
