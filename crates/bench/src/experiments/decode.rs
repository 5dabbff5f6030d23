//! Decode-path experiment: bytes materialized and wall time per query
//! under the row-wise vs the columnar storage layout.
//!
//! The row-wise codec must decode a whole delta or eventlist row to
//! answer anything. The columnar layout stores each row as
//! separately-compressed column segments and decodes lazily, so
//! node-scoped queries (`node_at`, `node_history`, recursive k-hop)
//! touch only the dictionary plus the columns they need, while full
//! snapshots decode everything exactly once — same bytes, same speed.
//!
//! Measured per layout over the same trace and index shape, cache
//! disabled so every query pays its true decode cost:
//!
//! * `snapshot` — cold single-point snapshots (decodes every column);
//! * `node_at` — static-vertex fetches (columnar: dictionary + the
//!   columns of the touching events only);
//! * `node_history` — versioned node retrievals over a mid range.
//!
//! `bytes_decoded` comes from the codec's process-wide counter
//! ([`hgs_delta::codec::decoded_bytes`]), bracketed around one pass.
//! The CI smoke gate asserts the columnar layout decodes strictly
//! fewer bytes for `node_at` and `node_history` and holds cold
//! snapshots within noise of row-wise; the committed artifact
//! (`BENCH_decode.json`) tracks the full-size run.

use hgs_delta::codec::decoded_bytes;
use hgs_delta::{StorageLayout, TimeRange};
use hgs_store::StoreConfig;

use crate::datasets::*;
use crate::harness::*;

/// One (layout, workload) measurement.
#[derive(Debug, Clone, Copy)]
pub struct DecodeRow {
    pub layout: &'static str,
    pub workload: &'static str,
    /// Median wall seconds for one pass over the workload's queries.
    pub secs: f64,
    /// Codec bytes materialized by one pass (identical across passes:
    /// the cache is disabled, every query decodes from the stored
    /// bytes).
    pub bytes_decoded: u64,
    /// Queries per pass.
    pub queries: usize,
}

impl DecodeRow {
    pub fn bytes_per_query(&self) -> u64 {
        self.bytes_decoded / self.queries.max(1) as u64
    }
}

const TIMING_PASSES: usize = 7;

fn run_pair(
    workload: &'static str,
    queries: usize,
    mut row_pass: impl FnMut(),
    mut col_pass: impl FnMut(),
) -> [DecodeRow; 2] {
    // One untimed pass each to fault in allocator state, then bracket
    // the byte counter around a single pass (deterministic: the cache
    // is off, every pass decodes the same stored bytes). Wall time is
    // the min over interleaved passes — alternating layouts inside one
    // loop keeps thermal/scheduler drift from biasing whichever layout
    // happens to run second, and min-of-N is the noise-robust estimate
    // for a deterministic workload.
    row_pass();
    col_pass();
    let b0 = decoded_bytes();
    row_pass();
    let row_bytes = decoded_bytes() - b0;
    let b0 = decoded_bytes();
    col_pass();
    let col_bytes = decoded_bytes() - b0;

    let mut row_secs = f64::INFINITY;
    let mut col_secs = f64::INFINITY;
    for _ in 0..TIMING_PASSES {
        let t0 = std::time::Instant::now();
        row_pass();
        row_secs = row_secs.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        col_pass();
        col_secs = col_secs.min(t0.elapsed().as_secs_f64());
    }
    [
        DecodeRow {
            layout: "row_wise",
            workload,
            secs: row_secs,
            bytes_decoded: row_bytes,
            queries,
        },
        DecodeRow {
            layout: "columnar",
            workload,
            secs: col_secs,
            bytes_decoded: col_bytes,
            queries,
        },
    ]
}

/// The decode experiment over dataset 1: same trace, same index
/// shape, both layouts. Returns rows for JSON emission.
pub fn decode() -> Vec<DecodeRow> {
    banner(
        "Decode",
        "bytes decoded + wall time per query, row-wise vs columnar layout",
        "m=4 r=1 paper defaults, cache off",
    );
    let events = dataset1();
    let end = events.last().unwrap().time;

    let build = |layout: StorageLayout| {
        build_tgi(
            paper_default_cfg().with_layout(layout),
            StoreConfig::new(4, 1),
            &events,
        )
    };
    let row = build(StorageLayout::RowWise);
    let col = build(StorageLayout::Columnar);

    let times = growth_times(&events, 4);
    let nodes = sample_nodes(&events, 16, 4);
    let range = TimeRange::new(end / 4, (3 * end) / 4);

    // Answers must agree before anything is timed.
    for &t in &times {
        assert_eq!(
            row.try_snapshot(t).expect("healthy store"),
            col.try_snapshot(t).expect("healthy store"),
            "snapshot divergence"
        );
    }
    for &id in &nodes {
        assert_eq!(
            row.try_node_at(id, end / 2).expect("healthy store"),
            col.try_node_at(id, end / 2).expect("healthy store"),
            "node_at divergence"
        );
        assert_eq!(
            row.try_node_history(id, range).expect("healthy store"),
            col.try_node_history(id, range).expect("healthy store"),
            "node_history divergence"
        );
    }

    header(&[
        "layout",
        "workload",
        "secs",
        "mb_decoded",
        "queries",
        "kb/query",
    ]);
    let mut rows = Vec::new();
    let mut push = |r: DecodeRow| {
        println!(
            "{}\t{}\t{}\t{:.2}\t{}\t{:.1}",
            r.layout,
            r.workload,
            secs(r.secs),
            r.bytes_decoded as f64 / (1 << 20) as f64,
            r.queries,
            r.bytes_per_query() as f64 / 1024.0,
        );
        rows.push(r);
    };

    for r in run_pair(
        "snapshot",
        times.len(),
        || {
            for &t in &times {
                std::hint::black_box(row.try_snapshot(t).expect("healthy store"));
            }
        },
        || {
            for &t in &times {
                std::hint::black_box(col.try_snapshot(t).expect("healthy store"));
            }
        },
    ) {
        push(r);
    }
    for r in run_pair(
        "node_at",
        nodes.len(),
        || {
            for &id in &nodes {
                std::hint::black_box(row.try_node_at(id, end / 2).expect("healthy store"));
            }
        },
        || {
            for &id in &nodes {
                std::hint::black_box(col.try_node_at(id, end / 2).expect("healthy store"));
            }
        },
    ) {
        push(r);
    }
    for r in run_pair(
        "node_history",
        nodes.len(),
        || {
            for &id in &nodes {
                std::hint::black_box(row.try_node_history(id, range).expect("healthy store"));
            }
        },
        || {
            for &id in &nodes {
                std::hint::black_box(col.try_node_history(id, range).expect("healthy store"));
            }
        },
    ) {
        push(r);
    }
    rows
}
