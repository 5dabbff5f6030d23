//! Secondary-index experiment: label/attribute predicate queries
//! answered from the change-point rows vs explicit
//! materialize-then-filter, over a Zipf-skewed labeled trace.
//!
//! The materialized plan decodes a whole snapshot to answer "who is
//! labeled X at t"; the indexed plan decodes exactly one `(term,
//! tsid)` row. The experiment asserts answer equality for **every**
//! query before anything is timed (hot labels, tail labels, and the
//! generator's guaranteed-dead label), then reports wall time and
//! codec bytes for one pass over each plan, cache disabled so both
//! pay their true fetch + decode cost.
//!
//! The CI smoke gate asserts the indexed plan decodes strictly fewer
//! bytes and runs strictly faster for the point-predicate workload;
//! the committed artifact (`BENCH_labels.json`) tracks the full-size
//! run, where the gap is the paper-style headline (≥5x).
//!
//! The `attr_history` rows are reported uncached and ungated: a
//! bare-key row holds *every* node's set points, so with the session
//! cache off each per-node query re-decodes whole-term rows and lands
//! near parity with the node-scoped replay. The cache amortizes those
//! rows across queries in real sessions; the rows are kept in the
//! artifact to track that cost honestly.

use hgs_core::LABEL_KEY;
use hgs_datagen::{CHURN_KEY, DEAD_LABEL};
use hgs_delta::codec::decoded_bytes;
use hgs_delta::AttrValue;
use hgs_store::StoreConfig;

use crate::datasets::*;
use crate::harness::*;

/// One (plan, workload) measurement.
#[derive(Debug, Clone, Copy)]
pub struct LabelRow {
    pub mode: &'static str,
    pub workload: &'static str,
    /// Min wall seconds for one pass over the workload's queries.
    pub secs: f64,
    /// Codec bytes materialized by one pass (deterministic: the cache
    /// is disabled, every query decodes from the stored rows).
    pub bytes_decoded: u64,
    /// Queries per pass.
    pub queries: usize,
}

const TIMING_PASSES: usize = 7;

fn run_pair(
    workload: &'static str,
    queries: usize,
    mut indexed_pass: impl FnMut(),
    mut materialized_pass: impl FnMut(),
) -> [LabelRow; 2] {
    // Same protocol as the decode experiment: one untimed pass each to
    // fault in allocator state, byte counters bracketed around a
    // single pass, wall time the min over interleaved passes.
    indexed_pass();
    materialized_pass();
    let b0 = decoded_bytes();
    indexed_pass();
    let indexed_bytes = decoded_bytes() - b0;
    let b0 = decoded_bytes();
    materialized_pass();
    let materialized_bytes = decoded_bytes() - b0;

    let mut indexed_secs = f64::INFINITY;
    let mut materialized_secs = f64::INFINITY;
    for _ in 0..TIMING_PASSES {
        let t0 = std::time::Instant::now();
        indexed_pass();
        indexed_secs = indexed_secs.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        materialized_pass();
        materialized_secs = materialized_secs.min(t0.elapsed().as_secs_f64());
    }
    [
        LabelRow {
            mode: "indexed",
            workload,
            secs: indexed_secs,
            bytes_decoded: indexed_bytes,
            queries,
        },
        LabelRow {
            mode: "materialized",
            workload,
            secs: materialized_secs,
            bytes_decoded: materialized_bytes,
            queries,
        },
    ]
}

/// The secondary-index experiment over the Zipf-skewed labeled trace.
/// Returns rows for JSON emission.
pub fn labels() -> Vec<LabelRow> {
    banner(
        "Labels",
        "predicate queries: secondary index vs snapshot materialization",
        "m=4 r=1 paper defaults, secondary indexes on, cache off",
    );
    let events = dataset_skewed();
    let end = events.last().unwrap().time;
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);

    // Hot head, mid-rank, tail, and the guaranteed-dead label.
    let labels = ["Label00", "Label03", "Label10", DEAD_LABEL];
    let times = growth_times(&events, 4);
    let nodes = sample_nodes(&events, 16, 4);

    // Answer equality for every query — before anything is timed.
    let mut nonempty = 0usize;
    for &label in &labels {
        let value = AttrValue::Text(label.into());
        for &t in &times {
            let indexed = tgi
                .try_nodes_with_label_at(label, t)
                .expect("healthy store");
            let oracle = tgi
                .try_nodes_matching_at_materialized(LABEL_KEY, &value, t)
                .expect("oracle");
            assert_eq!(indexed, oracle, "({label}, {t}) divergence");
            nonempty += usize::from(!indexed.is_empty());
        }
    }
    assert!(nonempty > 0, "degenerate workload: every answer empty");
    assert!(
        tgi.try_nodes_with_label_at(DEAD_LABEL, end)
            .expect("healthy store")
            .is_empty(),
        "the dead label must match nobody at the end of the trace"
    );
    for &id in &nodes {
        for key in [LABEL_KEY, CHURN_KEY] {
            assert_eq!(
                tgi.try_attr_history(id, key).expect("healthy store"),
                tgi.try_attr_history_materialized(id, key).expect("oracle"),
                "attr_history({id}, {key}) divergence"
            );
        }
    }

    header(&["mode", "workload", "secs", "mb_decoded", "queries"]);
    let mut rows = Vec::new();
    let mut push = |r: LabelRow| {
        println!(
            "{}\t{}\t{}\t{:.2}\t{}",
            r.mode,
            r.workload,
            secs(r.secs),
            r.bytes_decoded as f64 / (1 << 20) as f64,
            r.queries,
        );
        rows.push(r);
    };

    for r in run_pair(
        "label_point",
        labels.len() * times.len(),
        || {
            for &label in &labels {
                for &t in &times {
                    std::hint::black_box(
                        tgi.try_nodes_with_label_at(label, t)
                            .expect("healthy store"),
                    );
                }
            }
        },
        || {
            for &label in &labels {
                let value = AttrValue::Text(label.into());
                for &t in &times {
                    std::hint::black_box(
                        tgi.try_nodes_matching_at_materialized(LABEL_KEY, &value, t)
                            .expect("oracle"),
                    );
                }
            }
        },
    ) {
        push(r);
    }
    for r in run_pair(
        "attr_history",
        nodes.len() * 2,
        || {
            for &id in &nodes {
                std::hint::black_box(tgi.try_attr_history(id, LABEL_KEY).expect("healthy store"));
                std::hint::black_box(tgi.try_attr_history(id, CHURN_KEY).expect("healthy store"));
            }
        },
        || {
            for &id in &nodes {
                for key in [LABEL_KEY, CHURN_KEY] {
                    std::hint::black_box(
                        tgi.try_attr_history_materialized(id, key).expect("oracle"),
                    );
                }
            }
        },
    ) {
        push(r);
    }
    rows
}
