//! The metric catalog: every name the benchmark can emit, with its
//! unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! is generated from it (`hgs-benchmark manifest`) and a unit test
//! keeps the committed file equal to it.

use crate::json::{obj, Json};
use crate::ops::Op;
use crate::workloads::SPECS;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics, and nominally the `wall` diagnostics).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

fn bounded(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    }
}

/// `setup_s` cannot be demoted — the manifest requires it — and on
/// this box its ten-run median ranged from 2.02 s to 2.43 s over one
/// afternoon of unchanged code (consecutive sets up to 12 % apart), so
/// it takes the widest bound the manifest admits, as the driver's
/// contract asks for.
const SETUP_BOUND: f64 = 0.25;
/// Bytes per event is exact for a seed; the slack only has to cover
/// the driver's spread rule, which is taken across seeds (0.6 % over
/// seeds 1–10, 0.8 % over 11–20) and wants three times that.
const BYTES_BOUND: f64 = 0.03;
/// The bound ISSUE 12 gave every wall-clock metric. None of them
/// settles within it on this box (see "Noise" in the README), so by
/// the issue's own rule they are `wall.*` diagnostics, not end-to-end
/// metrics; `compare` still classifies them against this tenth.
const WALL_BOUND: f64 = 0.10;

/// What the driver gates: the end-to-end metrics that repeat within
/// their bound on this box.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        bounded("setup_s", "s", "lower", SETUP_BOUND),
        bounded("stored_bytes_per_event", "bytes", "lower", BYTES_BOUND),
    ]
}

/// The wall-clock metrics of ISSUE 12, measured by every run with
/// tracing off and reported as `wall.<name>`: latencies are medians
/// over the timed phase, throughputs completed work per wall second.
pub fn wall() -> Vec<MetricDef> {
    let mut out = vec![bounded("ops_per_s", "ops/s", "higher", WALL_BOUND)];
    out.extend(
        Op::ALL
            .iter()
            .map(|op| bounded(op.p50_metric(), op.unit(), "lower", WALL_BOUND)),
    );
    out.extend([
        bounded("build_events_per_s", "events/s", "higher", WALL_BOUND),
        bounded("append_events_per_s", "events/s", "higher", WALL_BOUND),
    ]);
    out
}

pub const PROBE_METRICS: [(&str, &str, &str); 17] = [
    ("store.probe.multi_get_us_per_row", "us", "lower"),
    ("store.probe.scan_mb_per_s", "MB/s", "higher"),
    ("store.probe.put_batch_rows_per_s", "rows/s", "higher"),
    ("delta.probe.delta_decode_mb_per_s", "MB/s", "higher"),
    ("delta.probe.elist_decode_mb_per_s", "MB/s", "higher"),
    ("delta.probe.node_record_us", "us", "lower"),
    ("delta.probe.events_touching_us", "us", "lower"),
    ("delta.probe.decompress_mb_per_s", "MB/s", "higher"),
    ("delta.probe.sum_nodes_per_s", "nodes/s", "higher"),
    ("delta.probe.replay_events_per_s", "events/s", "higher"),
    ("delta.probe.encode_mb_per_s", "MB/s", "higher"),
    (
        "partition.probe.plan_timespans_events_per_s",
        "events/s",
        "higher",
    ),
    ("partition.probe.assign_ns", "ns", "lower"),
    ("graph.probe.from_delta_ms", "ms", "lower"),
    ("graph.probe.density_us", "us", "lower"),
    ("core.service.pin_ns", "ns", "lower"),
    ("core.query_plan.plan_us", "us", "lower"),
];

/// Single-layer metrics of the traced run; layer = module name.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = vec![def("datagen.events_per_s", "events/s", "higher")];
    for op in Op::COUNTED {
        let n = op.name();
        out.push(def(format!("store.round_trips.{n}"), "count", "lower"));
        out.push(def(format!("store.rows.{n}"), "count", "lower"));
        out.push(def(format!("store.bytes.{n}"), "bytes", "lower"));
        out.push(def(format!("store.modeled_ms.{n}"), "ms", "lower"));
        out.push(def(format!("delta.decoded_bytes.{n}"), "bytes", "lower"));
        out.push(def(format!("attrib.store_share.{n}"), "fraction", "lower"));
        out.push(def(format!("attrib.delta_share.{n}"), "fraction", "lower"));
        out.push(def(format!("attrib.core_share.{n}"), "fraction", "lower"));
    }
    out.extend(PROBE_METRICS.iter().map(|(n, u, b)| def(*n, u, b)));
    out.extend([
        def("store.put_batches_per_append", "count", "lower"),
        def("store.rows_written_per_event", "count", "lower"),
        def("store.bytes_written_per_event", "bytes", "lower"),
        def("store.retries", "count", "lower"),
        def("store.breaker_opens", "count", "lower"),
        def("core.query_plan.shared_fetch_units", "count", "lower"),
        def("core.query_plan.naive_fetch_units", "count", "lower"),
        def("core.query_plan.predicted_round_trips", "count", "lower"),
        def("core.query_plan.observed_over_predicted", "ratio", "lower"),
        def("core.read_cache.row_hit_rate", "fraction", "higher"),
        def("core.read_cache.state_hit_rate", "fraction", "higher"),
        def("core.read_cache.insertions_per_op", "count", "lower"),
        def("core.read_cache.evictions_per_op", "count", "lower"),
        def("core.read_cache.bytes_retained", "bytes", "lower"),
        def("core.read_cache.working_set_bytes", "bytes", "lower"),
        def("core.build.span_count", "count", "lower"),
        def("core.build.rows_per_event", "count", "lower"),
        def("core.service.append_batch_p50_ms", "ms", "lower"),
        def("core.service.append_batch_max_ms", "ms", "lower"),
        def("core.service.reader_ops_per_s", "ops/s", "higher"),
        def("core.service.watermarks_observed", "count", "higher"),
        def("taf.son_nodes_per_s", "nodes/s", "higher"),
        def("taf.sots_subgraphs_per_s", "1/s", "higher"),
        def("taf.compute_share", "fraction", "lower"),
    ]);
    out.extend(
        Op::ALL
            .iter()
            .map(|op| def(format!("tail.{}_p", op.name()), op.unit(), "lower")),
    );
    out.extend(
        wall()
            .iter()
            .map(|m| def(format!("wall.{}", m.name), m.unit, m.better)),
    );
    out.extend([
        def("trace.overhead_share", "fraction", "lower"),
        def("trace.spans", "count", "lower"),
    ]);
    out
}

/// The content of the repo-root `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::from(m.name.clone())),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::from(b)));
        }
        obj(pairs)
    };
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::from)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| obj([("name", Json::from(s.name)), ("why", Json::from(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_respects_the_manifest_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end", e2e.len());
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let mut names = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(names.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: hgs-benchmark manifest > BENCHMARK.json"
        );
    }
}
