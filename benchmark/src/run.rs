//! One benchmark run: set up, measure, guard, verify, probe, report.

use std::path::PathBuf;
use std::time::Instant;

use hgs_core::{CacheStats, TgiConfig};

use crate::api::{Index, EVOLUTION_POINTS, STORE_MACHINES, STORE_REPLICATION};
use crate::data::{
    label_universe, mix, scaled, wiki_alive, HotSet, Inputs, QueryGen, APPEND_BATCHES,
    BUILD_PREFIX, SKEW_GRID, WIKI_GRID,
};
use crate::json::{obj, Json};
use crate::metrics::{self, MetricDef};
use crate::ops::{Op, N_OPS};
use crate::oracle::Tally;
use crate::probes;
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::verify::verify;
use crate::workloads::{
    ingest_rep, measure_ingest, measure_reads, second_half, spec_by_name, Ctx, Dataset, Guard,
    IngestRep, Pacer, Runner, KHOP_K, MULTIPOINT_K, SON_TARGET_NODES, SOTS_K, SOTS_ROOTS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Budget that never evicts, for the working-set sweep.
const UNBOUNDED: usize = 1 << 40;
const MIN_ROW_HIT_RATE: f64 = 0.95;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub out: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final line: end to end, or per layer when traced.
    pub metrics: Vec<Metric>,
    /// The wall-clock diagnostics of an untraced run (a traced run has
    /// them among its per-layer metrics): printed, not in the final line.
    pub wall: Vec<Metric>,
    pub messages: Vec<String>,
    pub result_path: PathBuf,
}

struct SetupRep {
    total_s: f64,
    datagen_s: f64,
    ingest: IngestRep,
    stored_bytes_per_event: f64,
}

struct Built {
    inputs: Inputs,
    wiki: Index,
    skew: Index,
}

fn setup_once(
    seed: u64,
    scale: f64,
    dataset: Dataset,
    tr: &mut Tracer,
) -> Result<(Built, SetupRep), String> {
    let span = tr.begin("setup", "benchmark");
    let t0 = Instant::now();
    let gen = tr.begin("datagen.generate", "datagen");
    let inputs = Inputs::generate(seed, scale);
    tr.end(gen);
    let datagen_s = t0.elapsed().as_secs_f64();
    let (wiki, ingest) = ingest_rep(&inputs.wiki, &inputs.cuts, tr, None, |_| {})?
        .expect("no deadline, so the rep completes");
    let build = tr.begin("core.build", "core.build");
    let skew = Index::build(&inputs.skew).map_err(|e| format!("skew build failed: {e}"))?;
    tr.end(build);
    let total_s = t0.elapsed().as_secs_f64();
    tr.end(span);
    let (index, events) = match dataset {
        Dataset::Wiki100k => (&wiki, &inputs.wiki),
        Dataset::Skew106k => (&skew, &inputs.skew),
    };
    let stored_bytes_per_event = index.pin().storage_bytes() as f64 / events.len() as f64;
    Ok((
        Built { inputs, wiki, skew },
        SetupRep {
            total_s,
            datagen_s,
            ingest,
            stored_bytes_per_event,
        },
    ))
}

/// Field-wise combination of two readings of the cache counters.
fn zip_cache(a: CacheStats, b: CacheStats, f: fn(u64, u64) -> u64) -> CacheStats {
    CacheStats {
        hits: f(a.hits, b.hits),
        misses: f(a.misses, b.misses),
        row_hits: f(a.row_hits, b.row_hits),
        row_misses: f(a.row_misses, b.row_misses),
        state_hits: f(a.state_hits, b.state_hits),
        state_misses: f(a.state_misses, b.state_misses),
        insertions: f(a.insertions, b.insertions),
        evictions: f(a.evictions, b.evictions),
        bytes: f(a.bytes as u64, b.bytes as u64) as usize,
        budget: f(a.budget as u64, b.budget as u64) as usize,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Standard output of `program args`, trimmed; `None` if it cannot
/// run or fails.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `git rev-parse HEAD` of the repository this package was built in.
/// The driver's checkout is not a git repository; the stamp then says
/// so, and says it aloud.
fn commit() -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    output_of("git", &["-C", dir, "rev-parse", "HEAD"]).unwrap_or_else(|| {
        eprintln!("warning: `git -C {dir} rev-parse HEAD` failed; the result is stamped with commit \"unknown\"");
        "unknown".to_string()
    })
}

fn rustc_version() -> String {
    output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec_by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    if nproc() < 2 {
        return Err(format!(
            "nproc is {}: the workloads need two cores (reader beside writer, two TAF workers)",
            nproc()
        ));
    }
    let (seed, scale) = (args.seed, args.scale);
    let mut tr = Tracer::new(args.trace);
    let root = tr.begin("workload", "benchmark");

    // --- set-up ------------------------------------------------------
    // The last repetition generates the datasets of `seed`, which the
    // timed phase then queries; the earlier ones generate datasets of
    // seeds derived from it, so `setup_s`, the ingest rates and the
    // bytes per event are taken over several datasets and move less
    // with the seed.
    let mut setups = Vec::new();
    let mut built = None;
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    for rep in 1..=setup_reps {
        // Drop the previous rep's indexes before building the next.
        drop(built.take());
        let data_seed = if rep == setup_reps {
            seed
        } else {
            mix(seed, rep as u64)
        };
        let (b, rep) = setup_once(data_seed, scale, spec.dataset, &mut tr)?;
        setups.push(rep);
        built = Some(b);
    }
    let Built { inputs, wiki, skew } = built.expect("at least one set-up rep");

    let budget = (spec.cache_budget as f64 * scale) as usize;
    wiki.set_cache_budget(budget);
    skew.set_cache_budget(budget);
    // A reader beside ingest queries the build prefix: every watermark
    // it can pin contains that history, whatever the writer is doing.
    let wiki_horizon = if spec.ingest() {
        inputs.wiki[inputs.cuts[0] - 1].time + 1
    } else {
        wiki.pin().end_time()
    };
    let q = QueryGen {
        seed,
        wiki_horizon,
        wiki_alive: wiki_alive(&inputs.wiki, wiki_horizon),
        skew_nodes: inputs.skew_nodes,
        hot: spec.hot.map(|h| HotSet {
            times: h.times,
            nodes: (scaled(h.nodes as usize, scale) as u64).max(16),
        }),
        labels: label_universe(&inputs.vocabulary),
        son_label: inputs.label_with_population(scaled(SON_TARGET_NODES, scale).max(4)),
        sots_roots: SOTS_ROOTS,
    };
    let taf = skew.taf(spec.taf_workers);
    let skew_end = skew.pin().end_time();
    let half_son = taf
        .son_fetch(&q.son_label, second_half(skew_end))
        .map_err(|e| format!("half-range SoN fetch failed: {e}"))?;
    let ctx = Ctx {
        q: &q,
        skew: &skew,
        taf: &taf,
        half_son: &half_son,
        skew_end,
    };
    let mut runner = Runner::new(ctx, spec);
    let cache_now = || zip_cache(wiki.cache_stats(), skew.cache_stats(), |a, b| a + b);

    // --- working set, warm-up ----------------------------------------
    let warmup = if spec.warmup_cycles == 0 {
        0
    } else {
        (scaled(spec.warmup_cycles as usize, scale) as u64).max(16)
    };
    let mut working_set = None;
    if args.trace || spec.guard == Guard::OverBudget {
        // One sweep with a budget that never evicts: what the workload
        // would retain if it could.
        wiki.set_cache_budget(UNBOUNDED);
        skew.set_cache_budget(UNBOUNDED);
        runner.untimed_cycles(warmup.max(WIKI_GRID), &wiki, &mut tr, false);
        working_set = Some((wiki.cache_stats().bytes, skew.cache_stats().bytes));
        for index in [&wiki, &skew] {
            index.set_cache_budget(0);
            index.set_cache_budget(budget);
        }
    }
    let t0 = Instant::now();
    runner.untimed_cycles(warmup, &wiki, &mut tr, true);
    let warmup_s = t0.elapsed().as_secs_f64();

    // --- timed phase -------------------------------------------------
    let cache_before = cache_now();
    let window = (scaled(spec.counter_cycles as usize, scale) as u64).max(8);
    let pacer = Pacer::new(
        args.trace,
        window,
        args.seconds,
        &cache_now,
        &mut runner,
        &mut tr,
    );
    let (measured, ingest) = if spec.ingest() {
        let (m, o) = measure_ingest(&inputs, budget, &wiki, &mut runner, &mut tr, root, pacer)?;
        (m, Some(o))
    } else {
        (measure_reads(&wiki, &mut runner, &mut tr, pacer), None)
    };
    let cache_after = cache_now();
    // Counter deltas of the timed phase (retained bytes are read off
    // `cache_after`).
    let cache = zip_cache(cache_after, cache_before, u64::saturating_sub);
    let row_hit_rate = ratio(cache.row_hits, cache.row_hits + cache.row_misses);

    // --- validity guards ---------------------------------------------
    let guard_failure = match spec.guard {
        // Holds for every workload that runs with the cache off.
        _ if budget == 0 && cache_after.bytes != 0 => Some(format!(
            "cache_off: {} bytes retained with budget 0",
            cache_after.bytes
        )),
        Guard::FitsInCache if cache.evictions != 0 => Some(format!(
            "fits_in_cache: {} evictions in the timed phase",
            cache.evictions
        )),
        Guard::FitsInCache if row_hit_rate < MIN_ROW_HIT_RATE => Some(format!(
            "fits_in_cache: row hit rate {row_hit_rate:.3} below {MIN_ROW_HIT_RATE}"
        )),
        Guard::OverBudget if cache.evictions == 0 => {
            Some("over_budget: no evictions in the timed phase".to_string())
        }
        Guard::OverBudget if working_set.is_some_and(|(w, _)| w <= budget) => Some(format!(
            "over_budget: working set {} bytes fits the {budget}-byte budget",
            working_set.map_or(0, |(w, _)| w)
        )),
        // Per-batch watermark checks abort inside `ingest_rep`.
        Guard::Ingest if ingest.as_ref().is_some_and(|o| o.reps.is_empty()) => {
            Some("ingest: no build-and-append repetition finished; raise --seconds".to_string())
        }
        _ => None,
    };
    if let Some(why) = guard_failure {
        return Err(format!("guard {why}"));
    }

    // --- answers are checked -----------------------------------------
    let mut tally = Tally::default();
    verify(&runner.ctx, &wiki, &inputs, &mut tally);
    if let Some(o) = &ingest {
        tally.attempted[Op::Snapshot.idx()] += o.final_checks;
        tally.failed[Op::Snapshot.idx()] += o.final_mismatches;
        if o.final_mismatches > 0 {
            tally
                .messages
                .push("final pinned snapshot after the last append differs from the trace".into());
        }
    }
    let mut messages = tally.messages.clone();
    messages.extend(runner.first_error.clone());
    let attempted = runner.ops + tally.total_attempted();
    let failed = runner.errors + tally.total_failed();

    // --- summaries ---------------------------------------------------
    // Medians and tails over every sample of the timed phase.
    let mut summaries: Vec<Summary> = Vec::with_capacity(N_OPS);
    for op in Op::ALL {
        summaries.push(
            summarize(&runner.samples[op.idx()]).ok_or_else(|| {
                format!("class {} got no timed sample; raise --seconds", op.name())
            })?,
        );
    }
    let p50 = |op: Op| op.in_unit(summaries[op.idx()].p50);
    let reps: Vec<&IngestRep> = match &ingest {
        Some(o) => o.reps.iter().collect(),
        None => setups.iter().map(|s| &s.ingest).collect(),
    };
    if reps.iter().any(|r| r.append_events == 0) {
        return Err("the wiki trace is too short to cut append batches; raise --scale".into());
    }
    let over_reps =
        |rate: fn(&IngestRep) -> f64| median(&reps.iter().map(|r| rate(r)).collect::<Vec<_>>());
    let build_rate = over_reps(IngestRep::build_events_per_s);
    let append_rate = over_reps(IngestRep::append_events_per_s);
    let view = wiki.pin();
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());

    let e2e: Vec<(String, f64)> = vec![
        ("setup_s".into(), setup_s),
        (
            "stored_bytes_per_event".to_string(),
            // Exact for a seed: the mean over the set-up datasets.
            setups.iter().map(|s| s.stored_bytes_per_event).sum::<f64>() / setups.len() as f64,
        ),
    ];
    // The wall-clock diagnostics, from the untraced loop only.
    let mut wall: Vec<(String, f64)> = vec![("ops_per_s".into(), measured.untraced.ops_per_s())];
    wall.extend(Op::ALL.iter().map(|&op| (op.p50_metric(), p50(op))));
    wall.extend([
        ("build_events_per_s".to_string(), build_rate),
        ("append_events_per_s".to_string(), append_rate),
    ]);

    // --- per-layer metrics (traced run) ------------------------------
    let mut layers: Vec<(String, f64)> = Vec::new();
    if args.trace {
        let probes_span = tr.begin("probes", "benchmark");
        let probed = probes::run(&inputs, &wiki);
        tr.end(probes_span);
        let sums = &runner.sums;
        let datagen_s = median(&setups.iter().map(|s| s.datagen_s).collect::<Vec<_>>());
        layers.push((
            "datagen.events_per_s".into(),
            (inputs.wiki.len() + inputs.skew.len()) as f64 / datagen_s.max(1e-9),
        ));
        for op in Op::COUNTED {
            let (c, n) = (&sums.counters[op.idx()], sums.counted_ops[op.idx()]);
            let per_op = |v: f64| if n == 0 { 0.0 } else { v / n as f64 };
            let name = op.name();
            layers.push((
                format!("store.round_trips.{name}"),
                per_op(c.round_trips as f64),
            ));
            layers.push((format!("store.rows.{name}"), per_op(c.rows as f64)));
            layers.push((format!("store.bytes.{name}"), per_op(c.bytes as f64)));
            layers.push((format!("store.modeled_ms.{name}"), per_op(c.modeled_ms)));
            layers.push((
                format!("delta.decoded_bytes.{name}"),
                per_op(c.decoded_bytes as f64),
            ));
            // A model, not a measurement: counters times the probes'
            // unit costs, the residual booked to core (plan, sum or
            // replay, materialize). QueryTrace replaces it later.
            let op_us = summaries[op.idx()].p50 / 1e3;
            let store_us = per_op(c.rows as f64) * probed.get("store.probe.multi_get_us_per_row")
                + per_op(c.bytes as f64) / probed.get("store.probe.scan_mb_per_s");
            let decode_us =
                per_op(c.decoded_bytes as f64) / probed.get("delta.probe.delta_decode_mb_per_s");
            let store_share = (store_us / op_us).clamp(0.0, 1.0);
            let delta_share = (decode_us / op_us).clamp(0.0, 1.0 - store_share);
            layers.push((format!("attrib.store_share.{name}"), store_share));
            layers.push((format!("attrib.delta_share.{name}"), delta_share));
            layers.push((
                format!("attrib.core_share.{name}"),
                1.0 - store_share - delta_share,
            ));
        }
        layers.extend(probed.metrics.iter().cloned());

        let appends: u64 = reps.iter().map(|r| r.batch_s.len() as u64).sum();
        let written = |f: fn(&IngestRep) -> u64| reps.iter().map(|r| f(r)).sum::<u64>();
        let events_written = (reps.len() * inputs.wiki.len()) as u64;
        let rows_per_event = ratio(written(|r| r.build.rows + r.appends.rows), events_written);
        let batch_ms: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.batch_s.iter().map(|s| s * 1e3))
            .collect();
        let mp = Op::Multipoint.idx();
        let taf_ns: f64 = [Op::SonFetch, Op::SotsFetch, Op::TafCompute]
            .iter()
            .map(|op| sums.class_ns[op.idx()])
            .sum();
        let per_second = |count: u64, ns: f64| {
            if ns == 0.0 {
                0.0
            } else {
                count as f64 / (ns / 1e9)
            }
        };
        let (ws_wiki, ws_skew) = working_set.expect("the traced run sweeps the working set");
        // The cache counters over the counter window, not the whole
        // phase: a fixed number of cycles, so they repeat exactly.
        let window_cache = measured
            .window_cache
            .expect("the traced run closes its counter window");
        let win = zip_cache(window_cache, cache_before, u64::saturating_sub);
        let window_ops: u64 = sums.counted_ops.iter().sum();
        layers.extend([
            (
                "store.put_batches_per_append".to_string(),
                ratio(written(|r| r.appends.put_batches), appends),
            ),
            ("store.rows_written_per_event".to_string(), rows_per_event),
            (
                "store.bytes_written_per_event".to_string(),
                ratio(written(|r| r.build.bytes + r.appends.bytes), events_written),
            ),
            (
                "store.retries".to_string(),
                written(|r| r.build.retries + r.appends.retries) as f64,
            ),
            (
                "store.breaker_opens".to_string(),
                written(|r| r.build.breaker_opens + r.appends.breaker_opens) as f64,
            ),
            (
                "core.query_plan.shared_fetch_units".to_string(),
                ratio(sums.planned_shared_units, sums.plans),
            ),
            (
                "core.query_plan.naive_fetch_units".to_string(),
                ratio(sums.planned_naive_units, sums.plans),
            ),
            (
                "core.query_plan.predicted_round_trips".to_string(),
                ratio(sums.planned_round_trips, sums.plans),
            ),
            (
                "core.query_plan.observed_over_predicted".to_string(),
                ratio(sums.counters[mp].round_trips, sums.planned_round_trips),
            ),
            (
                "core.read_cache.row_hit_rate".to_string(),
                ratio(win.row_hits, win.row_hits + win.row_misses),
            ),
            (
                "core.read_cache.state_hit_rate".to_string(),
                ratio(win.state_hits, win.state_hits + win.state_misses),
            ),
            (
                "core.read_cache.insertions_per_op".to_string(),
                ratio(win.insertions, window_ops),
            ),
            (
                "core.read_cache.evictions_per_op".to_string(),
                ratio(win.evictions, window_ops),
            ),
            (
                "core.read_cache.bytes_retained".to_string(),
                window_cache.bytes as f64,
            ),
            (
                "core.read_cache.working_set_bytes".to_string(),
                (ws_wiki + ws_skew) as f64,
            ),
            (
                "core.build.span_count".to_string(),
                view.span_count() as f64,
            ),
            (
                // The same ratio seen from the index: puts ÷ events.
                "core.build.rows_per_event".to_string(),
                rows_per_event,
            ),
            (
                "core.service.append_batch_p50_ms".to_string(),
                median(&batch_ms),
            ),
            (
                "core.service.append_batch_max_ms".to_string(),
                batch_ms.iter().copied().fold(0.0, f64::max),
            ),
            (
                "core.service.reader_ops_per_s".to_string(),
                measured.untraced.ops_per_s(),
            ),
            (
                "core.service.watermarks_observed".to_string(),
                match &ingest {
                    Some(o) => o
                        .reps
                        .iter()
                        .map(|r| 1 + r.batch_s.len() as u64)
                        .sum::<u64>() as f64,
                    None => 1.0,
                },
            ),
            (
                "taf.son_nodes_per_s".to_string(),
                per_second(sums.son_nodes, sums.class_ns[Op::SonFetch.idx()]),
            ),
            (
                "taf.sots_subgraphs_per_s".to_string(),
                per_second(sums.sots_subgraphs, sums.class_ns[Op::SotsFetch.idx()]),
            ),
            (
                "taf.compute_share".to_string(),
                if taf_ns == 0.0 {
                    0.0
                } else {
                    sums.class_ns[Op::TafCompute.idx()] / taf_ns
                },
            ),
        ]);
        for op in Op::ALL {
            let (_, tail) = summaries[op.idx()].tail;
            layers.push((format!("tail.{}_p", op.name()), op.in_unit(tail)));
        }
        let overhead = if measured.traced.ops == 0 {
            0.0
        } else {
            1.0 - measured.traced.ops_per_s() / measured.untraced.ops_per_s()
        };
        layers.extend(wall.iter().map(|(n, v)| (format!("wall.{n}"), *v)));
        layers.push(("trace.overhead_share".into(), overhead));
        layers.push(("trace.spans".into(), tr.len() as f64));
    }
    tr.end(root);

    // --- one schema --------------------------------------------------
    let with_units =
        |values: &[(String, f64)], defs: &[MetricDef]| -> Result<Vec<Metric>, String> {
            defs.iter()
                .map(|d| {
                    let value = values
                        .iter()
                        .find(|(n, _)| *n == d.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                    if !value.is_finite() {
                        return Err(format!("metric {} is not a number", d.name));
                    }
                    Ok(Metric {
                        name: d.name.clone(),
                        value,
                        unit: d.unit,
                    })
                })
                .collect()
        };
    let e2e_metrics = with_units(&e2e, &metrics::end_to_end())?;
    let wall_metrics = with_units(&wall, &metrics::wall())?;
    let layer_metrics = if args.trace {
        with_units(&layers, &metrics::per_layer())?
    } else {
        Vec::new()
    };
    let metrics_json = |ms: &[Metric]| {
        obj(ms.iter().map(|m| {
            (
                m.name.clone(),
                obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }))
    };
    let cfg = TgiConfig::default();
    let stamp = obj([
        ("commit", Json::from(commit())),
        ("nproc", Json::from(nproc())),
        ("rustc", Json::from(rustc_version())),
        ("seed", Json::from(seed)),
        ("scale", Json::from(scale)),
        ("seconds", Json::from(args.seconds)),
        (
            "datasets",
            obj([
                ("wiki_events", Json::from(inputs.wiki.len())),
                ("wiki_nodes", Json::from(inputs.wiki_nodes)),
                ("skew_events", Json::from(inputs.skew.len())),
                ("skew_nodes", Json::from(inputs.skew_nodes)),
                ("build_prefix", Json::from(BUILD_PREFIX)),
                ("append_batches", Json::from(APPEND_BATCHES)),
                (
                    "batch_cuts",
                    Json::Arr(inputs.cuts.iter().map(|&c| Json::from(c)).collect()),
                ),
            ]),
        ),
        (
            "store",
            obj([
                ("machines", Json::from(STORE_MACHINES)),
                ("replication", Json::from(STORE_REPLICATION)),
            ]),
        ),
        (
            "tgi",
            obj([
                ("events_per_timespan", Json::from(cfg.events_per_timespan)),
                ("eventlist_size", Json::from(cfg.eventlist_size)),
                ("partition_size", Json::from(cfg.partition_size)),
                (
                    "horizontal_partitions",
                    Json::from(u64::from(cfg.horizontal_partitions)),
                ),
                ("layout", Json::from(format!("{:?}", cfg.layout))),
                ("secondary_indexes", Json::from(cfg.secondary_indexes)),
                ("read_cache_budget", Json::from(budget)),
            ]),
        ),
        (
            "ops",
            obj([
                ("wiki_grid", Json::from(WIKI_GRID)),
                ("skew_grid", Json::from(SKEW_GRID)),
                ("multipoint_k", Json::from(MULTIPOINT_K)),
                ("khop_k", Json::from(KHOP_K)),
                ("sots_k", Json::from(SOTS_K)),
                ("sots_roots", Json::from(SOTS_ROOTS)),
                ("son_label", Json::from(q.son_label.clone())),
                ("son_nodes_half_range", Json::from(half_son.len())),
                ("evolution_points", Json::from(EVOLUTION_POINTS)),
                ("taf_workers", Json::from(spec.taf_workers)),
                ("warmup_cycles", Json::from(warmup)),
                ("counter_cycles", Json::from(window)),
                (
                    "mix",
                    Json::Arr(
                        spec.mix
                            .iter()
                            .map(|m| {
                                obj([
                                    ("op", Json::from(m.op.name())),
                                    ("per_cycle", Json::from(u64::from(m.count))),
                                    ("every", Json::from(m.every)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    let classes = obj(Op::ALL.iter().map(|&op| {
        let s = &summaries[op.idx()];
        let pairs = [
            ("samples", Json::from(s.count)),
            ("ops_per_sample", Json::from(u64::from(op.group()))),
            ("unit", Json::from(op.unit())),
            ("p50", Json::from(op.in_unit(s.p50))),
            ("tail_quantile", Json::from(s.tail.0)),
            ("tail", Json::from(op.in_unit(s.tail.1))),
            ("checks", Json::from(tally.attempted[op.idx()])),
            ("checks_failed", Json::from(tally.failed[op.idx()])),
        ];
        (op.name(), obj(pairs))
    }));
    let result = obj([
        ("schema", Json::from("hgs-benchmark/1")),
        ("workload", Json::from(spec.name)),
        ("why", Json::from(spec.why)),
        ("dataset", Json::from(spec.dataset.name())),
        ("traced", Json::from(args.trace)),
        ("stamp", stamp),
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("failed_share", Json::from(ratio(failed, attempted))),
        ("guard", Json::from(format!("{:?}", spec.guard))),
        ("cycles", Json::from(measured.cycles)),
        (
            "block_ops_per_s",
            Json::Arr(
                measured
                    .block_rates
                    .iter()
                    .map(|&r| Json::from(r))
                    .collect(),
            ),
        ),
        (
            "measured_s",
            Json::from(measured.untraced.wall_s + measured.traced.wall_s),
        ),
        ("warmup_s", Json::from(warmup_s)),
        ("ingest_reps", Json::from(reps.len())),
        ("classes", classes),
        ("end_to_end", metrics_json(&e2e_metrics)),
        ("wall", metrics_json(&wall_metrics)),
        ("per_layer", metrics_json(&layer_metrics)),
        (
            "messages",
            Json::Arr(messages.iter().map(|m| Json::from(m.clone())).collect()),
        ),
    ]);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let suffix = if args.trace { ".traced" } else { "" };
    let result_path = args
        .out
        .join(format!("{}.seed{seed}{suffix}.json", spec.name));
    std::fs::write(&result_path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    if args.trace {
        let path = args.out.join(format!("trace.{}.json", spec.name));
        let trace = obj([
            ("workload", Json::from(spec.name)),
            ("seed", Json::from(seed)),
            ("window_cycles", Json::from(measured.window_cycles)),
            ("spans", tr.to_json()),
        ]);
        std::fs::write(&path, trace.compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: if args.trace {
            layer_metrics
        } else {
            e2e_metrics
        },
        wall: if args.trace { Vec::new() } else { wall_metrics },
        messages,
        result_path,
    })
}
