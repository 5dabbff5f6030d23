//! The five workloads: what each runs, and the closed loop that runs it.
//!
//! Every workload issues every operation class — the regime differs
//! (cache budget, hot set, op weights, ingest beside the reads), not
//! the vocabulary — because the driver wants every listed metric,
//! per-class counters, tails and wall-clock medians included, from
//! every run. One process, at most two busy threads: the box has two
//! cores and the callers modelled here (a TAF analyst, a Spark task)
//! wait for each reply.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hgs_core::{CacheStats, NodeHistory};
use hgs_core::{DEFAULT_READ_CACHE_BYTES, LABEL_KEY};
use hgs_datagen::CHURN_KEY;
use hgs_delta::{AttrValue, Delta, Event, NodeId, StaticNode, Time, TimeRange};
use hgs_store::{SimStore, StoreError};
use hgs_taf::{SoN, SoTS};

use crate::api::{self, Index, Taf};
use crate::data::{grid_time, HotSet, Inputs, QueryGen, SKEW_GRID, WIKI_GRID};
use crate::ops::{Op, N_OPS};
use crate::trace::{Bracket, Counters, Tracer};

/// Timepoints of one multipoint query (a sliding window on the grid).
pub const MULTIPOINT_K: u64 = 8;
pub const KHOP_K: usize = 2;
pub const SOTS_K: usize = 1;
pub const SOTS_ROOTS: usize = 8;
/// Nodes the SoN fetch should select (the label whose final population
/// is nearest is chosen, so the fetch size barely moves with the seed).
pub const SON_TARGET_NODES: usize = 300;
/// Read-cache budget of `warm_hot`: twice the default. The hot set
/// retains about 50 MB, and the cache splits its budget over 8 lock
/// stripes, so the default 64 MiB left some seeds a stripe short.
pub const WARM_CACHE_BYTES: usize = 2 * DEFAULT_READ_CACHE_BYTES;
/// Read-cache budget of `scan_over_budget`: an eighth of what its
/// sweep would retain, so nearly every snapshot state is refilled and
/// the latency distribution does not hinge on which states survive.
pub const SCAN_CACHE_BYTES: usize = 16 << 20;
/// Cycles per block when a traced run alternates traced and untraced
/// blocks to price its own tracing.
const OVERHEAD_BLOCK: u64 = 8;
/// Cycles per block of the untraced run: one whole sweep of the wiki
/// time grid (and a multiple of every `every` in the mixes), so all
/// blocks do equal work and their rates (`block_ops_per_s` in the
/// result file, a diagnostic) show how the machine drifted in the run.
const RATE_BLOCK: u64 = WIKI_GRID;

/// `count` ops of `op` on every `every`-th cycle.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub op: Op,
    pub count: u32,
    pub every: u64,
}

const fn mix(op: Op, count: u32, every: u64) -> Mix {
    Mix { op, count, every }
}

/// The regime a workload must stay in; checked after the timed phase
/// so a run never silently measures a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// Cache budget 0: nothing may be retained (checked on every
    /// workload whose budget is 0, whatever its guard).
    CacheOff,
    /// Working set fits: no evictions, rows hit.
    FitsInCache,
    /// Working set exceeds the budget: fills evict.
    OverBudget,
    /// Appends publish one watermark per batch (checked per batch).
    Ingest,
}

/// The two generated datasets (see `data.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Wiki100k,
    Skew106k,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Wiki100k => "wiki100k",
            Dataset::Skew106k => "skew106k",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// The dataset most of the mix reads, and the one whose index
    /// `stored_bytes_per_event` is taken from.
    pub dataset: Dataset,
    /// Read-cache budget of both indexes at scale 1, in bytes.
    pub cache_budget: usize,
    pub hot: Option<HotSet>,
    /// Untimed cycles before the timed phase (at scale 1).
    pub warmup_cycles: u64,
    pub mix: &'static [Mix],
    pub taf_workers: usize,
    pub guard: Guard,
    /// Cycles of the traced run whose counters are bracketed per op
    /// (at scale 1): a fixed count, so the counters repeat exactly.
    pub counter_cycles: u64,
}

/// Structure-heavy mix of `cold_mixed`, `warm_hot` and `ingest_serve`;
/// the labelled classes ride along on every 4th cycle.
const STRUCTURE_MIX: &[Mix] = &[
    mix(Op::Snapshot, 1, 1),
    mix(Op::NodeAt, 16, 1),
    mix(Op::NodeHistory, 16, 1),
    mix(Op::Khop, 1, 1),
    mix(Op::Multipoint, 1, 4),
    mix(Op::LabelAt, 16, 4),
    mix(Op::AttrHistory, 1, 4),
    mix(Op::SonFetch, 1, 4),
    mix(Op::SotsFetch, 1, 4),
    mix(Op::TafCompute, 1, 4),
];

/// Snapshot sweep plus multipoint; everything else every 4th / 8th.
const SCAN_MIX: &[Mix] = &[
    mix(Op::Snapshot, 1, 1),
    mix(Op::Multipoint, 1, 4),
    mix(Op::NodeAt, 16, 4),
    mix(Op::NodeHistory, 16, 4),
    mix(Op::Khop, 1, 4),
    mix(Op::LabelAt, 16, 4),
    mix(Op::AttrHistory, 1, 4),
    mix(Op::SonFetch, 1, 8),
    mix(Op::SotsFetch, 1, 8),
    mix(Op::TafCompute, 1, 8),
];

/// Label / attribute / TAF heavy; the structural classes every 4th.
const LABELLED_MIX: &[Mix] = &[
    mix(Op::LabelAt, 16, 1),
    mix(Op::AttrHistory, 1, 1),
    mix(Op::SonFetch, 1, 1),
    mix(Op::SotsFetch, 1, 4),
    mix(Op::TafCompute, 1, 4),
    mix(Op::Snapshot, 1, 4),
    mix(Op::NodeAt, 16, 4),
    mix(Op::NodeHistory, 16, 4),
    mix(Op::Khop, 1, 4),
    mix(Op::Multipoint, 1, 4),
];

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "cold_mixed",
        why: "cache budget 0: all time is store fetch, decode and tree-path sum or replay; every store and decode counter repeats exactly",
        dataset: Dataset::Wiki100k,
        cache_budget: 0,
        hot: None,
        warmup_cycles: 0,
        mix: STRUCTURE_MIX,
        taf_workers: 1,
        guard: Guard::CacheOff,
        counter_cycles: 80,
    },
    Spec {
        name: "warm_hot",
        why: "hot set of 8 times and 2000 nodes fits the 128 MiB cache: hit path and materialize dominate, so a store or delta change should not show here",
        dataset: Dataset::Wiki100k,
        cache_budget: WARM_CACHE_BYTES,
        hot: Some(HotSet {
            times: 8,
            nodes: 2_000,
        }),
        warmup_cycles: 200,
        mix: STRUCTURE_MIX,
        taf_workers: 1,
        guard: Guard::FitsInCache,
        counter_cycles: 400,
    },
    Spec {
        name: "scan_over_budget",
        why: "snapshot sweep over 40 times with a working set larger than the cache: every fill inserts and evicts, so a cache change that taxes insert or evict shows its cost",
        dataset: Dataset::Wiki100k,
        cache_budget: SCAN_CACHE_BYTES,
        hot: None,
        warmup_cycles: 80,
        mix: SCAN_MIX,
        taf_workers: 1,
        guard: Guard::OverBudget,
        counter_cycles: 160,
    },
    Spec {
        name: "ingest_serve",
        why: "a writer rebuilds and appends on fresh stores while one reader runs pinned cold queries over the sealed prefix: a read gain bought with build time, append time or bytes shows here",
        dataset: Dataset::Wiki100k,
        cache_budget: 0,
        hot: None,
        warmup_cycles: 0,
        mix: STRUCTURE_MIX,
        taf_workers: 1,
        guard: Guard::Ingest,
        counter_cycles: 80,
    },
    Spec {
        name: "labeled_taf",
        why: "cache budget 0 on the labelled dataset with 2 TAF fetch workers: the only mix dominated by the attribute index, TAF and graph layers",
        dataset: Dataset::Skew106k,
        cache_budget: 0,
        hot: None,
        warmup_cycles: 0,
        mix: LABELLED_MIX,
        taf_workers: 2,
        guard: Guard::CacheOff,
        counter_cycles: 60,
    },
];

impl Spec {
    /// A writer thread rebuilds and appends beside the reader.
    pub fn ingest(&self) -> bool {
        self.guard == Guard::Ingest
    }
}

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one operation returned, with the arguments it was asked with —
/// dropped after timing, or handed to the oracle.
pub enum Answer {
    Snapshot(Time, Delta),
    Multipoint(Vec<Time>, Vec<Delta>),
    NodeAt(NodeId, Time, Option<StaticNode>),
    NodeHistory(NodeHistory),
    Khop(NodeId, Time, Delta),
    LabelAt(String, Time, Vec<NodeId>),
    AttrHistory(NodeId, &'static str, Vec<(Time, Option<AttrValue>)>),
    Son(SoN),
    Sots(SoTS),
    Taf(Vec<(Time, f64)>),
}

/// Everything an operation needs besides the wiki index it reads
/// (which, beside ingest, changes under the reader).
pub struct Ctx<'a> {
    pub q: &'a QueryGen,
    pub skew: &'a Index,
    pub taf: &'a Taf,
    /// The SoN `taf_compute` runs on: the son label over the second
    /// half of the skew history, fetched once, untimed.
    pub half_son: &'a SoN,
    pub skew_end: Time,
}

pub fn full_range(end: Time) -> TimeRange {
    TimeRange::new(0, end + 1)
}

pub fn second_half(end: Time) -> TimeRange {
    TimeRange::new(end / 2, end + 1)
}

impl Ctx<'_> {
    pub fn multipoint_times(&self, seq: u64) -> Vec<Time> {
        (0..MULTIPOINT_K)
            .map(|j| self.q.wiki_time(self.q.wiki_slot(seq + j)))
            .collect()
    }

    /// Run argument `seq` of class `op`. Each direct query pins first,
    /// as a service client does; the TAF fetches pin inside the handler.
    pub fn exec(
        &self,
        op: Op,
        seq: u64,
        wiki: &Index,
        tr: &mut Tracer,
    ) -> Result<Answer, StoreError> {
        let class = op.idx() as u64;
        let q = self.q;
        if matches!(op, Op::SonFetch | Op::SotsFetch | Op::TafCompute) {
            let span = tr.begin(op.call_span(), op.layer());
            let out = match op {
                Op::SonFetch => self
                    .taf
                    .son_fetch(&q.son_label, full_range(self.skew_end))
                    .map(Answer::Son),
                Op::SotsFetch => self
                    .taf
                    .sots_fetch(SOTS_K, q.roots(class, seq), second_half(self.skew_end))
                    .map(Answer::Sots),
                _ => Ok(Answer::Taf(api::taf_compute(self.half_son))),
            };
            tr.end(span);
            return out;
        }
        let pin = tr.begin("core.service.pin", "core.service");
        let view = if op.on_skew() {
            self.skew.pin()
        } else {
            wiki.pin()
        };
        tr.end(pin);
        let span = tr.begin(op.call_span(), op.layer());
        let out = match op {
            Op::Snapshot => {
                let t = q.wiki_time(q.wiki_slot(seq));
                view.snapshot(t).map(|d| Answer::Snapshot(t, d))
            }
            Op::Multipoint => {
                let times = self.multipoint_times(seq);
                view.snapshots(&times).map(|d| Answer::Multipoint(times, d))
            }
            Op::NodeAt => {
                let slot = q.wiki_random_slot(class, seq);
                let (nid, t) = (q.wiki_node(class, seq, slot), q.wiki_time(slot));
                view.node_at(nid, t).map(|n| Answer::NodeAt(nid, t, n))
            }
            Op::NodeHistory => view
                .node_history(
                    q.wiki_node(class, seq, WIKI_GRID - 1),
                    full_range(q.wiki_horizon),
                )
                .map(Answer::NodeHistory),
            Op::Khop => {
                let slot = q.wiki_random_slot(class, seq);
                let (nid, t) = (q.wiki_node(class, seq, slot), q.wiki_time(slot));
                view.khop(nid, t, KHOP_K).map(|d| Answer::Khop(nid, t, d))
            }
            Op::LabelAt => {
                let label = q.label(class, seq);
                let t = grid_time(self.skew_end, SKEW_GRID, q.skew_slot(class, seq));
                view.label_at(label, t)
                    .map(|ids| Answer::LabelAt(label.to_string(), t, ids))
            }
            Op::AttrHistory => {
                let nid = q.skew_node(class, seq);
                let key = if seq.is_multiple_of(2) {
                    LABEL_KEY
                } else {
                    CHURN_KEY
                };
                view.attr_history(nid, key)
                    .map(|pts| Answer::AttrHistory(nid, key, pts))
            }
            Op::SonFetch | Op::SotsFetch | Op::TafCompute => unreachable!("handled above"),
        };
        tr.end(span);
        out
    }
}

/// Accumulated trace-side observations of one run.
#[derive(Default)]
pub struct TraceSums {
    pub counters: [Counters; N_OPS],
    pub counted_ops: [u64; N_OPS],
    pub planned_round_trips: u64,
    pub planned_shared_units: u64,
    pub planned_naive_units: u64,
    pub plans: u64,
    pub son_nodes: u64,
    pub sots_subgraphs: u64,
    pub class_ns: [f64; N_OPS],
}

/// The closed loop: issues cycles of a spec's mix and records one
/// latency sample per op (or per group of 16).
pub struct Runner<'a> {
    pub ctx: Ctx<'a>,
    pub spec: &'a Spec,
    pub seq: [u64; N_OPS],
    /// Cycles issued so far (decides which `every`-th ops run).
    pub cycles: u64,
    /// Nanoseconds per op, one entry per timed sample, per class.
    pub samples: [Vec<f64>; N_OPS],
    pub ops: u64,
    pub errors: u64,
    pub first_error: Option<String>,
    /// Push latency samples (off during warm-up, sweeps and traced
    /// overhead blocks).
    pub record: bool,
    /// Add bracketed counters to `sums` (on inside the counter window).
    pub counting: bool,
    pub sums: TraceSums,
}

impl<'a> Runner<'a> {
    pub fn new(ctx: Ctx<'a>, spec: &'a Spec) -> Runner<'a> {
        Runner {
            ctx,
            spec,
            seq: [0; N_OPS],
            cycles: 0,
            samples: Default::default(),
            ops: 0,
            errors: 0,
            first_error: None,
            record: false,
            counting: false,
            sums: TraceSums::default(),
        }
    }

    pub fn cycle(&mut self, wiki: &Index, tr: &mut Tracer) {
        let c = self.cycles;
        self.cycles += 1;
        for m in self.spec.mix {
            if !c.is_multiple_of(m.every) {
                continue;
            }
            let group = m.op.group();
            debug_assert_eq!(m.count % group, 0);
            for _ in 0..m.count / group {
                self.sample(m.op, group, wiki, tr);
            }
        }
    }

    fn sample(&mut self, op: Op, group: u32, wiki: &Index, tr: &mut Tracer) {
        let i = op.idx();
        let index = if op.on_skew() { self.ctx.skew } else { wiki };
        if self.counting && op == Op::Multipoint {
            // What the planner predicts for this window, read before
            // the query runs and outside its timing.
            let view = wiki.pin();
            let plan = view.plan_multipoint(&self.ctx.multipoint_times(self.seq[i]));
            self.sums.planned_round_trips += plan.round_trips as u64;
            self.sums.planned_shared_units += plan.shared_fetch_units as u64;
            self.sums.planned_naive_units += plan.naive_fetch_units as u64;
            self.sums.plans += 1;
        }
        let span = tr.begin(op.name(), "benchmark");
        let bracket = tr.enabled.then(|| Bracket::open(index));
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..group {
            let seq = self.seq[i];
            self.seq[i] += 1;
            match self.ctx.exec(op, seq, wiki, tr) {
                Ok(answer) => last = Some(std::hint::black_box(answer)),
                Err(e) => {
                    self.errors += 1;
                    self.first_error
                        .get_or_insert_with(|| format!("{} #{seq}: {e}", op.name()));
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        self.ops += u64::from(group);
        if self.record {
            self.samples[i].push(ns / f64::from(group));
        }
        if let Some(bracket) = bracket {
            let counters = bracket.close(index);
            if self.counting {
                self.sums.counters[i].add(&counters);
                self.sums.counted_ops[i] += u64::from(group);
                self.sums.class_ns[i] += ns;
                match &last {
                    Some(Answer::Son(son)) => self.sums.son_nodes += son.len() as u64,
                    Some(Answer::Sots(sots)) => self.sums.sots_subgraphs += sots.len() as u64,
                    _ => {}
                }
            }
            tr.end_with(span, counters);
        }
    }

    /// Run `cycles` cycles untimed and untraced. With `keep_stream`
    /// the query stream moves on (warm-up); without, it is put back
    /// where it was (the working-set sweep).
    pub fn untimed_cycles(
        &mut self,
        cycles: u64,
        wiki: &Index,
        tr: &mut Tracer,
        keep_stream: bool,
    ) {
        let saved = (self.seq, self.cycles, self.ops);
        let flags = (self.record, self.counting, tr.enabled);
        (self.record, self.counting, tr.enabled) = (false, false, false);
        for _ in 0..cycles {
            self.cycle(wiki, tr);
        }
        (self.record, self.counting, tr.enabled) = flags;
        if !keep_stream {
            (self.seq, self.cycles) = (saved.0, saved.1);
        }
        // Untimed ops are not part of the attempted count.
        self.ops = saved.2;
    }
}

/// Wall time and ops of the traced and untraced halves of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub wall_s: f64,
    pub ops: u64,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }
}

#[derive(Debug, Default)]
pub struct Measured {
    /// The untraced closed loop: the source of every `wall.*` number.
    pub untraced: Phase,
    /// Traced blocks interleaved with untraced ones (traced run only).
    pub traced: Phase,
    /// Ops per second of each completed untraced block (diagnostic).
    pub block_rates: Vec<f64>,
    pub cycles: u64,
    /// Counter-window cycles that ran (less than the spec's count only
    /// if the time ran out first).
    pub window_cycles: u64,
    /// The read-cache counters when the counter window closed: a fixed
    /// number of cycles in, so they repeat exactly where the reader is
    /// alone (the phase's end falls wherever the clock says).
    pub window_cache: Option<CacheStats>,
}

/// Drives the reader through one measured phase: untraced for
/// `seconds`, or — traced — a fixed counter window followed by
/// alternating untraced / traced blocks until the time is up.
pub struct Pacer<'a> {
    traced: bool,
    cache_now: &'a dyn Fn() -> CacheStats,
    window: u64,
    block_cycles: u64,
    deadline: Instant,
    keep_spans: usize,
    block_start: Instant,
    block_ops: u64,
    block_done: u64,
    pub out: Measured,
}

impl<'a> Pacer<'a> {
    pub fn new(
        traced: bool,
        window: u64,
        seconds: f64,
        cache_now: &'a dyn Fn() -> CacheStats,
        runner: &mut Runner,
        tr: &mut Tracer,
    ) -> Pacer<'a> {
        let now = Instant::now();
        tr.enabled = traced;
        runner.counting = traced;
        runner.record = !traced;
        Pacer {
            traced,
            cache_now,
            window,
            block_cycles: if traced { OVERHEAD_BLOCK } else { RATE_BLOCK },
            deadline: now + Duration::from_secs_f64(seconds),
            keep_spans: 0,
            block_start: now,
            block_ops: runner.ops,
            block_done: 0,
            out: Measured::default(),
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Call after every cycle: closes the counter window, closes
    /// blocks, and (traced) flips between traced and untraced blocks.
    pub fn after_cycle(&mut self, runner: &mut Runner, tr: &mut Tracer) {
        self.out.cycles += 1;
        if runner.counting {
            self.out.window_cycles += 1;
            if self.out.window_cycles >= self.window || self.expired() {
                runner.counting = false;
                self.out.window_cache = Some((self.cache_now)());
                self.keep_spans = tr.len();
                self.open_block(false, runner, tr);
            }
            return;
        }
        self.block_done += 1;
        if self.block_done == self.block_cycles {
            self.close_block(runner, tr, true);
            self.open_block(self.traced && !tr.enabled, runner, tr);
        }
    }

    fn open_block(&mut self, traced: bool, runner: &mut Runner, tr: &mut Tracer) {
        tr.enabled = traced;
        runner.record = !traced;
        self.block_start = Instant::now();
        self.block_ops = runner.ops;
        self.block_done = 0;
    }

    fn close_block(&mut self, runner: &mut Runner, tr: &mut Tracer, whole: bool) {
        let block = Phase {
            wall_s: self.block_start.elapsed().as_secs_f64(),
            ops: runner.ops - self.block_ops,
        };
        let phase = if tr.enabled {
            tr.truncate(self.keep_spans);
            &mut self.out.traced
        } else {
            if whole {
                self.out.block_rates.push(block.ops_per_s());
            }
            &mut self.out.untraced
        };
        phase.wall_s += block.wall_s;
        phase.ops += block.ops;
    }

    pub fn finish(mut self, runner: &mut Runner, tr: &mut Tracer) -> Measured {
        if runner.counting {
            // No cycle ran: the window is empty.
            self.out.window_cache = Some((self.cache_now)());
        } else {
            self.close_block(runner, tr, false);
        }
        runner.counting = false;
        runner.record = false;
        tr.enabled = self.traced;
        self.out
    }
}

/// Store-side cost of a build or of a rep's appends.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteCounters {
    pub put_batches: u64,
    pub rows: u64,
    pub bytes: u64,
    pub retries: u64,
    pub breaker_opens: u64,
}

impl WriteCounters {
    fn since(store: &SimStore, then: &[hgs_store::machine::MachineStatsSnapshot]) -> WriteCounters {
        let now = store.stats_snapshot();
        let mut out = WriteCounters::default();
        for (a, b) in now.iter().zip(then) {
            let d = a.since(b);
            out.put_batches += d.put_batches;
            out.rows += d.puts;
            out.bytes += d.bytes_written;
            out.retries += d.retries;
            out.breaker_opens += d.breaker_opens;
        }
        out
    }
}

/// One build-then-append repetition on a fresh store.
#[derive(Debug, Default, Clone)]
pub struct IngestRep {
    pub build_events: usize,
    pub build_s: f64,
    pub append_events: usize,
    pub batch_s: Vec<f64>,
    pub build: WriteCounters,
    pub appends: WriteCounters,
}

impl IngestRep {
    pub fn build_events_per_s(&self) -> f64 {
        self.build_events as f64 / self.build_s
    }

    pub fn append_events_per_s(&self) -> f64 {
        self.append_events as f64 / self.batch_s.iter().sum::<f64>()
    }
}

/// Build the wiki prefix, then append the remaining batches, checking
/// that each append publishes exactly the next watermark and seals
/// exactly its batch. `on_built` sees the index before the appends.
/// Returns `None` when `deadline` passed before the appends started.
pub fn ingest_rep(
    events: &[Event],
    cuts: &[usize],
    tr: &mut Tracer,
    deadline: Option<Instant>,
    on_built: impl FnOnce(&Index),
) -> Result<Option<(Index, IngestRep)>, String> {
    let mut rep = IngestRep {
        build_events: cuts[0],
        append_events: events.len() - cuts[0],
        ..IngestRep::default()
    };
    let t0 = Instant::now();
    let span = tr.begin("core.build", "core.build");
    let index = Index::build(&events[..cuts[0]]).map_err(|e| format!("build failed: {e}"))?;
    tr.end(span);
    rep.build_s = t0.elapsed().as_secs_f64();
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Ok(None);
    }
    let store = index.store();
    rep.build = WriteCounters::since(&store, &vec![Default::default(); store.machine_count()]);
    if index.watermark() != 1 {
        return Err(format!(
            "guard watermark_per_batch: build published {}",
            index.watermark()
        ));
    }
    on_built(&index);
    let before = store.stats_snapshot();
    for (k, w) in cuts.windows(2).enumerate() {
        let t0 = Instant::now();
        let span = tr.begin("core.service.append", "core.service");
        let published = index
            .append(&events[w[0]..w[1]])
            .map_err(|e| format!("append {k} failed: {e}"))?;
        tr.end(span);
        rep.batch_s.push(t0.elapsed().as_secs_f64());
        let want = k as u64 + 2;
        let sealed_end = index.pin().end_time();
        if published != want || index.watermark() != want || sealed_end != events[w[1] - 1].time + 1
        {
            return Err(format!(
                "guard watermark_per_batch: append {k} published {published} (want {want}), end {sealed_end}"
            ));
        }
    }
    rep.appends = WriteCounters::since(&store, &before);
    Ok(Some((index, rep)))
}

/// What the ingest writer brings back.
#[derive(Default)]
pub struct IngestOutcome {
    pub reps: Vec<IngestRep>,
    /// Final pinned snapshots compared with the replayed trace.
    pub final_checks: u64,
    pub final_mismatches: u64,
}

/// The `ingest_serve` timed phase: a writer thread repeats
/// [`ingest_rep`] on fresh stores until the time is up while this
/// thread reads, always from the newest index the writer has built.
pub fn measure_ingest(
    inputs: &Inputs,
    budget: usize,
    first: &Index,
    runner: &mut Runner,
    tr: &mut Tracer,
    root: crate::trace::SpanId,
    mut pacer: Pacer,
) -> Result<(Measured, IngestOutcome), String> {
    let final_state = Delta::snapshot_by_replay(&inputs.wiki, inputs.wiki_end());
    let current = Mutex::new(first.clone());
    let done = AtomicBool::new(false);
    let deadline = pacer.deadline;
    let mut writer_tr = tr.fork(root);
    writer_tr.enabled = pacer.traced;
    let (current, done, final_state) = (&current, &done, &final_state);
    let (measured, written) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut out = IngestOutcome::default();
            let result = (|| {
                while Instant::now() < deadline {
                    let rep = ingest_rep(
                        &inputs.wiki,
                        &inputs.cuts,
                        &mut writer_tr,
                        Some(deadline),
                        |built| {
                            built.set_cache_budget(budget);
                            *current
                                .lock()
                                .expect("reader never panics holding the slot") = built.clone();
                        },
                    )?;
                    let Some((index, rep)) = rep else { break };
                    out.reps.push(rep);
                    out.final_checks += 1;
                    match index.pin().snapshot(inputs.wiki_end()) {
                        Ok(snap) if snap == *final_state => {}
                        _ => out.final_mismatches += 1,
                    }
                }
                Ok::<(), String>(())
            })();
            done.store(true, Ordering::Release);
            result.map(|()| (out, writer_tr))
        });
        while !done.load(Ordering::Acquire) {
            let wiki = current
                .lock()
                .expect("writer never panics holding the slot")
                .clone();
            runner.cycle(&wiki, tr);
            pacer.after_cycle(runner, tr);
        }
        let measured = pacer.finish(runner, tr);
        (measured, writer.join().expect("ingest writer panicked"))
    });
    let (outcome, writer_tr) = written?;
    tr.merge(writer_tr);
    Ok((measured, outcome))
}

/// The timed phase of the read-only workloads.
pub fn measure_reads(
    wiki: &Index,
    runner: &mut Runner,
    tr: &mut Tracer,
    mut pacer: Pacer,
) -> Measured {
    while !pacer.expired() {
        runner.cycle(wiki, tr);
        pacer.after_cycle(runner, tr);
    }
    pacer.finish(runner, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_issues_the_same_ops() {
        for spec in &SPECS {
            for m in spec.mix {
                assert_eq!(RATE_BLOCK % m.every, 0, "{} {:?}", spec.name, m.op);
                assert_eq!(OVERHEAD_BLOCK % m.every, 0, "{} {:?}", spec.name, m.op);
                assert_eq!(m.count % m.op.group(), 0, "{} {:?}", spec.name, m.op);
            }
            let classes: std::collections::BTreeSet<Op> = spec.mix.iter().map(|m| m.op).collect();
            assert_eq!(classes.len(), N_OPS, "{} runs every class", spec.name);
        }
    }
}
