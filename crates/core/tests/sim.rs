//! One seeded, single-threaded simulator over [`TgiService`]: every
//! robustness scenario — faults, ingest, crashes — is a schedule of
//! [`Step`]s, drawn from one RNG seed ([`random`]) or written by hand as
//! a named schedule. After every step it holds the serving contract:
//! * every `Ok` answer equals the same [`Query`] on a quiesced rebuild
//!   of the view's pinned prefix, and every `Err` is a `StoreError` —
//!   `Transient`, `Unavailable` or `Corrupt` — never a panic;
//! * the watermark moves only when an append publishes, by one, and the
//!   service serves the last published prefix — through failed appends,
//!   `try_recover` and `TgiService::open`;
//! * after heal plus `try_repair`, `content_rows()` equals a build of
//!   the same batches that never saw a fault.
//!
//! A crash is an outage of every machine from the clock tick of one
//! `put_batch` of an append: [`Sim::crash`] crashes an append at each
//! of its `put_batch` calls in turn, recovering after each, until it
//! lands on the next watermark. Replay is tick-exact at read width 1;
//! at widths 2 and 4 fetch threads interleave clock ticks, and those
//! schedules hold the same checks without it. A failing step panics
//! with its `(seed, step)` and the schedule as a named schedule.

mod common;

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use common::{khop_by_replay, node_events_by_replay};
use hgs_core::{
    BuildError, NodeHistory, OpenError, TgiConfig, TgiService, TgiView, DEFAULT_READ_CACHE_BYTES,
    LABEL_KEY,
};
use hgs_datagen::{SkewedLabels, WikiGrowth, CHURN_KEY};
use hgs_delta::{
    normalize_events, AttrValue, Delta, Event, EventKind, NodeId, StaticNode, Time, TimeRange,
};
use hgs_store::{
    machine::MachineStatsSnapshot, CostModel, FaultPlan, RetryPolicy, SimStore, StoreConfig,
    StoreError, StoreStatsSnapshot,
};

use Cfg::*;
use Query::*;
use Step::*;
use Trace::*;

/// A machine index past the cluster: every machine.
const ALL: usize = usize::MAX;

/// The attribute terms a [`Query::Matching`] asks for, by index.
const TERMS: [(&str, &str); 4] = [
    (LABEL_KEY, "Author"),
    (LABEL_KEY, "Paper"),
    (LABEL_KEY, "Label00"),
    (CHURN_KEY, "A"),
];

/// One read a logical client asks a pinned view. Times are per-mille
/// of the trace's last event time (past 1000 is past the end).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Query {
    Snapshot(Time),
    Snapshots([Time; 3]),
    NodeAt(NodeId, Time),
    History(NodeId, Time, Time),
    OneHop(NodeId, Time, Time),
    /// The 2-hop neighborhood.
    Khop(NodeId, Time),
    /// Every node history of one horizontal partition.
    Sid(u32, Time, Time),
    /// The nodes whose attribute matches `TERMS[i]`.
    Matching(usize, Time),
    /// The node's points of `LABEL_KEY`.
    AttrHistory(NodeId),
}

/// What a [`Query`] answers, comparable across indexes.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Graph(Delta),
    Graphs(Vec<Delta>),
    Node(Option<StaticNode>),
    Histories(Vec<NodeHistory>),
    Ids(Vec<NodeId>),
    Points(Vec<(Time, Option<AttrValue>)>),
}

impl Query {
    fn ask(self, view: &TgiView, end: Time) -> Result<Answer, StoreError> {
        let at = |p: Time| end * p / 1000;
        let range = |a, b| TimeRange::new(at(a), at(b));
        Ok(match self {
            Snapshot(p) => Answer::Graph(view.try_snapshot(at(p))?),
            Snapshots(ps) => Answer::Graphs(view.try_snapshots(&ps.map(at))?),
            NodeAt(n, p) => Answer::Node(view.try_node_at(n, at(p))?),
            History(n, a, b) => Answer::Histories(vec![view.try_node_history(n, range(a, b))?]),
            OneHop(n, a, b) => {
                let h = view.try_one_hop_history(n, range(a, b))?;
                Answer::Histories([h.center].into_iter().chain(h.neighbors).collect())
            }
            Khop(n, p) => Answer::Graph(view.try_khop(n, at(p), 2)?),
            Sid(sid, a, b) => {
                let mut hs = view.try_node_histories_for_sid(sid, range(a, b))?;
                hs.sort_by_key(|h| h.id);
                Answer::Histories(hs)
            }
            Matching(i, p) => {
                let (key, value) = TERMS[i % TERMS.len()];
                let value = AttrValue::Text(value.into());
                Answer::Ids(view.try_nodes_matching_at(key, &value, at(p))?)
            }
            AttrHistory(n) => Answer::Points(view.try_attr_history(n, LABEL_KEY)?),
        })
    }
}

/// A seeded fault plan, spelled so that it prints as Rust.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Faults {
    seed: u64,
    flake: u16,
    corrupt: u16,
    /// Outage windows: `(machine or ALL, from tick, until tick)`.
    outages: [Option<(usize, u64, u64)>; 2],
    /// A straggler: `(machine, latency multiplier)`.
    slow: Option<(usize, f64)>,
}

impl Faults {
    const NONE: Faults = Faults::flakes(0, 0);

    /// Request flakes alone.
    const fn flakes(seed: u64, flake: u16) -> Faults {
        let (corrupt, outages, slow) = (0, [None, None], None);
        Faults {
            seed,
            flake,
            corrupt,
            outages,
            slow,
        }
    }

    fn plan(&self, machines: usize) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .with_flake_per_mille(self.flake)
            .with_corrupt_per_mille(self.corrupt);
        for (m, from, until) in self.outages.into_iter().flatten() {
            for m in each(m, machines) {
                plan = plan.with_outage(m, from, until);
            }
        }
        if let Some((m, f)) = self.slow {
            plan = plan.with_latency_multiplier(m, f);
        }
        plan
    }
}

/// Machine `m`, or every machine for an index past the cluster.
fn each(m: usize, machines: usize) -> Range<usize> {
    if m < machines {
        m..m + 1
    } else {
        0..machines
    }
}

/// One step of a schedule.
#[derive(Clone, Debug, PartialEq)]
enum Step {
    /// Build the trace's first cut. After a failed build, a later
    /// `Build` tries again; with a service up it does nothing.
    Build,
    /// Pin the latest watermark as one more logical client's view.
    Pin,
    /// Ask the `i`-th pinned view (modulo their number; pins one when
    /// there is none).
    Ask(usize, Query),
    /// Append the next batch; a batch that failed stays next.
    Append,
    /// Machine death (`ALL`: every machine), until healed.
    Fail(usize),
    Heal(usize),
    /// Attach a fault plan, or detach with `None`.
    Plan(Option<Faults>),
    /// Advance the simulated clock.
    Tick(u64),
    /// Heal the cluster, then crash the next append at each of its
    /// `put_batch` calls in turn, recovering after each in place
    /// (`false`) or by re-opening the store (`true`).
    Crash(bool),
    Recover,
    /// Re-open the store as a new service, as after a process crash.
    Open,
    /// Heal the cluster, detach the plan, recover the writer, land a
    /// batch that failed, `try_repair`: the store must equal a
    /// never-faulted build.
    Repair,
    /// Set the read-cache budget.
    Budget(usize),
    /// The previous step's outcome starts with this.
    Expect(&'static str),
}

/// Which history a run is over.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trace {
    /// A random labelled history over 24 nodes, 80–400 events.
    Random(u64),
    Wiki(usize),
    /// A 200-node `SkewedLabels` trace.
    Labels,
}

/// The index configuration a run builds with.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cfg {
    /// Spans of 60 events, chunks of 16, two horizontal partitions.
    Small,
    /// Spans of 1 200 events, chunks of 150, four horizontal
    /// partitions.
    Mid,
    /// `TgiConfig::default()`.
    Stock,
}

impl Cfg {
    fn config(self) -> TgiConfig {
        let (span, chunk, part, ns) = match self {
            Small => (60, 16, 8, 2),
            Mid => (1_200, 150, 60, 4),
            Stock => return TgiConfig::default(),
        };
        TgiConfig::default()
            .with_timespan(span)
            .with_eventlist_size(chunk)
            .with_partition_size(part)
            .with_horizontal(ns)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Setup {
    trace: Trace,
    cfg: Cfg,
    machines: usize,
    replication: usize,
    /// Read and encode width of the service.
    width: usize,
    /// Append batches after the build: the build takes half the trace,
    /// or all of it with no batch.
    batches: usize,
}

const fn setup(trace: Trace, cfg: Cfg, machines: usize, replication: usize) -> Setup {
    let (width, batches) = (1, 1);
    Setup {
        trace,
        cfg,
        machines,
        replication,
        width,
        batches,
    }
}

impl Trace {
    fn events(self) -> Vec<Event> {
        match self {
            Random(seed) => random_trace(seed),
            Wiki(n) => WikiGrowth::sized(n).generate(),
            Labels => SkewedLabels {
                nodes: 200,
                edge_events: 1_000,
                attr_churn: 500,
                ..Default::default()
            }
            .generate(),
        }
    }
}

/// Where the build ends and each batch ends: strictly ascending by
/// construction, each cut moved forward to a time boundary (an append
/// must start strictly after the indexed end).
fn cuts(events: &[Event], batches: usize) -> Vec<usize> {
    let n = events.len();
    let build = if batches == 0 { n } else { n / 2 };
    let mut cuts: Vec<usize> = Vec::new();
    for i in 0..batches {
        let target = build + (n - build) * i / batches;
        let mut cut = target.max(cuts.last().map_or(1, |c| c + 1));
        while cut < n && events[cut].time == events[cut - 1].time {
            cut += 1;
        }
        if cut >= n {
            break;
        }
        cuts.push(cut);
    }
    cuts.push(n);
    cuts
}

/// SplitMix64: the one random source of a run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn query(&mut self) -> Query {
        // Nodes 24 and 25 never exist; sid 2 is past the partitions.
        let (n, p) = (self.below(26) as NodeId, self.below(1_100) as Time);
        let (a, b) = (self.below(1_100) as Time, self.below(1_100) as Time);
        let (a, b) = (a.min(b), a.max(b));
        match self.below(9) {
            0 => Snapshot(p),
            1 => Snapshots([p, a, b]),
            2 => NodeAt(n, p),
            3 => History(n, a, b),
            4 => OneHop(n, a, b),
            5 => Khop(n, p),
            6 => Sid(self.below(3) as u32, a, b),
            7 => Matching(self.below(TERMS.len()), p),
            _ => AttrHistory(n),
        }
    }

    fn faults(&mut self, machines: usize) -> Faults {
        let mut outage = || {
            let (m, from, len) = (self.below(machines), self.below(2_000), self.below(6_000));
            let (from, len) = (from as u64, len as u64);
            (self.below(2) == 0).then_some((m, from, from + 1 + len))
        };
        let outages = [outage(), outage()];
        let (seed, flake, corrupt) = (self.next(), self.below(250), self.below(120));
        let slow = (self.below(3) > 0).then(|| (self.below(machines), 1.0 + self.below(3) as f64));
        Faults {
            seed,
            flake: flake as u16,
            corrupt: corrupt as u16,
            outages,
            slow,
        }
    }
}

fn random_trace(seed: u64) -> Vec<Event> {
    let mut rng = Rng(seed ^ 0x7ace);
    let mut t = 1;
    let n = 80 + rng.below(320);
    (0..n)
        .map(|_| {
            t += rng.below(3) as Time;
            let (a, b) = (rng.below(24) as NodeId, rng.below(24) as NodeId);
            let key = LABEL_KEY.to_string();
            let kind = match rng.below(10) {
                0..=2 => EventKind::AddNode { id: a },
                3 => EventKind::RemoveNode { id: a },
                4..=6 => {
                    let (weight, directed) = (1.0, false);
                    EventKind::AddEdge {
                        src: a,
                        dst: b,
                        weight,
                        directed,
                    }
                }
                7 => EventKind::RemoveEdge { src: a, dst: b },
                8 => {
                    let value = AttrValue::Text(TERMS[b as usize % 2].1.into());
                    EventKind::SetNodeAttr { id: a, key, value }
                }
                _ => EventKind::RemoveNodeAttr { id: a, key },
            };
            Event::new(t, kind)
        })
        .collect()
}

/// The schedule of one seed: a trace of its own, a fault plan over the
/// build now and then, 36 steps drawn with weights, one [`Step::Crash`]
/// among them — no more appends before it than leave it a batch to
/// crash — and a closing [`Step::Repair`]. The width cycles 1, 2, 4.
fn random(seed: u64) -> (Setup, Vec<Step>) {
    let mut rng = Rng(seed);
    let (machines, batches) = (3, 3);
    let setup = Setup {
        replication: 1 + rng.below(2),
        width: [1, 2, 4][seed as usize % 3],
        batches,
        ..setup(Random(seed), Small, machines, 1)
    };
    let mut steps = Vec::new();
    if rng.below(3) == 0 {
        steps.push(Plan(Some(rng.faults(machines))));
    }
    steps.extend([Build, Plan(None), Build]);
    let (crash_at, mut appends) = (rng.below(36), 0);
    for i in 0..36 {
        if i == crash_at {
            steps.push(Crash(rng.below(2) == 0));
        }
        steps.push(match rng.below(24) {
            0..=2 => Pin,
            3..=12 => Ask(rng.below(4), rng.query()),
            13 | 14 | 23 if i > crash_at || appends + 1 < batches => {
                appends += 1;
                [Append, Repair][usize::from(rng.below(8) == 0)].clone()
            }
            15 => Fail(rng.below(machines)),
            16 | 17 => Heal(ALL),
            18 | 19 => Plan((rng.below(3) > 0).then(|| rng.faults(machines))),
            20 => Tick(rng.below(4_000) as u64),
            21 => [Recover, Open][rng.below(2)].clone(),
            _ => Budget([0, 1 << 16, DEFAULT_READ_CACHE_BYTES][rng.below(3)]),
        });
    }
    steps.push(Repair);
    (setup, steps)
}

/// One logged step.
#[derive(Debug, PartialEq)]
struct Entry {
    outcome: String,
    answer: Option<Answer>,
    /// What the step moved on the store's counters.
    stats: StoreStatsSnapshot,
}

/// A store error's kind. Every kind is honest: a read or a write that
/// cannot answer exactly says so, transiently or for good.
fn kind(e: &StoreError) -> String {
    match e {
        StoreError::Transient { .. } => "Transient",
        StoreError::Unavailable { .. } => "Unavailable",
        StoreError::Corrupt(_) => "Corrupt",
    }
    .into()
}

struct Sim {
    setup: Setup,
    events: Vec<Event>,
    cuts: Vec<usize>,
    /// The trace's last event time, the 1000 of a query's per-mille.
    end: Time,
    store: Arc<SimStore>,
    svc: Option<Arc<TgiService>>,
    /// The attached plan, if any.
    faults: Option<Faults>,
    /// Index into `cuts` of the published prefix.
    landed: usize,
    /// An append failed since the last landed: its rows may sit in the
    /// store, unreachable until the batch lands.
    dirty: bool,
    watermark: u64,
    /// Pinned views, each with the index into `cuts` of its prefix.
    views: Vec<(TgiView, usize)>,
    budget: usize,
    /// Quiesced rebuilds by index into `cuts`, and their answers.
    oracles: HashMap<usize, Arc<TgiView>>,
    expected: HashMap<(usize, Query), Answer>,
    log: Vec<Entry>,
}

impl Sim {
    fn new(setup: Setup) -> Sim {
        let events = setup.trace.events();
        let store_cfg = StoreConfig::new(setup.machines, setup.replication);
        Sim {
            setup,
            end: events.last().map_or(0, |e| e.time),
            cuts: cuts(&events, setup.batches),
            events,
            store: Arc::new(SimStore::new(store_cfg)),
            svc: None,
            faults: None,
            landed: 0,
            dirty: false,
            watermark: 0,
            views: Vec::new(),
            budget: DEFAULT_READ_CACHE_BYTES,
            oracles: HashMap::new(),
            expected: HashMap::new(),
            log: Vec::new(),
        }
    }

    fn svc(&self) -> Arc<TgiService> {
        Arc::clone(self.svc.as_ref().expect("a service is up"))
    }

    fn step(&mut self, step: &Step) -> (String, Option<Answer>) {
        let machines = self.setup.machines;
        let outcome = match *step {
            Build => self.build(),
            Fail(m) => return self.act(|s| each(m, machines).for_each(|m| s.fail_machine(m))),
            Heal(m) => return self.act(|s| each(m, machines).for_each(|m| s.heal_machine(m))),
            Plan(faults) => {
                self.faults = faults;
                return self.act(|s| s.set_fault_plan(faults.map(|f| f.plan(machines))));
            }
            Tick(n) => return self.act(|s| s.advance_clock(n)),
            Expect(want) => {
                let got = &self.log.last().expect("a step to expect of").outcome;
                assert!(got.starts_with(want), "expected {want}, got {got}");
                "ok".into()
            }
            _ if self.svc.is_none() => "no service".into(),
            Pin => format!("pinned w{}", self.pin().epoch()),
            Ask(i, q) => return self.ask(i, q),
            Append => self.append(),
            Crash(reopen) => self.crash(reopen),
            Recover => self.restart(false),
            Open => self.restart(true),
            Repair => self.repair(),
            Budget(bytes) => {
                self.budget = bytes;
                return self.act(|_| self.svc().set_read_cache_budget(bytes));
            }
        };
        (outcome, None)
    }

    /// A step that only acts on the cluster.
    fn act(&self, f: impl FnOnce(&SimStore)) -> (String, Option<Answer>) {
        f(&self.store);
        ("ok".into(), None)
    }

    /// The watermark moved only by publishing, and the service serves
    /// the last published prefix: the one that ends at `cuts[landed]`.
    fn check(&self) {
        let Some(svc) = &self.svc else { return };
        assert_eq!(svc.watermark(), self.watermark, "the watermark moved");
        let view = svc.pin();
        assert_eq!(view.epoch(), self.watermark);
        let end = self.events[self.cuts[self.landed] - 1].time + 1;
        assert_eq!(view.end_time(), end, "serves the last published prefix");
    }

    fn build(&mut self) -> String {
        if self.svc.is_some() {
            return "built already".into();
        }
        let (cfg, width, store) = (self.setup.cfg.config(), self.setup.width, &self.store);
        let prefix = &self.events[..self.cuts[0]];
        match TgiService::try_build_on(cfg, Arc::clone(store), prefix, width) {
            Ok(svc) => {
                self.watermark = svc.watermark();
                self.svc = Some(svc);
                "built".into()
            }
            Err(BuildError::Store(e)) => kind(&e),
            Err(e) => panic!("a build fails only on the store: {e}"),
        }
    }

    fn pin(&mut self) -> TgiView {
        let view = self.svc().pin().with_clients(self.setup.width);
        self.views.push((view.clone(), self.landed));
        view
    }

    fn ask(&mut self, i: usize, q: Query) -> (String, Option<Answer>) {
        let (view, at) = match self.views.len() {
            0 => (self.pin(), self.landed),
            n => self.views[i % n].clone(),
        };
        match q.ask(&view, self.end) {
            Ok(got) => {
                let ok = got == *self.expected(at, q);
                assert!(ok, "{q:?} diverged from the rebuild of cut {at}");
                ("ok".into(), Some(got))
            }
            Err(e) => (kind(&e), None),
        }
    }

    /// `q` on a quiesced rebuild of the prefix that ends at `cuts[at]`.
    fn expected(&mut self, at: usize, q: Query) -> &Answer {
        let (cfg, prefix) = (self.setup.cfg.config(), &self.events[..self.cuts[at]]);
        let oracles = &mut self.oracles;
        self.expected.entry((at, q)).or_insert_with(|| {
            let oracle = oracles.entry(at).or_insert_with(|| {
                let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
                let svc = TgiService::try_build_on(cfg, store, prefix, 1).expect("healthy");
                svc.pin()
            });
            q.ask(oracle, self.end).expect("a healthy rebuild answers")
        })
    }

    /// The next batch, as a range of `events`.
    fn batch(&self) -> Option<Range<usize>> {
        Some(*self.cuts.get(self.landed)?..*self.cuts.get(self.landed + 1)?)
    }

    fn append(&mut self) -> String {
        let Some(batch) = self.batch() else {
            return "done".into();
        };
        let svc = self.svc();
        let poisoned = svc.is_poisoned();
        match svc.try_append_events(&self.events[batch]) {
            Ok(w) => {
                assert_eq!(w, self.watermark + 1, "a watermark skipped");
                (self.landed, self.dirty, self.watermark) = (self.landed + 1, false, w);
                format!("w{w}")
            }
            Err(BuildError::Poisoned) => {
                assert!(poisoned, "only a poisoned writer refuses as poisoned");
                "Poisoned".into()
            }
            Err(BuildError::Store(e)) => {
                assert!(svc.is_poisoned(), "a failed append poisons the writer");
                self.dirty = true;
                kind(&e)
            }
            Err(e) => panic!("every batch starts past the indexed end: {e}"),
        }
    }

    /// Recover the writer in place, or re-open the store as a new
    /// service. A failure says why: the store refused a read or
    /// corrupted it on the wire — never that the index is missing.
    fn restart(&mut self, reopen: bool) -> String {
        let restarted = match reopen {
            false => self.svc().try_recover().map(drop),
            true => TgiService::open(Arc::clone(&self.store)).map(|svc| {
                svc.set_read_cache_budget(self.budget);
                assert_eq!(
                    svc.watermark(),
                    self.watermark,
                    "a re-open moved the watermark"
                );
                self.svc = Some(svc);
            }),
        };
        match restarted {
            Ok(()) => {
                assert!(!self.svc().is_poisoned());
                "ok".into()
            }
            Err(OpenError::Store(e)) => kind(&e),
            Err(OpenError::Corrupt(e)) => {
                let corrupting = self.faults.is_some_and(|f| f.corrupt > 0);
                assert!(corrupting, "a re-open read a corrupt row: {e}");
                "Corrupt".into()
            }
            Err(OpenError::NotFound) => panic!("the store holds an index"),
        }
    }

    /// Heal every machine, detach the plan, recover a poisoned writer.
    fn clear(&mut self) {
        self.store.heal_all();
        self.store.set_fault_plan(None);
        self.faults = None;
        if self.svc().is_poisoned() {
            assert_eq!(self.restart(false), "ok", "a healed cluster recovers");
        }
    }

    fn crash(&mut self, reopen: bool) -> String {
        self.clear();
        let Some(batch) = self.batch() else {
            return "done".into();
        };
        // One attempt per request: a refused machine round trip costs
        // one tick, so a crashed append's ticks end where its next
        // put_batch would have started.
        let policy = self.store.retry_policy();
        let once = RetryPolicy {
            max_attempts: 1,
            ..policy
        };
        self.store.set_retry_policy(once);
        let (mut from, mut crashes) = (0, 0);
        loop {
            let now = self.store.clock();
            let mut crash = FaultPlan::new(0);
            for m in 0..self.setup.machines {
                crash = crash.with_outage(m, now + from, u64::MAX);
            }
            self.store.set_fault_plan(Some(crash));
            let result = self.svc().try_append_events(&self.events[batch.clone()]);
            let spent = self.store.clock() - now;
            self.store.set_fault_plan(None);
            match result {
                Ok(w) => {
                    assert_eq!(w, self.watermark + 1, "the replayed append lands next");
                    assert_eq!(spent, from, "the crashes walked every put_batch");
                    break;
                }
                Err(BuildError::Store(_)) => assert!(spent > from, "nothing was refused"),
                Err(e) => panic!("a crashed append fails on the store: {e}"),
            }
            self.dirty = true;
            assert_eq!(self.restart(reopen), "ok", "a healed cluster restarts");
            self.check();
            // No row of the crashed append is reachable.
            let (view, landed) = (self.svc().pin(), self.landed);
            let got = Snapshot(1_000).ask(&view, self.end).expect("healthy");
            assert!(got == *self.expected(landed, Snapshot(1_000)), "an orphan");
            (from, crashes) = (spent, crashes + 1);
        }
        self.store.set_retry_policy(policy);
        self.landed += 1;
        (self.dirty, self.watermark) = (false, self.watermark + 1);
        format!("w{} after {crashes} crashes", self.watermark)
    }

    fn repair(&mut self) -> String {
        self.clear();
        if self.dirty {
            let landed = self.append();
            assert!(landed.starts_with('w'), "a failed batch lands once healed");
        }
        let report = self.store.try_repair().expect("repair on a healed cluster");
        assert_eq!(report.still_degraded, 0, "nothing stays degraded");
        assert_eq!(self.store.under_replicated_count(), 0);
        let same = self.store.content_rows() == self.never_faulted().content_rows();
        assert!(same, "a repaired store equals a never-faulted build");
        format!("repaired {}", report.repaired)
    }

    /// The landed batches built on a cluster that never saw a fault.
    fn never_faulted(&self) -> Arc<SimStore> {
        let (s, events) = (self.setup, &self.events);
        let store = Arc::new(SimStore::new(StoreConfig::new(s.machines, s.replication)));
        let build = &events[..self.cuts[0]];
        let svc = TgiService::try_build_on(s.cfg.config(), Arc::clone(&store), build, 1);
        let svc = svc.expect("healthy");
        for w in self.cuts[..=self.landed].windows(2) {
            svc.try_append_events(&events[w[0]..w[1]]).expect("healthy");
        }
        store
    }

    fn outcomes(&self) -> Vec<&str> {
        self.log.iter().map(|e| e.outcome.as_str()).collect()
    }

    /// The store counters `steps` of the log moved, summed.
    fn moved(&self, steps: Range<usize>) -> StoreStatsSnapshot {
        let zero = vec![MachineStatsSnapshot::default(); self.setup.machines];
        self.log[steps].iter().fold(zero, |sum, e| {
            sum.iter().zip(&e.stats).map(|(a, b)| a.merge(b)).collect()
        })
    }
}

/// A named schedule: its name, what it runs on, its steps.
type Named<'a> = (&'a str, Setup, &'a [Step]);

/// Held shared by every schedule ([`run`]) and alone by the one
/// real-thread test, whose reader needs a core of its own: on a
/// two-core host the binary's other tests would otherwise take it.
static CORES: RwLock<()> = RwLock::new(());

/// Run a schedule and log each step. A failing step panics with
/// `(name, step)` and the schedule as a named schedule.
fn run((name, setup, steps): Named) -> Sim {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    let mut sim = Sim::new(setup);
    for (i, step) in steps.iter().enumerate() {
        let before = sim.store.stats_snapshot();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let done = sim.step(step);
            sim.check();
            done
        }));
        let (outcome, answer) = result.unwrap_or_else(|panic| {
            let why = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("");
            panic!(
                "sim failed at ({name}, step {i}) {step:?}: {why}\n\
                 replay it as a named schedule:\n\
                 const FAILED: Named<'static> = (\"FAILED\", {setup:?}, &{steps:?});"
            )
        });
        let stats = SimStore::stats_since(&sim.store.stats_snapshot(), &before);
        sim.log.push(Entry {
            outcome,
            answer,
            stats,
        });
    }
    sim
}

fn run_seed(seed: u64) -> Sim {
    let (setup, steps) = random(seed);
    let sim = run((&format!("seed {seed}"), setup, &steps));
    let crashed = sim.outcomes().iter().any(|o| o.ends_with(" crashes"));
    assert!(crashed, "seed {seed} crashed no append");
    sim
}

/// A schedule at read and encode width `width`.
fn wide<'a>((name, setup, steps): (&'a str, Setup, &'a [Step]), width: usize) -> Named<'a> {
    (name, Setup { width, ..setup }, steps)
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

/// Random schedules per test; the width cycles 1, 2, 4.
const SEEDS: u64 = 36;

/// A width-1 seed whose faults fail some reads.
const REPLAYED: u64 = 18;

#[test]
fn random_schedules_hold_the_contract_at_width_one() {
    (0..SEEDS).step_by(3).for_each(|seed| drop(run_seed(seed)));
}

#[test]
fn random_schedules_hold_the_contract_at_widths_two_and_four() {
    let seeds = (0..SEEDS).filter(|s| s % 3 > 0);
    seeds.for_each(|seed| drop(run_seed(seed)));
}

/// At read width 1 a seed replays tick for tick: the same steps log the
/// same outcomes, answers and store-counter deltas.
#[test]
fn a_seed_replays_exactly_at_width_one() {
    assert_eq!(random(REPLAYED).0.width, 1);
    let (a, b) = (run_seed(REPLAYED), run_seed(REPLAYED));
    assert!(a.log == b.log, "two runs of one seed diverged");
    let failed = |o: &&str| ["Transient", "Unavailable", "Corrupt"].contains(o);
    assert!(a.outcomes().iter().any(failed), "no step failed");
}

// ---------------------------------------------------------------------
// Named schedules
// ---------------------------------------------------------------------

/// Machines of a `Wiki(3000)` / `Mid` index built on four machines that
/// take the first chunk of its first span, and of the span an append
/// writes next; and of one built on eight that holds a chunk of the
/// last span but none of the descriptor rows a re-open reads first.
const FIRST_CHUNK_OF_4: usize = 3;
const NEXT_CHUNK_OF_4: usize = 2;
const TAIL_CHUNK_OF_8: usize = 0;

/// `Wiki(3000)` / `Mid` on four machines, half built and half
/// appended, or built whole.
const WIKI_4: Setup = setup(Wiki(3_000), Mid, 4, 1);
const WIKI_WHOLE: Setup = Setup {
    batches: 0,
    ..WIKI_4
};

/// A machine dies under the first chunk a build writes: the batched
/// write fails `Unavailable`. Healed and built, another dies under the
/// next span's first chunk: the append fails `Unavailable` and poisons
/// the writer, which refuses the batch again as `Poisoned`, while a
/// pinned view and every fresh pin stay at the last watermark; healed
/// and recovered, the batch lands next.
#[rustfmt::skip]
const DEATH_UNDER_WRITES: Named<'static> = ("DEATH_UNDER_WRITES", WIKI_4, &[
    Fail(FIRST_CHUNK_OF_4), Build, Expect("Unavailable"), Heal(ALL), Build, Pin,
    Ask(0, Snapshot(500)), Fail(NEXT_CHUNK_OF_4), Append, Expect("Unavailable"),
    Ask(0, Snapshot(500)), Append, Expect("Poisoned"), Pin, Expect("pinned w1"), Heal(ALL),
    Ask(0, Snapshot(500)), Ask(1, Snapshot(1_000)), Recover, Append, Expect("w2"),
]);

/// The outage that poisons the writer is a plan window, not a death:
/// the append fails `Transient`; detached, the writer recovers in place
/// with its watermark, and the replayed batch lands next. Re-opened at
/// that watermark, the index takes the last batch as the one after it.
/// Every view answers as a bulk build
/// of its events does: snapshots on both sides of an append and a
/// history across it.
#[rustfmt::skip]
const OUTAGE_MID_APPEND: Named<'static> = ("OUTAGE_MID_APPEND", Setup { batches: 2, ..WIKI_4 }, &[
    Build, Pin,
    Plan(Some(Faults { outages: [Some((NEXT_CHUNK_OF_4, 0, u64::MAX)), None], ..Faults::NONE })),
    Append, Expect("Transient"), Plan(None), Recover, Expect("ok"), Ask(0, Snapshot(1_000)),
    Append, Expect("w2"), Pin, Ask(1, Snapshot(0)), Ask(1, Snapshot(333)), Ask(1, Snapshot(600)),
    Ask(1, Snapshot(1_000)), Ask(1, History(0, 0, 1_001)), Ask(1, NodeAt(3, 900)),
    Open, Append, Expect("w3"), Pin, Ask(2, Snapshot(1_000)), Ask(2, History(0, 0, 1_001)),
]);

/// Recovery on a still-degraded cluster fails `Unavailable` instead of
/// panicking, and changes nothing: the old watermark still answers the
/// reads that avoid the dead machine (steps 7–10 answer at least once).
/// Healed, it recovers.
#[rustfmt::skip]
const RECOVERY_WHILE_DEGRADED: Named<'static> = ("RECOVERY_WHILE_DEGRADED", Setup { machines: 8, ..WIKI_4 }, &[
    Build, Fail(TAIL_CHUNK_OF_8), Append, Expect("Unavailable"), Recover, Expect("Unavailable"),
    Pin, Ask(0, NodeAt(0, 1_000)), Ask(0, NodeAt(1, 1_000)), Ask(0, NodeAt(2, 1_000)),
    Ask(0, NodeAt(3, 1_000)), Ask(0, Snapshot(1_000)),
    Heal(ALL), Recover, Expect("ok"), Ask(0, Snapshot(1_000)), Append, Expect("w2"),
]);

/// With every machine dead every read fails `Unavailable`, never a
/// smaller answer — but a warm cache may answer from its copies of
/// write-once rows; once evicted, the re-fetch fails, and a warm
/// snapshot still notices its dead chunks. Healed, the reads answer.
/// A plan window refusing every machine fails a cold read `Transient`;
/// once simulated time passes the window, the same read answers.
#[rustfmt::skip]
const TOTAL_FAILURE: Named<'static> = ("TOTAL_FAILURE", WIKI_WHOLE, &[
    Build, Ask(0, NodeAt(0, 500)), Ask(0, Snapshot(500)), Fail(ALL),
    Ask(0, NodeAt(0, 500)), Expect("ok"), Ask(0, Snapshot(500)), Expect("Unavailable"),
    Budget(0), Budget(DEFAULT_READ_CACHE_BYTES), Ask(0, NodeAt(0, 500)), Expect("Unavailable"),
    Ask(0, Snapshots([333, 500, 750])), Expect("Unavailable"),
    Ask(0, History(0, 250, 750)), Expect("Unavailable"),
    Ask(0, OneHop(0, 250, 750)), Expect("Unavailable"),
    Ask(0, Khop(0, 500)), Expect("Unavailable"),
    Ask(0, Sid(0, 250, 750)), Expect("Unavailable"),
    Heal(ALL), Ask(0, NodeAt(0, 500)), Expect("ok"), Ask(0, Snapshot(500)), Expect("ok"),
    Budget(0), Plan(Some(Faults { seed: 7, outages: [Some((ALL, 0, 100_000)), None], ..Faults::NONE })),
    Ask(0, Snapshot(500)), Expect("Transient"), Tick(1_000_000), Ask(0, Snapshot(500)), Expect("ok"),
]);

/// A build on a dead cluster fails `Unavailable`; with one replica of
/// two dead it succeeds, counting its writes partial. The healed
/// replica does not serve the rows it missed: with the other one dead
/// a read fails until a repair copies them over. Then one death is
/// masked: every read answers exactly.
#[rustfmt::skip]
const ONE_DEATH_OF_TWO_REPLICAS: Named<'static> = ("ONE_DEATH_OF_TWO_REPLICAS", Setup { replication: 2, ..WIKI_WHOLE }, &[
    Fail(ALL), Build, Expect("Unavailable"), Heal(ALL), Fail(2), Build, Expect("built"),
    Budget(0), Ask(0, Snapshot(500)), Expect("ok"),
    Heal(2), Fail(1), Ask(0, Snapshots([333, 500, 1_000])), Expect("Unavailable"), Repair, Fail(1),
    Ask(0, Snapshot(500)), Expect("ok"), Ask(0, Snapshots([333, 500, 1_000])), Expect("ok"),
]);

/// A machine dies beside an append with two replicas: it lands, its
/// writes counted partial; healed, one repair pass makes the store a
/// never-faulted build's. Machine 0 holds the first replica of
/// `Graph/meta`, which it misses: a repair that copied from the first
/// replica holding the key wrote the old commit record back over the
/// new one, and a re-open lost the append.
#[rustfmt::skip]
const APPEND_BESIDE_A_DEAD_MACHINE: Named<'static> = ("APPEND_BESIDE_A_DEAD_MACHINE", Setup { batches: 2, ..setup(Wiki(4_000), Stock, 4, 2) }, &[
    Build, Fail(1), Append, Expect("w2"), Heal(1), Repair, Expect("repaired"),
    Fail(0), Append, Expect("w3"), Heal(0), Repair, Open, Ask(0, Snapshot(1_000)), Expect("ok"),
]);

/// Label, term and attribute-history reads with every machine dead fail
/// `Unavailable` — a term read never falls back to anything — and
/// answer exactly once healed; the hot label (step 11) matches someone.
#[rustfmt::skip]
const LABEL_READS: &[Step] = &[
    Build, Fail(ALL), Ask(0, Matching(2, 500)), Expect("Unavailable"),
    Ask(0, Matching(3, 500)), Expect("Unavailable"), Ask(0, AttrHistory(0)), Expect("Unavailable"),
    Heal(ALL), Ask(0, AttrHistory(0)), Expect("ok"), Ask(0, Matching(2, 500)), Expect("ok"),
];

/// Named schedules whose `Expect` steps say all there is to check.
macro_rules! named {
    ($($test:ident: $schedule:expr;)*) => {$(
        #[test]
        fn $test() {
            run($schedule);
        }
    )*};
}

named! {
    an_outage_mid_append_recovers_in_place: OUTAGE_MID_APPEND;
    total_failure_fails_every_read_a_warm_cache_cannot_answer: TOTAL_FAILURE;
}

/// A death under a batched write — of a build or of an append — fails
/// it having processed the whole flush: rows on live machines land,
/// the dead machine's are counted failed, at encode widths 1 and 4.
#[test]
fn a_machine_death_under_a_batched_write_fails_it_and_counts_its_rows() {
    for width in [1, 4] {
        let sim = run(wide(DEATH_UNDER_WRITES, width));
        assert!(sim.log[1].stats.iter().any(|m| m.puts > 0), "no row landed");
        assert!(sim.store.failed_put_count() > 0, "no row failed");
        assert_eq!(sim.store.partial_put_count(), 0, "one replica, partial");
    }
}

#[test]
fn recovery_on_a_degraded_cluster_is_an_error() {
    let sim = run(RECOVERY_WHILE_DEGRADED);
    assert!(sim.outcomes()[7..11].contains(&"ok"), "no read answered");
}

#[test]
fn one_death_of_two_replicas_is_masked_once_repaired() {
    let sim = run(ONE_DEATH_OF_TWO_REPLICAS);
    assert!(sim.store.partial_put_count() > 0, "no write was partial");
}

#[test]
fn an_append_beside_a_dead_machine_repairs_to_byte_identity() {
    let store = run(APPEND_BESIDE_A_DEAD_MACHINE).store;
    assert!(store.partial_put_count() > 0 && store.failed_put_count() == 0);
}

#[test]
fn label_reads_fail_under_total_failure() {
    let sim = run(("LABEL_READS", setup(Labels, Mid, 3, 1), LABEL_READS));
    let hot = sim.log[11].answer.as_ref();
    assert!(matches!(hot, Some(Answer::Ids(ids)) if !ids.is_empty()));
}

/// A view pinned before an append of label churn keeps the attribute
/// histories of nodes 0–7 (steps 2–9, then 11–18); a fresh pin sees
/// the points the batch added (steps 20–27).
#[test]
fn a_pinned_attr_history_ignores_points_appended_after_the_pin() {
    let asks = |view| (0..8).map(|n| Ask(view, AttrHistory(n))).collect();
    let steps = [
        vec![Build, Pin],
        asks(0),
        vec![Append],
        asks(0),
        vec![Pin],
        asks(1),
    ]
    .concat();
    let sim = run(("PINNED_ATTR_HISTORIES", setup(Labels, Small, 2, 1), &steps));
    let points = |i: usize| match &sim.log[i].answer {
        Some(Answer::Points(p)) => p.len(),
        other => panic!("no attribute history: {other:?}"),
    };
    assert_eq!(sim.outcomes()[10], "w2");
    let kept = (0..8).all(|n: usize| points(2 + n) == points(11 + n));
    assert!(kept && (0..8).any(|n: usize| points(20 + n) > points(2 + n)));
}

/// Each of four machines dies in turn under a snapshot and a
/// three-time batch. Whether a death is fatal to a read does not depend
/// on the read width — the work-stealing fill is all or nothing — and
/// some death is.
#[test]
fn a_dead_machine_fails_a_read_at_every_width_or_at_none() {
    let (snapshot, batch) = (Snapshot(500), Snapshots([250, 500, 750]));
    let dies = |m| [Fail(m), Ask(0, snapshot), Ask(0, batch), Heal(m)];
    let steps = [vec![Build], (0..4).flat_map(dies).collect()].concat();
    let outcomes: [Vec<String>; 4] = [1, 2, 4, 8].map(|width| {
        let sim = run(wide(("EACH_MACHINE_DIES", WIKI_WHOLE, &steps), width));
        sim.log.into_iter().map(|e| e.outcome).collect()
    });
    assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:?}");
    let fatal = outcomes[0].contains(&"Unavailable".into());
    assert!(fatal, "no death was fatal");
}

/// The rows that make an append reachable — `Timespans`, `Graph/meta`
/// — go through the same retried `put_batch` as the rows they describe:
/// with every machine alive and a request in ten flaking, an append
/// may exhaust its retries (`Transient`) but never reports
/// `Unavailable`, and nearly always lands.
#[test]
fn flaky_appends_never_report_unavailable() {
    const APPENDS: u64 = 120;
    let landed = (0..APPENDS)
        .filter(|&seed| {
            let steps = [Build, Plan(Some(Faults::flakes(seed, 100))), Append];
            let sim = run(("FLAKY_APPEND", setup(Wiki(800), Mid, 4, 1), &steps));
            let outcome = sim.outcomes()[2];
            assert!(outcome != "Unavailable", "seed {seed}: no machine is dead");
            outcome == "w2"
        })
        .count() as u64;
    assert!(landed * 100 >= APPENDS * 95, "{landed} of {APPENDS} landed");
}

/// The canonical schedule — one machine out for good, 60‰ flakes, 20‰
/// corrupt reads, a 3× straggler — against a 2 000-read hot-node
/// battery (m = 4, r = 2, cache off) at every read width: ≥ 75 % of the
/// reads answer, exactly, through retries and an open breaker, and the
/// straggler shows in the cost model. A zero-rate plan is free: it
/// moves no store counter of the same battery.
#[test]
fn the_canonical_schedule_is_masked_and_a_zero_rate_plan_is_free() {
    const READS: usize = 2_000;
    let seed = 0xC4A0_5EED;
    let outages = [Some((1, 0, u64::MAX)), None];
    let (flake, corrupt, slow) = (60, 20, Some((2, 3.0)));
    let chaos = Faults {
        corrupt,
        outages,
        slow,
        ..Faults::flakes(seed, flake)
    };
    let battery = || (0..READS).map(|i| Ask(0, NodeAt(i as u64 % 32, [1_000, 500][i % 2])));
    let mut steps = vec![Build, Budget(0)];
    steps.extend(battery());
    steps.push(Plan(Some(Faults::flakes(seed, 0))));
    steps.extend(battery());
    steps.push(Plan(Some(chaos)));
    steps.extend(battery());
    let (base, zero, faulted) = (2..2 + READS, 3 + READS..3 + 2 * READS, 4 + 2 * READS);
    let slow = [0, 1, 2, 3].map(|m| chaos.plan(4).latency_multiplier(m));
    let cost = CostModel::default();
    for width in [1, 2, 4] {
        let s = Setup {
            width,
            batches: 0,
            ..setup(Wiki(2_000), Stock, 4, 2)
        };
        let sim = run(("CANONICAL", s, &steps));
        let (log, outcomes) = (&sim.log, sim.outcomes());
        assert!(outcomes[1..faulted].iter().all(|o| *o == "ok"), "{width}");
        let stats = |r: Range<usize>| log[r].iter().map(|e| &e.stats).collect::<Vec<_>>();
        let free = stats(zero.clone()) == stats(base.clone());
        assert!(free, "{width}: a zero-rate plan moved a counter");
        let ok = outcomes[faulted..].iter().filter(|o| **o == "ok").count();
        assert!(ok * 4 >= READS * 3, "{width}: {ok} of {READS} answered");
        let moved = sim.moved(faulted..log.len());
        assert!(moved.iter().any(|m| m.retries > 0), "{width}: no retries");
        let opened = moved.iter().any(|m| m.breaker_opens > 0);
        assert!(opened, "{width}: no breaker opened");
        let model = |moved: &StoreStatsSnapshot, slow: &[f64]| {
            cost.estimate_seconds_with_latency(moved, width, slow)
        };
        let healthy = model(&sim.moved(base.clone()), &[1.0; 4]);
        assert!(model(&moved, &slow) > healthy, "{width}: no straggler");
    }
}

// ---------------------------------------------------------------------
// The one real-thread test
// ---------------------------------------------------------------------

/// Readers never wait for the writer: a pinned read completes while
/// an append is in flight. The reader waits until the store has taken
/// writes under an unchanged watermark (the writer is mid-append),
/// pins at the next of read widths 1, 2 and 4, reads, and counts the
/// read if the watermark still has not moved — a `pin()` that needed
/// the writer's lock would block until the publish. Every read made
/// inside a window equals replay of its watermark's prefix: at 30 000
/// events a quiesced rebuild per watermark would cost this test
/// several times its own build.
#[test]
fn pinned_reads_complete_while_an_append_is_in_flight() {
    let _alone = CORES.write().unwrap_or_else(PoisonError::into_inner);
    let events = WikiGrowth::sized(30_000).generate();
    // A build of 5 000 events, then five batches of 5 000.
    let n = events.len();
    let cut = |k: usize| (k * 5_000..n).find(|&i| events[i].time > events[i - 1].time);
    let cuts: Vec<usize> = (1..6).filter_map(cut).chain([n]).collect();
    let store = Arc::new(SimStore::new(StoreConfig::new(4, 1)));
    // Five spans per append, so the store takes writes from early in
    // each window; writer at width 1, so the reader has its own core.
    let cfg = TgiConfig::default().with_timespan(1_000);
    let svc = TgiService::try_build_on(cfg, Arc::clone(&store), &events[..cuts[0]], 1).unwrap();
    let written = || -> u64 { store.stats_snapshot().iter().map(|m| m.put_batches).sum() };
    let finished = AtomicBool::new(false);
    let done = || finished.load(Ordering::Acquire);
    let end = events[n - 1].time;
    let queries = [
        NodeAt(0, 1_000),
        Snapshot(1_000),
        History(0, 0, 1_001),
        Khop(0, 1_000),
    ];
    let inside = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut inside = Vec::new();
            while !done() {
                let (w, rows) = (svc.watermark(), written());
                while !done() && svc.watermark() == w && written() == rows {
                    std::thread::yield_now();
                }
                let view = svc.pin().with_clients([1, 2, 4][inside.len() % 3]);
                let answers = queries.map(|q| q.ask(&view, end).expect("healthy"));
                if svc.watermark() == w && !done() {
                    inside.push((view.epoch(), answers));
                }
            }
            inside
        });
        for w in cuts.windows(2) {
            svc.try_append_events(&events[w[0]..w[1]]).expect("append");
        }
        finished.store(true, Ordering::Release);
        reader.join().expect("reader panicked")
    });
    assert_eq!(svc.watermark(), cuts.len() as u64, "one epoch per batch");
    let reads = inside.len();
    assert!(reads >= 3, "{reads} reads landed inside an append");
    // Epoch e serves the build plus e - 1 batches: `cuts[e - 1]`.
    let (mut replayed, range) = (HashMap::new(), TimeRange::new(0, end * 1_001 / 1_000));
    for (epoch, [node, graph, history, khop]) in inside {
        let prefix = &events[..cuts[epoch as usize - 1]];
        let want =
            (replayed.entry(epoch)).or_insert_with(|| Delta::snapshot_by_replay(prefix, end));
        assert_eq!(
            node,
            Answer::Node(want.node(0).cloned()),
            "watermark {epoch}"
        );
        assert!(graph == Answer::Graph(want.clone()), "watermark {epoch}");
        assert!(
            khop == Answer::Graph(khop_by_replay(want, 0, 2)),
            "watermark {epoch}"
        );
        let Answer::Histories(h) = history else {
            panic!("{history:?}")
        };
        let initial = Delta::snapshot_by_replay(prefix, 0);
        assert_eq!(h[0].initial.as_ref(), initial.node(0), "watermark {epoch}");
        let replayed_events = node_events_by_replay(&normalize_events(prefix), 0, range);
        assert_eq!(h[0].events, replayed_events, "watermark {epoch}");
    }
}
