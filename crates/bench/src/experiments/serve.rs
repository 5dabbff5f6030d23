//! Serving experiment: pinned-read latency while a writer ingests.
//!
//! The paper's TGI is described as an *active* store — historical
//! queries keep running while new events are appended (§3.1's
//! time-evolving ingest, §6's concurrent-client retrieval). The
//! [`TgiService`] makes that concrete: the writer seals spans and
//! publishes a watermark; readers pin the watermark at entry and
//! answer entirely from sealed spans. This harness measures what that
//! costs: N client threads run a hot node-retrieval loop (pin +
//! `node_at`, alternating the pinned end time and a mid-history time)
//! against
//!
//! * a **read-only** service (no writer — the quiesced baseline), and
//! * a **live-ingest** service, with a writer concurrently appending
//!   the trace's second half in [`APPEND_BATCHES`] batches.
//!
//! Per-read latency is recorded per op; reported per phase are the
//! p50/p99 of the merged histogram, throughput, and the watermark
//! range the clients observed (the ingest phase must span several).
//! Readers hold no lock the writer needs — `pin()` is an
//! `Arc` clone under a read lock — so read latency under ingest should
//! sit within CPU-contention noise of the baseline; the CI smoke gate
//! bounds the regression and the committed artifact
//! (`BENCH_serve.json`) tracks the full-size run.
//!
//! Correctness is asserted in-experiment, not just timed: the first
//! time a client observes a new watermark it takes an (untimed) full
//! snapshot of the pinned view; after the run every such observation
//! is replayed against a quiesced from-scratch [`Tgi::try_build`] over
//! exactly the event prefix that watermark denotes, and must be
//! byte-identical. The final service must hold the whole trace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hgs_core::{Tgi, TgiService};
use hgs_delta::{Delta, Event, Time};
use hgs_store::{SimStore, StoreConfig};

use crate::datasets::*;
use crate::harness::*;

/// Append batches the ingest phase replays over the trace's second
/// half (so clients can observe up to `1 + APPEND_BATCHES` watermarks).
pub const APPEND_BATCHES: usize = 6;

/// Minimum timed reads per client (the read-only phase runs exactly
/// this many; the ingest phase keeps reading until the writer is done).
const MIN_OPS: u64 = 2_000;

/// Per-client op cap for the ingest phase, so a slow full-size append
/// can't grow the latency log without bound.
const OPS_CAP: u64 = 100_000;

/// One phase × client-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct ServeRow {
    /// `read_only` (quiesced baseline) or `ingest` (concurrent writer).
    pub phase: &'static str,
    /// Concurrent client threads issuing pinned reads.
    pub clients: usize,
    /// Total timed reads across all clients.
    pub ops: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub reads_per_sec: f64,
    /// Lowest / highest watermark any client pinned during the phase.
    pub watermark_lo: u64,
    pub watermark_hi: u64,
    /// Distinct watermarks whose answers were replayed against the
    /// quiesced oracle (each byte-identical, or the run panics).
    pub epochs_verified: usize,
}

/// Everything one client thread brings back from its read loop.
struct ClientLog {
    lat_ns: Vec<u64>,
    /// First observation of each watermark: `(epoch, end_time,
    /// untimed full snapshot)` — the oracle-replay witnesses.
    seen: Vec<(u64, Time, Delta)>,
    watermark_lo: u64,
    watermark_hi: u64,
}

/// The pinned-read loop one client runs: each timed op pins the
/// current watermark and fetches one hot node, alternating between
/// the pinned end time (chases the ingest frontier) and a mid-history
/// time (sealed early span, immutable across watermarks). Runs at
/// least `min_ops` reads, then keeps going until `done` (the writer)
/// or the op cap.
fn client_loop(svc: &TgiService, hot: &[u64], min_ops: u64, done: &AtomicBool) -> ClientLog {
    let mut log = ClientLog {
        lat_ns: Vec::new(),
        seen: Vec::new(),
        watermark_lo: u64::MAX,
        watermark_hi: 0,
    };
    let mut last_epoch = 0u64;
    let mut i = 0usize;
    while (log.lat_ns.len() as u64) < min_ops
        || (!done.load(Ordering::Acquire) && (log.lat_ns.len() as u64) < OPS_CAP)
    {
        let t0 = Instant::now();
        let view = svc.pin();
        let t = if i.is_multiple_of(2) {
            view.end_time()
        } else {
            view.end_time() / 2
        };
        std::hint::black_box(
            view.try_node_at(hot[i % hot.len()], t.max(1))
                .expect("healthy store"),
        );
        log.lat_ns.push(t0.elapsed().as_nanos() as u64);
        let epoch = view.epoch();
        log.watermark_lo = log.watermark_lo.min(epoch);
        log.watermark_hi = log.watermark_hi.max(epoch);
        if epoch != last_epoch {
            assert!(epoch > last_epoch, "pinned watermark went backwards");
            last_epoch = epoch;
            let te = view.end_time();
            let snap = view.try_snapshot(te).expect("pinned read on live service");
            log.seen.push((epoch, te, snap));
        }
        i += 1;
    }
    log
}

/// Run one phase: `clients` reader threads, plus — when `append` is
/// set — a writer replaying the batch cuts. Returns the merged row
/// and every oracle witness the clients collected.
fn run_phase(
    phase: &'static str,
    clients: usize,
    events: &[Event],
    cuts: &[usize],
    hot: &[u64],
    ingest: bool,
) -> (ServeRow, Vec<(u64, Time, Delta)>) {
    let svc = TgiService::try_build(
        paper_default_cfg(),
        StoreConfig::new(4, 1),
        &events[..cuts[0]],
    )
    .expect("healthy build");
    let done = AtomicBool::new(!ingest);
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let svc = &svc;
        let done = &done;
        let readers: Vec<_> = (0..clients)
            .map(|_| s.spawn(move || client_loop(svc, hot, MIN_OPS, done)))
            .collect();
        if ingest {
            s.spawn(move || {
                for w in cuts.windows(2) {
                    svc.try_append_events(&events[w[0]..w[1]])
                        .expect("healthy append");
                }
                done.store(true, Ordering::Release);
            });
        }
        readers
            .into_iter()
            .map(|r| r.join().expect("client panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    if ingest {
        // The writer sealed every batch: the service now holds the
        // whole trace at the final watermark.
        assert_eq!(svc.watermark(), cuts.len() as u64, "one epoch per batch");
        assert_eq!(svc.pin().event_count(), events.len(), "full trace sealed");
    }

    let mut lat: Vec<u64> = Vec::new();
    let mut seen = Vec::new();
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for log in logs {
        lat.extend(log.lat_ns);
        seen.extend(log.seen);
        lo = lo.min(log.watermark_lo);
        hi = hi.max(log.watermark_hi);
    }
    lat.sort_unstable();
    let row = ServeRow {
        phase,
        clients,
        ops: lat.len() as u64,
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
        reads_per_sec: lat.len() as f64 / wall.max(1e-9),
        watermark_lo: lo,
        watermark_hi: hi,
        epochs_verified: 0,
    };
    (row, seen)
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    assert!(!sorted_ns.is_empty());
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Advance `i` to the next strict time boundary (an append must start
/// strictly after the indexed end).
fn align(events: &[Event], mut i: usize) -> usize {
    while i > 0 && i < events.len() && events[i].time <= events[i - 1].time {
        i += 1;
    }
    i
}

/// Cut the trace into an initial build plus [`APPEND_BATCHES`] append
/// batches, every cut on a strict time boundary: `cuts[0]` is the
/// initial prefix, `cuts[k]` the prefix sealed by watermark `1 + k`.
fn batch_cuts(events: &[Event]) -> Vec<usize> {
    let mid = align(events, events.len() / 2);
    let mut cuts = vec![mid];
    for k in 1..APPEND_BATCHES {
        let cut = align(events, mid + (events.len() - mid) * k / APPEND_BATCHES);
        if cut > *cuts.last().unwrap() && cut < events.len() {
            cuts.push(cut);
        }
    }
    cuts.push(events.len());
    cuts
}

/// Replay every `(epoch, end_time, snapshot)` witness against a
/// quiesced from-scratch build over the prefix that epoch denotes;
/// panics on any divergence. Returns how many distinct epochs were
/// verified.
fn verify_against_quiesced_oracle(
    events: &[Event],
    cuts: &[usize],
    oracles: &mut BTreeMap<u64, Tgi>,
    seen: &[(u64, Time, Delta)],
) -> usize {
    let mut verified = std::collections::BTreeSet::new();
    for (epoch, t, snap) in seen {
        let oracle = oracles.entry(*epoch).or_insert_with(|| {
            let prefix = cuts[(*epoch - 1) as usize];
            Tgi::try_build_on(
                paper_default_cfg(),
                Arc::new(SimStore::new(StoreConfig::new(4, 1))),
                &events[..prefix],
            )
            .expect("oracle build")
        });
        assert_eq!(oracle.end_time(), *t, "end time of watermark {epoch}");
        assert_eq!(
            *snap,
            oracle.try_snapshot(*t).expect("oracle read"),
            "pinned snapshot at watermark {epoch} diverged from the quiesced rebuild"
        );
        verified.insert(*epoch);
    }
    verified.len()
}

/// The serving experiment: read-only vs live-ingest pinned-read
/// latency at every client count of the sweep, printed as TSV and
/// returned for JSON emission.
pub fn serve() -> Vec<ServeRow> {
    banner(
        "Serve",
        "pinned-read latency during live ingest (TgiService watermarks)",
        &format!("m=4 r=1 paper cfg, {APPEND_BATCHES} append batches over the trace's second half"),
    );
    let events = dataset1();
    let cuts = batch_cuts(&events);
    let hot = sample_nodes(&events[..cuts[0]], 16, 4);
    assert!(!hot.is_empty(), "hot set must be non-empty");

    header(&[
        "phase", "c", "ops", "p50_us", "p99_us", "kreads_s", "w_lo", "w_hi", "verified",
    ]);
    let mut oracles: BTreeMap<u64, Tgi> = BTreeMap::new();
    let mut rows = Vec::new();
    for c in clients_sweep() {
        for (phase, ingest) in [("read_only", false), ("ingest", true)] {
            let (mut row, seen) = run_phase(phase, c, &events, &cuts, &hot, ingest);
            row.epochs_verified =
                verify_against_quiesced_oracle(&events, &cuts, &mut oracles, &seen);
            println!(
                "{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
                row.phase,
                row.clients,
                row.ops,
                row.p50_us,
                row.p99_us,
                row.reads_per_sec / 1_000.0,
                row.watermark_lo,
                row.watermark_hi,
                row.epochs_verified,
            );
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn batch_cuts_are_strict_time_boundaries() {
        let events = WikiGrowth::sized(5_000).generate();
        let cuts = batch_cuts(&events);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts increase");
        assert_eq!(*cuts.last().unwrap(), events.len());
        for &c in &cuts[..cuts.len() - 1] {
            assert!(
                events[c].time > events[c - 1].time,
                "cut {c} must start a new timestamp"
            );
        }
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let xs: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile_us(&xs, 0.50) - 50.0).abs() < 1.5);
        assert!((percentile_us(&xs, 0.99) - 99.0).abs() < 1.5);
    }

    /// A miniature end-to-end run: clients over a live-ingest service
    /// observe several watermarks and every witness snapshot replays
    /// byte-identically against the quiesced oracle.
    #[test]
    fn ingest_phase_overlaps_readers_and_verifies_against_oracle() {
        let events = WikiGrowth::sized(6_000).generate();
        let cuts = batch_cuts(&events);
        let hot = sample_nodes(&events[..cuts[0]], 8, 2);
        let (row, seen) = run_phase("ingest", 2, &events, &cuts, &hot, true);
        assert!(row.ops >= 2 * MIN_OPS);
        assert!(
            row.watermark_hi > row.watermark_lo,
            "clients must observe the watermark advancing mid-run \
             ({}..{})",
            row.watermark_lo,
            row.watermark_hi
        );
        let mut oracles = BTreeMap::new();
        let verified = verify_against_quiesced_oracle(&events, &cuts, &mut oracles, &seen);
        assert!(verified >= 1, "at least the final watermark is witnessed");
    }
}
