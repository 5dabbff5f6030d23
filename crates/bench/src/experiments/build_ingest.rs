//! Build/ingest benchmark: the batched, parallel write path vs the
//! seed row-at-a-time sequential construction (§4.4 *Construction and
//! Update*).
//!
//! The trace is split ~80/20 into a bulk build and a streaming append
//! (the paper's "create an independent TGI with the new events and
//! merge"). Three write paths are compared on identical events:
//!
//! * **seed** — fused sequential encode re-partitioning the state at
//!   every checkpoint, one store `put` per encoded row
//!   (`write_batch_rows = 0`), the pre-batching reference;
//! * **batched** — at `c = 1` the fused pass with per-`sid` states kept
//!   current chunk by chunk, from `c = 2` per-`sid` span encoding on
//!   the work-stealing queue (`HGS_CLIENTS` sweep, default `1,2,4`);
//!   rows buffered and flushed as one `put_batch` round trip per
//!   machine;
//! * **default** — what `Tgi::try_build_on` does with no width given:
//!   the batched path at the host's encode width
//!   (`min(available_parallelism, ns)`), reads left at one client.
//!
//! The `batched_replicate` (`c = 1`) / `default_replicate` pair repeats
//! the last two under `Locality { replicate_boundary: true }`, where
//! per-`sid` items must each replay the full state — on the first
//! 30 % of the trace, three rounds (aux rows make the full trace cost
//! ~40× the other rows).
//!
//! Every batched variant's final store is asserted **byte-identical**
//! to the seed's (row-for-row table/key/value equality per machine) —
//! the equivalence the write path guarantees. Reported per variant:
//! build and append wall seconds (median of nine rounds, each round
//! running every variant once so host noise lands on all rows alike),
//! per-row put count, write-batch round trips, and rows per batch. The
//! CI smoke gate requires batched round trips ≤ 10% of the put count
//! and batched `c=1` no slower than seed, and prints the default
//! width's figures beside them.

use std::sync::Arc;

use hgs_core::{PartitionStrategy, Tgi, TgiConfig};
use hgs_delta::Event;
use hgs_store::{SimStore, StoreConfig};

use crate::datasets::*;
use crate::harness::*;

/// One write-path variant's measurements.
#[derive(Debug, Clone, Copy)]
pub struct BuildRow {
    /// Build parallelism (work-stealing clients for span encoding);
    /// on the `default*` rows, the host's encode width.
    pub clients: usize,
    /// `seed`, `batched`, `default`, or the `*_replicate` pair.
    pub path: &'static str,
    /// Bulk-build wall seconds (median of three fresh builds).
    pub build_secs: f64,
    /// Streaming-append wall seconds for the remaining ~20%.
    pub append_secs: f64,
    /// Rows written (one logical put per row per replica).
    pub puts: u64,
    /// Batched write round trips across machines (0 on the seed path).
    pub write_batches: u64,
}

impl BuildRow {
    /// Average rows shipped per batched round trip.
    pub fn rows_per_batch(&self) -> f64 {
        if self.write_batches == 0 {
            return 0.0;
        }
        self.puts as f64 / self.write_batches as f64
    }
}

/// Split a trace at a timestamp-group boundary near `frac` of its
/// length (appends may not start before the index's end of history).
pub fn split_for_ingest(events: &[Event], frac: f64) -> usize {
    let mut split = ((events.len() as f64) * frac) as usize;
    while split > 0 && split < events.len() && events[split].time <= events[split - 1].time {
        split += 1;
    }
    split.min(events.len())
}

/// Run one full build + append on a fresh cluster, returning the
/// handle's store for content checks.
fn run_once(
    cfg: TgiConfig,
    store_cfg: StoreConfig,
    build_events: &[Event],
    append_events: &[Event],
    c: Option<usize>,
) -> (f64, f64, Arc<SimStore>) {
    let store = Arc::new(SimStore::new(store_cfg));
    let t0 = std::time::Instant::now();
    let mut tgi = match c {
        Some(c) => Tgi::try_build_on_c(cfg, store.clone(), build_events, c),
        None => Tgi::try_build_on(cfg, store.clone(), build_events),
    }
    .expect("healthy build");
    let build_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    tgi.try_append_events(append_events)
        .expect("healthy append");
    let append_secs = t1.elapsed().as_secs_f64();
    (build_secs, append_secs, store)
}

/// One write-path variant: its `path` label and width (`None` builds at
/// the default encode width; the `seed` path writes row-at-a-time).
type Variant = (&'static str, Option<usize>);

/// Measure a group of variants over `reps` rounds of fresh clusters,
/// one run of every variant per round so a slow stretch of the host
/// lands on all of them alike; timings are the median over the rounds.
/// Store stats are bracketed over each variant's last run, whose store
/// is returned for the equality assertions.
fn measure_variants(
    cfg: TgiConfig,
    store_cfg: StoreConfig,
    build_events: &[Event],
    append_events: &[Event],
    variants: &[Variant],
    reps: usize,
) -> Vec<(BuildRow, Arc<SimStore>)> {
    let mut builds = vec![Vec::with_capacity(reps); variants.len()];
    let mut appends = vec![Vec::with_capacity(reps); variants.len()];
    let mut stores = vec![None; variants.len()];
    for _ in 0..reps {
        for (i, &(path, c)) in variants.iter().enumerate() {
            let cfg = if path == "seed" {
                cfg.with_write_batch_rows(0)
            } else {
                cfg
            };
            let (b, a, store) = run_once(cfg, store_cfg, build_events, append_events, c);
            builds[i].push(b);
            appends[i].push(a);
            stores[i] = Some(store);
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let host_width = hgs_core::build::host_parallelism().min(cfg.horizontal_partitions as usize);
    variants
        .iter()
        .enumerate()
        .map(|(i, &(path, c))| {
            let store = stores[i].take().expect("at least one round");
            let stats = store.stats_snapshot();
            let row = BuildRow {
                clients: c.unwrap_or(host_width),
                path,
                build_secs: median(&mut builds[i]),
                append_secs: median(&mut appends[i]),
                puts: stats.iter().map(|m| m.puts).sum(),
                write_batches: stats.iter().map(|m| m.put_batches).sum(),
            };
            (row, store)
        })
        .collect()
}

/// The build/ingest experiment over dataset 1, printed as TSV and
/// returned for JSON emission: the seed reference row first, then the
/// batched clients sweep and the default width.
pub fn build_ingest() -> Vec<BuildRow> {
    banner(
        "BuildIngest",
        "batched parallel TGI construction + streaming append vs seed sequential",
        "m=4 r=1 ps=500 l=500, 80/20 build/append, c from HGS_CLIENTS (default 1,2,4)",
    );
    let events = dataset1();
    let split = split_for_ingest(&events, 0.8);
    let (build_events, append_events) = events.split_at(split);
    let cfg = paper_default_cfg();
    let store_cfg = StoreConfig::new(4, 1);

    header(&[
        "path",
        "c",
        "build_s",
        "append_s",
        "puts",
        "write_batches",
        "rows_per_batch",
    ]);
    let mut rows = Vec::new();
    let mut push = |row: BuildRow| {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}",
            row.path,
            row.clients,
            secs(row.build_secs),
            secs(row.append_secs),
            row.puts,
            row.write_batches,
            row.rows_per_batch(),
        );
        rows.push(row);
    };

    let mut variants: Vec<Variant> = vec![("seed", Some(1))];
    variants.extend(clients_sweep().into_iter().map(|c| ("batched", Some(c))));
    variants.push(("default", None));
    let mut measured =
        measure_variants(cfg, store_cfg, build_events, append_events, &variants, 9).into_iter();
    let (seed_row, seed_store) = measured.next().expect("seed row");
    let reference = seed_store.content_rows();
    push(seed_row);
    for (row, store) in measured {
        let (path, c) = (row.path, row.clients);
        assert_eq!(
            store.content_rows(),
            reference,
            "{path} build+ingest (c={c}) must be byte-identical to the seed sequential store"
        );
        assert!(
            row.write_batches > 0 && row.write_batches < row.puts,
            "{path} path (c={c}) must group writes: {} batches for {} puts",
            row.write_batches,
            row.puts
        );
        push(row);
    }

    // Aux boundary replication, explicit width 1 vs the default width,
    // on the first 30 % of the trace: aux rows make the full trace cost
    // ~40× the rows above.
    let replicate = cfg.with_strategy(PartitionStrategy::Locality {
        replicate_boundary: true,
    });
    let head = &events[..split_for_ingest(&events, 0.3)];
    let (build_events, append_events) = head.split_at(split_for_ingest(head, 0.8));
    let pair = [("batched_replicate", Some(1)), ("default_replicate", None)];
    let measured = measure_variants(replicate, store_cfg, build_events, append_events, &pair, 3);
    assert_eq!(
        measured[1].1.content_rows(),
        measured[0].1.content_rows(),
        "default-width replicate build+ingest must be byte-identical to width 1"
    );
    for (row, _) in measured {
        push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_datagen::WikiGrowth;

    #[test]
    fn split_snaps_to_timestamp_boundary() {
        let ev = WikiGrowth::sized(2_000).generate();
        let split = split_for_ingest(&ev, 0.8);
        assert!(split > 0 && split <= ev.len());
        if split < ev.len() {
            assert!(
                ev[split].time > ev[split - 1].time,
                "split must not divide a timestamp group"
            );
        }
    }

    /// Small-scale end-to-end: batched variants byte-match the seed
    /// store and issue far fewer write round trips than rows.
    #[test]
    fn batched_variants_match_seed_and_group_writes() {
        let events = WikiGrowth::sized(4_000).generate();
        let split = split_for_ingest(&events, 0.8);
        let (build_events, append_events) = events.split_at(split);
        let cfg = paper_default_cfg();
        let store_cfg = StoreConfig::new(4, 1);
        let variants = [
            ("seed", Some(1)),
            ("batched", Some(1)),
            ("batched", Some(2)),
            ("default", None),
        ];
        let mut measured =
            measure_variants(cfg, store_cfg, build_events, append_events, &variants, 2).into_iter();
        let (seed_row, seed_store) = measured.next().expect("seed row");
        assert_eq!(seed_row.write_batches, 0, "seed path writes row-at-a-time");
        let reference = seed_store.content_rows();
        for (row, store) in measured {
            let c = row.clients;
            assert_eq!(store.content_rows(), reference, "c={c}");
            assert_eq!(row.puts, seed_row.puts, "same rows, same put count");
            assert!(
                row.write_batches * 10 <= row.puts,
                "c={c}: {} batches for {} puts",
                row.write_batches,
                row.puts
            );
        }
    }
}
