//! Ablations over TGI's design choices, beyond the paper's figures:
//! tree arity (the DeltaGraph `k`), timespan length (`ts`), and the
//! number of horizontal partitions (`ns`). These quantify the
//! trade-offs §4.4/§4.5 argue qualitatively.

use crate::datasets::*;
use crate::harness::*;
use hgs_core::TgiConfig;
use hgs_delta::TimeRange;
use hgs_store::StoreConfig;

/// Arity ablation: higher arity flattens the intersection tree —
/// fewer deltas per snapshot path but weaker temporal compression
/// (larger storage).
pub fn ablation_arity() {
    banner(
        "Ablation A1",
        "intersection-tree arity: storage vs snapshot path cost",
        "m=4 r=1 c=4",
    );
    let events = dataset1();
    let end = events.last().unwrap().time;
    header(&[
        "arity",
        "storage_mb",
        "snapshot_wall_s",
        "snapshot_modeled_s",
        "requests",
    ]);
    for arity in [2usize, 4, 8, 64] {
        let cfg = TgiConfig {
            arity,
            ..TgiConfig::default()
        };
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        let view = tgi.with_clients(4);
        let (_, rep) = timed(&tgi, 4, || {
            view.try_snapshot(end / 2).expect("healthy store")
        });
        println!(
            "{arity}\t{:.2}\t{}\t{}\t{}",
            tgi.storage_bytes() as f64 / 1e6,
            secs(rep.wall_secs),
            secs(rep.modeled_secs),
            rep.requests()
        );
    }
}

/// Timespan-length ablation (§4.5's g(T) − f(T) trade-off): longer
/// spans mean fewer partition-map changes (better version queries)
/// but staler locality partitioning.
pub fn ablation_timespan() {
    banner(
        "Ablation A2",
        "timespan length: version-query cost vs partitioning freshness",
        "m=4 r=1 c=1",
    );
    let events = dataset1();
    let full = TimeRange::new(0, events.last().unwrap().time + 1);
    header(&[
        "events_per_timespan",
        "spans",
        "storage_mb",
        "version_wall_s",
        "version_modeled_s",
    ]);
    let probes = sample_nodes(&events, 8, 50);
    for ts in [10_000usize, 20_000, 50_000] {
        let cfg = TgiConfig {
            events_per_timespan: ts,
            ..TgiConfig::default()
        };
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        let mut wall = 0.0;
        let mut modeled = 0.0;
        for &id in &probes {
            let (_, rep) = timed(&tgi, 1, || {
                tgi.try_node_history(id, full).expect("healthy store")
            });
            wall += rep.wall_secs;
            modeled += rep.modeled_secs;
        }
        let n = probes.len() as f64;
        println!(
            "{ts}\t{}\t{:.2}\t{}\t{}",
            tgi.span_count(),
            tgi.storage_bytes() as f64 / 1e6,
            secs(wall / n),
            secs(modeled / n)
        );
    }
}

/// Horizontal-partition ablation: more `sid`s spread fetch work across
/// machines (snapshot parallelism) at slightly higher key overheads.
pub fn ablation_horizontal() {
    banner(
        "Ablation A3",
        "horizontal partitions ns: snapshot parallelism",
        "m=4 r=1 c=8",
    );
    let events = dataset1();
    let end = events.last().unwrap().time;
    header(&[
        "ns",
        "snapshot_wall_s",
        "snapshot_modeled_s",
        "requests",
        "max_machine_share",
    ]);
    for ns in [1u32, 2, 4, 8] {
        let cfg = TgiConfig::default().with_horizontal(ns);
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        let before = tgi.store().stats_snapshot();
        let view = tgi.with_clients(8);
        let (_, rep) = timed(&tgi, 8, || {
            view.try_snapshot(end / 2).expect("healthy store")
        });
        let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let total: u64 = diff.iter().map(|m| m.bytes_read).sum();
        let max: u64 = diff.iter().map(|m| m.bytes_read).max().unwrap_or(0);
        println!(
            "{ns}\t{}\t{}\t{}\t{:.2}",
            secs(rep.wall_secs),
            secs(rep.modeled_secs),
            rep.requests(),
            max as f64 / total.max(1) as f64
        );
    }
}
