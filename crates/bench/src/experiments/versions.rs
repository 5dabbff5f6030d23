//! Node-version retrieval experiments: Figs. 14a, 14b, 14c and 16.

use crate::datasets::*;
use crate::harness::*;
use hgs_core::TgiConfig;
use hgs_delta::TimeRange;
use hgs_store::StoreConfig;

/// Bucket sampled nodes by change count so the x-axis matches the
/// paper's "number of change points".
fn version_probes(events: &[hgs_delta::Event]) -> Vec<u64> {
    let mut probes = Vec::new();
    for min in [10usize, 25, 50, 75, 100] {
        let nodes = sample_nodes(events, 4, min);
        probes.extend(nodes);
    }
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// Fig. 14a: node-version retrieval vs change points for different
/// eventlist sizes l.
pub fn fig14a() {
    banner(
        "Figure 14a",
        "node version retrieval vs eventlist size l",
        "m=4 r=1 c=1 ps=500",
    );
    let events = dataset1();
    let full = TimeRange::new(0, events.last().unwrap().time + 1);
    header(&["l", "change_points", "wall_s", "modeled_s", "kbytes"]);
    for l in [2_500usize, 5_000, 10_000] {
        let cfg = TgiConfig::default()
            .with_eventlist_size(l)
            .with_timespan(50_000);
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        for id in version_probes(&events) {
            let (h, rep) = timed(&tgi, 1, || {
                tgi.try_node_history(id, full).expect("healthy store")
            });
            println!(
                "{l}\t{}\t{}\t{}\t{:.1}",
                h.change_count(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs),
                rep.bytes as f64 / 1e3
            );
        }
    }
}

/// Fig. 14b: node-version retrieval speedups from the parallel fetch
/// factor c.
pub fn fig14b() {
    banner(
        "Figure 14b",
        "node version retrieval vs parallel fetch factor c",
        "m=4 r=1 l=500 ps=500",
    );
    let events = dataset1();
    let full = TimeRange::new(0, events.last().unwrap().time + 1);
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events).pin();
    header(&["c", "change_points", "wall_s", "modeled_s"]);
    for c in [1usize, 2, 4] {
        for id in version_probes(&events) {
            let view = tgi.with_clients(c);
            let (h, rep) = timed(&tgi, c, || {
                view.try_node_history(id, full).expect("healthy store")
            });
            println!(
                "{c}\t{}\t{}\t{}",
                h.change_count(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs)
            );
        }
    }
}

/// Fig. 14c: node-version retrieval (≈100 change points) vs
/// micro-partition size ps.
pub fn fig14c() {
    banner(
        "Figure 14c",
        "node version retrieval vs partition size ps",
        "m=4 r=1 c=1 l=500, ~100 change points",
    );
    let events = dataset1();
    let full = TimeRange::new(0, events.last().unwrap().time + 1);
    header(&["ps", "change_points", "wall_s", "modeled_s", "kbytes"]);
    let heavy = sample_nodes(&events, 6, 100);
    for ps in [500usize, 1_000, 2_500, 5_000, 10_000] {
        let cfg = TgiConfig::default().with_partition_size(ps);
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        for &id in &heavy {
            let (h, rep) = timed(&tgi, 1, || {
                tgi.try_node_history(id, full).expect("healthy store")
            });
            println!(
                "{ps}\t{}\t{}\t{}\t{:.1}",
                h.change_count(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs),
                rep.bytes as f64 / 1e3
            );
        }
    }
}

/// Fig. 16: node-version retrieval on the Friendster analog (m=6,
/// c ∈ {1, 2}).
pub fn fig16() {
    banner(
        "Figure 16",
        "node version retrieval, Friendster-like dataset 4",
        "m=6 r=1 ps=500",
    );
    let events = dataset4();
    let full = TimeRange::new(0, events.last().unwrap().time + 1);
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(6, 1), &events).pin();
    header(&["c", "change_points", "wall_s", "modeled_s"]);
    for c in [1usize, 2] {
        for id in version_probes(&events) {
            let view = tgi.with_clients(c);
            let (h, rep) = timed(&tgi, c, || {
                view.try_node_history(id, full).expect("healthy store")
            });
            println!(
                "{c}\t{}\t{}\t{}",
                h.change_count(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs)
            );
        }
    }
}
