//! Snapshot-retrieval experiments: Figs. 11, 12, 13a, 13b, 13c, 15b.

use crate::datasets::*;
use crate::harness::*;
use hgs_core::TgiConfig;
use hgs_store::StoreConfig;

/// Fig. 11: snapshot retrieval time vs snapshot size for varying
/// parallel fetch factor c (m=4, r=1, ps=500).
pub fn fig11() {
    banner(
        "Figure 11",
        "snapshot retrieval vs parallel fetch factor c",
        "m=4 r=1 ps=500 l=500",
    );
    let events = dataset1();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events).pin();
    header(&[
        "snapshot_nodes",
        "c",
        "wall_s",
        "modeled_s",
        "requests",
        "mbytes",
    ]);
    for t in growth_times(&events, 5) {
        for c in [1usize, 2, 4, 8, 16, 32] {
            let view = tgi.with_clients(c);
            let (snap, rep) = timed(&tgi, c, || view.try_snapshot(t).expect("healthy store"));
            println!(
                "{}\t{}\t{}\t{}\t{}\t{:.2}",
                snap.cardinality(),
                c,
                secs(rep.wall_secs),
                secs(rep.modeled_secs),
                rep.requests(),
                rep.bytes as f64 / 1e6
            );
        }
    }
}

/// Fig. 12: snapshot retrieval across (m, r) configurations.
pub fn fig12() {
    banner(
        "Figure 12",
        "snapshot retrieval across m (machines) and r (replication)",
        "ps=500",
    );
    let events = dataset1();
    header(&["m", "r", "snapshot_nodes", "c", "wall_s", "modeled_s"]);
    for (m, r, cs) in [
        (1usize, 1usize, vec![1usize, 2, 4, 8]),
        (2, 1, vec![1, 2, 4, 8]),
        (2, 2, vec![1, 4, 8, 16]),
    ] {
        let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(m, r), &events).pin();
        for t in growth_times(&events, 4) {
            for &c in &cs {
                let view = tgi.with_clients(c);
                let (snap, rep) = timed(&tgi, c, || view.try_snapshot(t).expect("healthy store"));
                println!(
                    "{m}\t{r}\t{}\t{c}\t{}\t{}",
                    snap.cardinality(),
                    secs(rep.wall_secs),
                    secs(rep.modeled_secs)
                );
            }
        }
    }
}

/// Fig. 13a: compressed vs uncompressed delta storage (m=2, c=8, r=1).
pub fn fig13a() {
    banner(
        "Figure 13a",
        "snapshot retrieval, compressed vs uncompressed deltas",
        "m=2 c=8 r=1",
    );
    let events = dataset1();
    header(&["mode", "snapshot_nodes", "wall_s", "modeled_s", "stored_mb"]);
    for compress in [false, true] {
        let store_cfg = StoreConfig::new(2, 1).with_compression(compress);
        let tgi = build_tgi(paper_default_cfg(), store_cfg, &events).pin();
        let stored_mb = tgi.storage_bytes() as f64 / 1e6;
        for t in growth_times(&events, 4) {
            let view = tgi.with_clients(8);
            let (snap, rep) = timed(&tgi, 8, || view.try_snapshot(t).expect("healthy store"));
            println!(
                "{}\t{}\t{}\t{}\t{:.2}",
                if compress {
                    "compressed"
                } else {
                    "uncompressed"
                },
                snap.cardinality(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs),
                stored_mb
            );
        }
    }
}

/// Fig. 13b: effect of micro-delta partition size ps (m=4, c=8).
pub fn fig13b() {
    banner(
        "Figure 13b",
        "snapshot retrieval vs partition size ps",
        "m=4 c=8",
    );
    let events = dataset1();
    header(&["ps", "snapshot_nodes", "wall_s", "modeled_s", "requests"]);
    for ps in [1000usize, 2000, 4000] {
        let cfg = TgiConfig::default().with_partition_size(ps);
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        for t in growth_times(&events, 4) {
            let view = tgi.with_clients(8);
            let (snap, rep) = timed(&tgi, 8, || view.try_snapshot(t).expect("healthy store"));
            println!(
                "{ps}\t{}\t{}\t{}\t{}",
                snap.cardinality(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs),
                rep.requests()
            );
        }
    }
}

/// Fig. 13c: snapshot retrieval on the Friendster analog
/// (m=6, r=1, c=1, ps=500).
pub fn fig13c() {
    banner(
        "Figure 13c",
        "snapshot retrieval, Friendster-like dataset 4",
        "m=6 r=1 c=1 ps=500",
    );
    let events = dataset4();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(6, 1), &events).pin();
    // Friendster's nodes all exist from t=0 (the paper added synthetic
    // dates to a static snapshot): growth shows in the edge count.
    header(&["snapshot_nodes", "snapshot_edges", "wall_s", "modeled_s"]);
    for t in growth_times(&events, 6) {
        let view = tgi.with_clients(1);
        let (snap, rep) = timed(&tgi, 1, || view.try_snapshot(t).expect("healthy store"));
        println!(
            "{}\t{}\t{}\t{}",
            snap.cardinality(),
            snap.edge_count(),
            secs(rep.wall_secs),
            secs(rep.modeled_secs)
        );
    }
}

/// Fig. 15b: snapshot retrieval for growing histories (Datasets 1/2/3
/// share the same base graph; extra churn should barely change
/// retrieval of the same-size snapshots).
pub fn fig15b() {
    banner(
        "Figure 15b",
        "snapshot retrieval for growing dataset sizes",
        "m=4 r=1 c=4 ps=500",
    );
    header(&["dataset", "events", "snapshot_nodes", "wall_s", "modeled_s"]);
    for (name, events) in [
        ("dataset1", dataset1()),
        ("dataset2", dataset2()),
        ("dataset3", dataset3()),
    ] {
        let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events).pin();
        // Query at the *base* trace's growth points so snapshot sizes
        // align across datasets, as in the paper.
        let base_end = dataset1().last().unwrap().time;
        for i in 1..=4u64 {
            let t = base_end * i / 4;
            let view = tgi.with_clients(4);
            let (snap, rep) = timed(&tgi, 4, || view.try_snapshot(t).expect("healthy store"));
            println!(
                "{name}\t{}\t{}\t{}\t{}",
                events.len(),
                snap.cardinality(),
                secs(rep.wall_secs),
                secs(rep.modeled_secs)
            );
        }
    }
}
