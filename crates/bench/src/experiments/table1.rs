//! Table 1: access costs and storage across the index spectrum —
//! the analytic formulas evaluated on a measured workload profile,
//! next to *measured* store costs from real builds of every index.

use crate::harness::*;
use hgs_baselines::{
    CopyIndex, CopyLogIndex, DeltaGraphIndex, HistoricalIndex, LogIndex, NodeCentricIndex,
};
use hgs_core::costs::{access_cost, storage_size, CostProfile, IndexKind, QueryKind};
use hgs_core::TgiConfig;
use hgs_datagen::WikiGrowth;
use hgs_delta::{Delta, TimeRange};
use hgs_store::{SimStore, StoreConfig};

/// Table 1, part 1: the paper's closed forms instantiated with a
/// concrete workload profile; part 2: measured requests/bytes on real
/// builds of all six indexes over the same trace.
pub fn table1() {
    banner(
        "Table 1",
        "access costs for retrieval primitives across indexes",
        "analytic + measured",
    );

    // -- analytic ------------------------------------------------------
    let events = WikiGrowth::sized(10_000).generate();
    let end_state = Delta::snapshot_by_replay(&events, u64::MAX);
    let s = end_state.cardinality() as f64;
    let profile = CostProfile {
        g: events.len() as f64,
        s,
        e: 500.0,
        h: (10_000f64 / 500.0).log2().ceil(),
        v: 100.0,
        r: 20.0,
        p: (s / 500.0).ceil(),
        c: 120.0,
    };
    println!(
        "# profile: |G|={} |S|={} |E|={} h={} |V|={} |R|={} p={} |C|={}",
        profile.g, profile.s, profile.e, profile.h, profile.v, profile.r, profile.p, profile.c
    );
    println!("# analytic: cells are (sum of delta cardinalities, number of deltas)");
    let mut head = vec!["index".to_owned(), "storage".to_owned()];
    head.extend(QueryKind::ALL.iter().map(|q| q.name().to_owned()));
    println!("{}", head.join("\t"));
    for idx in IndexKind::ALL {
        let mut row = vec![
            idx.name().to_owned(),
            format!("{:.2e}", storage_size(idx, &profile)),
        ];
        for q in QueryKind::ALL {
            let (sz, n) = access_cost(idx, q, &profile);
            row.push(format!("({sz:.2e},{n:.0})"));
        }
        println!("{}", row.join("\t"));
    }

    // -- measured ------------------------------------------------------
    println!(
        "\n# measured on a {}-event trace (requests, KB moved per query; storage MB)",
        events.len()
    );
    let end = events.last().unwrap().time;
    let t = end / 2;
    let range = TimeRange::new(end / 4, (3 * end) / 4);
    let probe = sample_nodes(&events, 1, 50)[0];

    let log = LogIndex::build(StoreConfig::new(2, 1), &events, 500);
    let copy = CopyIndex::build(StoreConfig::new(2, 1), &events);
    let copylog = CopyLogIndex::build(StoreConfig::new(2, 1), &events, 500);
    let nc = NodeCentricIndex::build(StoreConfig::new(2, 1), &events);
    let dg = DeltaGraphIndex::build(StoreConfig::new(2, 1), &events, 500, 2);
    let tgi = build_tgi(
        TgiConfig {
            events_per_timespan: 5_000,
            ..TgiConfig::default()
        },
        StoreConfig::new(2, 1),
        &events,
    )
    .pin();

    let indexes: Vec<&dyn HistoricalIndex> = vec![&log, &copy, &copylog, &nc, &dg, &*tgi];
    header(&[
        "index",
        "storage_mb",
        "snapshot(req,KB)",
        "vertex(req,KB)",
        "versions(req,KB)",
        "1hop(req,KB)",
    ]);
    for idx in indexes {
        let cell = |f: &dyn Fn()| -> String {
            let before = idx.store().stats_snapshot();
            f();
            let d = SimStore::stats_since(&idx.store().stats_snapshot(), &before);
            let req: u64 = d.iter().map(|m| m.gets + m.scans).sum();
            let kb: f64 = d.iter().map(|m| m.bytes_read).sum::<u64>() as f64 / 1e3;
            format!("({req},{kb:.0})")
        };
        let snapshot = cell(&|| {
            let _ = idx.try_snapshot(t).expect("healthy store");
        });
        let vertex = cell(&|| {
            let _ = idx.try_node_at(probe, t).expect("healthy store");
        });
        let versions = cell(&|| {
            let _ = idx.try_node_versions(probe, range).expect("healthy store");
        });
        let onehop = cell(&|| {
            let _ = idx.try_one_hop(probe, t).expect("healthy store");
        });
        println!(
            "{}\t{:.2}\t{}\t{}\t{}\t{}",
            idx.name(),
            idx.storage_bytes() as f64 / 1e6,
            snapshot,
            vertex,
            versions,
            onehop
        );
    }
}
