//! Fig. 15a: 1-hop neighborhood retrieval under the three partitioning
//! and replication configurations.

use crate::datasets::*;
use crate::harness::*;
use hgs_core::{KhopStrategy, PartitionStrategy, TgiConfig};
use hgs_store::StoreConfig;

/// Fig. 15a: average 1-hop fetch cost over 250 random nodes for
/// Random vs Maxflow (locality) vs Maxflow+Replication.
pub fn fig15a() {
    banner(
        "Figure 15a",
        "1-hop retrieval: random vs locality (maxflow) vs locality+replication",
        "m=4 r=1 c=1 ps=500 ns=1, avg over 250 random nodes",
    );
    let events = dataset1();
    let end = events.last().unwrap().time;
    let t = end * 3 / 4;
    let probes = sample_nodes(&events, 250, 3);
    header(&[
        "strategy",
        "avg_wall_s",
        "avg_modeled_s",
        "avg_requests",
        "avg_kbytes",
        "nodes",
    ]);
    for (name, strategy) in [
        ("random", PartitionStrategy::Random),
        (
            "maxflow",
            PartitionStrategy::Locality {
                replicate_boundary: false,
            },
        ),
        (
            "maxflow+replication",
            PartitionStrategy::Locality {
                replicate_boundary: true,
            },
        ),
    ] {
        // One horizontal partition isolates the micro-partitioning
        // strategy: with ns>1 the sid hash scatters neighborhoods
        // before the partitioner can cluster them.
        let cfg = TgiConfig::default()
            .with_strategy(strategy)
            .with_horizontal(1);
        let tgi = build_tgi(cfg, StoreConfig::new(4, 1), &events).pin();
        let mut wall = 0.0f64;
        let mut modeled = 0.0f64;
        let mut requests = 0u64;
        let mut bytes = 0u64;
        for &id in &probes {
            let ((), rep) = timed(&tgi, 1, || {
                let _ = tgi
                    .try_khop_with(id, t, 1, KhopStrategy::Recursive)
                    .expect("healthy store");
            });
            wall += rep.wall_secs;
            modeled += rep.modeled_secs;
            requests += rep.requests();
            bytes += rep.bytes;
        }
        let n = probes.len() as f64;
        println!(
            "{name}\t{}\t{}\t{:.1}\t{:.1}\t{}",
            secs(wall / n),
            secs(modeled / n),
            requests as f64 / n,
            bytes as f64 / 1e3 / n,
            probes.len()
        );
    }
}
