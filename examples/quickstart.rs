//! Quickstart: build a Temporal Graph Index over a synthetic history,
//! run the paper's retrieval primitives, and do a first piece of
//! temporal analytics with TAF.
//!
//! Run with: `cargo run --release --example quickstart`

use hgs::datagen::WikiGrowth;
use hgs::delta::TimeRange;
use hgs::graph::algo;
use hgs::store::StoreConfig;
use hgs::taf::TgiHandler;
use hgs::tgi::{TgiConfig, TgiService};

fn main() {
    // 1. A historical trace: 30k events of citation-network-like
    //    growth (every generator in hgs-datagen yields a plain
    //    chronological Vec<Event>; bring your own history if you have
    //    one).
    let events = WikiGrowth::sized(30_000).generate();
    let end = events.last().unwrap().time;
    println!("history: {} events over [0, {end}]", events.len());

    // 2. Index it. TgiConfig's knobs are the paper's: eventlist size
    //    l, micro-partition size ps, tree arity, horizontal partitions
    //    ns, timespan length. The store is a simulated 4-machine
    //    cluster. The service owns the index; every read goes through
    //    a view pinned at its latest watermark.
    let service = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .expect("healthy store");
    let tgi = service.pin();
    println!(
        "indexed: {} timespans, {:.2} MB stored",
        tgi.span_count(),
        tgi.storage_bytes() as f64 / 1e6
    );

    // 3. Snapshot retrieval (Algorithm 1): the whole graph as of any
    //    past timepoint.
    let then = end / 2;
    let snapshot = tgi.try_snapshot(then).expect("healthy store");
    println!(
        "snapshot at t={then}: {} nodes, {} edges",
        snapshot.cardinality(),
        snapshot.edge_count()
    );

    // 4. Node history (Algorithm 2): every version of one node.
    let hub = *snapshot.sorted_ids().first().unwrap();
    let history = tgi
        .try_node_history(hub, TimeRange::new(0, end + 1))
        .expect("healthy store");
    println!(
        "node {hub}: {} changes; final degree {}",
        history.change_count(),
        history
            .versions()
            .last()
            .and_then(|(_, s)| s.as_ref().map(|s| s.degree()))
            .unwrap_or(0)
    );

    // 5. k-hop neighborhood as of a past time. The fetch strategy
    //    (Algorithm 3 vs 4) is picked automatically from the index's
    //    cost model; `try_khop_with` forces one explicitly.
    let neighborhood = tgi.try_khop(hub, then, 2).expect("healthy store");
    println!(
        "2-hop neighborhood of {hub} at t={then}: {} nodes",
        neighborhood.cardinality()
    );

    // 6. TAF: fetch a Set of Temporal Nodes and watch graph density
    //    evolve over ten sample points (Fig. 7c of the paper).
    let handler = TgiHandler::serving(service, 2);
    let son = handler
        .son()
        .timeslice(TimeRange::new(0, end + 1))
        .try_fetch()
        .expect("healthy store");
    let evolution = son.evolution(algo::density, 10);
    println!("density evolution:");
    for (t, d) in &evolution {
        println!("  t={t:>8}  density={d:.6}");
    }
    let (peak_t, peak_v) =
        hgs::taf::TempAggregate::t_max(&evolution[..]).expect("non-empty series");
    println!("peak density {peak_v:.6} at t={peak_t}");
}
