//! Citation-network analysis — the paper's motivating queries:
//! "How many citations did I have in 2012?", degree evolution of a
//! vertex, the most central node last year, and comparing PageRank
//! across two timepoints.
//!
//! Run with: `cargo run --release --example citation_analysis`

use hgs::datagen::WikiGrowth;
use hgs::delta::TimeRange;
use hgs::graph::algo;
use hgs::store::StoreConfig;
use hgs::taf::TgiHandler;
use hgs::tgi::{TgiConfig, TgiService};

fn main() {
    // A directed citation network: new papers cite existing ones with
    // preferential attachment.
    let events = WikiGrowth {
        events: 40_000,
        attach_edges: 4,
        directed: true,
        ..WikiGrowth::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let service = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .expect("healthy store");
    let tgi = service.pin();

    // "How many citations did I have at time X?" — a static-vertex
    // fetch at three points in the past.
    let hub = {
        // the most-cited paper at the end of history
        let snap = tgi.try_snapshot(end).expect("healthy store");
        snap.iter()
            .max_by_key(|n| n.degree())
            .map(|n| n.id)
            .unwrap()
    };
    println!("most-cited paper: node {hub}");
    for frac in [4u64, 2, 1] {
        let t = end / frac;
        let cites = tgi
            .try_node_at(hub, t)
            .expect("healthy store")
            .map(|n| {
                n.edges
                    .iter()
                    .filter(|e| e.dir == hgs::delta::EdgeDir::In)
                    .count()
            })
            .unwrap_or(0);
        println!("  citations at t={t:>8}: {cites}");
    }

    // Degree evolution of that node (Fig. 1's "vertex history /
    // degree evolution" cell) via its version chain.
    let history = tgi
        .try_node_history(hub, TimeRange::new(0, end + 1))
        .expect("healthy store");
    let versions = history.versions();
    println!("degree evolution ({} versions, sampled):", versions.len());
    for (t, state) in versions.iter().step_by(versions.len().div_ceil(8).max(1)) {
        println!(
            "  t={t:>8}  degree={}",
            state.as_ref().map(|s| s.degree()).unwrap_or(0)
        );
    }

    // "The most central node last year": betweenness on the recent
    // 2-hop neighborhood of the hub (exact Brandes on the subgraph).
    let neighborhood = tgi.try_khop(hub, end, 2).expect("healthy store");
    let g = hgs::graph::Graph::from_delta(neighborhood);
    let bc = algo::betweenness(&g);
    let (best, score) = bc
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, &v)| (g.id(i as u32), v))
        .unwrap();
    println!("most central node in the hub's 2-hop neighborhood: {best} (score {score:.1})");

    // PageRank drift: who rose fastest over the second half of
    // history? (Compare operator over two timeslices.)
    let handler = TgiHandler::serving(service, 2);
    let son = handler
        .son()
        .timeslice(TimeRange::new(0, end + 1))
        .try_fetch()
        .expect("healthy store");
    let g_mid = son.graph_at(end / 2);
    let g_end = son.graph_at(end);
    let pr_mid = algo::pagerank(&g_mid, 0.85, 30);
    let pr_end = algo::pagerank(&g_end, 0.85, 30);
    let mut risers: Vec<(u64, f64)> = g_end
        .ids()
        .iter()
        .map(|&id| {
            let before = g_mid.idx(id).map(|i| pr_mid[i as usize]).unwrap_or(0.0);
            let after = g_end.idx(id).map(|i| pr_end[i as usize]).unwrap_or(0.0);
            (id, after - before)
        })
        .collect();
    risers.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("fastest-rising papers by PageRank (second half of history):");
    for (id, gain) in risers.iter().take(5) {
        println!("  node {id}: +{gain:.6}");
    }
}
