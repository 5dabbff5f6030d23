//! TAF analytics experiments: Figs. 15c and 17.

use std::time::Instant;

use crate::datasets::*;
use crate::harness::*;
use hgs_delta::{Delta, Event, EventKind, TimeRange};
use hgs_graph::algo::{count_label, local_clustering};
use hgs_graph::Graph;
use hgs_store::{parallel_steal, StoreConfig};
use hgs_taf::{SoTS, TgiHandler};

/// Fig. 15c: local-clustering-coefficient computation time on three
/// snapshot sizes for varying worker counts (the paper's Spark
/// cluster sweep; here the worker pool — real speedups up to the core
/// count, flat beyond).
pub fn fig15c() {
    banner(
        "Figure 15c",
        "TAF: max local clustering coefficient vs workers, three graph sizes",
        "compute time only (fetch excluded)",
    );
    let events = dataset1();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
    let end = events.last().unwrap().time;
    header(&["graph_nodes", "workers", "wall_s", "max_lcc"]);
    for frac in [4u64, 2, 1] {
        let t = end / frac;
        // Fetch once (excluded from timing), then sweep workers.
        let handler = TgiHandler::serving(tgi.clone(), 1);
        let son = handler
            .son()
            .timeslice(TimeRange::new(t, t + 1))
            .try_fetch()
            .expect("healthy store");
        let g = son.graph_at(t);
        let n = g.node_count();
        for workers in 1..=5usize {
            let t0 = Instant::now();
            let idx: Vec<u32> = (0..n as u32).collect();
            let lcc = parallel_steal(idx, workers, |i| local_clustering(&g, i));
            let max = lcc.iter().copied().fold(0.0f64, f64::max);
            println!(
                "{n}\t{workers}\t{}\t{max:.4}",
                secs(t0.elapsed().as_secs_f64())
            );
        }
    }
}

/// The label-counting quantity of Fig. 8 / Fig. 17.
fn count_authors(d: &Delta) -> i64 {
    count_label(&Graph::from_delta(d.clone()), "EntityType", "Author") as i64
}

/// Fig. 8(b)'s incremental update function.
fn count_authors_delta(state_before: &Delta, prev: &i64, e: &Event) -> i64 {
    match &e.kind {
        EventKind::SetNodeAttr { id, key, value } if key == "EntityType" => {
            let was = state_before
                .node(*id)
                .and_then(|n| n.attrs.get("EntityType"))
                .and_then(|v| v.as_text())
                == Some("Author");
            let is = value.as_text() == Some("Author");
            prev + (is as i64) - (was as i64)
        }
        EventKind::RemoveNode { id } => {
            let was = state_before
                .node(*id)
                .and_then(|n| n.attrs.get("EntityType"))
                .and_then(|v| v.as_text())
                == Some("Author");
            prev - (was as i64)
        }
        _ => *prev,
    }
}

/// Fig. 17: label counting over 2-hop temporal subgraphs —
/// NodeComputeTemporal (recompute per version) vs NodeComputeDelta
/// (incremental), cumulative time vs version count.
pub fn fig17() {
    banner(
        "Figure 17",
        "NodeComputeTemporal vs NodeComputeDelta: label counting on 2-hop SoTS",
        "2 workers; cumulative compute time (fetch excluded)",
    );
    let events = dataset_labeled();
    let tgi = build_tgi(paper_default_cfg(), StoreConfig::new(4, 1), &events);
    let end = events.last().unwrap().time;
    let handler = TgiHandler::serving(tgi.clone(), 2);
    let range = TimeRange::new(end / 4, end + 1);
    let roots = sample_nodes(&events, 24, 20);
    let sots = handler
        .sots(2)
        .timeslice(range)
        .roots(roots)
        .try_fetch()
        .expect("healthy store");
    // Keep subgraphs with enough activity for a 20-version sweep,
    // relaxing the bar if the (scaled-down) trace is too quiet.
    let mut kept = sots.select(|s| s.change_points().len() >= 20);
    if kept.len() < 4 {
        kept = sots.select(|s| s.change_points().len() >= 5);
    }
    if kept.is_empty() {
        kept = sots;
    }
    let sots = kept;
    println!("# subgraphs: {}", sots.len());
    header(&["version_count", "temporal_s", "delta_s", "speedup"]);
    for versions in [1usize, 2, 5, 10, 15, 20] {
        let truncated: Vec<_> = sots
            .subgraphs()
            .iter()
            .map(|s| s.truncate_changes(versions))
            .collect();
        let swept = SoTS::new(truncated, range, 2);

        let t0 = Instant::now();
        let a = swept.node_compute_temporal(count_authors);
        let temporal = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let b = swept.node_compute_delta(count_authors, count_authors_delta);
        let delta = t1.elapsed().as_secs_f64();

        assert_eq!(a, b, "incremental must equal recompute");
        println!(
            "{versions}\t{}\t{}\t{:.1}x",
            secs(temporal),
            secs(delta),
            temporal / delta.max(1e-9)
        );
    }
}
