//! Community evolution analysis — the paper's Fig. 7(b) scenario:
//! "compare the average membership of two communities over a year" —
//! plus community density evolution and membership-churn detection.
//!
//! Run with: `cargo run --release --example community_evolution`

use hgs::datagen::{community_name, CommunityGraph};
use hgs::delta::TimeRange;
use hgs::graph::algo;
use hgs::store::StoreConfig;
use hgs::taf::{SoN, TgiHandler};
use hgs::tgi::{TgiConfig, TgiService};

fn main() {
    // A social network with four planted communities whose membership
    // churns over time.
    let trace = CommunityGraph {
        nodes: 1_500,
        communities: 4,
        edge_events: 12_000,
        intra_prob: 0.9,
        switches: 400,
        seed: 42,
    };
    let events = trace.generate();
    let end = events.last().unwrap().time;

    let service = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .expect("healthy store");
    let handler = TgiHandler::serving(service, 2);

    // Fig. 7b: Timeslice to the analysis window, Filter down to the
    // community attribute, Select each community, Compare.
    let window = TimeRange::new(end / 2, end + 1);
    let son = handler
        .son()
        .timeslice(window)
        .try_fetch()
        .expect("healthy store")
        .filter_attrs(&["community"]);
    let son_a = son.select_attr("community", "A");
    let son_b = son.select_attr("community", "B");
    println!(
        "community A: {} members; community B: {} members",
        son_a.len(),
        son_b.len()
    );

    // Compare average connectivity (degree at window end) A vs B.
    let diff = SoN::compare(&son_a, &son_b, |n| {
        n.version_at(end).map(|s| s.degree() as f64).unwrap_or(0.0)
    });
    let avg_gap: f64 = diff.iter().map(|(_, d)| d).sum::<f64>() / diff.len().max(1) as f64;
    println!("average degree gap (A - B): {avg_gap:.3}");

    // Density evolution of each community subgraph (the "visualize the
    // evolution of this community" query of Fig. 1).
    for c in 0..2 {
        let name = community_name(c);
        let members = handler
            .son()
            .timeslice(window)
            .try_fetch()
            .expect("healthy store")
            .select_attr("community", &name);
        let series = members.evolution(algo::density, 6);
        println!("community {name} density evolution:");
        for (t, d) in &series {
            println!("  t={t:>8}  density={d:.6}");
        }
    }

    // Membership churn: who switched communities inside the window?
    let full = handler
        .son()
        .timeslice(window)
        .try_fetch()
        .expect("healthy store");
    let switchers = full.select(|n| {
        let first = n.initial().and_then(|s| {
            s.attrs
                .get("community")
                .and_then(|v| v.as_text().map(String::from))
        });
        let last = n.version_at(end).and_then(|s| {
            s.attrs
                .get("community")
                .and_then(|v| v.as_text().map(String::from))
        });
        first.is_some() && last.is_some() && first != last
    });
    println!("{} nodes changed community in the window", switchers.len());
    for n in switchers.nodes().iter().take(5) {
        let from = n
            .initial()
            .and_then(|s| {
                s.attrs
                    .get("community")
                    .and_then(|v| v.as_text().map(String::from))
            })
            .unwrap_or_default();
        let to = n
            .version_at(end)
            .and_then(|s| {
                s.attrs
                    .get("community")
                    .and_then(|v| v.as_text().map(String::from))
            })
            .unwrap_or_default();
        println!("  node {} moved {from} -> {to}", n.id());
    }
}
