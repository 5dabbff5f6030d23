//! Epidemic contact tracing over an interaction history — the
//! "geospatial proximity of infected livestock" / epidemiology use
//! case of the paper's introduction, exercising neighborhood-version
//! retrieval (Algorithm 5) and temporal reachability.
//!
//! Run with: `cargo run --release --example contact_tracing`

use hgs::datagen::{augment_with_churn, WikiGrowth};
use hgs::delta::{FxHashSet, NodeId, Time, TimeRange};
use hgs::store::StoreConfig;
use hgs::tgi::{TgiConfig, TgiService};

fn main() {
    // An interaction network where contacts appear and disappear over
    // time (churn matters: an edge that existed only briefly is still
    // an exposure).
    let base = WikiGrowth::sized(20_000).generate();
    let events = augment_with_churn(&base, 15_000, 0.45, 7);
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .expect("healthy store")
        .pin();

    let patient_zero: NodeId = 0;
    let infection_time = end / 2;
    let window = TimeRange::new(infection_time, end + 1);

    // Direct exposures: everyone who was a 1-hop neighbor of patient
    // zero at any time after infection — exactly Algorithm 5's
    // neighborhood history.
    let nh = tgi
        .try_one_hop_history(patient_zero, window)
        .expect("healthy store");
    println!(
        "patient zero {patient_zero}: {} distinct contacts after t={infection_time}",
        nh.neighbors.len()
    );
    println!(
        "neighborhood changed at {} timepoints",
        nh.change_times().len()
    );

    // Temporal BFS: infection can only travel forward in time along
    // edges that exist at (or appear after) the carrier's own
    // exposure time.
    let mut exposed_at: hgs::delta::FxHashMap<NodeId, Time> = Default::default();
    exposed_at.insert(patient_zero, infection_time);
    let mut frontier = vec![patient_zero];
    let mut generations = 0usize;
    while !frontier.is_empty() && generations < 3 {
        let mut next = Vec::new();
        for carrier in frontier.drain(..) {
            let t0 = exposed_at[&carrier];
            let h = tgi
                .try_one_hop_history(carrier, TimeRange::new(t0, end + 1))
                .expect("healthy store");
            // A contact is exposed at the first time it is connected
            // to the carrier within the window.
            for contact in &h.neighbors {
                let first_contact: Option<Time> = {
                    let initially_connected = h
                        .center
                        .initial
                        .as_ref()
                        .is_some_and(|s| s.has_neighbor(contact.id));
                    if initially_connected {
                        Some(t0)
                    } else {
                        h.center
                            .events
                            .iter()
                            .find(|e| {
                                let (a, b) = e.kind.touched();
                                matches!(e.kind, hgs::delta::EventKind::AddEdge { .. })
                                    && (a == contact.id || b == Some(contact.id))
                            })
                            .map(|e| e.time)
                    }
                };
                if let Some(t) = first_contact {
                    exposed_at.entry(contact.id).or_insert_with(|| {
                        next.push(contact.id);
                        t
                    });
                }
            }
        }
        frontier = next;
        generations += 1;
        println!(
            "after generation {generations}: {} exposed",
            exposed_at.len()
        );
    }

    // Compare with the *static* view at the end of history: the
    // temporal trace catches transient contacts a static snapshot
    // misses, and correctly excludes contacts formed before infection.
    let static_view = tgi
        .try_khop(patient_zero, end, generations)
        .expect("healthy store");
    let static_set: FxHashSet<NodeId> = static_view.ids().collect();
    let temporal_set: FxHashSet<NodeId> = exposed_at.keys().copied().collect();
    let only_temporal = temporal_set.difference(&static_set).count();
    let only_static = static_set.difference(&temporal_set).count();
    println!(
        "temporal tracing found {} exposures; static {}-hop snapshot would report {}",
        temporal_set.len(),
        generations,
        static_set.len()
    );
    println!(
        "  {} exposures visible only temporally (transient contacts); {} static neighbors never exposed",
        only_temporal, only_static
    );
}
