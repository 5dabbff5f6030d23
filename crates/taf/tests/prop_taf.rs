//! Property tests for TAF over TGI-backed data: the SoN fetched in
//! bulk must agree with per-node Algorithm-2 fetches; operators must
//! agree with their sequential/naive counterparts; the incremental
//! operator must equal recompute for arbitrary incremental quantities.

use hgs_core::{TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{AttrValue, Delta, Event, EventKind, TimeRange};
use hgs_store::{SimStore, StoreConfig};
use hgs_taf::{SoN, TgiHandler};
use proptest::prelude::*;

fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    let kind = prop_oneof![
        3 => (0u64..25).prop_map(|id| EventKind::AddNode { id }),
        5 => (0u64..25, 0u64..25).prop_map(|(a, b)| EventKind::AddEdge {
            src: a, dst: b, weight: 1.0, directed: false
        }),
        2 => (0u64..25, 0u64..25).prop_map(|(a, b)| EventKind::RemoveEdge { src: a, dst: b }),
        2 => (0u64..25, 0i64..5).prop_map(|(id, v)| EventKind::SetNodeAttr {
            id, key: "x".into(), value: AttrValue::Int(v)
        }),
    ];
    prop::collection::vec((kind, 1u64..3), 10..150).prop_map(|kinds| {
        let mut t = 0u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    })
}

fn build(events: &[Event]) -> TgiHandler {
    let cfg = TgiConfig {
        events_per_timespan: 60,
        eventlist_size: 15,
        partition_size: 8,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    };
    let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), events).unwrap();
    TgiHandler::serving(tgi, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bulk SoN fetch == per-node history fetch, node by node.
    #[test]
    fn son_fetch_matches_algorithm_2(events in arb_history()) {
        let handler = build(&events);
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 3, end + 1);
        let son = handler.son().timeslice(range).try_fetch().unwrap();
        for n in son.nodes() {
            let direct = handler.pin().try_node_history(n.id(), range).unwrap();
            prop_assert_eq!(n.initial(), direct.initial.as_ref(), "initial {}", n.id());
            prop_assert_eq!(n.events(), &direct.events[..], "events {}", n.id());
        }
    }

    /// The SoN covers exactly the nodes alive at the range start plus
    /// those touched inside the range.
    #[test]
    fn son_covers_live_and_touched(events in arb_history()) {
        let handler = build(&events);
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 2, end + 1);
        let son = handler.son().timeslice(range).try_fetch().unwrap();
        // The normalized stream is what the index stores.
        let normalized = hgs_delta::normalize_events(&events);
        let mut expected: std::collections::BTreeSet<u64> =
            Delta::snapshot_by_replay(&normalized, range.start).ids().collect();
        for e in normalized.iter().filter(|e| e.time > range.start && e.time < range.end) {
            let (a, b) = e.kind.touched();
            expected.insert(a);
            if let Some(b) = b {
                expected.insert(b);
            }
        }
        let got: std::collections::BTreeSet<u64> = son.nodes().iter().map(|n| n.id()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Timeslicing then materializing equals materializing directly.
    #[test]
    fn timeslice_then_graph_equals_direct(events in arb_history(), frac in 2u64..5) {
        let handler = build(&events);
        let end = events.last().unwrap().time;
        let t = end / frac;
        let full = handler.son().timeslice(TimeRange::new(0, end + 1)).try_fetch().unwrap();
        let sliced = full.timeslice(TimeRange::new(t, end + 1));
        let g1 = full.graph_at(t);
        let g2 = sliced.graph_at(t);
        prop_assert_eq!(g1.node_count(), g2.node_count());
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
    }

    /// Compare(a, a) is all zeros; node_compute is worker-count
    /// invariant.
    #[test]
    fn operator_sanity(events in arb_history()) {
        let handler = build(&events);
        let end = events.last().unwrap().time;
        let son = handler.son().timeslice(TimeRange::new(0, end + 1)).try_fetch().unwrap();
        let self_diff = SoN::compare(&son, &son, |n| n.change_count() as f64);
        prop_assert!(self_diff.iter().all(|(_, d)| *d == 0.0));
        let w1 = son.clone().with_workers(1).node_compute(|n| n.change_count());
        let w4 = son.clone().with_workers(4).node_compute(|n| n.change_count());
        prop_assert_eq!(w1, w4);
    }

    /// NodeComputeDelta == NodeComputeTemporal for an incrementally
    /// maintainable quantity (edge-entry count), on arbitrary SoTS.
    #[test]
    fn incremental_equals_recompute(events in arb_history()) {
        let handler = build(&events);
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 4, end + 1);
        let roots: Vec<u64> = (0..25).step_by(5).collect();
        let sots = handler.sots(1).timeslice(range).roots(roots).try_fetch().unwrap();
        let count_edges = |d: &Delta| d.size() as i64;
        // The update function must honor the subgraph's member scope
        // (events touching non-members only change the member side),
        // so bind it per subgraph.
        for sub in sots.subgraphs() {
            let members = sub.members().clone();
            let single = hgs_taf::SoTS::new(vec![sub.clone()], range, 2);
            let temporal = single.node_compute_temporal(count_edges);
            let incremental = single.node_compute_delta(count_edges, |before, prev, e| {
                let mut after = before.clone();
                after.apply_event_in(&e.kind, |id| members.contains(&id));
                prev + (after.size() as i64 - before.size() as i64)
            });
            prop_assert_eq!(&temporal, &incremental, "root {}", sub.root);
        }
    }
}

/// A repeated select-pushdown SoN fetch rides the session read cache:
/// the repeat reads fewer store rows and scores cache hits.
#[test]
fn repeated_son_fetch_is_served_from_the_read_cache() {
    let events = WikiGrowth::sized(6_000).generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events).unwrap();
    let handler = TgiHandler::serving(tgi, 1);
    let view = handler.pin();
    let ids: Vec<u64> = (0..16).map(|i| i * 7).collect();
    let fetch = || {
        let before = view.store().stats_snapshot();
        let son = handler
            .son()
            .timeslice(TimeRange::new(end / 4, 3 * end / 4))
            .select_ids(ids.clone())
            .try_fetch()
            .unwrap();
        let diff = SimStore::stats_since(&view.store().stats_snapshot(), &before);
        let rows: u64 = diff.iter().map(|m| m.rows_read).sum();
        (son.len(), rows, view.cache_stats().hits)
    };
    let (cold_len, cold_rows, cold_hits) = fetch();
    let (warm_len, warm_rows, warm_hits) = fetch();
    assert_eq!((cold_len, warm_len), (ids.len(), ids.len()));
    assert!(warm_rows < cold_rows, "rows {cold_rows} -> {warm_rows}");
    assert!(warm_hits > cold_hits, "hits {cold_hits} -> {warm_hits}");
}
