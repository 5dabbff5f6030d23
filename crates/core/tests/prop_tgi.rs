//! Property-based TGI validation: for arbitrary event histories and
//! random configurations, every retrieval primitive must agree with
//! brute-force replay of the event history — the one independent
//! oracle (snapshot-equivalence against the history), at every read
//! parallelism and partitioning strategy.

mod common;

use std::sync::Arc;

use common::{assert_answers_equal_replay, touches, with_busy_hub};
use hgs_core::{PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{normalize_events, AttrValue, Delta, Event, EventKind, TimeRange};
use hgs_store::{SimStore, StoreConfig};
use proptest::prelude::*;

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..40;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        5 => (0u64..40, 0u64..40, any::<bool>()).prop_map(|(src, dst, directed)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed }
        }),
        2 => (0u64..40, 0u64..40).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        1 => (0u64..40, 0u64..40).prop_map(|(src, dst)| EventKind::SetEdgeWeight {
            src,
            dst,
            weight: 2.5
        }),
        2 => (id.clone(), -9i64..9).prop_map(|(id, v)| EventKind::SetNodeAttr {
            id,
            key: "k".into(),
            value: AttrValue::Int(v)
        }),
        1 => (0u64..40, 0u64..40, "[a-b]").prop_map(|(src, dst, key)| EventKind::SetEdgeAttr {
            src,
            dst,
            key,
            value: AttrValue::Bool(true)
        }),
        1 => id.prop_map(|id| EventKind::RemoveNodeAttr { id, key: "k".into() }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    let plain = prop::collection::vec((arb_event_kind(), 0u64..3), 1..300).prop_map(|kinds| {
        let mut t = 0u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    });
    // Every other case carries a hub whose record changes in every
    // chunk of every span.
    (plain, any::<bool>()).prop_map(
        |(events, hub): (Vec<Event>, bool)| {
            if hub {
                with_busy_hub(events)
            } else {
                events
            }
        },
    )
}

fn arb_config() -> impl Strategy<Value = TgiConfig> {
    (
        20usize..120, // events_per_timespan
        5usize..40,   // eventlist_size
        2usize..4,    // arity
        5usize..50,   // partition_size
        1u32..4,      // horizontal partitions
        0usize..3,    // strategy selector
    )
        .prop_map(|(ts, l, arity, ps, ns, strat)| TgiConfig {
            events_per_timespan: ts.max(l),
            eventlist_size: l,
            arity,
            partition_size: ps,
            horizontal_partitions: ns,
            strategy: match strat {
                0 => PartitionStrategy::Random,
                1 => PartitionStrategy::Locality {
                    replicate_boundary: false,
                },
                _ => PartitionStrategy::Locality {
                    replicate_boundary: true,
                },
            },
            ..TgiConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary histories (removals, edge and node attribute churn,
    /// duplicated events) through small index shapes: all query
    /// primitives equal replay.
    #[test]
    fn all_primitives_equal_replay_on_arbitrary_histories(
        events in arb_history(),
        cfg in arb_config(),
    ) {
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap().pin();
        assert_answers_equal_replay(&tgi, &events);
    }

    /// Generated growth traces through realistic shapes, including the
    /// parallel build path at c=4.
    #[test]
    fn all_primitives_equal_replay_on_growth_traces(
        seed in any::<u64>(),
        n_events in 400usize..1_200,
        ts in 300usize..900,
        l in 40usize..160,
        shape in arb_config(),
    ) {
        let trace = WikiGrowth { seed, ..WikiGrowth::sized(n_events) }.generate();
        let cfg = TgiConfig {
            events_per_timespan: ts.max(l),
            eventlist_size: l,
            partition_size: 50,
            ..shape
        };
        let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
        let tgi = TgiService::try_build_on_c(cfg, store, &trace, 4).unwrap().pin();
        assert_answers_equal_replay(&tgi, &trace);
    }
}

proptest! {
    // Each case builds a full index: keep the case count moderate.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Snapshot retrieval equals replay at arbitrary cut points, for
    /// arbitrary histories (including deletions) and configurations.
    #[test]
    fn snapshot_equals_replay(events in arb_history(), cfg in arb_config(), cut in 0u64..400) {
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap().pin();
        let got = tgi.try_snapshot(cut).unwrap();
        let want = Delta::snapshot_by_replay(&events, cut);
        prop_assert_eq!(got, want);
    }

    /// Static-vertex fetches agree with replay for every node that
    /// ever existed.
    #[test]
    fn node_at_equals_replay(events in arb_history(), cfg in arb_config(), cut in 0u64..400) {
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap().pin();
        let want = Delta::snapshot_by_replay(&events, cut);
        for id in 0u64..40 {
            let got = tgi.try_node_at(id, cut).unwrap();
            prop_assert_eq!(got.as_ref(), want.node(id), "node {}", id);
        }
    }

    /// Node histories contain exactly the node's in-range events and
    /// their final version equals the replayed state.
    #[test]
    fn node_history_equals_replay(events in arb_history(), cfg in arb_config()) {
        let end = events.last().map(|e| e.time).unwrap_or(0);
        let range = TimeRange::new(end / 4, end.max(1));
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap().pin();
        // The index stores the *normalized* stream (RemoveNode expanded
        // into explicit RemoveEdge events): compare against it.
        let events = normalize_events(&events);
        for id in (0u64..40).step_by(7) {
            let h = tgi.try_node_history(id, range).unwrap();
            let want: Vec<&Event> = events
                .iter()
                .filter(|e| touches(e, id) && e.time > range.start && e.time < range.end)
                .collect();
            prop_assert_eq!(h.events.len(), want.len(), "count for {}", id);
            let want_state = Delta::snapshot_by_replay(&events, range.end - 1);
            let versions = h.versions();
            prop_assert_eq!(
                versions.last().unwrap().1.as_ref(),
                want_state.node(id),
                "final version of {}", id
            );
        }
    }
}
