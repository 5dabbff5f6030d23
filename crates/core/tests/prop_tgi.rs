//! Property-based TGI validation: for arbitrary event histories and
//! random configurations, every retrieval primitive must agree with
//! brute-force replay of the event history — the one independent
//! oracle (snapshot-equivalence against the history), at every read
//! parallelism and partitioning strategy.

use std::collections::BTreeSet;
use std::sync::Arc;

use hgs_core::{KhopStrategy, PartitionStrategy, Tgi, TgiConfig};
use hgs_datagen::WikiGrowth;
use hgs_delta::{normalize_events, AttrValue, Delta, Event, EventKind, NodeId, TimeRange};
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
    prop::collection::vec((arb_event_kind(), 0u64..3), 1..300).prop_map(|kinds| {
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

fn touches(e: &Event, id: NodeId) -> bool {
    let (a, b) = e.kind.touched();
    a == id || b == Some(id)
}

/// Reference k-hop: breadth-first over the replayed state.
fn khop_by_replay(state: &Delta, center: NodeId, k: usize) -> Delta {
    let mut seen = BTreeSet::new();
    if state.contains(center) {
        seen.insert(center);
    }
    let mut frontier: Vec<NodeId> = seen.iter().copied().collect();
    for _ in 0..k {
        let nbrs: Vec<NodeId> = frontier
            .iter()
            .filter_map(|&id| state.node(id))
            .flat_map(|n| n.all_neighbors())
            .collect();
        frontier = nbrs.into_iter().filter(|&n| seen.insert(n)).collect();
    }
    state.restrict(|id| seen.contains(&id))
}

/// Every query primitive against replay of `events`: snapshots at
/// every client width and at the history's edges, and per node the
/// static-vertex fetch, the full history, the version chain and both
/// k-hop strategies.
fn assert_answers_equal_replay(tgi: &Tgi, events: &[Event]) {
    let end = events.last().map(|e| e.time).unwrap_or(0);
    for c in [1usize, 2, 4] {
        for t in [0, end / 3, end / 2, end, end + 1] {
            assert_eq!(
                tgi.with_clients(c).try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(events, t),
                "snapshot mismatch at t={t} c={c}"
            );
        }
    }
    // The index stores the *normalized* stream (RemoveNode expanded
    // into explicit RemoveEdge events): histories and chains are
    // stated over it.
    let normalized = normalize_events(events);
    let mid = Delta::snapshot_by_replay(events, end / 2);
    let range = TimeRange::new(0, end + 1);
    let initial = Delta::snapshot_by_replay(events, range.start);
    for nid in 0..8u64 {
        assert_eq!(
            tgi.try_node_at(nid, end / 2).unwrap().as_ref(),
            mid.node(nid),
            "node_at mismatch for nid={nid}"
        );
        let h = tgi.try_node_history(nid, range).unwrap();
        assert_eq!(
            h.initial.as_ref(),
            initial.node(nid),
            "initial of nid={nid}"
        );
        let want: Vec<Event> = normalized
            .iter()
            .filter(|e| touches(e, nid) && e.time > range.start && e.time < range.end)
            .cloned()
            .collect();
        assert_eq!(h.events, want, "node_history mismatch for nid={nid}");
        // A chain entry points at an eventlist chunk by the node's
        // first touch in it: chronological, at touch times only, from
        // the very first touch on, never the same chunk twice in a row.
        let chain = tgi.try_version_chain(nid).unwrap();
        let touch_times: BTreeSet<u64> = normalized
            .iter()
            .filter(|e| touches(e, nid))
            .map(|e| e.time)
            .collect();
        assert_eq!(
            chain.first().map(|e| e.time),
            touch_times.first().copied(),
            "version_chain start for nid={nid}"
        );
        for e in &chain {
            assert!(
                touch_times.contains(&e.time),
                "chain entry {e:?} of nid={nid}"
            );
        }
        for w in chain.windows(2) {
            assert!(
                w[0].time <= w[1].time && (w[0].tsid, w[0].chunk) <= (w[1].tsid, w[1].chunk),
                "version_chain order for nid={nid}: {w:?}"
            );
            assert_ne!(
                (w[0].tsid, w[0].chunk, w[0].pid),
                (w[1].tsid, w[1].chunk, w[1].pid),
                "version_chain repeats a chunk for nid={nid}"
            );
        }
        for strategy in [KhopStrategy::ViaSnapshot, KhopStrategy::Recursive] {
            assert_eq!(
                tgi.try_khop_with(nid, end / 2, 2, strategy).unwrap(),
                khop_by_replay(&mid, nid, 2),
                "khop mismatch for nid={nid} strategy={strategy:?}"
            );
        }
    }
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
        let tgi = Tgi::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap();
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
        let tgi = Tgi::try_build_on_c(cfg, store, &trace, 4).unwrap();
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
        let tgi = Tgi::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap();
        let got = tgi.try_snapshot(cut).unwrap();
        let want = Delta::snapshot_by_replay(&events, cut);
        prop_assert_eq!(got, want);
    }

    /// Static-vertex fetches agree with replay for every node that
    /// ever existed.
    #[test]
    fn node_at_equals_replay(events in arb_history(), cfg in arb_config(), cut in 0u64..400) {
        let tgi = Tgi::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap();
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
        let tgi = Tgi::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap();
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
