//! Multipoint planner equivalence: `try_snapshots` (shared-path
//! planner, batched fetches, clone-at-divergence) must produce exactly
//! the graphs event replay produces at each time, on random WikiGrowth
//! traces, arbitrary histories and index shapes.

mod common;

use common::with_busy_hub;
use hgs_core::{TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{AttrValue, Delta, Event, EventKind};
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
        2 => (id.clone(), -9i64..9).prop_map(|(id, v)| EventKind::SetNodeAttr {
            id,
            key: "k".into(),
            value: AttrValue::Int(v)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn planner_matches_replay(
        seed in any::<u64>(),
        n_events in 500usize..2_000,
        ts in 300usize..900,
        l in 40usize..160,
        arity in 2usize..4,
        ns in 1u32..4,
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let trace = WikiGrowth { seed, ..WikiGrowth::sized(n_events) }.generate();
        let end = trace.last().unwrap().time;
        let cfg = TgiConfig {
            events_per_timespan: ts.max(l),
            eventlist_size: l,
            arity,
            partition_size: 50,
            horizontal_partitions: ns,
            ..TgiConfig::default()
        };
        let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &trace).unwrap().pin();
        // Arbitrary times, including duplicates, unsorted, and past
        // the end of history.
        let times: Vec<u64> = raw_times.iter().map(|r| r % (end + 2)).collect();
        let shared = tgi.try_snapshots(&times).unwrap();
        prop_assert_eq!(shared.len(), times.len());
        for (t, s) in times.iter().zip(&shared) {
            prop_assert_eq!(s, &Delta::snapshot_by_replay(&trace, *t), "mismatch at t={}", t);
        }
        let plan = tgi.plan_multipoint(&times);
        prop_assert!(plan.shared_fetch_units <= plan.naive_fetch_units);
    }

    /// Arbitrary histories — node/edge removals, attribute churn,
    /// duplicated events — through small index shapes: the planner's
    /// merged-state replay must agree with event replay, with both
    /// cold and warm caches and with parallel fetch clients.
    #[test]
    fn planner_matches_on_arbitrary_histories(
        history in arb_history(),
        l in 5usize..40,
        ns in 1u32..4,
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..6),
        clients in 1usize..4,
    ) {
        let end = history.last().map(|e| e.time).unwrap_or(0);
        let cfg = TgiConfig {
            events_per_timespan: 120.max(l),
            eventlist_size: l,
            partition_size: 10,
            horizontal_partitions: ns,
            ..TgiConfig::default()
        };
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &history).unwrap().pin();
        // `with_clients` takes the width as-is, so the parallel path
        // runs even on a one-core CI box.
        let view = tgi.with_clients(clients);
        let times: Vec<u64> = raw_times.iter().map(|r| r % (end + 2)).collect();
        for round in 0..2 {
            let shared = view.try_snapshots(&times).unwrap();
            for (t, s) in times.iter().zip(&shared) {
                let want = Delta::snapshot_by_replay(&history, *t);
                prop_assert_eq!(s, &want, "round {} t={}", round, t);
            }
        }
    }
}

fn arb_sparse_kind() -> impl Strategy<Value = EventKind> {
    // Only four distinct node ids: with up to 4 horizontal partitions,
    // most sids legitimately contribute *empty* states.
    let id = 0u64..4;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        3 => (0u64..4, 0u64..4).prop_map(|(src, dst)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed: false }
        }),
        1 => (0u64..4, 0u64..4).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
    ]
}

proptest! {
    /// Sparse histories over few node ids: some sids hold no state at
    /// all (their path sums are legitimately empty). `c=1` and `c>1`
    /// both equal event replay — warm and cold.
    #[test]
    fn parallel_merge_matches_on_sparse_and_empty_sids(
        history in prop::collection::vec((arb_sparse_kind(), 0u64..3), 1..120)
            .prop_map(|kinds| {
                let mut t = 0u64;
                kinds
                    .into_iter()
                    .map(|(kind, gap)| {
                        t += gap;
                        Event::new(t, kind)
                    })
                    .collect::<Vec<Event>>()
            }),
        l in 5usize..30,
        ns in 2u32..5,
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let end = history.last().map(|e| e.time).unwrap_or(0);
        let cfg = TgiConfig {
            events_per_timespan: 60.max(l),
            eventlist_size: l,
            partition_size: 4,
            horizontal_partitions: ns,
            ..TgiConfig::default()
        };
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &history).unwrap().pin();
        let times: Vec<u64> = raw_times.iter().map(|r| r % (end + 2)).collect();
        let reference: Vec<_> = times
            .iter()
            .map(|&t| Delta::snapshot_by_replay(&history, t))
            .collect();
        // One fill means one set of counters: from a cold cache, every
        // width issues the same store requests and leaves the same
        // cache entries. (Not `row_misses`: two workers may both miss
        // a shared path row before either puts it.)
        let mut at_width_one = None;
        for c in [1usize, 2, 4] {
            tgi.set_read_cache_budget(0);
            tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);
            let view = tgi.with_clients(c);
            let (store0, cache0) = (tgi.store().stats_snapshot(), tgi.cache_stats());
            let cold = view.try_snapshots(&times).unwrap();
            prop_assert_eq!(&cold, &reference, "cold c={}", c);
            let cache = tgi.cache_stats();
            let counters = (
                SimStore::stats_since(&tgi.store().stats_snapshot(), &store0),
                cache.insertions - cache0.insertions,
                cache.state_misses - cache0.state_misses,
                cache.bytes,
            );
            prop_assert_eq!(
                at_width_one.get_or_insert_with(|| counters.clone()),
                &counters,
                "c={}: (store requests, insertions, state misses, bytes retained)", c
            );
            let warm = view.try_snapshots(&times).unwrap();
            prop_assert_eq!(&warm, &reference, "warm c={}", c);
        }
    }
}

/// Regression for the partial-merge sentinel of the retired per-sid
/// fill: all of the single node's state lives in the *last* sid, so
/// every sid merged before it contributes a legitimately empty state,
/// which a merge must never take for "not yet filled". Every `c` must
/// equal event replay.
#[test]
fn empty_first_partials_merge_exactly() {
    let ns = 4u32;
    // A node id whose sid is the *last* of 4, so sids iterated before
    // it all produce empty partials.
    let nid = (0u64..1_000)
        .find(|&id| hgs_core::sid_of(id, ns) == ns - 1)
        .expect("some id hashes to the last sid");
    let events: Vec<Event> = (0..40u64)
        .flat_map(|i| {
            [
                Event::new(4 * i, EventKind::AddNode { id: nid }),
                Event::new(4 * i + 2, EventKind::RemoveNode { id: nid }),
            ]
        })
        .collect();
    let cfg = TgiConfig {
        events_per_timespan: 50,
        eventlist_size: 8,
        partition_size: 4,
        horizontal_partitions: ns,
        ..TgiConfig::default()
    };
    let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let times: Vec<u64> = vec![0, 41, 81, 121, 159];
    let reference: Vec<_> = times
        .iter()
        .map(|&t| Delta::snapshot_by_replay(&events, t))
        .collect();
    for c in [1usize, 2, 4, 8] {
        assert_eq!(
            tgi.with_clients(c).try_snapshots(&times).unwrap(),
            reference,
            "c={c}"
        );
    }
}

#[test]
fn plan_shares_fetches_and_batches_round_trips() {
    let trace = WikiGrowth::sized(6_000).generate();
    let end = trace.last().unwrap().time;
    let tgi = TgiService::try_build(
        TgiConfig {
            events_per_timespan: 3_000,
            eventlist_size: 200,
            partition_size: 100,
            ..TgiConfig::default()
        },
        StoreConfig::new(4, 1),
        &trace,
    )
    .unwrap()
    .pin();
    let times: Vec<u64> = (1..=4).map(|i| end * i / 4).collect();
    let plan = tgi.plan_multipoint(&times);
    assert_eq!(plan.times, 4);
    assert!(
        plan.shared_fetch_units < plan.naive_fetch_units,
        "4 spread times must share path rows: {plan:?}"
    );
    // The executed plan issues exactly one grouped-scan round-trip per
    // (block, sid): both spans here are of placement block 0.
    let before = tgi.store().stats_snapshot();
    let snaps = tgi.try_snapshots(&times).unwrap();
    let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    let batches: u64 = diff.iter().map(|m| m.batches).sum();
    assert_eq!(batches as usize, plan.round_trips);
    assert_eq!(snaps.len(), 4);

    // Sharing is real at the store too: from a cold cache, at either
    // width, fewer requests than one cold snapshot per time (the cache
    // off, so no time reuses another's rows).
    let requests = |f: &dyn Fn() -> Vec<Delta>| {
        let before = tgi.store().stats_snapshot();
        assert_eq!(f(), snaps);
        let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        diff.iter().map(|m| m.gets + m.scans).sum::<u64>()
    };
    tgi.set_read_cache_budget(0);
    let naive = requests(&|| {
        times
            .iter()
            .map(|&t| tgi.try_snapshot(t).unwrap())
            .collect()
    });
    for c in [1usize, 4] {
        tgi.set_read_cache_budget(0);
        tgi.set_read_cache_budget(hgs_core::DEFAULT_READ_CACHE_BYTES);
        let view = tgi.with_clients(c);
        let shared = requests(&|| view.try_snapshots(&times).unwrap());
        assert!(shared < naive, "c={c}: shared {shared} vs naive {naive}");
    }
}

#[test]
fn times_in_one_leaf_share_a_single_replay() {
    let trace = WikiGrowth::sized(2_000).generate();
    let end = trace.last().unwrap().time;
    let tgi = TgiService::try_build(
        TgiConfig {
            events_per_timespan: 2_000,
            eventlist_size: 1_000,
            partition_size: 100,
            ..TgiConfig::default()
        },
        StoreConfig::new(2, 1),
        &trace,
    )
    .unwrap()
    .pin();
    // Many times inside one eventlist chunk: one fetch, one replay.
    let times: Vec<u64> = (0..10).map(|i| end / 2 + i).collect();
    let plan = tgi.plan_multipoint(&times);
    assert_eq!(plan.leaf_groups, 1);
    let shared = tgi.try_snapshots(&times).unwrap();
    for (t, s) in times.iter().zip(&shared) {
        assert_eq!(s, &Delta::snapshot_by_replay(&trace, *t), "t={t}");
    }
}
