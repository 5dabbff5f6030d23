//! Read-cache equivalence and budget properties over whole indexes:
//! cached reads (which may skip fetch + decode on hits) must return
//! exactly what event replay, or an index with caching off, returns, on
//! arbitrary histories, budgets — including budgets tiny enough to
//! force constant LRU eviction — and repeat patterns; and the cache's
//! retained bytes must never exceed the configured budget.
//! (Key-level LRU order properties live in `read_cache.rs` unit
//! tests, checked against a reference model.)

mod common;

use common::with_busy_hub;
use hgs_core::{sid_of, KhopStrategy, PartitionStrategy, TgiConfig, TgiService, TgiView, AUX_BASE};
use hgs_delta::{AttrValue, Event, EventKind, TimeRange};
use hgs_store::{DeltaKey, StoreConfig, Table};
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
    let plain = prop::collection::vec((arb_event_kind(), 0u64..3), 1..250).prop_map(|kinds| {
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

    /// Cached single-point reads agree with event replay, and with a
    /// cache-off twin, on arbitrary histories, with the budget anywhere
    /// between "evicts constantly" and "holds everything", over
    /// repeated rounds (cold then warm), and the cache never exceeds
    /// its byte budget.
    #[test]
    fn cached_reads_match_bypassed_reads(
        history in arb_history(),
        l in 5usize..40,
        ns in 1u32..4,
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..6),
        budget_kind in 0usize..3,
    ) {
        let end = history.last().map(|e| e.time).unwrap_or(0);
        // 0: disabled; 1: tiny (forces eviction churn); 2: ample.
        let budget = [0usize, 4 << 10, 64 << 20][budget_kind];
        let cfg = TgiConfig {
            events_per_timespan: 120.max(l),
            eventlist_size: l,
            partition_size: 10,
            horizontal_partitions: ns,
            ..TgiConfig::default()
        };
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &history).unwrap().pin();
        tgi.set_read_cache_budget(budget);
        // A twin index with caching disabled: identical construction,
        // every read is a genuine fetch — the reference for the
        // histories and k-hops below.
        let nocache = TgiService::try_build(cfg, StoreConfig::new(2, 1), &history).unwrap().pin();
        nocache.set_read_cache_budget(0);
        let times: Vec<u64> = raw_times.iter().map(|r| r % (end + 2)).collect();
        for round in 0..2 {
            for &t in &times {
                // A node-scoped read first: it leaves the path's rows
                // lazily decoded (`Col`), the full replay after it
                // leaves them path-complete (`Full`) — so the next
                // time's path, sharing its upper rows with this one,
                // is read through a mix of both.
                let hub_first = tgi.try_node_at(0, t).unwrap();
                let cached = tgi.try_snapshot(t).unwrap();
                let reference = hgs_delta::Delta::snapshot_by_replay(&history, t);
                prop_assert_eq!(&cached, &reference, "round {} t={}", round, t);
                prop_assert_eq!(hub_first.as_ref(), reference.node(0), "round {} t={}", round, t);
                for id in [0u64, 7, 23] {
                    let via_cache = tgi.try_node_at(id, t).unwrap();
                    prop_assert_eq!(
                        via_cache.as_ref(),
                        reference.node(id),
                        "round {} t={} node {}", round, t, id
                    );
                }
                let s = tgi.cache_stats();
                prop_assert!(
                    s.bytes <= s.budget,
                    "cache exceeded its budget: {:?}", s
                );
            }
            // Histories agree too (elist rows served via the cache).
            let range = TimeRange::new(end / 3, end + 1);
            let h = tgi.try_node_history(0, range).unwrap();
            let h_ref = nocache.try_node_history(0, range).unwrap();
            prop_assert_eq!(&h, &h_ref, "node_history round {}", round);
        }
        if budget == 0 {
            let s = tgi.cache_stats();
            prop_assert_eq!(s.bytes, 0, "disabled cache retains nothing");
            prop_assert_eq!(s.hits, 0, "disabled cache never hits");
        }
    }
}

/// 4 000 events over 400 nodes, one per time unit: two spans of 2 000.
fn ring_trace() -> Vec<Event> {
    (0..4_000u64)
        .map(|i| {
            Event::new(
                i,
                if i % 3 == 0 {
                    EventKind::AddNode { id: i % 400 }
                } else {
                    EventKind::AddEdge {
                        src: i % 400,
                        dst: (i * 7) % 400,
                        weight: 1.0,
                        directed: false,
                    }
                },
            )
        })
        .collect()
}

fn ring_cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 2_000,
        eventlist_size: 250,
        partition_size: 100,
        ..TgiConfig::default()
    }
}

/// Store requests and rows read while `f` runs.
fn store_touches<T>(tgi: &TgiView, f: impl FnOnce() -> T) -> (T, u64) {
    let before = tgi.store().stats_snapshot();
    let out = f();
    let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    (
        out,
        diff.iter().map(|m| m.rows_read + m.gets + m.scans).sum(),
    )
}

/// Warm repeats of the same working set are answered from the cache:
/// the second pass issues (almost) no new store requests beyond the
/// liveness eventlist scans, and hit counters move.
#[test]
fn warm_working_set_hits_the_cache() {
    let events = ring_trace();
    let tgi = TgiService::try_build(ring_cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let end = events.last().unwrap().time;
    let times: Vec<u64> = (1..=4).map(|i| end * i / 4).collect();
    let cold: Vec<_> = times
        .iter()
        .map(|&t| tgi.try_snapshot(t).unwrap())
        .collect();
    let s_cold = tgi.cache_stats();
    // A checkpoint is cached once: one state probe and one state entry
    // per distinct leaf (every row miss of this pass was followed by
    // that row's one insertion, so the rest of `insertions` is states).
    let leaves = tgi.plan_multipoint(&times).leaf_groups as u64;
    assert_eq!(leaves, 4, "four distinct leaves");
    assert_eq!(s_cold.state_misses, leaves, "one state probe per leaf");
    assert_eq!(s_cold.insertions - s_cold.row_misses, leaves, "{s_cold:?}");

    let before = tgi.store().stats_snapshot();
    let warm: Vec<_> = times
        .iter()
        .map(|&t| tgi.try_snapshot(t).unwrap())
        .collect();
    let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    let s_warm = tgi.cache_stats();
    assert_eq!(cold, warm);
    assert!(s_warm.hits > s_cold.hits, "warm pass must hit");
    // Warm snapshots only re-scan eventlist prefixes (the liveness
    // check); no point lookups and no tree-path scans.
    let warm_rows: u64 = diff.iter().map(|m| m.rows_read).sum();
    let cold_rows_estimate = tgi.plan_multipoint(&times).naive_fetch_units as u64;
    assert!(
        warm_rows < cold_rows_estimate,
        "warm pass re-read too much: {warm_rows} vs naive {cold_rows_estimate}"
    );
    assert!(s_warm.bytes <= s_warm.budget);

    // A fully warm static-vertex fetch does not touch the store at all.
    let fetch = || [0u64, 57, 123, 399].map(|id| tgi.try_node_at(id, end / 2).unwrap());
    let cold = fetch();
    let before = tgi.store().stats_snapshot();
    assert_eq!(fetch(), cold);
    let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    let repeat_requests: u64 = diff.iter().map(|m| m.gets + m.scans).sum();
    assert_eq!(repeat_requests, 0, "warm node_at must not touch the store");

    // A row the cache holds is not fetched again, whichever form it is
    // held in: `try_node_at` at a leaf no snapshot above touched leaves
    // its micro-partition's path and eventlist rows header-parsed, and
    // the 0-hop recursive k-hop — the full replay of that same
    // micro-partition (no aux rows under the default strategy) — must
    // be served by them.
    let t = end / 8;
    let node = tgi.try_node_at(57, t).unwrap();
    let before = tgi.store().stats_snapshot();
    let hop = tgi
        .try_khop_with(57, t, 0, KhopStrategy::Recursive)
        .unwrap();
    let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    assert_eq!(hop.node(57), node.as_ref());
    assert!(node.is_some(), "node 57 exists at t={t}");
    let refetched: u64 = diff.iter().map(|m| m.rows_read + m.gets + m.scans).sum();
    assert_eq!(refetched, 0, "rows node_at cached were fetched again");
}

/// The reverse of the last check above: a cold 0-hop recursive k-hop
/// leaves its micro-partition's checkpoint state and decoded eventlist
/// in the cache, and `try_node_at` of any node of that micro-partition
/// at the same time is answered from them without touching the store.
#[test]
fn recursive_khop_state_serves_node_at() {
    let events = ring_trace();
    let cfg = ring_cfg();
    let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let t = events.last().unwrap().time / 8; // in the first span
    let reference = hgs_delta::Delta::snapshot_by_replay(&events, t);
    // A node's micro-partition in the first span: its sid and the pid
    // its chain entries there name.
    let placement = |id: u64| {
        let chain = tgi.try_version_chain(id).unwrap();
        let pid = chain.iter().find(|e| e.tsid == 0).map(|e| e.pid);
        (sid_of(id, cfg.horizontal_partitions), pid)
    };
    let center = 57;
    let home = placement(center);
    assert!(
        home.1.is_some(),
        "node {center} has events in the first span"
    );
    let mates: Vec<u64> = (0..400).filter(|&id| placement(id) == home).collect();
    assert!(
        mates.len() > 1,
        "a micro-partition of one node tests little"
    );

    let hop = tgi
        .try_khop_with(center, t, 0, KhopStrategy::Recursive)
        .unwrap();
    assert_eq!(hop.node(center), reference.node(center));
    let (answers, touched) = store_touches(&tgi, || {
        mates
            .iter()
            .map(|&id| tgi.try_node_at(id, t).unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(touched, 0, "node_at refetched what the k-hop cached");
    for (id, got) in mates.iter().zip(&answers) {
        assert_eq!(got.as_ref(), reference.node(*id), "node {id}");
    }
    assert!(
        answers.iter().any(Option::is_some),
        "some mate exists at t={t}"
    );
}

/// Under `Locality { replicate_boundary: true }` a 1-hop recursive
/// k-hop reads its center's aux replica and its boundary neighbors'
/// eventlist chunks as keyed rows, through the same row tier as every
/// other point read: a warm repeat touches the store zero times and
/// answers the same.
#[test]
fn warm_recursive_khop_over_aux_replicas_touches_no_store() {
    let events = ring_trace();
    let cfg = ring_cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: true,
    });
    let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let aux_rows = tgi
        .store()
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Deltas.tag())
        .filter(|(k, _)| DeltaKey::decode(&k[1..]).is_some_and(|k| k.did >= AUX_BASE))
        .count();
    assert!(aux_rows > 0, "the build wrote aux replicas");
    let nocache = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    nocache.set_read_cache_budget(0);

    let t = events.last().unwrap().time / 2;
    let centers = [0u64, 57, 123, 250, 399];
    let khops = || centers.map(|c| tgi.try_khop_with(c, t, 1, KhopStrategy::Recursive).unwrap());
    let cold = khops();
    for (c, hop) in centers.iter().zip(&cold) {
        let want = nocache
            .try_khop_with(*c, t, 1, KhopStrategy::ViaSnapshot)
            .unwrap();
        assert_eq!(hop, &want, "center {c}");
    }
    assert!(
        cold.iter().any(|hop| hop.cardinality() > 1),
        "some center has neighbors at t={t}"
    );
    let (warm, touched) = store_touches(&tgi, khops);
    assert_eq!(touched, 0, "a warm recursive k-hop went to the store");
    assert_eq!(warm, cold);
}

/// Concurrent mixed-key traffic over a live service: the lock-striped
/// cache's aggregated `cache_stats()` must stay coherent while four
/// reader threads hammer different shards — retained bytes within the
/// summed per-shard budgets, the budget reporting exactly the
/// configured total, counters monotone — and a post-quiesce warm pass
/// over the same working set must hit. (Key-level sharded-reference
/// properties live in `read_cache.rs` unit tests.)
#[test]
fn concurrent_readers_aggregate_shard_stats_coherently() {
    let events: Vec<Event> = (0..5_000u64)
        .map(|i| {
            Event::new(
                i,
                if i % 3 == 0 {
                    EventKind::AddNode { id: i % 350 }
                } else {
                    EventKind::AddEdge {
                        src: i % 350,
                        dst: (i * 13) % 350,
                        weight: 1.0,
                        directed: false,
                    }
                },
            )
        })
        .collect();
    let end = events.last().unwrap().time;
    let budget = 2usize << 20;
    let svc = hgs_core::TgiService::try_build(
        TgiConfig {
            events_per_timespan: 1_500,
            eventlist_size: 200,
            partition_size: 60,
            ..TgiConfig::default()
        },
        StoreConfig::new(3, 1),
        &events,
    )
    .unwrap();
    svc.set_read_cache_budget(budget);
    const { assert!(hgs_core::DEFAULT_READ_CACHE_SHARDS > 1, "striping is on") };
    std::thread::scope(|s| {
        let svc = &svc;
        for r in 0..4usize {
            s.spawn(move || {
                let view = svc.pin();
                for i in 0..12u64 {
                    // Every thread touches its own time/node mix, so
                    // traffic spreads across cache stripes.
                    let t = end * ((r as u64 * 12 + i) % 16 + 1) / 16;
                    let _snap = view.try_snapshot(t).expect("healthy");
                    let _node = view.try_node_at((r as u64 * 31 + i * 7) % 350, t);
                    let stats = view.cache_stats();
                    assert!(
                        stats.bytes <= stats.budget,
                        "reader {r}: stripes overran the summed budget: {stats:?}"
                    );
                    assert_eq!(stats.budget, budget, "reader {r}: budget drifted");
                }
            });
        }
    });
    let s1 = svc.cache_stats();
    assert_eq!(s1.budget, budget);
    assert!(s1.bytes <= s1.budget);
    assert!(s1.insertions > 0, "cold pass populated the stripes");
    assert!(s1.insertions >= s1.evictions, "ledger impossible: {s1:?}");
    assert!(s1.hits + s1.misses > 0);

    // Quiesced warm pass over a subset of the same working set: the
    // aggregate hit counter moves, and the ledger still balances.
    let view = svc.pin();
    for i in 0..8u64 {
        let _ = view.try_snapshot(end * (i % 16 + 1) / 16).expect("warm");
    }
    let s2 = svc.cache_stats();
    assert!(s2.hits > s1.hits, "warm pass must hit: {s1:?} -> {s2:?}");
    assert!(s2.bytes <= s2.budget);

    // Draining every stripe returns the aggregate to exactly zero.
    svc.set_read_cache_budget(0);
    assert_eq!(svc.cache_stats().bytes, 0, "drain leak across stripes");
}

/// Columnar cache entries hold `Bytes` sub-slices of one shared
/// backing slab per row. The cache charges each entry its fixed
/// worst-case weight (backing + fully-decoded columns) exactly once
/// at insert, so interleaving pruned reads (which cache shared-slab
/// `ColDelta`/`ColElist` entries) with full replays (which replace
/// them with decoded entries) can never drift the byte ledger: the
/// retained total stays within budget through arbitrary churn, and
/// draining the LRU returns it to exactly zero.
#[test]
fn columnar_column_sharing_respects_budget() {
    let events: Vec<Event> = (0..6_000u64)
        .map(|i| {
            Event::new(
                i,
                if i % 3 == 0 {
                    EventKind::AddNode { id: i % 300 }
                } else {
                    EventKind::AddEdge {
                        src: i % 300,
                        dst: (i * 11) % 300,
                        weight: 1.0,
                        directed: false,
                    }
                },
            )
        })
        .collect();
    let end = events.last().unwrap().time;
    for budget in [8usize << 10, 256 << 10, 64 << 20] {
        let tgi = TgiService::try_build(
            TgiConfig {
                events_per_timespan: 1_500,
                eventlist_size: 200,
                partition_size: 60,
                ..TgiConfig::default()
            },
            StoreConfig::new(2, 1),
            &events,
        )
        .unwrap()
        .pin();
        tgi.set_read_cache_budget(budget);
        // Pruned reads first: node_at/node_history cache parsed
        // columnar entries whose column slices share one slab.
        for nid in 0..24u64 {
            let _ = tgi.try_node_at(nid, end / 2).unwrap();
            let _ = tgi
                .try_node_history(nid, TimeRange::new(0, end + 1))
                .unwrap();
            let s = tgi.cache_stats();
            assert!(s.bytes <= s.budget, "budget {budget}: {s:?}");
        }
        // Full replays over the same rows: entries flip from columnar
        // to fully-decoded representations in place.
        for t in [end / 4, end / 2, end] {
            let _ = tgi.try_snapshot(t).unwrap();
            let s = tgi.cache_stats();
            assert!(s.bytes <= s.budget, "budget {budget}: {s:?}");
        }
        // And back to pruned reads against the now-decoded entries.
        for nid in 0..24u64 {
            let _ = tgi.try_node_at(nid, end).unwrap();
            let s = tgi.cache_stats();
            assert!(s.bytes <= s.budget, "budget {budget}: {s:?}");
        }
        // Draining the LRU releases every charged byte: the ledger
        // balances only if shared slabs were counted once.
        tgi.set_read_cache_budget(0);
        assert_eq!(tgi.cache_stats().bytes, 0, "budget {budget}: drain leak");
    }
}
