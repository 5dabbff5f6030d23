//! End-to-end TGI correctness: every retrieval primitive is validated
//! against brute-force replay of the event history, across the
//! configuration space (partitioning strategy, horizontal partitions,
//! eventlist size, partition size, arity, multiple timespans,
//! incremental appends).

mod common;

use hgs_core::{KhopStrategy, PartitionStrategy, TgiConfig, TgiService, TgiView};
use hgs_datagen::{augment_with_churn, LabeledChurn, WikiGrowth};
use hgs_delta::{Delta, Event, FxHashSet, NodeId, Time, TimeRange};
use hgs_store::StoreConfig;

fn small_cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 1_500,
        eventlist_size: 100,
        arity: 2,
        partition_size: 60,
        horizontal_partitions: 3,
        ..TgiConfig::default()
    }
}

fn trace() -> Vec<Event> {
    let base = WikiGrowth {
        events: 3_000,
        seed: 7,
        ..WikiGrowth::default()
    }
    .generate();
    augment_with_churn(&base, 1_500, 0.4, 11)
}

fn check_snapshots(tgi: &TgiView, events: &[Event], times: &[Time]) {
    for &t in times {
        let got = tgi.try_snapshot(t).unwrap();
        let want = Delta::snapshot_by_replay(events, t);
        assert_eq!(
            got.cardinality(),
            want.cardinality(),
            "node count mismatch at t={t}"
        );
        // Full structural equality.
        assert_eq!(got, want, "snapshot mismatch at t={t}");
    }
}

fn sample_times(events: &[Event]) -> Vec<Time> {
    let end = events.last().unwrap().time;
    vec![
        0,
        end / 7,
        end / 3,
        end / 2,
        end * 3 / 4,
        end - 1,
        end,
        end + 50,
    ]
}

#[test]
fn snapshots_match_replay_random_partitioning() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    assert!(tgi.span_count() >= 2, "want multiple timespans");
    check_snapshots(&tgi, &events, &sample_times(&events));
}

#[test]
fn snapshots_match_replay_locality_partitioning() {
    let events = trace();
    let cfg = small_cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: false,
    });
    let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    check_snapshots(&tgi, &events, &sample_times(&events));
}

#[test]
fn snapshots_match_replay_with_replication_aux() {
    let events = trace();
    let cfg = small_cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: true,
    });
    let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    // Aux deltas must not pollute snapshots.
    check_snapshots(&tgi, &events, &sample_times(&events));
}

#[test]
fn snapshots_match_for_various_parallel_fetch_factors() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let t = events.last().unwrap().time / 2;
    let want = Delta::snapshot_by_replay(&events, t);
    for c in [1usize, 2, 4, 8] {
        assert_eq!(tgi.with_clients(c).try_snapshot(t).unwrap(), want, "c={c}");
    }
}

/// A degenerate plan (single-point read routed through the multipoint
/// machinery, one horizontal partition → one `(sid, leaf)` work item)
/// must clamp its fan-out to the item count: no matter how many
/// clients are requested, the store sees exactly one grouped scan per
/// read. (That the single-item case also runs inline, with no thread
/// spawn at all, is asserted in `hgs_store::parallel`'s tests.)
#[test]
fn degenerate_single_point_plan_clamps_fanout() {
    let events = WikiGrowth {
        events: 1_500,
        seed: 5,
        ..WikiGrowth::default()
    }
    .generate();
    let cfg = TgiConfig {
        events_per_timespan: 2_000,
        eventlist_size: 200,
        partition_size: 100,
        horizontal_partitions: 1,
        ..TgiConfig::default()
    };
    let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let t = events.last().unwrap().time / 2;
    let want = Delta::snapshot_by_replay(&events, t);
    for c in [1usize, 4, 16] {
        let before = tgi.store().stats_snapshot();
        assert_eq!(tgi.with_clients(c).try_snapshot(t).unwrap(), want, "c={c}");
        let diff = hgs_store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let batches: u64 = diff.iter().map(|m| m.batches).sum();
        assert_eq!(batches, 1, "one (sid, leaf) item → one grouped scan, c={c}");
    }
}

#[test]
fn snapshots_match_across_parameter_grid() {
    let events: Vec<Event> = WikiGrowth {
        events: 1_200,
        seed: 3,
        ..WikiGrowth::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    for (l, ps, ns, arity) in [
        (50usize, 30usize, 1u32, 2usize),
        (200, 1000, 2, 3),
        (400, 10, 4, 4),
    ] {
        let cfg = TgiConfig {
            events_per_timespan: 600,
            eventlist_size: l,
            arity,
            partition_size: ps,
            horizontal_partitions: ns,
            ..TgiConfig::default()
        };
        let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
            .unwrap()
            .pin();
        for t in [0, end / 3, end / 2, end] {
            assert_eq!(
                tgi.try_snapshot(t).unwrap(),
                Delta::snapshot_by_replay(&events, t),
                "l={l} ps={ps} ns={ns} arity={arity} t={t}"
            );
        }
    }
}

#[test]
fn node_at_matches_replay() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let end = events.last().unwrap().time;
    for t in [end / 4, end / 2, end] {
        let want = Delta::snapshot_by_replay(&events, t);
        // Check a deterministic sample of nodes, including absent ones.
        let ids: Vec<NodeId> = want.sorted_ids().into_iter().step_by(37).take(30).collect();
        for id in ids {
            assert_eq!(
                tgi.try_node_at(id, t).unwrap().as_ref(),
                want.node(id),
                "node {id} at t={t}"
            );
        }
        assert_eq!(tgi.try_node_at(99_999_999, t).unwrap(), None);
    }
}

#[test]
fn node_history_matches_brute_force() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let end = events.last().unwrap().time;
    let range = TimeRange::new(end / 4, end * 3 / 4);

    // Pick nodes with real activity in the range.
    let state = Delta::snapshot_by_replay(&events, end);
    let sample: Vec<NodeId> = state
        .sorted_ids()
        .into_iter()
        .step_by(53)
        .take(20)
        .collect();
    for id in sample {
        let h = tgi.try_node_history(id, range).unwrap();
        // Brute force: initial state + events touching id in range.
        let want_initial = Delta::snapshot_by_replay(&events, range.start);
        assert_eq!(
            h.initial.as_ref(),
            want_initial.node(id),
            "initial for {id}"
        );
        let want_events: Vec<&Event> = events
            .iter()
            .filter(|e| {
                let (a, b) = e.kind.touched();
                (a == id || b == Some(id)) && e.time > range.start && e.time < range.end
            })
            .collect();
        assert_eq!(h.events.len(), want_events.len(), "event count for {id}");
        for (got, want) in h.events.iter().zip(want_events) {
            assert_eq!(got, want, "event mismatch for {id}");
        }
        // Final version equals replayed state at range end - 1.
        let want_final = Delta::snapshot_by_replay(&events, range.end - 1);
        let versions = h.versions();
        assert_eq!(
            versions.last().unwrap().1.as_ref(),
            want_final.node(id),
            "final version for {id}"
        );
    }
}

#[test]
fn khop_strategies_agree_with_replay_bfs() {
    let events = trace();
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::Locality {
            replicate_boundary: true,
        },
    ] {
        let cfg = small_cfg().with_strategy(strategy);
        let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
            .unwrap()
            .pin();
        let end = events.last().unwrap().time;
        let t = end / 2;
        let want_state = Delta::snapshot_by_replay(&events, t);
        let centers: Vec<NodeId> = want_state
            .sorted_ids()
            .into_iter()
            .step_by(101)
            .take(8)
            .collect();
        for center in centers {
            for k in [0usize, 1, 2] {
                let want_ids = bfs_ids(&want_state, center, k);
                let via_snap = tgi
                    .try_khop_with(center, t, k, KhopStrategy::ViaSnapshot)
                    .unwrap();
                let recursive = tgi
                    .try_khop_with(center, t, k, KhopStrategy::Recursive)
                    .unwrap();
                let got_snap: FxHashSet<NodeId> = via_snap.ids().collect();
                let got_rec: FxHashSet<NodeId> = recursive.ids().collect();
                assert_eq!(got_snap, want_ids, "via-snapshot ids center={center} k={k}");
                assert_eq!(got_rec, want_ids, "recursive ids center={center} k={k}");
                // Node states must match the replayed truth too.
                for id in recursive.ids() {
                    assert_eq!(
                        recursive.node(id),
                        want_state.node(id),
                        "recursive state center={center} k={k} node={id}"
                    );
                }
            }
        }
    }
}

#[test]
fn one_hop_history_matches_neighborhood_replay() {
    let events = LabeledChurn {
        nodes: 150,
        edge_events: 1_200,
        label_flips: 400,
        seed: 5,
    }
    .generate();
    let tgi = TgiService::try_build(
        TgiConfig {
            events_per_timespan: 800,
            eventlist_size: 100,
            partition_size: 40,
            horizontal_partitions: 2,
            ..TgiConfig::default()
        },
        StoreConfig::new(2, 1),
        &events,
    )
    .unwrap()
    .pin();
    let end = events.last().unwrap().time;
    let range = TimeRange::new(end / 4, end);
    let center: NodeId = 7;
    let nh = tgi.try_one_hop_history(center, range).unwrap();

    // At several timepoints the materialized neighborhood must equal
    // the replayed 1-hop neighborhood.
    for t in [range.start, (range.start + end) / 2, end - 1] {
        let state = Delta::snapshot_by_replay(&events, t);
        let sub = nh.subgraph_at(t);
        if let Some(c) = state.node(center) {
            let want: FxHashSet<NodeId> =
                c.all_neighbors().chain(std::iter::once(center)).collect();
            let got: FxHashSet<NodeId> = sub.ids().collect();
            assert_eq!(got, want, "1-hop ids at t={t}");
            for id in sub.ids() {
                assert_eq!(sub.node(id), state.node(id), "1-hop state {id} at t={t}");
            }
        } else {
            assert!(sub.is_empty());
        }
    }
}

#[test]
fn incremental_append_equals_bulk_build() {
    let events = trace();
    let mid = events.len() / 2;
    // Align the split to a timestamp boundary so both halves are valid
    // batches.
    let mut cut = mid;
    while cut < events.len() && events[cut].time == events[cut - 1].time {
        cut += 1;
    }
    let bulk = TgiService::try_build(small_cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let incr = TgiService::try_build(small_cfg(), StoreConfig::new(2, 1), &events[..cut]).unwrap();
    incr.try_append_events(&events[cut..]).unwrap();
    let incr = incr.pin();

    let end = events.last().unwrap().time;
    for t in [0, end / 3, (3 * end) / 5, end] {
        assert_eq!(
            incr.try_snapshot(t).unwrap(),
            bulk.try_snapshot(t).unwrap(),
            "incremental vs bulk at t={t}"
        );
    }
    // Node histories spanning the append boundary must see both halves.
    let state = Delta::snapshot_by_replay(&events, end);
    let some_node = state.sorted_ids()[0];
    let r = TimeRange::new(0, end + 1);
    assert_eq!(
        incr.try_node_history(some_node, r).unwrap().events,
        bulk.try_node_history(some_node, r).unwrap().events
    );
}

#[test]
fn version_chains_are_complete_and_sorted() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    assert!(tgi.span_count() > 1, "chains over several spans");
    let normalized = hgs_delta::normalize_events(&events);
    let metas = common::span_metas(&tgi);
    let state = Delta::snapshot_by_replay(&events, u64::MAX);
    for id in state.sorted_ids().into_iter().step_by(71).take(15) {
        // Exactly the chunks whose checkpoints bound an event touching
        // the node, in `(tsid, chunk)` order, each once.
        let chain = common::chain_chunks(&tgi, id);
        assert!(!chain.is_empty(), "node {id} must have a chain");
        assert_eq!(
            chain,
            common::chain_by_replay(&normalized, id, &metas),
            "chain of {id}"
        );
    }
}

/// A chain row stores chunk gaps only; the reader takes `tsid` from
/// the row's key and `pid` from the span's partition map. What it
/// derives must be what the build bucketed by: every decoded entry
/// names an eventlist row that exists and holds the node — under hash
/// and under explicit (locality) maps, and after a reopen, where the
/// maps come back from the `Micropartitions` rows. The trace removes
/// a node now and then: a node gone before its span closed is the one
/// a persisted map listing only the living would misplace.
#[test]
fn every_chain_entry_names_an_eventlist_row_holding_the_node() {
    use hgs_core::{sid_of, ELIST_BASE};
    use hgs_delta::ColumnarEventlist;
    use hgs_store::{DeltaKey, Table};
    use std::collections::BTreeMap;

    // Every 300th event also removes the node it touched.
    let mut events = Vec::new();
    for (i, e) in trace().into_iter().enumerate() {
        let removal = (i % 300 == 299).then(|| {
            let id = e.kind.touched().0;
            Event::new(e.time, hgs_delta::EventKind::RemoveNode { id })
        });
        events.push(e);
        events.extend(removal);
    }
    let ids: FxHashSet<NodeId> = events
        .iter()
        .flat_map(|e| {
            let (a, b) = e.kind.touched();
            [Some(a), b]
        })
        .flatten()
        .collect();
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::Locality {
            replicate_boundary: true,
        },
    ] {
        let cfg = small_cfg().with_strategy(strategy);
        let ns = cfg.horizontal_partitions;
        let built = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
            .unwrap()
            .pin();
        let store = built.store();
        assert!(built.span_count() > 1, "several spans, several maps");
        let elists: BTreeMap<Vec<u8>, ColumnarEventlist> = store
            .content_rows()
            .into_iter()
            .flatten()
            .filter(|(k, _)| k[0] == Table::Deltas.tag())
            .filter(|(k, _)| DeltaKey::decode(&k[1..]).is_some_and(|k| k.did >= ELIST_BASE))
            .filter_map(|(k, v)| Some((k[1..].to_vec(), ColumnarEventlist::parse(v).ok()?)))
            .collect();
        let reopened = TgiService::open(store.clone())
            .expect("open persisted index")
            .pin();
        for (what, tgi) in [("built", &built), ("reopened", &reopened)] {
            let mut entries = 0usize;
            for &nid in &ids {
                let chain = tgi.try_version_chain(nid).unwrap();
                assert_eq!(chain, built.try_version_chain(nid).unwrap(), "{what}");
                assert!(!chain.is_empty(), "{what}: node {nid} was touched");
                for e in chain {
                    let key =
                        DeltaKey::new(e.tsid, sid_of(nid, ns), ELIST_BASE + e.chunk as u64, e.pid);
                    let row = elists.get(&key.encode()[..]).unwrap_or_else(|| {
                        panic!("{what}, {strategy:?}: {e:?} of node {nid} names no stored row")
                    });
                    assert!(
                        row.contains_node(nid).unwrap(),
                        "{what}, {strategy:?}: the row {e:?} names does not hold node {nid}"
                    );
                    entries += 1;
                }
            }
            assert!(entries > ids.len(), "{what}: chains span several chunks");
        }
    }
}

#[test]
fn empty_history_index_answers_empty() {
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(2, 1), &[])
        .unwrap()
        .pin();
    assert!(tgi.try_snapshot(0).unwrap().is_empty());
    assert!(tgi.try_snapshot(1_000_000).unwrap().is_empty());
    assert_eq!(tgi.try_node_at(1, 5).unwrap(), None);
    assert!(tgi
        .try_node_history(1, TimeRange::new(0, 100))
        .unwrap()
        .events
        .is_empty());
}

#[test]
fn replicated_store_survives_machine_failure() {
    let events = trace();
    let tgi = TgiService::try_build(small_cfg(), StoreConfig::new(3, 2), &events)
        .unwrap()
        .pin();
    let end = events.last().unwrap().time;
    let want = Delta::snapshot_by_replay(&events, end / 2);
    tgi.store().fail_machine(0);
    assert_eq!(
        tgi.try_snapshot(end / 2).unwrap(),
        want,
        "failover snapshot"
    );
    tgi.store().heal_machine(0);
}

fn bfs_ids(state: &Delta, center: NodeId, k: usize) -> FxHashSet<NodeId> {
    let mut seen = FxHashSet::default();
    if state.node(center).is_none() {
        return seen;
    }
    seen.insert(center);
    let mut frontier = vec![center];
    for _ in 0..k {
        let mut next = Vec::new();
        for id in frontier {
            for nbr in state.node(id).into_iter().flat_map(|n| n.all_neighbors()) {
                if seen.insert(nbr) {
                    next.push(nbr);
                }
            }
        }
        frontier = next;
    }
    seen
}
