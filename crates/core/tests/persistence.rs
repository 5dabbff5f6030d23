//! Persistence: a TGI re-opened from its store must answer queries
//! identically and accept further appends.

use std::sync::Arc;

use hgs_core::{PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::{augment_with_churn, WikiGrowth};
use hgs_delta::{Delta, Event, EventKind, TimeRange};
use hgs_store::{SimStore, StoreConfig};

fn cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 1_200,
        eventlist_size: 150,
        partition_size: 60,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
}

#[test]
fn reopened_index_answers_identically() {
    let base = WikiGrowth {
        events: 2_500,
        seed: 13,
        ..WikiGrowth::default()
    }
    .generate();
    let events = augment_with_churn(&base, 1_000, 0.4, 5);
    let end = events.last().unwrap().time;

    let store = Arc::new(SimStore::new(StoreConfig::new(3, 1)));
    let built = TgiService::try_build_on(cfg(), store.clone(), &events)
        .unwrap()
        .pin();
    let reopened = TgiService::open(store).expect("open persisted index").pin();

    assert_eq!(reopened.span_count(), built.span_count());
    assert_eq!(reopened.end_time(), built.end_time());
    assert_eq!(reopened.event_count(), built.event_count());
    for t in [0, end / 3, end / 2, end] {
        assert_eq!(
            reopened.try_snapshot(t).unwrap(),
            built.try_snapshot(t).unwrap(),
            "snapshot at t={t}"
        );
    }
    let range = TimeRange::new(end / 4, end);
    for id in [0u64, 7, 23] {
        assert_eq!(
            reopened.try_node_history(id, range).unwrap(),
            built.try_node_history(id, range).unwrap(),
            "history of {id}"
        );
    }
}

#[test]
fn reopened_index_with_locality_maps() {
    let events = WikiGrowth {
        events: 2_000,
        seed: 17,
        ..WikiGrowth::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
    let cfg = cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: true,
    });
    let built = TgiService::try_build_on(cfg, store.clone(), &events)
        .unwrap()
        .pin();
    let reopened = TgiService::open(store).expect("open persisted index").pin();
    for t in [end / 2, end] {
        assert_eq!(
            reopened.try_snapshot(t).unwrap(),
            built.try_snapshot(t).unwrap(),
            "snapshot at t={t}"
        );
    }
    // Micro-partition-level fetches depend on the reloaded maps.
    for id in [1u64, 9, 31] {
        assert_eq!(
            reopened.try_node_at(id, end).unwrap(),
            built.try_node_at(id, end).unwrap(),
            "node {id}"
        );
    }
}

/// The persisted map must hold every node the span assigned, not only
/// those alive when it closed: a node removed mid-span is still read —
/// at the times it was alive, and along its version chain, whose `pid`
/// the reader derives from the map — at the micro-partition the build
/// put it in.
#[test]
fn reopened_locality_maps_still_place_nodes_the_span_removed() {
    let mut events = Vec::new();
    let mut removed = Vec::new();
    let generated = WikiGrowth {
        events: 2_000,
        seed: 17,
        ..WikiGrowth::default()
    }
    .generate();
    for (i, e) in generated.into_iter().enumerate() {
        let removal = (i % 150 == 149).then(|| {
            // The older endpoint, when there are two: alive well
            // before this event.
            let (a, b) = e.kind.touched();
            let id = b.map_or(a, |b| a.min(b));
            removed.push((id, e.time));
            Event::new(e.time, EventKind::RemoveNode { id })
        });
        events.push(e);
        events.extend(removal);
    }
    let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
    let cfg = cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: true,
    });
    let built = TgiService::try_build_on(cfg, store.clone(), &events)
        .unwrap()
        .pin();
    let reopened = TgiService::open(store).expect("open persisted index").pin();
    let mut alive = 0;
    for (id, t_removed) in removed {
        let alive_at = t_removed - 1;
        let want = Delta::snapshot_by_replay(&events, alive_at);
        alive += want.contains(id) as usize;
        for (what, tgi) in [("built", &built), ("reopened", &reopened)] {
            assert_eq!(
                tgi.try_node_at(id, alive_at).unwrap().as_ref(),
                want.node(id),
                "{what}: node {id} at t={alive_at}"
            );
        }
        assert_eq!(
            reopened.try_version_chain(id).unwrap(),
            built.try_version_chain(id).unwrap(),
            "chain of {id}"
        );
        let range = TimeRange::new(0, t_removed + 1);
        assert_eq!(
            reopened.try_node_history(id, range).unwrap(),
            built.try_node_history(id, range).unwrap(),
            "history of {id}"
        );
    }
    assert!(alive >= 8, "the removals hit living nodes ({alive})");
}

#[test]
fn reopened_index_accepts_appends() {
    let events = WikiGrowth {
        events: 3_000,
        seed: 29,
        ..WikiGrowth::default()
    }
    .generate();
    let cut = events.len() / 2;
    let mut cut_at = cut;
    while cut_at < events.len() && events[cut_at].time == events[cut_at - 1].time {
        cut_at += 1;
    }

    let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
    TgiService::try_build_on(cfg(), store.clone(), &events[..cut_at]).unwrap();
    let reopened = TgiService::open(store).expect("open persisted index");
    reopened.try_append_events(&events[cut_at..]).unwrap();
    let reopened = reopened.pin();

    let end = events.last().unwrap().time;
    for t in [0, end / 2, end] {
        assert_eq!(
            reopened.try_snapshot(t).unwrap(),
            Delta::snapshot_by_replay(&events, t),
            "post-append snapshot at t={t}"
        );
    }
}
