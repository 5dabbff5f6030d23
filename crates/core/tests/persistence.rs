//! Persistence: a TGI re-opened from its store must answer queries
//! identically and accept further appends.

use std::sync::Arc;

use hgs_core::{PartitionStrategy, Tgi, TgiConfig};
use hgs_datagen::{augment_with_churn, WikiGrowth};
use hgs_delta::{Delta, TimeRange};
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
    let built = Tgi::try_build_on(cfg(), store.clone(), &events).unwrap();
    let reopened = Tgi::open(store).expect("open persisted index");

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
    let built = Tgi::try_build_on(cfg, store.clone(), &events).unwrap();
    let reopened = Tgi::open(store).expect("open persisted index");
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
    let _first_half = Tgi::try_build_on(cfg(), store.clone(), &events[..cut_at]).unwrap();
    let mut reopened = Tgi::open(store).expect("open persisted index");
    reopened.try_append_events(&events[cut_at..]).unwrap();

    let end = events.last().unwrap().time;
    for t in [0, end / 2, end] {
        assert_eq!(
            reopened.try_snapshot(t).unwrap(),
            Delta::snapshot_by_replay(&events, t),
            "post-append snapshot at t={t}"
        );
    }
}
