//! Persistence: a TGI re-opened from its store must answer queries
//! identically and accept further appends.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use hgs_core::{PartitionStrategy, TgiConfig, TgiService, TgiView};
use hgs_datagen::{augment_with_churn, WikiGrowth};
use hgs_delta::{normalize_events, Delta, Event, EventKind, Time, TimeRange};
use hgs_store::{SimStore, StoreConfig, Table};

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

/// `events` cut into a build and two appends, at timestamp boundaries.
fn build_and_two_appends(events: &[Event]) -> [&[Event]; 3] {
    let cut = |mut at: usize| {
        while at < events.len() && events[at].time == events[at - 1].time {
            at += 1;
        }
        at
    };
    let (a, b) = (cut(events.len() / 3), cut(2 * events.len() / 3));
    [&events[..a], &events[a..b], &events[b..]]
}

/// Every row of the store, keyed by its namespaced key (one machine,
/// no replicas).
fn stored_rows(store: &SimStore) -> BTreeMap<Vec<u8>, Bytes> {
    store.content_rows().into_iter().flatten().collect()
}

/// An append writes its new spans' rows and then `Graph/meta`, its
/// commit record, and rewrites nothing: every key the store held
/// before it holds the same bytes after, `Graph/meta` aside; the rows
/// it writes are its new keys, each once, and `Graph/meta`; and of the
/// descriptor rows, it writes its new `Timespans` rows and `Graph/meta`
/// alone — no earlier span's row to close its range, no `Graph/config`.
#[test]
fn an_append_rewrites_no_row_but_graph_meta() {
    let events = WikiGrowth {
        events: 3_000,
        seed: 31,
        ..WikiGrowth::default()
    }
    .generate();
    let [built, batches @ ..] = build_and_two_appends(&events);
    let store = Arc::new(SimStore::new(StoreConfig::new(1, 1)));
    let svc = TgiService::try_build_on(cfg(), store.clone(), built).unwrap();
    let meta_key = [&[Table::Graph.tag()][..], b"meta"].concat();
    let puts = || store.stats_snapshot().iter().map(|m| m.puts).sum::<u64>();
    for batch in batches {
        let spans_before = svc.pin().span_count() as u32;
        let (before, puts_before) = (stored_rows(&store), puts());
        svc.try_append_events(batch).unwrap();
        let (after, written) = (stored_rows(&store), puts() - puts_before);
        let spans_after = svc.pin().span_count() as u32;
        assert!(spans_after > spans_before, "the append adds spans");

        for (key, row) in &before {
            if *key == meta_key {
                assert_ne!(after[key], *row, "Graph/meta records the append");
            } else {
                assert_eq!(after.get(key), Some(row), "rewrote {key:?}");
            }
        }
        let new: Vec<&Vec<u8>> = after.keys().filter(|k| !before.contains_key(*k)).collect();
        assert_eq!(written, new.len() as u64 + 1, "rows written");
        let descriptors: Vec<Vec<u8>> = new
            .into_iter()
            .filter(|k| k[0] == Table::Timespans.tag() || k[0] == Table::Graph.tag())
            .cloned()
            .collect();
        let new_spans: Vec<Vec<u8>> = (spans_before..spans_after)
            .map(|tsid| [&[Table::Timespans.tag()][..], &tsid.to_be_bytes()].concat())
            .collect();
        assert_eq!(descriptors, new_spans, "new descriptor rows");
    }
}

/// A reopened index ends each span where the next begins and leaves
/// the last open-ended — its `Timespans` rows spell no end — and so
/// cuts time exactly where the live view that wrote it does, after a
/// build and two appends whose closes never reached the store. Its
/// answers equal replay.
#[test]
fn reopened_spans_end_where_the_next_begins() {
    let events = WikiGrowth {
        events: 3_000,
        seed: 37,
        ..WikiGrowth::default()
    }
    .generate();
    let [built, batches @ ..] = build_and_two_appends(&events);
    let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
    let svc = TgiService::try_build_on(cfg(), store.clone(), built).unwrap();
    for batch in batches {
        svc.try_append_events(batch).unwrap();
    }
    let live = svc.pin();
    let reopened = TgiService::open(store).expect("open persisted index").pin();
    assert_eq!(reopened.span_count(), live.span_count());
    assert!(
        live.span_count() >= 3,
        "spans from the build and each append"
    );

    // Where the spans' rows put the cuts: each span ends at the next
    // one's start, the last at `Time::MAX`.
    let metas = common::span_metas(&reopened);
    assert_eq!(metas.len(), live.span_count());
    for pair in metas.windows(2) {
        assert_eq!(pair[0].range.end, pair[1].range.start);
    }
    assert_eq!(metas[0].range.start, 0);
    assert_eq!(metas.last().map(|m| m.range.end), Some(Time::MAX));
    // Where each view cuts: two times share a plan's span group iff
    // they fall in one span.
    let end = live.end_time();
    let cuts = |tgi: &TgiView| -> Vec<Time> {
        (1..=end + 1)
            .filter(|&t| tgi.plan_multipoint(&[t - 1, t]).span_groups == 2)
            .collect()
    };
    let starts: Vec<Time> = metas[1..].iter().map(|m| m.range.start).collect();
    assert_eq!(cuts(&live), starts);
    assert_eq!(cuts(&reopened), starts);

    for t in [0, end / 3, end / 2, end] {
        assert_eq!(
            reopened.try_snapshot(t).unwrap(),
            Delta::snapshot_by_replay(&events, t),
            "snapshot at t={t}"
        );
    }
    let normalized = normalize_events(&events);
    let open = TimeRange::new(0, Time::MAX);
    for id in [0u64, 7, 23] {
        assert_eq!(
            reopened.try_node_history(id, open).unwrap().events,
            common::node_events_by_replay(&normalized, id, open),
            "history of {id}"
        );
    }
}
