//! Boundary edge cases: queries landing exactly on checkpoint times,
//! timespan borders, and before/after the indexed history.

use hgs_core::{BuildError, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{Delta, Event, EventKind, Time, TimeRange};
use hgs_store::StoreConfig;

fn cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 500,
        eventlist_size: 50,
        partition_size: 40,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
}

#[test]
fn snapshots_at_every_event_timestamp() {
    // Exhaustive: every distinct timestamp in a small trace, plus the
    // instants just before and after each.
    let events = WikiGrowth {
        events: 600,
        seed: 3,
        ..WikiGrowth::default()
    }
    .generate();
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let mut times: Vec<Time> = events.iter().map(|e| e.time).collect();
    times.sort_unstable();
    times.dedup();
    for &t in &times {
        for probe in [t.saturating_sub(1), t, t + 1] {
            assert_eq!(
                tgi.try_snapshot(probe).unwrap(),
                Delta::snapshot_by_replay(&events, probe),
                "snapshot at t={probe}"
            );
        }
    }
}

#[test]
fn queries_beyond_history_return_final_state() {
    let events = WikiGrowth {
        events: 400,
        seed: 5,
        ..WikiGrowth::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let final_state = Delta::snapshot_by_replay(&events, u64::MAX);
    for t in [end, end + 1, end * 10, u64::MAX - 1] {
        assert_eq!(tgi.try_snapshot(t).unwrap(), final_state, "t={t}");
    }
}

#[test]
fn queries_before_history_start() {
    // Shift the trace to start at t=1000; earlier queries see nothing.
    let mut events = WikiGrowth {
        events: 300,
        seed: 7,
        ..WikiGrowth::default()
    }
    .generate();
    for e in &mut events {
        e.time += 1000;
    }
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    for t in [0u64, 500, 999] {
        assert!(
            tgi.try_snapshot(t).unwrap().is_empty(),
            "pre-history snapshot at t={t}"
        );
        assert_eq!(tgi.try_node_at(0, t).unwrap(), None);
    }
    assert!(!tgi.try_snapshot(1_000_000).unwrap().is_empty());
}

#[test]
fn single_timestamp_burst_history() {
    // Every event at the same instant: one chunk, one checkpoint.
    let events: Vec<Event> = (0..200u64)
        .map(|i| {
            Event::new(
                42,
                EventKind::AddEdge {
                    src: i % 20,
                    dst: (i + 1) % 20,
                    weight: 1.0,
                    directed: false,
                },
            )
        })
        .collect();
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    assert!(tgi.try_snapshot(41).unwrap().is_empty());
    assert_eq!(
        tgi.try_snapshot(42).unwrap(),
        Delta::snapshot_by_replay(&events, 42)
    );
    assert_eq!(tgi.try_snapshot(43).unwrap(), tgi.try_snapshot(42).unwrap());
}

#[test]
fn node_history_over_degenerate_ranges() {
    let events = WikiGrowth {
        events: 400,
        seed: 11,
        ..WikiGrowth::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    // Empty range: initial state only, no events.
    let h = tgi
        .try_node_history(0, TimeRange::new(end / 2, end / 2))
        .unwrap();
    assert!(h.events.is_empty());
    assert_eq!(
        h.initial.as_ref(),
        Delta::snapshot_by_replay(&events, end / 2).node(0)
    );
    // Range entirely after history: final state, no events.
    let h2 = tgi
        .try_node_history(0, TimeRange::new(end + 10, end + 100))
        .unwrap();
    assert!(h2.events.is_empty());
    assert_eq!(
        h2.initial.as_ref(),
        Delta::snapshot_by_replay(&events, u64::MAX).node(0)
    );
    // A horizontal partition the index does not have holds no node:
    // TAF's per-partition fetch answers it empty.
    let (ns, all) = (cfg().horizontal_partitions, TimeRange::new(0, end + 1));
    assert!(!tgi.try_node_histories_for_sid(0, all).unwrap().is_empty());
    for sid in [ns, 99, u32::MAX] {
        assert!(tgi.try_node_histories_for_sid(sid, all).unwrap().is_empty());
    }
}

#[test]
fn khop_of_missing_and_isolated_nodes() {
    let mut events = WikiGrowth {
        events: 300,
        seed: 13,
        ..WikiGrowth::default()
    }
    .generate();
    let t_end = events.last().unwrap().time;
    events.push(Event::new(t_end + 1, EventKind::AddNode { id: 999_999 }));
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    for strategy in [
        hgs_core::KhopStrategy::ViaSnapshot,
        hgs_core::KhopStrategy::Recursive,
    ] {
        let missing = tgi.try_khop_with(123_456_789, t_end, 2, strategy).unwrap();
        assert!(missing.is_empty(), "missing node via {strategy:?}");
        let isolated = tgi.try_khop_with(999_999, t_end + 1, 2, strategy).unwrap();
        assert_eq!(isolated.cardinality(), 1, "isolated node via {strategy:?}");
    }
}

#[test]
fn out_of_order_batch_is_an_error_and_leaves_the_handle_usable() {
    let events = WikiGrowth::sized(1_500).generate();
    let (built, rest) = events.split_at(1_000);
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(2, 1), built).unwrap();
    let (end, w0) = (tgi.pin().end_time(), tgi.watermark());
    let before = tgi.store().content_rows();

    // Re-sends the tail of the indexed prefix.
    let tail = &built[built.len() - 10..];
    assert_eq!(
        tgi.try_append_events(tail),
        Err(BuildError::OutOfOrder {
            time: tail[0].time,
            floor: end
        })
    );
    // Starts inside the indexed prefix.
    let stale = [Event::new(end - 1, EventKind::AddNode { id: 9_999_999 })];
    assert_eq!(
        tgi.try_append_events(&stale),
        Err(BuildError::OutOfOrder {
            time: end - 1,
            floor: end
        })
    );
    // Starts fine, then runs backwards.
    let unsorted = [
        Event::new(end + 5, EventKind::AddNode { id: 9_999_998 }),
        Event::new(end + 2, EventKind::AddNode { id: 9_999_999 }),
    ];
    assert_eq!(
        tgi.try_append_events(&unsorted),
        Err(BuildError::OutOfOrder {
            time: end + 2,
            floor: end + 5
        })
    );
    assert!(!tgi.is_poisoned());
    assert_eq!((tgi.watermark(), tgi.pin().end_time()), (w0, end));
    assert_eq!(tgi.store().content_rows(), before, "nothing was written");

    // The handle still takes the batch it should have been given — as
    // the next watermark — and ends up byte-identical to a handle that
    // never saw the bad ones.
    let w1 = tgi
        .try_append_events(rest)
        .expect("good batch after bad ones");
    assert_eq!(w1, w0 + 1);
    let clean = TgiService::try_build(cfg(), StoreConfig::new(2, 1), built).unwrap();
    clean.try_append_events(rest).unwrap();
    assert_eq!(tgi.store().content_rows(), clean.store().content_rows());
    let view = tgi.pin();
    let t = view.end_time();
    assert_eq!(
        view.try_snapshot(t).unwrap(),
        Delta::snapshot_by_replay(&events, t)
    );
}
