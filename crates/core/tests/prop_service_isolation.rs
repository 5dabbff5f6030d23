//! Watermark isolation as a property: reader threads querying a live
//! [`TgiService`] — while a writer appends batches — must get answers
//! **byte-identical** to a quiesced from-scratch [`TgiService::try_build`] over
//! exactly the event prefix their pinned watermark denotes. Across
//! client widths, no interleaving may expose a torn span, a shrunken
//! graph, or a mixed-watermark answer.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hgs_core::{NodeHistory, TgiConfig, TgiService, TgiView};
use hgs_delta::{AttrValue, Delta, Event, EventKind, TimeRange};
use hgs_store::{SimStore, StoreConfig};
use proptest::prelude::*;

const LABELS: [&str; 2] = ["Author", "Paper"];

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..24;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        3 => (0u64..24, 0u64..24).prop_map(|(src, dst)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed: false }
        }),
        1 => (0u64..24, 0u64..24).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        2 => (id, 0usize..2).prop_map(|(id, l)| EventKind::SetNodeAttr {
            id,
            key: hgs_core::LABEL_KEY.into(),
            value: AttrValue::Text(LABELS[l].into()),
        }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..3), 20..200).prop_map(|kinds| {
        let mut t = 1u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    })
}

fn small_cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 60,
        eventlist_size: 16,
        partition_size: 8,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
}

/// Cut the history into an initial build plus up to two append
/// batches, with every cut advanced to a strict time boundary (an
/// append must start strictly after the indexed end).
fn boundaries(events: &[Event]) -> Vec<usize> {
    let mut cuts = Vec::new();
    for frac in [3usize, 2] {
        let mut cut = (events.len() / frac).max(1);
        while cut < events.len() && events[cut].time <= events[cut - 1].time {
            cut += 1;
        }
        if cut < events.len() && cuts.last() != Some(&cut) {
            cuts.push(cut);
        }
    }
    cuts.push(events.len());
    // hgs-lint: allow(sorted-dedup, "cuts are built in ascending index order: each boundary starts later and alignment only advances")
    cuts.dedup();
    cuts
}

/// Everything one pinned view answered, replayed later against the
/// quiesced oracle of the same watermark.
struct Observation {
    epoch: u64,
    snapshot: Delta,
    histories: Vec<(u64, NodeHistory)>,
    khop: Delta,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent pinned reads equal the quiesced rebuild at the
    /// pinned watermark, for every client width.
    #[test]
    fn pinned_reads_equal_quiesced_rebuild(
        events in arb_history(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let cuts = boundaries(&events);
        let initial = cuts[0];
        let svc = TgiService::try_build_on_c(
            small_cfg(),
            Arc::new(SimStore::new(StoreConfig::new(2, 1))),
            &events[..initial],
            c,
        )
        .expect("build");

        let observations: Vec<Observation> = std::thread::scope(|s| {
            let svc = &svc;
            let events = &events;
            let cuts = &cuts;
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        let mut last_epoch = 0;
                        for i in 0..6 {
                            let view = svc.pin();
                            let epoch = view.epoch();
                            assert!(epoch >= last_epoch, "watermark went backwards");
                            last_epoch = epoch;
                            let t = view.end_time();
                            let range = TimeRange::new(0, t + 1);
                            let nids = [(r + i) as u64 % 24, (r + i + 7) as u64 % 24];
                            seen.push(Observation {
                                epoch,
                                snapshot: view.try_snapshot(t).expect("healthy"),
                                histories: nids
                                    .iter()
                                    .map(|&n| {
                                        (n, view.try_node_history(n, range).expect("healthy"))
                                    })
                                    .collect(),
                                khop: view.try_khop(nids[0], t, 2).expect("healthy"),
                            });
                            std::thread::yield_now();
                        }
                        seen
                    })
                })
                .collect();
            s.spawn(move || {
                for w in cuts.windows(2) {
                    svc.try_append_events(&events[w[0]..w[1]]).expect("append");
                }
            });
            readers
                .into_iter()
                .flat_map(|r| r.join().expect("reader panicked"))
                .collect()
        });

        // Epoch e was published after the initial build plus (e - 1)
        // appends: its sealed prefix ends at cuts[e - 1].
        let mut oracles: std::collections::BTreeMap<u64, Arc<TgiView>> =
            std::collections::BTreeMap::new();
        for ob in &observations {
            let oracle = oracles.entry(ob.epoch).or_insert_with(|| {
                let prefix = if ob.epoch == 1 { initial } else { cuts[ob.epoch as usize - 1] };
                TgiService::try_build_on(
                    small_cfg(),
                    Arc::new(SimStore::new(StoreConfig::new(2, 1))),
                    &events[..prefix],
                )
                .expect("oracle build")
                .pin()
            });
            let t = oracle.end_time();
            prop_assert_eq!(
                &ob.snapshot,
                &oracle.try_snapshot(t).expect("oracle"),
                "snapshot at watermark {}", ob.epoch
            );
            let range = TimeRange::new(0, t + 1);
            for (n, h) in &ob.histories {
                prop_assert_eq!(
                    h,
                    &oracle.try_node_history(*n, range).expect("oracle"),
                    "history of {} at watermark {}", n, ob.epoch
                );
            }
            let root = ob.histories[0].0;
            prop_assert_eq!(
                &ob.khop,
                &oracle.try_khop(root, t, 2).expect("oracle"),
                "khop of {} at watermark {}", root, ob.epoch
            );
        }
    }
}

/// Readers never wait for the writer: a pinned read completes *while
/// an append is in flight*. The reader waits until the store has taken
/// writes under an unchanged watermark (the writer is mid-append),
/// pins, reads, and counts the read if the watermark still has not
/// moved. A `pin()` that needed the writer's lock would block until
/// the publish and never land inside a window.
#[test]
fn pinned_reads_complete_while_an_append_is_in_flight() {
    let events = hgs_datagen::WikiGrowth::sized(60_000).generate();
    // An append must start strictly after the indexed end.
    let n = events.len();
    let cut = |k: usize| (k * 10_000..n).find(|&i| events[i].time > events[i - 1].time);
    let cuts: Vec<usize> = (1..6).filter_map(cut).chain([n]).collect();
    let store = Arc::new(SimStore::new(StoreConfig::new(4, 1)));
    // Five spans per append, so the store takes writes from early in
    // each window; writer at width 1, so the reader has its own core.
    let cfg = TgiConfig::default().with_timespan(2_000);
    let svc = TgiService::try_build_on_c(cfg, Arc::clone(&store), &events[..cuts[0]], 1).unwrap();
    let written = || -> u64 { store.stats_snapshot().iter().map(|m| m.put_batches).sum() };
    let finished = AtomicBool::new(false);
    let done = || finished.load(Ordering::Acquire);
    let reads_inside = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut inside = 0;
            while !done() {
                let (w, rows) = (svc.watermark(), written());
                while !done() && svc.watermark() == w && written() == rows {
                    std::thread::yield_now();
                }
                let view = svc.pin();
                view.try_node_at(0, view.end_time()).expect("healthy");
                view.try_snapshot(view.end_time()).expect("healthy");
                inside += usize::from(svc.watermark() == w && !done());
            }
            inside
        });
        for w in cuts.windows(2) {
            svc.try_append_events(&events[w[0]..w[1]]).expect("append");
        }
        finished.store(true, Ordering::Release);
        reader.join().expect("reader panicked")
    });
    assert_eq!(svc.watermark(), cuts.len() as u64, "one epoch per batch");
    assert!(reads_inside >= 1, "no read landed inside an append");
}

/// A pinned view's attribute histories end at its watermark. The read
/// walks the node's version chain, which a view bounds by its own span
/// list; answered from a prefix scan over per-`(key, tsid)` index rows
/// it was not, and a pinned view grew the points of every later append.
#[test]
fn pinned_attr_history_ignores_points_appended_after_the_pin() {
    let key = hgs_core::LABEL_KEY;
    let mut events = hgs_datagen::SkewedLabels {
        nodes: 200,
        edge_events: 1_000,
        attr_churn: 500,
        ..Default::default()
    }
    .generate();
    let sealed = events.len();
    // The append sets and clears the label of nodes the prefix knows.
    let nodes = 0u64..15;
    let t0 = events[sealed - 1].time + 1;
    for nid in nodes.clone() {
        let value = AttrValue::Text("Later".into());
        let key = key.to_string();
        let set = EventKind::SetNodeAttr {
            id: nid,
            key: key.clone(),
            value,
        };
        events.push(Event::new(t0 + 2 * nid, set));
        let clear = EventKind::RemoveNodeAttr { id: nid, key };
        events.push(Event::new(t0 + 2 * nid + 1, clear));
    }
    let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
    let svc = TgiService::try_build_on(small_cfg(), store, &events[..sealed]).unwrap();

    let pinned = svc.pin();
    let history = |view: &hgs_core::TgiView, nid| view.try_attr_history(nid, key).expect("healthy");
    let before: Vec<_> = nodes.clone().map(|nid| history(&pinned, nid)).collect();
    svc.try_append_events(&events[sealed..]).expect("append");
    let fresh = svc.pin();
    for (nid, before) in nodes.zip(before) {
        let at_pin = common::attr_history_by_replay(&events[..sealed], nid, key);
        assert_eq!(before, at_pin, "node {nid} before the append");
        assert_eq!(history(&pinned, nid), at_pin, "pinned node {nid} after it");
        let now = history(&fresh, nid);
        assert_eq!(now, common::attr_history_by_replay(&events, nid, key));
        assert_eq!(
            now.len(),
            at_pin.len() + 2,
            "a fresh pin sees node {nid}'s new points"
        );
    }
}
