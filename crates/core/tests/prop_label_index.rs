//! Label/attribute query equality: every point predicate — answered
//! from the change-point rows, or by the index-off fallback — must
//! equal a filter of the replayed state, and every attribute history —
//! answered from the node's version chain — the plain event-replay
//! oracle, across index on/off, chains on/off, build parallelism, and
//! build-vs-append construction.

mod common;

use std::sync::Arc;

use common::{attr_history_by_replay, node_events_by_replay, nodes_matching_by_replay};
use hgs_core::{TgiConfig, TgiService, TgiView, LABEL_KEY};
use hgs_datagen::{SkewedLabels, CHURN_KEY, DEAD_LABEL};
use hgs_delta::{normalize_events, AttrValue, Event, EventKind, Time, TimeRange};
use hgs_store::machine::MachineStatsSnapshot;
use hgs_store::{SimStore, StoreConfig};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["Author", "Paper", "Venue"];
const KEYS: [&str; 2] = [LABEL_KEY, "Grade"];

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..24;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        3 => (0u64..24, 0u64..24).prop_map(|(src, dst)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed: false }
        }),
        1 => (0u64..24, 0u64..24).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        4 => (id.clone(), 0usize..2, 0usize..3).prop_map(|(id, k, l)| EventKind::SetNodeAttr {
            id,
            key: KEYS[k].into(),
            value: AttrValue::Text(LABELS[l].into()),
        }),
        2 => (id, 0usize..2).prop_map(|(id, k)| EventKind::RemoveNodeAttr {
            id,
            key: KEYS[k].into(),
        }),
    ]
}

/// Chronological histories, attribute churn at `t = 0` included.
fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..3), 1..250).prop_map(|kinds| {
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

fn small_cfg(on: bool) -> TgiConfig {
    TgiConfig {
        events_per_timespan: 60,
        eventlist_size: 16,
        partition_size: 8,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
    .with_secondary_indexes(on)
}

fn build_c(cfg: TgiConfig, events: &[Event], c: usize) -> Arc<TgiService> {
    TgiService::try_build_on(
        cfg,
        Arc::new(SimStore::new(StoreConfig::new(2, 1))),
        events,
        c,
    )
    .expect("build")
}

/// Timepoints worth probing: span starts, both sides of the history's
/// middle, the end, and past the end.
fn probe_times(events: &[Event]) -> Vec<Time> {
    let end = events.last().map(|e| e.time).unwrap_or(0);
    vec![0, 1, end / 3, end / 2, end.saturating_sub(1), end, end + 7]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Indexed point-in-time predicate answers equal a filter of the
    /// replayed state at every probe time, under every build width;
    /// with the index off, the same calls answer identically through
    /// the documented fallback.
    #[test]
    fn indexed_matching_equals_replay_oracle(
        events in arb_history(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let on = build_c(small_cfg(true), &events, c).pin();
        let off = build_c(small_cfg(false), &events, c).pin();
        for t in probe_times(&events) {
            for key in KEYS {
                for label in LABELS {
                    let value = AttrValue::Text(label.into());
                    let want = nodes_matching_by_replay(&events, key, &value, t);
                    let got = on.try_nodes_matching_at(key, &value, t).expect("indexed");
                    prop_assert_eq!(&got, &want, "indexed ({}, {}) at {}", key, label, t);
                    let fallback = off.try_nodes_matching_at(key, &value, t).expect("fallback");
                    prop_assert_eq!(&fallback, &want, "fallback ({}, {}) at {}", key, label, t);
                }
            }
        }
    }

    /// Per-node attribute histories equal the plain event-replay
    /// oracle — time 0 included — whether or not the secondary index
    /// exists, under every build width.
    #[test]
    fn attr_history_matches_replay_oracle(
        events in arb_history(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let on = build_c(small_cfg(true), &events, c).pin();
        let off = build_c(small_cfg(false), &events, c).pin();
        for nid in 0u64..24 {
            for key in KEYS {
                let want = attr_history_by_replay(&events, nid, key);
                let got = on.try_attr_history(nid, key).expect("index on");
                prop_assert_eq!(&got, &want, "history of ({}, {})", nid, key);
                let got = off.try_attr_history(nid, key).expect("index off");
                prop_assert_eq!(&got, &want, "index-off history of ({}, {})", nid, key);
            }
        }
    }

    /// A chain-less index answers node-centric histories in full: with
    /// `version_chains` off (by hand, or through the DeltaGraph and
    /// Copy+Log presets) there is no chain to name the chunks touching
    /// a node, and the read scans every chunk the range overlaps — it
    /// must not answer "no events".
    #[test]
    fn histories_equal_replay_with_and_without_chains(events in arb_history()) {
        let small = |preset: TgiConfig| TgiConfig {
            events_per_timespan: 60,
            eventlist_size: 16,
            ..preset
        };
        let configs = [
            small_cfg(true),
            TgiConfig { version_chains: false, ..small_cfg(true) },
            TgiConfig { version_chains: false, ..small_cfg(false) },
            small(TgiConfig::deltagraph()),
            small(TgiConfig::copy_log(16)),
        ];
        let normalized = normalize_events(&events);
        let end = events.last().map_or(0, |e| e.time);
        let ranges = [TimeRange::new(0, end + 1), TimeRange::new(end / 3, end / 3 * 2 + 1)];
        for cfg in configs {
            let tgi = build_c(cfg, &events, 1).pin();
            for nid in 0u64..24 {
                for range in ranges {
                    let got = tgi.try_node_history(nid, range).expect("healthy").events;
                    let want = node_events_by_replay(&normalized, nid, range);
                    prop_assert_eq!(got, want, "history of {} over {:?}, {:?}", nid, range, cfg);
                }
                for key in KEYS {
                    let got = tgi.try_attr_history(nid, key).expect("healthy");
                    let want = attr_history_by_replay(&events, nid, key);
                    prop_assert_eq!(got, want, "history of ({}, {}), {:?}", nid, key, cfg);
                }
            }
        }
    }

    /// Build-then-append produces the same indexed answers as one
    /// from-scratch build over the whole history: appended spans carry
    /// the attribute state across the cut correctly.
    #[test]
    fn append_maintains_index_rows(events in arb_history()) {
        let full = build_c(small_cfg(true), &events, 1).pin();
        // Append batches must start strictly after the indexed end:
        // advance the cut to the next time boundary.
        let mut cut = (events.len() / 2).max(1);
        while cut < events.len() && events[cut].time <= events[cut - 1].time {
            cut += 1;
        }
        let svc = build_c(small_cfg(true), &events[..cut], 1);
        if cut < events.len() {
            svc.try_append_events(&events[cut..]).expect("append");
        }
        let appended = svc.pin();
        for t in probe_times(&events) {
            for key in KEYS {
                for label in LABELS {
                    let value = AttrValue::Text(label.into());
                    let want = full.try_nodes_matching_at(key, &value, t).expect("full");
                    let got = appended.try_nodes_matching_at(key, &value, t).expect("appended");
                    prop_assert_eq!(&got, &want, "({}, {}) at {}", key, label, t);
                }
            }
        }
        for nid in 0u64..24 {
            let want = full.try_attr_history(nid, LABEL_KEY).expect("full");
            let got = appended.try_attr_history(nid, LABEL_KEY).expect("appended");
            prop_assert_eq!(&got, &want, "history of {}", nid);
        }
    }
}

/// What the secondary index buys: on a Zipf-skewed labelled trace,
/// cache off, label point queries (hot, mid-rank, tail and dead labels)
/// read strictly fewer store rows and bytes, in fewer requests, than
/// the materialize-then-filter fallback of the same index built with
/// the secondary index off — both answering what replay answers.
#[test]
fn indexed_label_query_reads_less_than_materialization() {
    let events = SkewedLabels::default().generate();
    let end = events.last().unwrap().time;
    let build = |cfg: TgiConfig| {
        let tgi = TgiService::try_build(cfg, StoreConfig::new(4, 1), &events)
            .unwrap()
            .pin();
        tgi.set_read_cache_budget(0);
        tgi
    };
    let (on, off) = (
        build(TgiConfig::default()),
        build(TgiConfig::default().with_secondary_indexes(false)),
    );
    let labels = ["Label00", "Label03", "Label10", DEAD_LABEL];
    // Answers and [rows, bytes, requests] of one pass over every
    // (label, quarter-of-the-trace time).
    let pass = |tgi: &TgiView, query: &dyn Fn(&str, Time) -> Vec<u64>| {
        let before = tgi.store().stats_snapshot();
        let answers: Vec<Vec<u64>> = labels
            .iter()
            .flat_map(|&l| (1..=4).map(move |i| (l, end * i / 4)))
            .map(|(l, t)| query(l, t))
            .collect();
        let diff = SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
        let cost = diff.iter().fold([0u64; 3], |[rows, bytes, reqs], m| {
            [
                rows + m.rows_read,
                bytes + m.bytes_read,
                reqs + m.gets + m.scans,
            ]
        });
        (answers, cost)
    };
    let (indexed, i_cost) = pass(&on, &|l, t| on.try_nodes_with_label_at(l, t).unwrap());
    let (materialized, m_cost) = pass(&off, &|l, t| off.try_nodes_with_label_at(l, t).unwrap());
    let (replayed, _) = pass(&on, &|l, t| {
        nodes_matching_by_replay(&events, LABEL_KEY, &AttrValue::Text(l.into()), t)
    });
    assert_eq!(indexed, replayed);
    assert_eq!(materialized, replayed);
    assert!(indexed.iter().any(|a| !a.is_empty()), "degenerate workload");
    let dead_at_end = indexed.last().unwrap();
    assert!(dead_at_end.is_empty(), "the dead label is gone by the end");
    for (i, m) in i_cost.iter().zip(m_cost) {
        assert!(*i < m, "indexed {i_cost:?} vs materialized {m_cost:?}");
    }
}

/// What one call cost the store, per machine.
fn store_cost(tgi: &TgiView, call: impl FnOnce()) -> Vec<MachineStatsSnapshot> {
    let before = tgi.store().stats_snapshot();
    call();
    SimStore::stats_since(&tgi.store().stats_snapshot(), &before)
}

/// An attribute history is a node-centric history read and costs like
/// one: on the Zipf-skewed labelled trace, cache off, it reads a few
/// KiB — the node's chain rows and the eventlist chunks that touch the
/// node, never more than the node's whole history does — in at most
/// one request for the chain plus one per span. (Answered from bare-key
/// index rows it read every node's set points: > 100 KiB per call.)
/// It is the *same* read as `try_node_history`'s event half: one
/// routine, so the two differ by exactly the `node_at` of the initial
/// state.
#[test]
fn attr_history_costs_a_chain_walk_and_shares_it_with_node_history() {
    let gen = SkewedLabels::default();
    let events = gen.generate();
    let whole = TimeRange::new(0, events.last().unwrap().time + 1);
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    tgi.set_read_cache_budget(0);
    let total = |cost: &[MachineStatsSnapshot]| {
        let sum = cost
            .iter()
            .fold(MachineStatsSnapshot::default(), |s, m| s.merge(m));
        let round_trips = sum.gets + sum.scans + sum.batches - sum.batched_subrequests;
        (sum.bytes_read, round_trips)
    };
    let mut points = 0;
    for nid in (0..32).map(|i| i * gen.nodes as u64 / 32) {
        let at_start = store_cost(&tgi, || drop(tgi.try_node_at(nid, whole.start).unwrap()));
        let history = store_cost(&tgi, || drop(tgi.try_node_history(nid, whole).unwrap()));
        for key in [LABEL_KEY, CHURN_KEY] {
            let mut got = Vec::new();
            let cost = store_cost(&tgi, || got = tgi.try_attr_history(nid, key).unwrap());
            assert_eq!(got, attr_history_by_replay(&events, nid, key));
            points += got.len();
            let (bytes, round_trips) = total(&cost);
            assert!(bytes <= 16 << 10, "({nid}, {key}) read {bytes} B");
            assert!(bytes <= total(&history).0, "({nid}, {key}) read {bytes} B");
            assert!(
                round_trips <= 1 + tgi.span_count() as u64,
                "({nid}, {key}) took {round_trips} round trips"
            );
            assert_eq!(
                cost,
                SimStore::stats_since(&history, &at_start),
                "({nid}, {key}): node_history minus its node_at"
            );
        }
    }
    assert!(points > 64, "degenerate workload: {points} points");
}
