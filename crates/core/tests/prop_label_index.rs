//! Label/attribute query equality: every point predicate — answered
//! from the change-point rows — must equal a filter of the replayed
//! state, and every attribute history — answered from the node's
//! version chain — the plain event-replay oracle, across chains on/off,
//! build parallelism, boundary replication, and build-vs-append
//! construction.

mod common;

use std::sync::Arc;

use bytes::BytesMut;
use common::{attr_history_by_replay, node_events_by_replay, nodes_matching_by_replay};
use hgs_core::{PartitionStrategy, TgiConfig, TgiService, TgiView, LABEL_KEY};
use hgs_datagen::{SkewedLabels, CHURN_KEY, DEAD_LABEL};
use hgs_delta::{
    normalize_events, value_term, AttrValue, Event, EventKind, Time, TimeRange, TERM_KIND_VALUE,
};
use hgs_store::machine::MachineStatsSnapshot;
use hgs_store::{term_key, SimStore, StoreConfig, Table};
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

/// Hash partitioning, and locality with boundary replication — where
/// every span encoder item replays the whole graph, other partitions'
/// nodes included.
const STRATEGIES: [PartitionStrategy; 2] = [
    PartitionStrategy::Random,
    PartitionStrategy::Locality {
        replicate_boundary: true,
    },
];

fn small_cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 60,
        eventlist_size: 16,
        partition_size: 8,
        horizontal_partitions: 2,
        ..TgiConfig::default()
    }
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
    /// replayed state at every probe time, under every build width and
    /// partition strategy.
    #[test]
    fn indexed_matching_equals_replay_oracle(
        events in arb_history(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let on = STRATEGIES.map(|s| build_c(small_cfg().with_strategy(s), &events, c).pin());
        for t in probe_times(&events) {
            for key in KEYS {
                for label in LABELS {
                    let value = AttrValue::Text(label.into());
                    let want = nodes_matching_by_replay(&events, key, &value, t);
                    for (on, s) in on.iter().zip(STRATEGIES) {
                        let got = on.try_nodes_matching_at(key, &value, t).expect("indexed");
                        let why = format!("indexed ({key}, {label}) at {t}, {s:?}");
                        prop_assert_eq!(&got, &want, "{}", why);
                    }
                }
            }
        }
    }

    /// Per-node attribute histories equal the plain event-replay
    /// oracle — time 0 included — under every build width.
    #[test]
    fn attr_history_matches_replay_oracle(
        events in arb_history(),
        c in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let tgi = build_c(small_cfg(), &events, c).pin();
        for nid in 0u64..24 {
            for key in KEYS {
                let want = attr_history_by_replay(&events, nid, key);
                let got = tgi.try_attr_history(nid, key).expect("healthy");
                prop_assert_eq!(&got, &want, "history of ({}, {})", nid, key);
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
            small_cfg(),
            TgiConfig { version_chains: false, ..small_cfg() },
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
    /// from-scratch build over the whole history, under either
    /// partition strategy: appended spans carry the attribute state
    /// across the cut correctly.
    #[test]
    fn append_maintains_index_rows(
        events in arb_history(),
        strategy in prop_oneof![Just(STRATEGIES[0]), Just(STRATEGIES[1])],
    ) {
        let cfg = small_cfg().with_strategy(strategy);
        let full = build_c(cfg, &events, 1).pin();
        // Append batches must start strictly after the indexed end:
        // advance the cut to the next time boundary.
        let mut cut = (events.len() / 2).max(1);
        while cut < events.len() && events[cut].time <= events[cut - 1].time {
            cut += 1;
        }
        let svc = build_c(cfg, &events[..cut], 1);
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
/// cache off, each label point query (hot, mid-rank, tail and dead
/// labels) reads at most one row in one request, and that row is one
/// of the label's `AttrIndex` term rows, never a `Deltas` row. Over the
/// whole pass it reads strictly fewer store rows and bytes, in fewer
/// requests, than materializing the snapshot at the same times from
/// the same index and filtering it — both answering what replay
/// answers.
#[test]
fn indexed_label_query_reads_less_than_materialization() {
    let events = SkewedLabels::default().generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .unwrap()
        .pin();
    tgi.set_read_cache_budget(0);
    let label = |l: &str| AttrValue::Text(l.into());
    // The stored sizes of one label's term rows, every span's.
    let term_row_sizes = |l: &str| -> Vec<u64> {
        let mut term = BytesMut::new();
        value_term(LABEL_KEY, &label(l), &mut term);
        let key = term_key(TERM_KIND_VALUE, &term, 0);
        let prefix = [&[Table::AttrIndex.tag()], &key[..key.len() - 4]].concat();
        let rows = tgi.store().content_rows().into_iter().flatten();
        rows.filter(|(k, _)| k.len() == prefix.len() + 4 && k.starts_with(&prefix))
            .map(|(_, v)| v.len() as u64)
            .collect()
    };
    let queries: Vec<(&str, Time)> = ["Label00", "Label03", "Label10", DEAD_LABEL]
        .into_iter()
        .flat_map(|l| (1..=4).map(move |i| (l, end * i / 4)))
        .collect();
    // Answers and [rows, bytes, requests] of each query of one pass.
    let pass = |query: &dyn Fn(&str, Time) -> Vec<u64>| -> (Vec<Vec<u64>>, Vec<[u64; 3]>) {
        queries
            .iter()
            .map(|&(l, t)| {
                let mut answer = Vec::new();
                let cost = store_cost(&tgi, || answer = query(l, t));
                let cost = cost.iter().fold([0u64; 3], |[rows, bytes, reqs], m| {
                    [
                        rows + m.rows_read,
                        bytes + m.bytes_read,
                        reqs + m.gets + m.scans,
                    ]
                });
                (answer, cost)
            })
            .unzip()
    };
    let (indexed, i_cost) = pass(&|l, t| tgi.try_nodes_with_label_at(l, t).unwrap());
    let (materialized, m_cost) = pass(&|l, t| {
        let snapshot = tgi.try_snapshot(t).unwrap();
        let mut ids: Vec<u64> = snapshot
            .iter()
            .filter(|n| n.attrs.get(LABEL_KEY) == Some(&label(l)))
            .map(|n| n.id)
            .collect();
        ids.sort_unstable();
        ids
    });
    let (replayed, _) = pass(&|l, t| nodes_matching_by_replay(&events, LABEL_KEY, &label(l), t));
    assert_eq!(indexed, replayed);
    assert_eq!(materialized, replayed);
    assert!(indexed.iter().any(|a| !a.is_empty()), "degenerate workload");
    let dead_at_end = indexed.last().unwrap();
    assert!(dead_at_end.is_empty(), "the dead label is gone by the end");
    for (&(l, t), &[rows, bytes, reqs]) in queries.iter().zip(&i_cost) {
        let why = format!("({l}, {t}) read {rows} rows, {bytes} B in {reqs} requests");
        assert!(rows <= 1 && reqs == 1, "{why}");
        assert!(
            rows == 0 || term_row_sizes(l).contains(&bytes),
            "{why}: not one of the label's term rows"
        );
    }
    let total = |costs: &[[u64; 3]]| {
        costs.iter().fold([0u64; 3], |acc, c| {
            [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2]]
        })
    };
    let (i_cost, m_cost) = (total(&i_cost), total(&m_cost));
    println!("indexed {i_cost:?} vs materialized {m_cost:?} [rows, bytes, requests]");
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
