//! Write-path equivalence. There is one write path; what varies is
//! the encode width and whether a history arrives in one build or as
//! a build plus appends. Every width must leave a **byte-identical
//! store** (row-for-row table/key/value equality, per machine), and
//! what it leaves must answer every query like replay of the history
//! — the independent oracle in `common`, not a second production
//! build.

mod common;

use std::sync::Arc;

use common::assert_answers_equal_replay;
use hgs_core::{PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::{AttrValue, Event, EventKind};
use hgs_store::{SimStore, StoreConfig};
use proptest::prelude::*;

fn fresh_store(m: usize, r: usize) -> Arc<SimStore> {
    Arc::new(SimStore::new(StoreConfig::new(m, r)))
}

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..40;
    prop_oneof![
        3 => id.clone().prop_map(|id| EventKind::AddNode { id }),
        1 => id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        5 => (0u64..40, 0u64..40, any::<bool>()).prop_map(|(src, dst, directed)| {
            EventKind::AddEdge { src, dst, weight: 1.0, directed }
        }),
        2 => (0u64..40, 0u64..40).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        1 => (0u64..40, 0u64..40).prop_map(|(src, dst)| EventKind::SetEdgeWeight {
            src,
            dst,
            weight: 2.5
        }),
        2 => (id.clone(), -9i64..9).prop_map(|(id, v)| EventKind::SetNodeAttr {
            id,
            key: "k".into(),
            value: AttrValue::Int(v)
        }),
        1 => id.prop_map(|id| EventKind::RemoveNodeAttr { id, key: "k".into() }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..3), 1..300).prop_map(|kinds| {
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

fn arb_strategy() -> impl Strategy<Value = PartitionStrategy> {
    prop_oneof![
        2 => Just(PartitionStrategy::Random),
        1 => Just(PartitionStrategy::Locality {
            replicate_boundary: false
        }),
        1 => Just(PartitionStrategy::Locality {
            replicate_boundary: true
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every encode width (inline at 1, work-stealing at 2 and 4)
    /// places exactly the same rows, and those rows answer like replay.
    #[test]
    fn every_width_builds_identical_rows_that_answer_like_replay(
        seed in any::<u64>(),
        n_events in 400usize..1_500,
        ts in 300usize..900,
        l in 40usize..160,
        arity in 2usize..4,
        ns in 1u32..5,
        strategy in arb_strategy(),
    ) {
        let trace = WikiGrowth { seed, ..WikiGrowth::sized(n_events) }.generate();
        let cfg = TgiConfig {
            events_per_timespan: ts.max(l),
            eventlist_size: l,
            arity,
            partition_size: 50,
            horizontal_partitions: ns,
            strategy,
            ..TgiConfig::default()
        };
        let one_store = fresh_store(3, 2);
        let one = TgiService::try_build_on_c(cfg, one_store.clone(), &trace, 1).expect("width-1 build").pin();
        assert_answers_equal_replay(&one, &trace);
        let reference = one_store.content_rows();
        for c in [2usize, 4] {
            let store = fresh_store(3, 2);
            TgiService::try_build_on_c(cfg, store.clone(), &trace, c).expect("build").pin();
            prop_assert_eq!(
                &store.content_rows(),
                &reference,
                "store content diverged at c={}",
                c
            );
        }
    }

    /// Arbitrary histories (removals, attribute churn, duplicated
    /// events) through small index shapes, ingested as a build plus an
    /// append: every width must (a) keep store equality with a width-1
    /// handle ingesting the same batches and (b) answer like replay of
    /// the concatenated history.
    #[test]
    fn ingest_at_any_width_matches_width_one_and_replay(
        history in arb_history(),
        l in 5usize..40,
        ns in 1u32..5,
        strategy in arb_strategy(),
        split_num in 1usize..4,
        clients in 2usize..5,
    ) {
        let cfg = TgiConfig {
            events_per_timespan: 120.max(l),
            eventlist_size: l,
            partition_size: 10,
            horizontal_partitions: ns,
            strategy,
            ..TgiConfig::default()
        };
        // Snap the split to a timestamp-group boundary: an append may
        // not start before the index's end of history (last time + 1).
        let mut split = history.len() * split_num / 4;
        while split > 0 && split < history.len() && history[split].time <= history[split - 1].time {
            split += 1;
        }
        let (prefix, suffix) = history.split_at(split.min(history.len()));

        let one_store = fresh_store(2, 1);
        let one =
            TgiService::try_build_on_c(cfg, one_store.clone(), prefix, 1).expect("width-1 build");
        one.try_append_events(suffix).expect("width-1 append");

        let store = fresh_store(2, 1);
        let tgi =
            TgiService::try_build_on_c(cfg, store.clone(), prefix, clients).expect("wide build");
        tgi.try_append_events(suffix).expect("wide append");
        prop_assert_eq!(
            &store.content_rows(),
            &one_store.content_rows(),
            "ingest store content diverged at c={}",
            clients
        );
        assert_answers_equal_replay(&tgi.pin(), &history);
    }
}

/// The default write path — no width given, so the span encode fans
/// out over the host's parallelism — through the service: a build
/// plus appends must leave exactly the rows an explicit width-1 handle
/// leaves, for every partition strategy, on a history with node
/// removals (the normalization path that is not an early-out).
#[test]
fn default_width_service_matches_explicit_width_one() {
    let trace = WikiGrowth::sized(2_400).generate();
    let mut history = hgs_datagen::augment_with_churn(&trace, 600, 0.5, 11);
    let mut t = history.last().expect("events").time;
    for id in [3u64, 17, 40] {
        t += 1;
        history.push(Event::new(t, EventKind::RemoveNode { id }));
        t += 1;
        history.push(Event::new(t, EventKind::AddNode { id }));
    }
    // An append may not start inside a timestamp group.
    let snap = |mut i: usize| {
        while i < history.len() && history[i].time <= history[i - 1].time {
            i += 1;
        }
        i
    };
    let cuts = [
        snap(history.len() / 2),
        snap(trace.len() + 300),
        history.len(),
    ];
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::Locality {
            replicate_boundary: false,
        },
        PartitionStrategy::Locality {
            replicate_boundary: true,
        },
    ] {
        let cfg = TgiConfig {
            events_per_timespan: 700,
            eventlist_size: 90,
            partition_size: 40,
            horizontal_partitions: 4,
            strategy,
            ..TgiConfig::default()
        };
        let one_store = fresh_store(3, 1);
        let one = TgiService::try_build_on_c(cfg, one_store.clone(), &history[..cuts[0]], 1)
            .expect("width-1 build");
        let store = fresh_store(3, 1);
        let svc = TgiService::try_build_on(cfg, store.clone(), &history[..cuts[0]])
            .expect("default-width build");
        for w in cuts.windows(2) {
            one.try_append_events(&history[w[0]..w[1]])
                .expect("width-1 append");
            svc.try_append_events(&history[w[0]..w[1]])
                .expect("default-width append");
        }
        assert_eq!(
            store.content_rows(),
            one_store.content_rows(),
            "default-width rows diverged for {strategy:?}"
        );
        assert_eq!(svc.pin().clients(), 1, "reads stay at one client");
    }
}

/// A fixed-shape smoke case that always runs the work-stealing encode
/// with aux boundary replication and version chains — the heaviest
/// write-path configuration — without depending on proptest shrinking.
#[test]
fn wide_aux_build_matches_width_one_and_stays_batched() {
    let trace = WikiGrowth::sized(2_500).generate();
    let cfg = TgiConfig {
        events_per_timespan: 800,
        eventlist_size: 100,
        partition_size: 40,
        horizontal_partitions: 3,
        strategy: PartitionStrategy::Locality {
            replicate_boundary: true,
        },
        ..TgiConfig::default()
    };
    let one_store = fresh_store(4, 1);
    TgiService::try_build_on_c(cfg, one_store.clone(), &trace, 1)
        .expect("width-1 build")
        .pin();
    let store = fresh_store(4, 1);
    let tgi = TgiService::try_build_on_c(cfg, store.clone(), &trace, 4)
        .expect("wide build")
        .pin();
    assert_eq!(store.content_rows(), one_store.content_rows());
    assert_answers_equal_replay(&tgi, &trace);
    // Writes stay batched: round trips at most 10 % of the rows
    // written. This assertion is the sole owner of that gate — the CI
    // step that read it off `bench_build`'s JSON went with the bin.
    let stats = store.stats_snapshot();
    let puts: u64 = stats.iter().map(|m| m.puts).sum();
    let batches: u64 = stats.iter().map(|m| m.put_batches).sum();
    assert!(batches > 0, "the build must issue write batches");
    assert!(
        batches * 10 <= puts,
        "write round trips ({batches}) must stay well under row count ({puts})"
    );
}
