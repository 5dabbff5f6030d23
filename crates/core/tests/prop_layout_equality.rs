//! Read-path equivalence across storage layouts: an index built with
//! the columnar layout must answer every query primitive exactly like
//! one built row-wise over the same history — at every read
//! parallelism, for arbitrary histories and partitioning strategies.
//!
//! This is the oracle that replaces byte-identical store comparison
//! for the columnar format (the stored bytes differ by design; the
//! answers may not).

use std::sync::Arc;

use hgs_core::{KhopStrategy, PartitionStrategy, Tgi, TgiConfig};
use hgs_datagen::WikiGrowth;
use hgs_delta::{AttrValue, Event, EventKind, StorageLayout, TimeRange};
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
        1 => (0u64..40, 0u64..40, "[a-b]").prop_map(|(src, dst, key)| EventKind::SetEdgeAttr {
            src,
            dst,
            key,
            value: AttrValue::Bool(true)
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

/// Compare every query primitive between the two handles.
fn assert_same_answers(row: &Tgi, col: &Tgi, end: u64) {
    let times = [0, end / 3, end / 2, end, end + 1];
    for c in [1usize, 2, 4] {
        for &t in &times {
            assert_eq!(
                row.with_clients(c).try_snapshot(t).unwrap(),
                col.with_clients(c).try_snapshot(t).unwrap(),
                "snapshot mismatch at t={t} c={c}"
            );
        }
    }
    let range = TimeRange::new(0, end + 1);
    for nid in 0..8u64 {
        assert_eq!(
            row.try_node_at(nid, end / 2).unwrap(),
            col.try_node_at(nid, end / 2).unwrap(),
            "node_at mismatch for nid={nid}"
        );
        assert_eq!(
            row.try_node_history(nid, range).unwrap(),
            col.try_node_history(nid, range).unwrap(),
            "node_history mismatch for nid={nid}"
        );
        assert_eq!(
            row.try_version_chain(nid).unwrap(),
            col.try_version_chain(nid).unwrap(),
            "version_chain mismatch for nid={nid}"
        );
        for strategy in [KhopStrategy::ViaSnapshot, KhopStrategy::Recursive] {
            assert_eq!(
                row.try_khop_with(nid, end / 2, 2, strategy).unwrap(),
                col.try_khop_with(nid, end / 2, 2, strategy).unwrap(),
                "khop mismatch for nid={nid} strategy={strategy:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary histories (removals, attribute churn, duplicated
    /// events) through small index shapes: both layouts, all query
    /// primitives, identical answers.
    #[test]
    fn layouts_answer_identically_on_arbitrary_histories(
        history in arb_history(),
        l in 5usize..40,
        ns in 1u32..5,
        strategy in arb_strategy(),
    ) {
        let base = TgiConfig {
            events_per_timespan: 120.max(l),
            eventlist_size: l,
            partition_size: 10,
            horizontal_partitions: ns,
            strategy,
            ..TgiConfig::default()
        };
        let row = Tgi::try_build_on(
            base.with_layout(StorageLayout::RowWise),
            fresh_store(2, 1),
            &history,
        )
        .expect("row-wise build");
        let col = Tgi::try_build_on(
            base.with_layout(StorageLayout::Columnar),
            fresh_store(2, 1),
            &history,
        )
        .expect("columnar build");
        let end = history.last().map(|e| e.time).unwrap_or(0);
        assert_same_answers(&row, &col, end);
    }

    /// Generated growth traces through realistic shapes, including the
    /// parallel build path at c=4.
    #[test]
    fn layouts_answer_identically_on_growth_traces(
        seed in any::<u64>(),
        n_events in 400usize..1_200,
        ts in 300usize..900,
        l in 40usize..160,
        ns in 1u32..4,
        strategy in arb_strategy(),
    ) {
        let trace = WikiGrowth { seed, ..WikiGrowth::sized(n_events) }.generate();
        let base = TgiConfig {
            events_per_timespan: ts.max(l),
            eventlist_size: l,
            partition_size: 50,
            horizontal_partitions: ns,
            strategy,
            ..TgiConfig::default()
        };
        let row = Tgi::try_build_on_c(
            base.with_layout(StorageLayout::RowWise),
            fresh_store(2, 1),
            &trace,
            4,
        )
        .expect("row-wise build");
        let col = Tgi::try_build_on_c(
            base.with_layout(StorageLayout::Columnar),
            fresh_store(2, 1),
            &trace,
            4,
        )
        .expect("columnar build");
        let end = trace.last().unwrap().time;
        assert_same_answers(&row, &col, end);
    }
}
