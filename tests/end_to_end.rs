//! Workspace-level integration tests: the full HGS pipeline
//! (generators -> TGI -> TAF -> graph algorithms) and the §4.2
//! generalization claim (TGI configurations converge to the baseline
//! indexes).

use hgs::baselines::{CopyLogIndex, HistoricalIndex, LogIndex, NodeCentricIndex};
use hgs::datagen::{CommunityGraph, LabeledChurn, WikiGrowth};
use hgs::delta::{Delta, TimeRange};
use hgs::graph::algo;
use hgs::store::StoreConfig;
use hgs::taf::TgiHandler;
use hgs::tgi::{TgiConfig, TgiService};

#[test]
fn all_indexes_agree_on_all_primitives() {
    // Every index class must answer identically; this is the repo's
    // strongest cross-validation (six independent implementations).
    let events = WikiGrowth::sized(2_000).generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(
        TgiConfig {
            events_per_timespan: 900,
            eventlist_size: 100,
            partition_size: 50,
            ..TgiConfig::default()
        },
        StoreConfig::new(2, 1),
        &events,
    )
    .unwrap()
    .pin();
    let log = LogIndex::build(StoreConfig::new(2, 1), &events, 128);
    let copylog = CopyLogIndex::build(StoreConfig::new(2, 1), &events, 200);
    let nc = NodeCentricIndex::build(StoreConfig::new(2, 1), &events);
    let dg = hgs::baselines::DeltaGraphIndex::build(StoreConfig::new(2, 1), &events, 150, 2);
    let copy = hgs::baselines::CopyIndex::build(StoreConfig::new(2, 1), &events);

    let indexes: Vec<&dyn HistoricalIndex> = vec![&*tgi, &log, &copylog, &nc, &dg, &copy];
    for t in [0, end / 3, end / 2, end] {
        let want = Delta::snapshot_by_replay(&events, t);
        for idx in &indexes {
            assert_eq!(
                idx.try_snapshot(t).unwrap(),
                want,
                "{} snapshot at t={t}",
                idx.name()
            );
        }
    }
    let range = TimeRange::new(end / 4, (3 * end) / 4);
    for nid in [0u64, 3, 17] {
        let reference = {
            let initial = Delta::snapshot_by_replay(&events, range.start).remove(nid);
            let evs: Vec<_> = events
                .iter()
                .filter(|e| {
                    let (a, b) = e.kind.touched();
                    (a == nid || b == Some(nid)) && e.time > range.start && e.time < range.end
                })
                .cloned()
                .collect();
            (initial, evs)
        };
        for idx in &indexes {
            assert_eq!(
                idx.try_node_versions(nid, range).unwrap(),
                reference,
                "{} versions of {nid}",
                idx.name()
            );
        }
    }
}

#[test]
fn tgi_converges_to_copy_log() {
    // §4.2: with a flat (height-1) tree, one horizontal partition and
    // monolithic deltas, TGI's snapshot access pattern is Copy+Log:
    // root + one derived + one eventlist per query.
    let events = WikiGrowth::sized(2_000).generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::copy_log(200), StoreConfig::new(1, 1), &events)
        .unwrap()
        .pin();
    let before = tgi.store().stats_snapshot();
    let snap = tgi.with_clients(1).try_snapshot(end / 2).unwrap();
    let diff = hgs::store::SimStore::stats_since(&tgi.store().stats_snapshot(), &before);
    let requests: u64 = diff.iter().map(|m| m.gets + m.scans).sum();
    assert!(
        requests <= 3,
        "flat TGI must behave like Copy+Log, got {requests} requests"
    );
    assert_eq!(snap, Delta::snapshot_by_replay(&events, end / 2));
}

#[test]
fn full_pipeline_analytics_match_reference() {
    // Generator -> TGI -> TAF -> algorithms, checked against direct
    // computation on replayed snapshots.
    let events = CommunityGraph {
        nodes: 300,
        communities: 3,
        edge_events: 3_000,
        intra_prob: 0.85,
        switches: 60,
        seed: 11,
    }
    .generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(2, 1), &events).unwrap();
    let handler = TgiHandler::serving(tgi, 3);
    let son = handler
        .son()
        .timeslice(TimeRange::new(0, end + 1))
        .try_fetch()
        .unwrap();

    for t in [end / 3, end] {
        let reference = hgs::graph::Graph::from_delta(Delta::snapshot_by_replay(&events, t));
        let via_taf = son.graph_at(t);
        assert_eq!(
            via_taf.node_count(),
            reference.node_count(),
            "nodes at t={t}"
        );
        assert_eq!(
            via_taf.edge_count(),
            reference.edge_count(),
            "edges at t={t}"
        );
        let d1 = algo::density(&via_taf);
        let d2 = algo::density(&reference);
        assert!((d1 - d2).abs() < 1e-12, "density at t={t}");
        let c1 = algo::average_clustering(&via_taf);
        let c2 = algo::average_clustering(&reference);
        assert!((c1 - c2).abs() < 1e-9, "clustering at t={t}");
    }

    // Community comparison via operators matches a direct count.
    let son_a = son.select_attr("community", "A");
    let state = Delta::snapshot_by_replay(&events, end);
    let direct_a = state
        .iter()
        .filter(|n| n.attrs.get("community").and_then(|v| v.as_text()) == Some("A"))
        .count();
    assert_eq!(son_a.len(), direct_a);
}

#[test]
fn incremental_operator_equals_recompute_on_real_trace() {
    let events = LabeledChurn {
        nodes: 200,
        edge_events: 1_500,
        label_flips: 800,
        seed: 21,
    }
    .generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(2, 1), &events).unwrap();
    let handler = TgiHandler::serving(tgi, 2);
    let sots = handler
        .sots(2)
        .timeslice(TimeRange::new(end / 2, end + 1))
        .roots(vec![1, 5, 9, 13])
        .try_fetch()
        .unwrap();

    let count = |d: &Delta| -> i64 {
        d.iter()
            .filter(|n| n.attrs.get("EntityType").and_then(|v| v.as_text()) == Some("Author"))
            .count() as i64
    };
    let temporal = sots.node_compute_temporal(count);
    let incremental = sots.node_compute_delta(count, |before, prev, e| match &e.kind {
        hgs::delta::EventKind::SetNodeAttr { id, key, value } if key == "EntityType" => {
            let was = before
                .node(*id)
                .and_then(|n| n.attrs.get("EntityType"))
                .and_then(|v| v.as_text())
                == Some("Author");
            prev + (value.as_text() == Some("Author")) as i64 - was as i64
        }
        hgs::delta::EventKind::RemoveNode { id } => {
            let was = before
                .node(*id)
                .and_then(|n| n.attrs.get("EntityType"))
                .and_then(|v| v.as_text())
                == Some("Author");
            prev - was as i64
        }
        _ => *prev,
    });
    assert_eq!(temporal, incremental);
}

#[test]
fn store_failure_injection_with_replication_keeps_queries_alive() {
    let events = WikiGrowth::sized(3_000).generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    let want = Delta::snapshot_by_replay(&events, end);
    for failed in 0..4 {
        tgi.store().fail_machine(failed);
        assert_eq!(
            tgi.try_snapshot(end).unwrap(),
            want,
            "snapshot with machine {failed} down"
        );
        assert_eq!(
            tgi.try_node_at(0, end).unwrap(),
            want.node(0).cloned(),
            "node fetch with machine {failed} down"
        );
        tgi.store().heal_machine(failed);
    }
}

#[test]
fn compression_changes_bytes_not_answers() {
    let events = WikiGrowth::sized(3_000).generate();
    let end = events.last().unwrap().time;
    let cfg = TgiConfig::default();
    let plain = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let packed = TgiService::try_build(cfg, StoreConfig::new(2, 1).with_compression(true), &events)
        .unwrap()
        .pin();
    assert!(packed.storage_bytes() < plain.storage_bytes());
    for t in [end / 2, end] {
        assert_eq!(
            plain.try_snapshot(t).unwrap(),
            packed.try_snapshot(t).unwrap()
        );
    }
}

#[test]
fn multipoint_snapshots_are_consistent() {
    let events = WikiGrowth::sized(2_500).generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(TgiConfig::default(), StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    let times: Vec<u64> = (1..=5).map(|i| end * i / 5).collect();
    let snaps = tgi.try_snapshots(&times).unwrap();
    // Growth-only trace: node counts must be monotone.
    let counts: Vec<usize> = snaps.iter().map(|s| s.cardinality()).collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    for (t, s) in times.iter().zip(&snaps) {
        assert_eq!(s, &Delta::snapshot_by_replay(&events, *t));
    }
}
