//! Residual roots across placement blocks: a span's root is stored as
//! a signed residual against the roots of its Fenwick bases in its
//! block of 32 spans. Builds of more than two blocks answer every read
//! as event replay does, at every span, cold and warm, under random
//! partitioning and under replicated locality partitioning; and a
//! writer re-opened or recovered inside a block keeps the roots a
//! later span of the block is stored against, so it writes the rows a
//! writer that never stopped writes.

mod common;

use hgs_core::{KhopStrategy, PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::LabeledChurn;
use hgs_delta::{normalize_events, Delta, Event, EventKind};
use hgs_store::StoreConfig;

/// Spans of 40 events: the traces below make 75 of them.
const SPAN: usize = 40;

/// ~3 000 events over 160 labelled nodes — label flips override
/// pairs, edge deletions remove entries — every 37th turned into the
/// removal of the node it touched, normalized (the removal's edges
/// removed first) and each at a time of its own, so every span holds
/// exactly [`SPAN`] events.
fn trace() -> Vec<Event> {
    let mut events = LabeledChurn {
        nodes: 160,
        edge_events: 2_000,
        label_flips: 700,
        seed: 23,
    }
    .generate();
    for e in events.iter_mut().skip(36).step_by(37) {
        let (id, _) = e.kind.touched();
        e.kind = EventKind::RemoveNode { id };
    }
    let mut events = normalize_events(&events);
    for (i, e) in events.iter_mut().enumerate() {
        e.time = i as u64;
    }
    events
}

fn cfg(strategy: PartitionStrategy) -> TgiConfig {
    TgiConfig {
        events_per_timespan: SPAN,
        eventlist_size: 10,
        partition_size: 16,
        horizontal_partitions: 3,
        ..TgiConfig::default()
    }
    .with_strategy(strategy)
}

#[test]
fn more_than_two_blocks_answer_as_replay_at_every_span() {
    let events = trace();
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::Locality {
            replicate_boundary: true,
        },
    ] {
        let svc = TgiService::try_build(cfg(strategy), StoreConfig::new(4, 1), &events).unwrap();
        let tgi = svc.pin();
        assert!(tgi.span_count() > 64, "{}", tgi.span_count());
        // Some roots remove what their base holds: the residual magic.
        let removing = tgi
            .store()
            .content_rows()
            .into_iter()
            .flatten()
            .filter(|(k, v)| {
                let key = hgs_store::DeltaKey::decode(&k[1..]);
                k[0] == hgs_store::Table::Deltas.tag()
                    && key.is_some_and(|k| k.did == 0)
                    && v[0] == 0xCD
            });
        assert!(removing.count() > 10, "{strategy:?}");
        let metas = common::span_metas(&tgi);
        for pass in ["cold", "warm"] {
            for meta in &metas {
                // The span's root alone, and a checkpoint inside it.
                for t in [
                    meta.checkpoints[0],
                    meta.checkpoints[meta.checkpoints.len() / 2],
                ] {
                    let want = Delta::snapshot_by_replay(&events, t);
                    let what = format!("{strategy:?}, {pass}, span {}, t = {t}", meta.tsid);
                    assert_eq!(tgi.try_snapshot(t).unwrap(), want, "{what}");
                    for nid in (0..160u64).step_by(9) {
                        let got = tgi.try_node_at(nid, t).unwrap();
                        assert_eq!(got.as_ref(), want.node(nid), "{what}: node_at {nid}");
                    }
                    for nid in [t % 160, (t * 7 + 3) % 160] {
                        for strategy in [KhopStrategy::Recursive, KhopStrategy::ViaSnapshot] {
                            assert_eq!(
                                tgi.try_khop_with(nid, t, 1, strategy).unwrap(),
                                common::khop_by_replay(&want, nid, 1),
                                "{what}: 1-hop of {nid}, {strategy:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Build the first 37 spans under `strategy`; then append the rest in
/// batches of `batch` events — straight on, after a re-open, or after
/// a recovery — and return every stored row, machine by machine.
fn rows_after(
    events: &[Event],
    strategy: PartitionStrategy,
    how: &str,
    batch: usize,
) -> Vec<Vec<(Vec<u8>, bytes::Bytes)>> {
    let cfg = cfg(strategy);
    let built = 37 * SPAN;
    let mut svc = TgiService::try_build(cfg, StoreConfig::new(4, 1), &events[..built]).unwrap();
    assert_eq!(svc.pin().span_count(), 37);
    match how {
        "re-opened" => svc = TgiService::open(svc.store()).unwrap(),
        "recovered" => {
            // An append on a dead cluster writes nothing and poisons
            // the writer; healed, it recovers from the store.
            let store = svc.store();
            for m in 0..store.machine_count() {
                store.fail_machine(m);
            }
            assert!(svc
                .try_append_events(&events[built..built + batch])
                .is_err());
            store.heal_all();
            svc.try_recover().unwrap();
        }
        _ => {}
    }
    for chunk in events[built..].chunks(batch) {
        svc.try_append_events(chunk).unwrap();
    }
    assert!(svc.pin().span_count() > 64);
    svc.store().content_rows()
}

#[test]
fn a_writer_reopened_or_recovered_inside_a_block_writes_the_same_rows() {
    let events = trace();
    let replicated = PartitionStrategy::Locality {
        replicate_boundary: true,
    };
    for (strategy, batch) in [
        (PartitionStrategy::Random, SPAN),
        (PartitionStrategy::Random, 130),
        (replicated, 130),
    ] {
        let straight = rows_after(&events, strategy, "straight", batch);
        for how in ["re-opened", "recovered"] {
            let got = rows_after(&events, strategy, how, batch);
            assert!(
                got == straight,
                "{strategy:?}, {how}, batches of {batch}: the stored rows differ"
            );
        }
    }
}
