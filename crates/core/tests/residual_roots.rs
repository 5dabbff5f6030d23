//! Residual roots across placement blocks: a span's root is stored as
//! a signed residual against the roots of its Fenwick bases in its
//! block of 32 spans. Builds of more than two blocks answer every read
//! as event replay does, at every span, cold and warm, under random
//! partitioning and under replicated locality partitioning; and a
//! writer re-opened or recovered inside a block keeps the roots a
//! later span of the block is stored against, so it writes the rows a
//! writer that never stopped writes. A cold history, multipoint or
//! partition history fetches once per `(block, sid)`, not once per
//! span. No base is a root that holds nothing — block 0 names span 1
//! where its chains would name the empty span 0 — and a recursive
//! k-hop reads a hashed base root only in the micro-partitions that
//! can hold its nodes.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use hgs_core::{sid_of, KhopStrategy, PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::LabeledChurn;
use hgs_delta::columnar::ColumnarDelta;
use hgs_delta::{normalize_events, Delta, Event, EventKind, TimeRange};
use hgs_store::{DeltaKey, SimStore, StoreConfig, Table, SPAN_BLOCK};

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

/// Client round trips `read` costs on `store`, counted as the
/// benchmark counts them.
fn round_trips(store: &SimStore, read: impl FnOnce()) -> u64 {
    let before = store.stats_snapshot();
    read();
    let after = store.stats_snapshot();
    let trips = after.iter().zip(&before).map(|(now, then)| {
        let d = now.since(then);
        d.batches + d.gets + d.scans - d.batched_subrequests
    });
    trips.sum()
}

/// A cold history asks once per placement block, not once per span: a
/// node history over spans 20 to 49 (blocks 0 and 1) is the chain
/// scan, the cold `try_node_at` of its initial state and one eventlist
/// multi-get per block; an attribute history is the chain scan and one
/// multi-get per block its node has events in. Every trace event is a
/// span's own (span `time / SPAN`), so the blocks are known from the
/// trace alone.
#[test]
fn a_cold_history_fetches_once_per_block() {
    let events = trace();
    let cfg = cfg(PartitionStrategy::Random);
    let svc = TgiService::try_build(cfg, StoreConfig::new(4, 1), &events).unwrap();
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let store = tgi.store();
    let range = TimeRange::new(20 * SPAN as u64, 50 * SPAN as u64);
    let span_of = |e: &Event| e.time as usize / SPAN;
    let (mut two_block_nodes, mut spans_beyond_blocks) = (0, false);
    for nid in 0..160u64 {
        let touching = events.iter().filter(|e| {
            let (a, b) = e.kind.touched();
            a == nid || b == Some(nid)
        });
        let spans: BTreeSet<usize> = touching.clone().map(span_of).collect();
        let blocks: BTreeSet<usize> = spans.iter().map(|s| s / SPAN_BLOCK as usize).collect();
        spans_beyond_blocks |= spans.len() > blocks.len();
        let attr = round_trips(store, || drop(tgi.try_attr_history(nid, "label").unwrap()));
        assert_eq!(attr, 1 + blocks.len() as u64, "attr history of {nid}");

        let inside = touching.filter(|e| e.time > range.start && e.time < range.end);
        let spans: BTreeSet<usize> = inside.map(span_of).collect();
        let blocks: BTreeSet<usize> = spans.iter().map(|s| s / SPAN_BLOCK as usize).collect();
        // A node with in-range events in one block only may still have
        // an edge chunk in the other fetched; both blocks pin it.
        if blocks.len() < 2 {
            continue;
        }
        two_block_nodes += 1;
        let initial = round_trips(store, || drop(tgi.try_node_at(nid, range.start).unwrap()));
        let history = round_trips(store, || drop(tgi.try_node_history(nid, range).unwrap()));
        assert_eq!(history, 1 + initial + 2, "node history of {nid}");
    }
    assert!(
        two_block_nodes > 20,
        "{two_block_nodes} nodes span both blocks"
    );
    assert!(
        spans_beyond_blocks,
        "no history reads more spans than blocks"
    );
}

/// Rows the store returns for `read` on `store`.
fn rows_read(store: &SimStore, read: impl FnOnce()) -> u64 {
    let before = store.stats_snapshot();
    read();
    let after = store.stats_snapshot();
    let rows = after
        .iter()
        .zip(&before)
        .map(|(now, then)| now.since(then).rows_read);
    rows.sum()
}

/// A cold multipoint asks once per `(block, sid)`: `ns` round trips for
/// each placement block its times touch, however many spans of the
/// block they fall in, as the plan predicts — and its answers are event
/// replay's. Spans 2 and 3 both sum span 1's root and span 3 sums span
/// 2's, so a multipoint over both reads those rows once, fewer than
/// the two single snapshots do.
#[test]
fn a_cold_multipoint_fetches_once_per_block_and_sid() {
    let events = trace();
    let svc = TgiService::try_build(
        cfg(PartitionStrategy::Random),
        StoreConfig::new(4, 1),
        &events,
    )
    .unwrap();
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let store = tgi.store();
    let ns = u64::from(tgi.config().horizontal_partitions);
    let at = |span: u64, offset: u64| span * SPAN as u64 + offset;
    for (spans, blocks) in [
        (vec![2, 3], 1),
        (vec![5, 6, 7], 1),
        (vec![2, 3, 34, 35], 2),
        (vec![9, 40, 70], 3),
    ] {
        let times: Vec<u64> = spans
            .iter()
            .flat_map(|&s| [at(s, 5), at(s, 25), at(s, 39)])
            .collect();
        let mut got = Vec::new();
        let trips = round_trips(store, || got = tgi.try_snapshots(&times).unwrap());
        assert_eq!(trips, ns * blocks, "spans {spans:?}");
        assert_eq!(
            tgi.plan_multipoint(&times).round_trips as u64,
            trips,
            "spans {spans:?}"
        );
        for (&t, state) in times.iter().zip(&got) {
            assert_eq!(state, &Delta::snapshot_by_replay(&events, t), "t = {t}");
        }
    }
    let (t2, t3) = (at(2, 25), at(3, 25));
    let shared = rows_read(store, || drop(tgi.try_snapshots(&[t2, t3]).unwrap()));
    let single = |t| rows_read(store, || drop(tgi.try_snapshot(t).unwrap()));
    let apart = single(t2) + single(t3);
    assert!(shared < apart, "{shared} rows shared, {apart} apart");
}

/// A whole-partition history fetch asks once per `(block, sid)`: its
/// initial leaf's path rides the first block's scan beside the
/// eventlist chunks, so a range inside one block costs one round trip
/// per `sid` and a range over spans 20 to 45 two. Each history is the
/// node's own.
#[test]
fn a_cold_partition_history_fetches_once_per_block() {
    let events = trace();
    let svc = TgiService::try_build(
        cfg(PartitionStrategy::Random),
        StoreConfig::new(4, 1),
        &events,
    )
    .unwrap();
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let store = tgi.store();
    let span = |s: u64| s * SPAN as u64;
    for (range, blocks) in [
        (TimeRange::new(span(5) + 7, span(9) + 3), 1),
        (TimeRange::new(span(20) + 7, span(45) + 3), 2),
    ] {
        let mut nodes = 0;
        for sid in 0..tgi.config().horizontal_partitions {
            let mut histories = Vec::new();
            let trips = round_trips(store, || {
                histories = tgi.try_node_histories_for_sid(sid, range).unwrap()
            });
            assert_eq!(trips, blocks, "sid {sid}, {range:?}");
            for h in &histories {
                assert_eq!(h, &tgi.try_node_history(h.id, range).unwrap(), "{range:?}");
            }
            nodes += histories.len();
        }
        assert!(nodes > 100, "{nodes} histories over {range:?}");
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

/// The spans whose roots span `tsid`'s root is stored against, by the
/// writer's rule: the span's Fenwick prefixes in its block — the block
/// head, then the span less each of the low set bits of its index —
/// with span 1 wherever block 0's chain names span 0, and none for span
/// 1 itself.
fn root_bases(tsid: u32) -> Vec<u32> {
    let head = tsid - tsid % SPAN_BLOCK;
    let mut i = tsid % SPAN_BLOCK;
    let mut bases = Vec::new();
    while i != 0 {
        i &= i - 1;
        bases.push((head + i).max(1));
    }
    bases.retain(|&b| b != tsid);
    bases.reverse();
    bases
}

/// Every base a span's root names holds a stored root row, and the
/// span's root rows summed after its bases' are the intersection of
/// its checkpoint states, `sid` by `sid`: the rule above is the one
/// the writer stored the residuals against. Span 0's root is the empty
/// graph's, so a chain that still named it would find no row.
#[test]
fn a_base_never_names_an_empty_root() {
    let (wiki, skew) = (common::wiki20k(), common::skew21k());
    for (name, events, batch) in [
        ("wiki20k", &wiki, None),
        ("wiki20k", &wiki, Some(2_000)),
        ("wiki20k", &wiki, Some(500)),
        ("skew21k", &skew, None),
    ] {
        let svc = common::build_in_batches(events, TgiConfig::default(), batch);
        let tgi = svc.pin();
        let ns = tgi.config().horizontal_partitions;
        let metas = common::span_metas(&tgi);
        let mut roots: BTreeMap<(u32, u32), Vec<Bytes>> = BTreeMap::new();
        for (k, v) in tgi.store().content_rows().into_iter().flatten() {
            let key = (k[0] == Table::Deltas.tag())
                .then(|| DeltaKey::decode(&k[1..]))
                .flatten();
            if let Some(key) = key.filter(|key| key.did == 0) {
                roots.entry((key.tsid, key.sid)).or_default().push(v);
            }
        }
        let mut state = Delta::new();
        let mut replay = events.iter().peekable();
        for meta in &metas {
            let what = format!("{name}, appends of {batch:?}, span {}", meta.tsid);
            let bases = root_bases(meta.tsid);
            for &base in &bases {
                assert!(
                    (0..ns).any(|sid| roots.contains_key(&(base, sid))),
                    "{what}: base {base} holds no root row"
                );
            }
            let mut leaves = Vec::new();
            for &c in &meta.checkpoints {
                while let Some(e) = replay.next_if(|e| e.time < c) {
                    state.apply_event(&e.kind);
                }
                leaves.push(state.clone());
            }
            for sid in 0..ns {
                let own: Vec<Delta> = leaves
                    .iter()
                    .map(|leaf| leaf.restrict(|id| sid_of(id, ns) == sid))
                    .collect();
                let want = Delta::intersection_many(&own.iter().collect::<Vec<_>>());
                let mut got = Delta::new();
                for tsid in bases.iter().copied().chain([meta.tsid]) {
                    for row in roots.get(&(tsid, sid)).into_iter().flatten() {
                        ColumnarDelta::parse_in(row.clone(), &metas[tsid as usize].pairs)
                            .and_then(|col| col.sum_into(&mut got, None))
                            .unwrap_or_else(|e| panic!("{what}, sid {sid}: root of {tsid}: {e}"));
                    }
                }
                assert!(
                    got == want,
                    "{what}, sid {sid}: the summed root is not the span's"
                );
            }
        }
    }
}

/// Four spans of one horizontal partition, hashed at 10 nodes a
/// micro-partition: span 0 adds 40 nodes and a ring over them; span 1
/// adds a chord at each, then removes the last `r1` nodes in its last
/// chunk, where no checkpoint sees them go; span 2 adds chords among
/// the rest and removes `r2` more the same way; span 3 adds `added`
/// nodes, each tied to a survivor, and chords among the survivors. So
/// span 1's root holds all 40 nodes in 4 parts, span 2's residual
/// against it removes the `r1` nodes, and spans 2 and 3 have `⌈(40 −
/// r1) / 10⌉` and `⌈(40 − r1 − r2 + added) / 10⌉` parts.
fn four_spans(r1: u64, r2: u64, added: u64) -> [Vec<Event>; 4] {
    let edge = |time, src, dst| {
        Event::new(
            time,
            EventKind::AddEdge {
                src,
                dst,
                weight: 1.0,
                directed: false,
            },
        )
    };
    let remove = |time, ids: std::ops::Range<u64>| {
        ids.map(move |id| Event::new(time, EventKind::RemoveNode { id }))
    };
    let (alive1, alive2) = (40 - r1, 40 - r1 - r2);
    let mut first: Vec<Event> = (0..40)
        .map(|id| Event::new(id, EventKind::AddNode { id }))
        .collect();
    first.extend((0..40).map(|i| edge(40 + i, i, (i + 1) % 40)));
    let mut second: Vec<Event> = (0..40).map(|i| edge(100 + i, i, (i + 7) % 40)).collect();
    second.extend(remove(150, alive1..40));
    let mut third: Vec<Event> = (0..alive1)
        .map(|i| edge(200 + i, i, (i + 3) % alive1))
        .collect();
    third.extend(remove(250, alive2..alive1));
    let mut fourth: Vec<Event> = (40..40 + added)
        .map(|id| Event::new(260 + id, EventKind::AddNode { id }))
        .collect();
    fourth.extend((40..40 + added).map(|id| edge(320 + id, id, id % alive2)));
    fourth.extend((0..alive2).map(|i| edge(400 + i, i, (i + 5) % alive2)));
    [first, second, third, fourth]
}

/// A recursive k-hop reads each base root of its span in the parts that
/// can hold a node of the micro-partition it fetches. Under hashing,
/// when a base's part count `k_b` and those of the bases after it are
/// multiples of the span's `k_t`, that is `k_b / k_t` of its parts —
/// counted as the keys one cold 0-hop asks the store for beyond its own
/// tree path and eventlist chunk — and every part otherwise. Span 3
/// sums bases 1 and 2: when only span 1's count divides, span 2's
/// residual removes nodes that a subset of span 1 would not hold, so
/// both are read whole; when only span 2's divides, span 1 is read
/// whole and span 2 by part. Equal, dividing and non-dividing counts
/// all answer as replay.
#[test]
fn a_recursive_hop_reads_the_base_parts_its_partition_needs() {
    let cfg = TgiConfig {
        events_per_timespan: 1_000,
        eventlist_size: 10,
        partition_size: 10,
        horizontal_partitions: 1,
        ..TgiConfig::default()
    };
    // (r1, r2, added), the parts of spans 2 and 3, and the base keys a
    // 0-hop at span 2 and at span 3 asks for.
    for ((r1, r2, added), [k2, k3], keys) in [
        ((0, 0, 0), [4, 4], [1, 2]),
        ((20, 0, 0), [2, 2], [2, 3]),
        ((32, 0, 0), [1, 1], [4, 5]),
        ((12, 0, 0), [3, 3], [4, 5]),
        ((12, 0, 12), [3, 4], [4, 7]),
        ((12, 10, 0), [3, 2], [4, 7]),
    ] {
        let case = format!("r1 {r1}, r2 {r2}, {added} added");
        let spans = four_spans(r1, r2, added);
        let svc = TgiService::try_build(cfg, StoreConfig::new(2, 1), &spans[0]).unwrap();
        for later in &spans[1..] {
            svc.try_append_events(later).unwrap();
        }
        svc.set_read_cache_budget(0);
        let tgi = svc.pin();
        let metas = common::span_metas(&tgi);
        let counts: Vec<_> = metas.iter().map(|m| m.pid_counts.clone()).collect();
        assert_eq!(counts, [vec![4], vec![4], vec![k2], vec![k3]], "{case}");
        let events: Vec<Event> = spans.concat();
        let end = events.last().unwrap().time;
        for (span, base_keys) in metas[2..].iter().zip(keys) {
            let mut times = span.checkpoints.clone();
            if span.tsid == 3 {
                times.push(end);
            }
            for t in times {
                let want = Delta::snapshot_by_replay(&events, t);
                let path = span.shape.path_to_leaf(span.leaf_for_time(t)).len() as u64;
                for center in 0..40 + added {
                    let what = format!("{case}, span {}, t = {t}, center {center}", span.tsid);
                    let before = tgi.store().stats_snapshot();
                    let got = tgi.try_khop_with(center, t, 0, KhopStrategy::Recursive);
                    let asked: u64 = tgi
                        .store()
                        .stats_snapshot()
                        .iter()
                        .zip(&before)
                        .map(|(now, then)| now.since(then).gets)
                        .sum();
                    assert_eq!(
                        got.unwrap(),
                        common::khop_by_replay(&want, center, 0),
                        "{what}"
                    );
                    assert_eq!(asked, base_keys + path + 1, "{what}: keys asked");
                    for k in [1, 2] {
                        assert_eq!(
                            tgi.try_khop_with(center, t, k, KhopStrategy::Recursive)
                                .unwrap(),
                            common::khop_by_replay(&want, center, k),
                            "{what}: {k}-hop"
                        );
                    }
                }
            }
        }
    }
}
