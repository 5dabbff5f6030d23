//! Criterion microbenchmarks for HGS hot paths: delta algebra, codec,
//! compression, store operations, TGI retrieval primitives, and TAF
//! operators. Complements the figure harnesses in `src/bin/` (which
//! regenerate the paper's tables/figures); these track regressions on
//! the underlying operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use hgs_core::{KhopStrategy, Tgi, TgiConfig};
use hgs_datagen::{LabeledChurn, WikiGrowth};
use hgs_delta::codec::{decode_delta, encode_delta};
use hgs_delta::compress::{compress, decompress};
use hgs_delta::{Delta, TimeRange};
use hgs_store::{PutRow, SimStore, StoreConfig, Table};
use hgs_taf::TgiHandler;

fn bench_delta_algebra(c: &mut Criterion) {
    let events = WikiGrowth::sized(5_000).generate();
    let a = Delta::snapshot_by_replay(&events, events[3_000].time);
    let b = Delta::snapshot_by_replay(&events, events.last().unwrap().time);
    c.bench_function("delta/sum_5k", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| x.sum_assign(black_box(&b)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("delta/intersection_5k", |bench| {
        bench.iter(|| black_box(a.intersection(&b)))
    });
    c.bench_function("delta/difference_5k", |bench| {
        bench.iter(|| black_box(b.difference(&a)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let events = WikiGrowth::sized(5_000).generate();
    let d = Delta::snapshot_by_replay(&events, u64::MAX);
    let bytes = encode_delta(&d);
    c.bench_function("codec/encode_delta_5k", |bench| {
        bench.iter(|| black_box(encode_delta(&d)))
    });
    c.bench_function("codec/decode_delta_5k", |bench| {
        bench.iter(|| black_box(decode_delta(&bytes).unwrap()))
    });
    c.bench_function("compress/lzss_delta", |bench| {
        bench.iter(|| black_box(compress(&bytes)))
    });
    let compressed = compress(&bytes);
    c.bench_function("compress/lzss_decompress", |bench| {
        bench.iter(|| black_box(decompress(&compressed).unwrap()))
    });
}

fn bench_store(c: &mut Criterion) {
    let store = SimStore::new(StoreConfig::new(4, 1));
    let rows = (0..1_000u64).map(|i| {
        PutRow::new(
            Table::Deltas,
            i.to_be_bytes().to_vec(),
            i * 31,
            bytes::Bytes::from(vec![0u8; 256]),
        )
    });
    store.try_put_batch(rows.collect()).expect("healthy store");
    c.bench_function("store/get", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 1_000;
            black_box(store.get(Table::Deltas, &i.to_be_bytes(), i * 31).unwrap())
        })
    });
}

fn bench_tgi(c: &mut Criterion) {
    let events = WikiGrowth::sized(20_000).generate();
    let end = events.last().unwrap().time;
    // Read cache off: these track regressions in the raw
    // fetch/decode/path-traversal code, which warm hits would mask.
    let tgi = Tgi::try_build(
        TgiConfig::default().with_read_cache_bytes(0),
        StoreConfig::new(4, 1),
        &events,
    )
    .expect("healthy store");
    let two = tgi.with_clients(2);
    c.bench_function("tgi/snapshot_20k_events", |bench| {
        bench.iter(|| black_box(two.try_snapshot(end / 2).expect("healthy store")))
    });
    c.bench_function("tgi/node_at", |bench| {
        bench.iter(|| black_box(tgi.try_node_at(0, end / 2).expect("healthy store")))
    });
    c.bench_function("tgi/node_history", |bench| {
        bench.iter(|| {
            black_box(
                tgi.try_node_history(0, TimeRange::new(0, end + 1))
                    .expect("healthy store"),
            )
        })
    });
    c.bench_function("tgi/khop2_recursive", |bench| {
        bench.iter(|| {
            black_box(
                tgi.try_khop_with(0, end / 2, 2, KhopStrategy::Recursive)
                    .expect("healthy store"),
            )
        })
    });
    // And once with the cache on: the steady-state a serving system
    // pays for a hot repeated read.
    let warm = Tgi::try_build(TgiConfig::default(), StoreConfig::new(4, 1), &events)
        .expect("healthy store");
    let warm = warm.with_clients(2);
    c.bench_function("tgi/snapshot_20k_events_warm_cache", |bench| {
        bench.iter(|| black_box(warm.try_snapshot(end / 2).expect("healthy store")))
    });
}

fn bench_taf(c: &mut Criterion) {
    let events = LabeledChurn {
        nodes: 1_000,
        edge_events: 8_000,
        label_flips: 4_000,
        seed: 3,
    }
    .generate();
    let end = events.last().unwrap().time;
    // Cache off here too: son_fetch tracks the raw parallel-fetch
    // protocol, not warm-cache replay.
    let tgi = Arc::new(
        Tgi::try_build(
            TgiConfig::default().with_read_cache_bytes(0),
            StoreConfig::new(2, 1),
            &events,
        )
        .expect("healthy store"),
    );
    let handler = TgiHandler::new(tgi, 2);
    let son = handler
        .son()
        .timeslice(TimeRange::new(0, end + 1))
        .try_fetch()
        .expect("healthy store");
    c.bench_function("taf/son_fetch_1k_nodes", |bench| {
        bench.iter(|| {
            black_box(
                handler
                    .son()
                    .timeslice(TimeRange::new(0, end + 1))
                    .try_fetch()
                    .expect("healthy store")
                    .len(),
            )
        })
    });
    c.bench_function("taf/node_compute_degree", |bench| {
        bench.iter(|| {
            black_box(son.node_compute(|n| n.version_at(end).map(|s| s.degree()).unwrap_or(0)))
        })
    });
    c.bench_function("taf/graph_materialize", |bench| {
        bench.iter(|| black_box(son.graph_at(end).node_count()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_delta_algebra, bench_codec, bench_store, bench_tgi, bench_taf
}
criterion_main!(benches);
