//! Layer probes: each times one layer's public functions in isolation,
//! on data of the workload's own dataset, to give the unit costs the
//! per-op counters are multiplied by (`attrib.*`) and a direct reading
//! of each layer's speed. Run after the traced phase, untimed by it.

use std::time::{Duration, Instant};

use hgs_delta::columnar::{encode_columnar_delta, encode_columnar_eventlist};
use hgs_delta::compress::{compress, decompress};
use hgs_delta::{codec, ColumnarDelta, ColumnarEventlist, Delta, Eventlist, NodeId};
use hgs_graph::{algo, Graph};
use hgs_partition::{plan_timespans, PartitionMap};
use hgs_store::{DeltaKey, PlacementKey, PutRow, SimStore, StoreConfig, Table};

use crate::api::{Index, STORE_MACHINES, STORE_REPLICATION};
use crate::data::{wiki_time, Inputs};
use crate::stats::median;
use crate::workloads::MULTIPOINT_K;

const PROBE_BUDGET: Duration = Duration::from_millis(120);
const MIN_REPS: usize = 5;
/// Rows of the scratch store the store probes read and write.
const SCRATCH_ROWS: u64 = 4096;
const MULTI_GET_KEYS: usize = 64;
/// Nodes per micro-partition row at the default `partition_size`.
const PARTITION_NODES: usize = 500;
const ELIST_EVENTS: usize = 500;

/// Median seconds per call of `f`, over at least [`MIN_REPS`] calls
/// and [`PROBE_BUDGET`] of wall time.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < PROBE_BUDGET {
        let t0 = Instant::now();
        f();
        reps.push(t0.elapsed().as_secs_f64());
    }
    median(&reps).max(1e-12)
}

/// Per-call seconds of a call too short to time alone: `inner` calls
/// per timed rep.
fn seconds_per_inner_call(inner: usize, mut f: impl FnMut(usize)) -> f64 {
    seconds_per_call(|| (0..inner).for_each(&mut f)) / inner as f64
}

const MB: f64 = 1e6;

pub struct Probes {
    pub metrics: Vec<(String, f64)>,
}

impl Probes {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

pub fn run(inputs: &Inputs, wiki: &Index) -> Probes {
    let mut p = Probes {
        metrics: Vec::new(),
    };
    let events = &inputs.wiki;
    let snapshot = Delta::snapshot_by_replay(events, inputs.wiki_end());
    let mut ids = snapshot.sorted_ids();
    ids.truncate(PARTITION_NODES);
    let partition = snapshot.restrict(|id| ids.binary_search(&id).is_ok());
    let probe_ids: Vec<NodeId> = ids.iter().copied().step_by(7).collect();

    // --- store -------------------------------------------------------
    let wiki_store = wiki.store();
    let row_bytes = (wiki_store.stored_bytes() / wiki_store.row_count().max(1)).max(16);
    let encoded_snapshot = encode_columnar_delta(&snapshot);
    let row = encoded_snapshot.slice(0..row_bytes.min(encoded_snapshot.len()));
    let token = PlacementKey::new(0, 0).token();
    let key = |did: u64| DeltaKey::new(0, 0, did, 0).encode().to_vec();
    let rows = || -> Vec<PutRow> {
        (0..SCRATCH_ROWS)
            .map(|did| PutRow::new(Table::Deltas, key(did), token, row.clone()))
            .collect()
    };
    let scratch = || SimStore::new(StoreConfig::new(STORE_MACHINES, STORE_REPLICATION));
    let put_s = {
        let mut reps = Vec::new();
        for _ in 0..MIN_REPS {
            let (store, batch) = (scratch(), rows());
            let t0 = Instant::now();
            std::hint::black_box(store.put_batch(batch));
            reps.push(t0.elapsed().as_secs_f64());
        }
        median(&reps)
    };
    p.push(
        "store.probe.put_batch_rows_per_s",
        SCRATCH_ROWS as f64 / put_s,
    );
    let store = scratch();
    store.put_batch(rows());
    let keys: Vec<Vec<u8>> = (0..SCRATCH_ROWS).map(key).collect();
    let mut at = 0usize;
    let get_s = seconds_per_call(|| {
        let batch: Vec<&[u8]> = (0..MULTI_GET_KEYS)
            .map(|i| keys[(at + i * 61) % keys.len()].as_slice())
            .collect();
        at += 1;
        std::hint::black_box(
            store
                .multi_get(Table::Deltas, &batch, token)
                .expect("healthy scratch store"),
        );
    });
    p.push(
        "store.probe.multi_get_us_per_row",
        get_s * 1e6 / MULTI_GET_KEYS as f64,
    );
    let prefix = DeltaKey::delta_prefix(0, 0, 0);
    // The 16-byte prefix of did 0 matches one row; scan the 8-byte
    // (tsid, sid) prefix to stream the whole chunk.
    let chunk_prefix = &prefix[..8];
    let scan_s = seconds_per_call(|| {
        std::hint::black_box(
            store
                .scan_prefix_batch(Table::Deltas, &[chunk_prefix], token)
                .expect("healthy scratch store"),
        );
    });
    p.push(
        "store.probe.scan_mb_per_s",
        (SCRATCH_ROWS as usize * row.len()) as f64 / MB / scan_s,
    );

    // --- delta -------------------------------------------------------
    let encoded_partition = encode_columnar_delta(&partition);
    let encode_s = seconds_per_call(|| {
        std::hint::black_box(encode_columnar_delta(&snapshot));
    });
    p.push(
        "delta.probe.encode_mb_per_s",
        encoded_snapshot.len() as f64 / MB / encode_s,
    );
    let raw_delta_bytes = ColumnarDelta::parse(encoded_snapshot.clone())
        .expect("just encoded")
        .raw_len_total();
    let decode_s = seconds_per_call(|| {
        let parsed = ColumnarDelta::parse(encoded_snapshot.clone()).expect("just encoded");
        std::hint::black_box(parsed.to_delta().expect("just encoded"));
    });
    p.push(
        "delta.probe.delta_decode_mb_per_s",
        raw_delta_bytes as f64 / MB / decode_s,
    );
    let record_s = seconds_per_inner_call(probe_ids.len(), |i| {
        // A cold point read parses the row and decodes only the
        // node-index column plus one record.
        let parsed = ColumnarDelta::parse(encoded_partition.clone()).expect("just encoded");
        std::hint::black_box(parsed.node_record(probe_ids[i]).expect("just encoded"));
    });
    p.push("delta.probe.node_record_us", record_s * 1e6);

    let mid = events.len() / 2;
    let elist =
        Eventlist::from_sorted(events[mid..(mid + ELIST_EVENTS).min(events.len())].to_vec());
    let encoded_elist = encode_columnar_eventlist(&elist);
    let raw_elist_bytes = ColumnarEventlist::parse(encoded_elist.clone())
        .expect("just encoded")
        .raw_len_total();
    let elist_s = seconds_per_inner_call(16, |_| {
        let parsed = ColumnarEventlist::parse(encoded_elist.clone()).expect("just encoded");
        std::hint::black_box(parsed.to_eventlist().expect("just encoded"));
    });
    p.push(
        "delta.probe.elist_decode_mb_per_s",
        raw_elist_bytes as f64 / MB / elist_s,
    );
    let touched: Vec<NodeId> = elist.events().iter().map(|e| e.kind.touched().0).collect();
    let touching_s = seconds_per_inner_call(touched.len().max(1), |i| {
        let parsed = ColumnarEventlist::parse(encoded_elist.clone()).expect("just encoded");
        std::hint::black_box(
            parsed
                .events_touching(touched[i % touched.len().max(1)])
                .expect("just encoded"),
        );
    });
    p.push("delta.probe.events_touching_us", touching_s * 1e6);

    let rowwise = codec::encode_delta(&snapshot);
    let compressed = compress(&rowwise);
    let decompress_s = seconds_per_call(|| {
        std::hint::black_box(decompress(&compressed).expect("just compressed"));
    });
    p.push(
        "delta.probe.decompress_mb_per_s",
        rowwise.len() as f64 / MB / decompress_s,
    );
    let sum_s = seconds_per_call(|| {
        let mut acc = Delta::new();
        acc.sum_assign(&snapshot);
        std::hint::black_box(acc);
    });
    p.push(
        "delta.probe.sum_nodes_per_s",
        snapshot.cardinality() as f64 / sum_s,
    );
    let replay_s = seconds_per_call(|| {
        let mut state = Delta::new();
        state.apply_events(events);
        std::hint::black_box(state);
    });
    p.push(
        "delta.probe.replay_events_per_s",
        events.len() as f64 / replay_s,
    );

    // --- partition ---------------------------------------------------
    let span_events = hgs_core::TgiConfig::default().events_per_timespan;
    let plan_s = seconds_per_inner_call(1_000, |_| {
        std::hint::black_box(plan_timespans(std::hint::black_box(events), span_events));
    });
    p.push(
        "partition.probe.plan_timespans_events_per_s",
        events.len() as f64 / plan_s,
    );
    let map = PartitionMap::random(64);
    let assign_s = seconds_per_inner_call(100_000, |i| {
        std::hint::black_box(map.assign(std::hint::black_box(i as NodeId)));
    });
    p.push("partition.probe.assign_ns", assign_s * 1e9);

    // --- graph -------------------------------------------------------
    let from_delta_s = {
        let mut reps = Vec::new();
        for _ in 0..MIN_REPS {
            let input = snapshot.clone();
            let t0 = Instant::now();
            std::hint::black_box(Graph::from_delta(input));
            reps.push(t0.elapsed().as_secs_f64());
        }
        median(&reps)
    };
    p.push("graph.probe.from_delta_ms", from_delta_s * 1e3);
    let graph = Graph::from_delta(snapshot);
    let density_s = seconds_per_inner_call(100_000, |_| {
        std::hint::black_box(algo::density(std::hint::black_box(&graph)));
    });
    p.push("graph.probe.density_us", density_s * 1e6);

    // --- core.service ------------------------------------------------
    let pin_s = seconds_per_inner_call(100_000, |_| {
        std::hint::black_box(wiki.pin());
    });
    p.push("core.service.pin_ns", pin_s * 1e9);

    // --- core.query_plan ---------------------------------------------
    let view = wiki.pin();
    let mut window = 0u64;
    let plan_s = seconds_per_inner_call(64, |_| {
        let times: Vec<_> = (0..MULTIPOINT_K)
            .map(|j| wiki_time(view.end_time(), window + j))
            .collect();
        window += 1;
        std::hint::black_box(view.plan_multipoint(&times));
    });
    p.push("core.query_plan.plan_us", plan_s * 1e6);
    p
}
