//! Column pruning of the static-vertex fetch, as a deterministic
//! counter check: a cold `try_node_at` against a cold full
//! materialization of the node's micro-partition — the whole tree path
//! summed and the whole eventlist chunk replayed, which is what an
//! unpruned `try_node_at` would do.
//!
//! A node's record is spread over its path as pieces (one per row
//! where a component of it first became common), so the pruned read
//! consults the node index — id *and* record-length column — of every
//! path row, where the full replay streams self-delimiting records and
//! never touches a length column. What pruning guarantees is
//! therefore: per node, no more bytes than the full materialization
//! plus the record-length columns of the rows on its path (a hub with
//! a piece on every level can exceed the full read by exactly that
//! much); and strictly fewer bytes summed over the sample.
//!
//! `hgs_delta::codec::decoded_bytes()` is process-global, so this
//! file holds exactly one test: nothing else decodes in its process.

use hgs_core::meta::{sid_of, TimespanMeta};
use hgs_core::{KhopStrategy, Tgi, TgiConfig};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::decoded_bytes;
use hgs_delta::{ColumnarDelta, NodeId, Time};
use hgs_store::{DeltaKey, StoreConfig, Table};

/// Decoded size of the record-length columns of the tree rows on
/// `nid`'s root-to-leaf path at `t` (0 when no path row holds the
/// node). A row's full replay decodes every column but that one.
fn path_length_columns(tgi: &Tgi, nid: NodeId, t: Time) -> u64 {
    let rows: Vec<_> = tgi.store().content_rows().into_iter().flatten().collect();
    let meta = rows
        .iter()
        .filter(|(key, _)| key[0] == Table::Timespans.tag())
        .map(|(_, value)| TimespanMeta::decode(value).expect("stored span descriptor"))
        .find(|meta| meta.range.contains(t))
        .expect("a span covers t");
    let path = meta.shape.path_to_leaf(meta.leaf_for_time(t));
    let sid = sid_of(nid, tgi.config().horizontal_partitions);
    let parse = |value: &bytes::Bytes| ColumnarDelta::parse(value.clone()).expect("stored row");
    let on_path: Vec<(u32, &bytes::Bytes)> = rows
        .iter()
        .filter(|(key, _)| key[0] == Table::Deltas.tag())
        .filter_map(|(key, value)| Some((DeltaKey::decode(&key[1..])?, value)))
        .filter(|(k, _)| k.tsid == meta.tsid && k.sid == sid && path.contains(&k.did))
        .map(|(k, value)| (k.pid, value))
        .collect();
    let Some(pid) = on_path
        .iter()
        .find_map(|(pid, value)| parse(value).contains(nid).unwrap().then_some(*pid))
    else {
        return 0;
    };
    on_path
        .iter()
        .filter(|(p, _)| *p == pid)
        .map(|(_, value)| {
            let row = parse(value);
            let b0 = decoded_bytes();
            row.to_delta().unwrap();
            row.raw_len_total() as u64 - (decoded_bytes() - b0)
        })
        .sum()
}

#[test]
fn cold_node_at_decodes_fewer_bytes_than_its_micro_partition() {
    let events = WikiGrowth::sized(3_000).generate();
    let t = events.last().unwrap().time / 2;
    // Cache off: every read below fetches and decodes from scratch.
    let cfg = TgiConfig {
        events_per_timespan: 1_200,
        eventlist_size: 150,
        partition_size: 60,
        read_cache_bytes: 0,
        ..TgiConfig::default()
    };
    let tgi = Tgi::try_build(cfg, StoreConfig::new(2, 1), &events).unwrap();

    let (mut probed, mut pruned_total, mut full_total) = (0, 0, 0);
    for nid in (0..400u64).step_by(37) {
        let b0 = decoded_bytes();
        let pruned = tgi.try_node_at(nid, t).unwrap();
        let pruned_bytes = decoded_bytes() - b0;

        // A 0-hop recursive k-hop is the public spelling of "fully
        // materialize the center's micro-partition, return the center".
        let b0 = decoded_bytes();
        let full = tgi
            .try_khop_with(nid, t, 0, KhopStrategy::Recursive)
            .unwrap();
        let full_bytes = decoded_bytes() - b0;

        assert_eq!(pruned.as_ref(), full.node(nid), "answers for node {nid}");
        let length_columns = path_length_columns(&tgi, nid, t);
        assert!(
            pruned_bytes <= full_bytes + length_columns,
            "node {nid}: pruned node_at decoded {pruned_bytes} B, full micro-partition \
             {full_bytes} B + {length_columns} B of length columns"
        );
        pruned_total += pruned_bytes;
        full_total += full_bytes;
        probed += pruned.is_some() as usize;
    }
    assert!(probed > 0, "the sample must hit nodes that exist at t={t}");
    assert!(
        pruned_total < full_total,
        "over the sample: pruned {pruned_total} B, full {full_total} B"
    );
}
