//! Column pruning of the static-vertex fetch, as a deterministic
//! counter check: a cold `try_node_at` against a cold full
//! materialization of the node's micro-partition — the whole tree path
//! summed and the whole eventlist chunk replayed, which is what an
//! unpruned `try_node_at` would do.
//!
//! A node's record is spread over its path as pieces (one per row
//! where a component of it first became common), so the pruned read
//! consults the id column of every path row, and on a hit the restart
//! column and the record segment too — each of which the full replay
//! decodes as well (it holds every restart to the records it spans).
//! What pruning guarantees is therefore: per node, no more bytes than
//! the full materialization; and strictly fewer bytes summed over the
//! sample.
//!
//! `hgs_delta::codec::decoded_bytes()` is process-global, so this
//! file holds exactly one test: nothing else decodes in its process.

use hgs_core::{KhopStrategy, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::decoded_bytes;
use hgs_store::StoreConfig;

#[test]
fn cold_node_at_decodes_fewer_bytes_than_its_micro_partition() {
    let events = WikiGrowth::sized(3_000).generate();
    let t = events.last().unwrap().time / 2;
    // Cache off: every read below fetches and decodes from scratch.
    let cfg = TgiConfig {
        events_per_timespan: 1_200,
        eventlist_size: 150,
        partition_size: 60,
        ..TgiConfig::default()
    };
    let tgi = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events)
        .unwrap()
        .pin();
    tgi.set_read_cache_budget(0);

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
        assert!(
            pruned_bytes <= full_bytes,
            "node {nid}: pruned node_at decoded {pruned_bytes} B, full micro-partition \
             {full_bytes} B"
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
