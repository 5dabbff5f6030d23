//! Version-chain write-path invariants for the append-only
//! chain-delta rows: the build never read-modify-writes a chain (zero
//! `get`/`scan` round trips during a fresh build), and a dead machine
//! mid-chain-write surfaces `StoreError::Unavailable` without ever
//! half-extending a chain — each `(nid, tsid)` row lands atomically or
//! not at all. Read side: a pinned view takes a row's span from its
//! key and never decodes a row sealed after its pin.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use hgs_core::{TgiConfig, TgiService, TgiView};
use hgs_datagen::{SkewedLabels, WikiGrowth};
use hgs_delta::{normalize_events, TimeRange};
use hgs_store::{
    chain_key, chain_key_tsid, node_placement_token, SimStore, StoreConfig, StoreError, Table,
};

fn cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 1_000,
        eventlist_size: 120,
        partition_size: 50,
        ..TgiConfig::default()
    }
}

/// A fresh build is write-only: version chains are emitted as
/// append-only per-span rows, so the store sees zero point reads and
/// zero scans while building — the old chain path's read-modify-write
/// loop (one `get` per chain extension) is gone.
#[test]
fn fresh_build_issues_zero_reads() {
    let events = WikiGrowth::sized(4_000).generate();
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 2)));
    let before = store.stats_snapshot();
    let tgi = TgiService::try_build_on(cfg(), store.clone(), &events)
        .expect("build")
        .pin();
    let after = store.stats_snapshot();
    let delta = SimStore::stats_since(&after, &before);
    let gets: u64 = delta.iter().map(|m| m.gets).sum();
    let scans: u64 = delta.iter().map(|m| m.scans).sum();
    assert_eq!(gets, 0, "fresh build must not issue point reads");
    assert_eq!(scans, 0, "fresh build must not issue scans");
    // Sanity: chains were actually written and are readable.
    let chain = tgi.try_version_chain(0).unwrap();
    assert!(!chain.is_empty(), "node 0 must have a version chain");
}

/// A chain row spells its chunk set and nothing else: every stored
/// `Versions` row is exactly as long as the bits of its first chunk —
/// as many as its span's chunk count `q` needs — and of the Rice codes
/// (parameter `⌊⌈log2 q⌉ / 3⌋`) of each gap to the next chunk less one,
/// zero-padded to a byte — no count, no time, no `tsid` or `pid`.
#[test]
fn a_chain_row_is_its_chunk_gaps_and_nothing_else() {
    let events = WikiGrowth::sized(4_000).generate();
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 1)));
    let tgi = TgiService::try_build_on(cfg(), store.clone(), &events)
        .expect("build")
        .pin();
    let metas = common::span_metas(&tgi);
    let mut rows = 0;
    for (key, row) in store.content_rows().into_iter().flatten() {
        if key[0] != Table::Versions.tag() {
            continue;
        }
        let nid = u64::from_be_bytes(key[1..9].try_into().unwrap());
        let tsid = chain_key_tsid(&key[1..]).expect("a (nid, tsid) key");
        let chunks: Vec<u32> = tgi
            .try_version_chain(nid)
            .unwrap()
            .into_iter()
            .filter(|e| e.tsid == tsid)
            .map(|e| e.chunk)
            .collect();
        assert!(!chunks.is_empty(), "a row for a span the node is not in");
        let q = metas[tsid as usize].checkpoints.len() as u32;
        let width = u32::BITS - (q - 1).leading_zeros();
        let k = width / 3;
        let codes: u32 = chunks
            .windows(2)
            .map(|w| ((w[1] - w[0] - 1) >> k) + 1 + k)
            .sum();
        assert_eq!(row.len() as u32, (width + codes).div_ceil(8));
        rows += 1;
    }
    assert!(rows > 100, "the build wrote chain rows");
}

/// Appends, too, extend chains purely by writing new `(nid, tsid)`
/// rows — no reads of the existing chain.
#[test]
fn append_extends_chains_without_reading_them() {
    let events = WikiGrowth::sized(4_000).generate();
    let split = events.len() / 2;
    let (prefix, suffix) = events.split_at(split);
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 2)));
    let tgi = TgiService::try_build_on(cfg(), store.clone(), prefix).expect("build");
    let before = store.stats_snapshot();
    tgi.try_append_events(suffix).expect("append");
    let after = store.stats_snapshot();
    let delta = SimStore::stats_since(&after, &before);
    let gets: u64 = delta.iter().map(|m| m.gets).sum();
    assert_eq!(gets, 0, "append must not read version chains back");
}

/// Chain writes against a dead machine fail loudly and atomically:
/// the append surfaces `StoreError::Unavailable`, and after healing,
/// every node's chain — read through a fresh pin and through the
/// recovered writer's first view — is exactly what it was before the
/// failed append: never a half-extended chain.
#[test]
fn dead_machine_mid_chain_write_never_half_extends() {
    let events = WikiGrowth::sized(4_000).generate();
    let split = events.len() / 2;
    let (prefix, suffix) = events.split_at(split);
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 1)));
    let tgi = TgiService::try_build_on(cfg(), store.clone(), prefix).expect("build prefix");

    let probe_ids: Vec<u64> = (0..16).collect();
    let chains = |view: &TgiView| -> Vec<_> {
        probe_ids
            .iter()
            .map(|&nid| view.try_version_chain(nid).expect("healthy read"))
            .collect()
    };
    let before = chains(&tgi.pin());

    // Kill the machine that owns node 0's chain row (replication 1:
    // no other replica can absorb the write).
    let dead = store.machine_for(node_placement_token(0), 0);
    store.fail_machine(dead);
    match tgi.try_append_events(suffix) {
        Err(hgs_core::BuildError::Store(StoreError::Unavailable { .. })) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
        Ok(_) => panic!("append against a dead chain owner must fail"),
    }

    store.heal_machine(dead);
    // The failed append published nothing, and recovery re-opens at
    // the last durable descriptor: neither view reaches a row of the
    // unfinished span, whichever of its chain rows landed.
    assert_eq!(chains(&tgi.pin()), before, "a fresh pin");
    tgi.try_recover().expect("healed cluster");
    assert_eq!(chains(&tgi.pin()), before, "the recovered writer");
}

/// A pinned view owes nothing to rows sealed after it: `tsid` is read
/// off a chain row's key, so a later span's row is skipped before it
/// is decoded and damage to it cannot reach a reader pinned earlier
/// (when entries carried their `tsid`, every scanned row had to decode
/// before the late ones could be dropped). A fresh pin sees the span,
/// and says `Corrupt`.
#[test]
fn a_damaged_chain_row_of_a_later_span_does_not_reach_a_pinned_view() {
    let events = SkewedLabels {
        nodes: 200,
        edge_events: 1_500,
        attr_churn: 800,
        ..Default::default()
    }
    .generate();
    let mut cut = events.len() / 2;
    while events[cut].time == events[cut - 1].time {
        cut += 1;
    }
    let (prefix, suffix) = events.split_at(cut);
    let store = Arc::new(SimStore::new(StoreConfig::new(3, 1)));
    let svc = TgiService::try_build_on(cfg(), store.clone(), prefix).expect("build");
    let pinned = svc.pin();
    svc.try_append_events(suffix).expect("append");

    // A node the pinned prefix knows that the appended spans touch
    // too: damage its chain row in the first of them.
    let first_new = pinned.span_count() as u32;
    let nid = store
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Versions.tag())
        .filter(|(k, _)| chain_key_tsid(&k[1..]) == Some(first_new))
        .map(|(k, _)| u64::from_be_bytes(k[1..9].try_into().unwrap()))
        .find(|&nid| !pinned.try_version_chain(nid).unwrap().is_empty())
        .expect("the suffix touches a node of the prefix");
    common::put_everywhere(
        &store,
        Table::Versions,
        &chain_key(nid, first_new),
        Bytes::from_static(b"\xff\xfenot a chain row"),
    );

    // The pinned view answers, and answers the pinned prefix.
    let end = prefix.last().unwrap().time;
    let range = TimeRange::new(0, end + 1);
    assert_eq!(
        pinned.try_node_history(nid, range).unwrap().events,
        common::node_events_by_replay(&normalize_events(prefix), nid, range)
    );
    assert_eq!(
        pinned.try_attr_history(nid, hgs_core::LABEL_KEY).unwrap(),
        common::attr_history_by_replay(prefix, nid, hgs_core::LABEL_KEY)
    );
    let chain = pinned.try_version_chain(nid).unwrap();
    assert!(chain.iter().all(|e| e.tsid < first_new));

    // A view pinned after the append reads the damaged row.
    let fresh = svc.pin();
    assert!(fresh.span_count() as u32 > first_new);
    assert!(matches!(
        fresh.try_node_history(nid, range),
        Err(StoreError::Corrupt(_))
    ));
    assert!(matches!(
        fresh.try_attr_history(nid, hgs_core::LABEL_KEY),
        Err(StoreError::Corrupt(_))
    ));
}
