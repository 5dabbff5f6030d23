//! Corruption injection: a stored row whose bytes no longer decode
//! must surface as `StoreError::Corrupt` through the `try_*` read
//! path — never panic inside a caller that opted into `Result`. The
//! decode sites used to `.expect("stored delta decodes")` straight
//! through `try_snapshot`; this pins the contract that replaced them.

mod common;

use std::collections::BTreeSet;

use bytes::{Bytes, BytesMut};
use hgs_core::meta::TimespanMeta;
use hgs_core::{KhopStrategy, OpenError, Tgi, TgiConfig};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::columnar::encode_columnar_delta;
use hgs_delta::{CodecError, ColumnarDelta, StaticNode, TimeRange};
use hgs_store::{DeltaKey, PutRow, SimStore, StoreConfig, StoreError, Table};

fn trace() -> Vec<hgs_delta::Event> {
    WikiGrowth::sized(3_000).generate()
}

fn cfg() -> TgiConfig {
    TgiConfig {
        events_per_timespan: 1_200,
        eventlist_size: 150,
        partition_size: 60,
        ..TgiConfig::default()
    }
}

/// Overwrite every row of `table` with bytes that fail decoding.
/// Rows are rewritten under every placement token so each replica of
/// each chunk serves the garbage, whichever machine a read lands on.
fn corrupt_table(store: &SimStore, table: Table) -> usize {
    let tag = table.tag();
    let mut keys: BTreeSet<Vec<u8>> = BTreeSet::new();
    for rows in store.content_rows() {
        for (nk, _) in rows {
            if nk.first() == Some(&tag) {
                keys.insert(nk[1..].to_vec());
            }
        }
    }
    let garbage = Bytes::from_static(b"\xff\xfenot a decodable row");
    let mut rows = Vec::new();
    for key in &keys {
        for token in 0..store.machine_count() as u64 {
            rows.push(PutRow::new(table, key.clone(), token, garbage.clone()));
        }
    }
    store.try_put_batch(rows).expect("healthy store");
    keys.len()
}

#[test]
fn corrupt_delta_rows_surface_corrupt_not_panic() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(4, 2), &events).unwrap();

    // Corrupt before the first read: the read cache is cold, so every
    // query below must hit the store and trip the decode.
    let n = corrupt_table(tgi.store(), Table::Deltas);
    assert!(n > 0, "the build must have written delta rows");

    assert!(matches!(tgi.try_snapshot(t), Err(StoreError::Corrupt(_))));
    assert!(matches!(tgi.try_node_at(0, t), Err(StoreError::Corrupt(_))));
    assert!(matches!(
        tgi.try_node_history(0, TimeRange::new(end / 4, (3 * end) / 4)),
        Err(StoreError::Corrupt(_))
    ));
    // An attribute history replays the node's eventlist rows.
    assert!(matches!(
        tgi.try_attr_history(0, hgs_core::LABEL_KEY),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn corrupt_version_chain_surfaces_corrupt_not_panic() {
    let events = trace();
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(3, 1), &events).unwrap();
    let n = corrupt_table(tgi.store(), Table::Versions);
    assert!(n > 0, "the build must have written version chains");
    assert!(matches!(
        tgi.try_version_chain(0),
        Err(StoreError::Corrupt(_))
    ));
    // ...and so does every read that locates its chunks through it.
    assert!(matches!(
        tgi.try_attr_history(0, hgs_core::LABEL_KEY),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn corrupt_attr_index_rows_surface_corrupt_not_panic() {
    let events = hgs_datagen::SkewedLabels {
        nodes: 200,
        edge_events: 1_000,
        attr_churn: 500,
        ..Default::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(3, 1), &events).unwrap();
    let n = corrupt_table(tgi.store(), Table::AttrIndex);
    assert!(n > 0, "the build must have written secondary-index rows");

    assert!(matches!(
        tgi.try_nodes_with_label_at("Label00", t),
        Err(StoreError::Corrupt(_))
    ));
    // An attribute history is read from the node's version chain and
    // eventlists: a damaged `AttrIndex` table does not touch it.
    let history = tgi.try_attr_history(0, hgs_core::LABEL_KEY).unwrap();
    assert_eq!(
        history,
        common::attr_history_by_replay(&events, 0, hgs_core::LABEL_KEY)
    );
    assert!(!history.is_empty(), "node 0 is labelled");
    // The materialization path reads other tables and still answers.
    assert!(tgi
        .try_nodes_matching_at_materialized(
            hgs_core::LABEL_KEY,
            &hgs_delta::AttrValue::Text("Label00".into()),
            t,
        )
        .is_ok());
}

/// Since a tree row's records are *pieces* merged onto what the rows
/// above it hold, a row that repeats a component an ancestor holds is
/// no longer shadowed harmlessly: unchecked it would read back as a
/// node with a doubled edge. Every read that crosses such a row must
/// say `Corrupt` — whichever of the path-sum's callers it runs
/// through, cold or through a cache already holding the rows above.
#[test]
fn repeated_component_in_a_child_row_is_corrupt_on_every_read() {
    let events = trace();
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(4, 2), &events).unwrap();
    let store = tgi.store();
    let rows: Vec<_> = store.content_rows().into_iter().flatten().collect();
    let tree_row = |key: &DeltaKey| {
        let mut nk = vec![Table::Deltas.tag()];
        nk.extend_from_slice(&key.encode());
        rows.iter()
            .find(|(k, _)| *k == nk)
            .map(|(_, v)| ColumnarDelta::parse(v.clone()).unwrap().to_delta().unwrap())
    };

    // The second span starts on a populated graph: its root row holds
    // real edge-lists. Read at its second checkpoint.
    let meta = rows
        .iter()
        .filter(|(k, _)| k[0] == Table::Timespans.tag())
        .map(|(_, v)| TimespanMeta::decode(v).unwrap())
        .find(|m| m.tsid == 1)
        .expect("the trace spans several timespans");
    let t = meta.checkpoints[1];
    let path = meta.shape.path_to_leaf(meta.leaf_for_time(t));
    let (root_did, leaf_did) = (path[0], *path.last().unwrap());
    assert_ne!(root_did, leaf_did);

    // The best-connected node of any root micro-partition, and the
    // leaf row of the same micro-partition.
    let (root_key, hub): (DeltaKey, StaticNode) = rows
        .iter()
        .filter(|(k, _)| k[0] == Table::Deltas.tag())
        .filter_map(|(k, _)| DeltaKey::decode(&k[1..]))
        .filter(|k| k.tsid == meta.tsid && k.did == root_did)
        .flat_map(|k| {
            let root = tree_row(&k).expect("listed row");
            root.iter().map(|n| (k, n.clone())).collect::<Vec<_>>()
        })
        .max_by_key(|(_, n)| (n.degree(), n.id))
        .expect("the root holds nodes");
    assert!(hub.degree() > 0);
    let leaf_key = DeltaKey::new(meta.tsid, root_key.sid, leaf_did, root_key.pid);

    // Hand-build the leaf row: whatever it held, plus a piece for the
    // hub repeating one entry the root already holds.
    let mut leaf = tree_row(&leaf_key).unwrap_or_default();
    let mut piece = leaf
        .remove(hub.id)
        .unwrap_or_else(|| StaticNode::new(hub.id));
    piece.insert_edge(hub.edges[0].clone());
    leaf.insert(piece);
    let value = encode_columnar_delta(&leaf);
    let replicas = (0..store.machine_count() as u64)
        .map(|token| {
            PutRow::new(
                Table::Deltas,
                leaf_key.encode().to_vec(),
                token,
                value.clone(),
            )
        })
        .collect();
    store.try_put_batch(replicas).expect("healthy store");

    let repeated = |r: Result<(), StoreError>, what: &str| {
        assert_eq!(
            r,
            Err(StoreError::Corrupt(CodecError::RepeatedComponent {
                node: hub.id
            })),
            "{what}"
        );
    };
    let later = meta.checkpoints[2];
    for pass in ["cold", "through the cache the first pass left"] {
        repeated(tgi.try_snapshot(t).map(drop), pass);
        repeated(tgi.try_snapshots(&[later, t]).map(drop), pass);
        repeated(
            tgi.with_clients(3).try_snapshots(&[later, t]).map(drop),
            pass,
        );
        repeated(tgi.try_snapshot_uncached_c(t, 2).map(drop), pass);
        repeated(tgi.try_node_at(hub.id, t).map(drop), pass);
        repeated(tgi.try_sid_state_at(root_key.sid, t).map(drop), pass);
        for strategy in [KhopStrategy::Recursive, KhopStrategy::ViaSnapshot] {
            repeated(tgi.try_khop_with(hub.id, t, 1, strategy).map(drop), pass);
        }
        let range = TimeRange::new(t, later);
        repeated(tgi.try_node_history(hub.id, range).map(drop), pass);
    }
    // A path that does not cross the row still answers.
    let sibling = meta.checkpoints[0];
    assert_ne!(meta.leaf_for_time(sibling), meta.leaf_for_time(t));
    tgi.try_snapshot(sibling).expect("untouched path");
}

/// Wire-level corruption via the fault plan: a `CorruptRead` verdict
/// hands the decoder undecodable bytes exactly like the at-rest
/// rewrites above — same `StoreError::Corrupt`, never a panic — but
/// the *stored* rows are untouched, so detaching the plan restores
/// byte-identical answers with no repair needed.
#[test]
fn corrupt_on_read_fault_surfaces_corrupt_and_leaves_storage_intact() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(4, 2), &events).unwrap();
    let reference = tgi.try_snapshot(t).expect("healthy cluster");
    // Cold cache: every read below must hit the (corrupting) wire.
    tgi.set_read_cache_budget(0);
    tgi.store().set_fault_plan(Some(
        hgs_store::FaultPlan::new(0xC0FF).with_corrupt_per_mille(1000),
    ));
    assert!(matches!(tgi.try_snapshot(t), Err(StoreError::Corrupt(_))));
    assert!(matches!(tgi.try_node_at(0, t), Err(StoreError::Corrupt(_))));
    tgi.store().set_fault_plan(None);
    assert_eq!(
        tgi.try_snapshot(t).expect("storage was never touched"),
        reference
    );
}

/// `Tgi::open` trusts nothing in the stored descriptor: a config row
/// whose construction parameters break the bounds the build path
/// asserts (the query paths divide by them), whose row-format tag is
/// not the one format, or that is cut short before the tag, is
/// `OpenError::Corrupt` — never an `Ok` handle that panics or reports
/// every row corrupt on its first query.
#[test]
fn out_of_bounds_descriptor_is_corrupt_not_a_panic() {
    let events = trace();
    let tgi = Tgi::try_build(cfg(), StoreConfig::new(3, 1), &events).unwrap();
    let store = tgi.store().clone();
    let good = store
        .get(Table::Graph, b"config", 0)
        .unwrap()
        .expect("the build wrote a config row");
    // The descriptor is twelve varints; see `persist::encode_config`.
    let mut fields: Vec<u64> = Vec::new();
    let mut b: &[u8] = &good;
    while !b.is_empty() {
        fields.push(get_varint(&mut b).unwrap());
    }
    assert_eq!(fields.len(), 12);
    const LAYOUT: usize = 10;
    let rewrite = |fields: &[u64]| {
        let mut buf = BytesMut::new();
        for &f in fields {
            put_varint(&mut buf, f);
        }
        let row = PutRow::new(Table::Graph, b"config".to_vec(), 0, buf.freeze());
        store.try_put_batch(vec![row]).expect("healthy store");
    };
    let events_per_timespan = fields[0];
    for (idx, bad, what) in [
        (0, 0, "events_per_timespan = 0"),
        (1, 0, "eventlist_size = 0"),
        (1, events_per_timespan + 1, "eventlist_size > timespan"),
        (2, 1, "arity = 1"),
        (3, 0, "partition_size = 0"),
        (4, 0, "horizontal_partitions = 0"),
        (LAYOUT, 0, "retired layout tag 0"),
    ] {
        let mut bad_fields = fields.clone();
        bad_fields[idx] = bad;
        rewrite(&bad_fields);
        assert!(
            matches!(Tgi::open(store.clone()), Err(OpenError::Corrupt(_))),
            "{what} must refuse to open"
        );
    }
    rewrite(&fields[..LAYOUT]);
    assert!(
        matches!(Tgi::open(store.clone()), Err(OpenError::Corrupt(_))),
        "a descriptor truncated before the layout tag must refuse to open"
    );
    // The descriptor as written still opens.
    rewrite(&fields);
    Tgi::open(store).expect("intact descriptor");
}
