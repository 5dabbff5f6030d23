//! Corruption injection: a stored row whose bytes no longer decode
//! must surface as `StoreError::Corrupt` through the `try_*` read
//! path — never panic inside a caller that opted into `Result`. The
//! decode sites used to `.expect("stored delta decodes")` straight
//! through `try_snapshot`; this pins the contract that replaced them.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::put_everywhere;

use bytes::{Bytes, BytesMut};
use hgs_core::{
    encode_chain, sid_of, ChainEntry, KhopStrategy, OpenError, PartitionStrategy, TgiConfig,
    TgiService, TgiView, TimespanMeta, ELIST_BASE,
};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{
    columnar::{encode_columnar_delta, encode_columnar_residual_in},
    normalize_events, CodecError, ColumnarDelta, Delta, PairTable, Removal, Residual, StaticNode,
    TimeRange,
};
use hgs_store::{
    chain_key, chain_key_tsid, node_key, DeltaKey, PutRow, SimStore, StoreConfig, StoreError, Table,
};
use hgs_taf::TgiHandler;

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

/// A row of bare varints.
fn varints(fields: &[u64]) -> Bytes {
    let mut buf = BytesMut::new();
    for &f in fields {
        put_varint(&mut buf, f);
    }
    buf.freeze()
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
    for key in &keys {
        put_everywhere(store, table, key, garbage.clone());
    }
    keys.len()
}

#[test]
fn corrupt_delta_rows_surface_corrupt_not_panic() {
    let events = trace();
    let end = events.last().unwrap().time;
    let t = end / 2;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();

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
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
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
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
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
    // A snapshot reads other tables and still answers the replay's
    // state, labels included.
    assert_eq!(
        tgi.try_snapshot(t).unwrap(),
        Delta::snapshot_by_replay(&events, t)
    );
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
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
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
    let meta = common::span_metas(&tgi)
        .into_iter()
        .nth(1)
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
    put_everywhere(store, Table::Deltas, &leaf_key.encode(), value);

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
        repeated(tgi.try_node_at(hub.id, t).map(drop), pass);
        repeated(
            tgi.try_node_histories_for_sid(root_key.sid, TimeRange::new(t, later))
                .map(drop),
            pass,
        );
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
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
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

/// `TgiService::open` trusts nothing in the stored descriptor: a config row
/// whose construction parameters break the bounds the build path
/// asserts (the query paths divide by them), whose row-format tag is
/// not the one format, or that is empty, is `OpenError::Corrupt` —
/// never an `Ok` handle that panics or reports every row corrupt on
/// its first query.
#[test]
fn out_of_bounds_descriptor_is_corrupt_not_a_panic() {
    let events = trace();
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let store = tgi.store().clone();
    let good = store.multi_get(Table::Graph, &[b"config"], 0).unwrap()[0]
        .clone()
        .expect("the build wrote a config row");
    // The descriptor is nine varints, the layout tag first; see
    // `persist::encode_config`.
    let mut fields: Vec<u64> = Vec::new();
    let mut b: &[u8] = &good;
    while !b.is_empty() {
        fields.push(get_varint(&mut b).unwrap());
    }
    assert_eq!(fields.len(), 9);
    const LAYOUT: usize = 0;
    let rewrite = |fields: &[u64]| {
        let row = PutRow::new(Table::Graph, b"config".to_vec(), 0, varints(fields));
        store.try_put_batch(vec![row]).expect("healthy store");
    };
    let events_per_timespan = fields[1];
    let retired = (0..13).map(|tag| (LAYOUT, tag, format!("retired layout tag {tag}")));
    for (idx, bad, what) in [
        (1, 0, "events_per_timespan = 0"),
        (2, 0, "eventlist_size = 0"),
        (2, events_per_timespan + 1, "eventlist_size > timespan"),
        (3, 1, "arity = 1"),
        (4, 0, "partition_size = 0"),
        (5, 0, "horizontal_partitions = 0"),
        (
            5,
            fields[5] + (1 << 32),
            "horizontal_partitions wrapping past u32",
        ),
    ]
    .map(|(idx, bad, what)| (idx, bad, what.to_string()))
    .into_iter()
    .chain(retired)
    {
        let mut bad_fields = fields.clone();
        bad_fields[idx] = bad;
        rewrite(&bad_fields);
        assert!(
            matches!(TgiService::open(store.clone()), Err(OpenError::Corrupt(_))),
            "{what} must refuse to open"
        );
    }
    // Tag 2 is the format whose chain rows were `count, (time-gap,
    // chunk)*`, which would parse as chunk gaps. `Versions` rows carry
    // no magic of their own, so the descriptor is where such an index
    // is refused — by name. Tag 4 is the layout whose delta rows kept a
    // byte length per record, and tag 6 the one whose rows carried an
    // LZSS bit per segment and spelled attribute values in full:
    // refused by name too, with no reader of their rows kept. Tag 7
    // rows are this layout's, but its descriptors spelled a read-cache
    // budget, and tag 8's spelled what `open` now derives.
    for tag in [2, 4, 6, 7, 8] {
        let mut previous = fields.clone();
        previous[LAYOUT] = tag;
        rewrite(&previous);
        assert!(matches!(
            TgiService::open(store.clone()),
            Err(OpenError::Corrupt(CodecError::BadTag {
                what: "StorageLayout",
                tag: t
            })) if u64::from(t) == tag
        ));
    }
    rewrite(&[]);
    assert!(
        matches!(TgiService::open(store.clone()), Err(OpenError::Corrupt(_))),
        "an empty descriptor must refuse to open"
    );
    // The descriptor as written still opens.
    rewrite(&fields);
    TgiService::open(store).expect("intact descriptor").pin();
}

/// Every element count `TgiService::open` reads is held to the bytes
/// left in its row before anything is allocated for it: a hostile
/// count is `OpenError::Corrupt`, not a `capacity overflow` panic or an
/// OOM-sized reservation. No descriptor row spells a count of its own
/// elements any more; two counts are left, one case each.
#[test]
fn hostile_descriptor_counts_are_corrupt_not_an_allocation() {
    const HUGE: u64 = 1 << 62;
    let events = trace();
    let store = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin()
        .store()
        .clone();
    let corrupt = |what: &str| match TgiService::open(store.clone()) {
        Err(OpenError::Corrupt(e)) => e,
        Err(other) => panic!("{what}: unexpected error {other}"),
        Ok(_) => panic!("{what}: opened"),
    };

    // `Graph/meta`, the span count: nothing is allocated for it, and a
    // count no `tsid` can name is refused outright — as is 0, which no
    // build writes and which left every read without a span to land on
    // (`span_index_for` panicked).
    let meta = store.multi_get(Table::Graph, &[b"meta"], 0).unwrap()[0]
        .clone()
        .expect("the build wrote a meta row");
    for count in [HUGE, 0] {
        put_everywhere(&store, Table::Graph, b"meta", varints(&[count, 9, 9, 1]));
        assert_eq!(
            corrupt("span count"),
            CodecError::LengthOverflow {
                what: "span count",
                len: count
            }
        );
    }
    put_everywhere(&store, Table::Graph, b"meta", meta);

    // `Graph/config`, the horizontal partitions: the pid counts each
    // `Timespans` row opens with. The most a `u32` names is held to
    // the span row's bytes before anything is allocated for them.
    let config = store.multi_get(Table::Graph, &[b"config"], 0).unwrap()[0]
        .clone()
        .expect("the build wrote a config row");
    let mut fields: Vec<u64> = Vec::new();
    let mut b: &[u8] = &config;
    while !b.is_empty() {
        fields.push(get_varint(&mut b).unwrap());
    }
    fields[5] = u32::MAX as u64;
    put_everywhere(&store, Table::Graph, b"config", varints(&fields));
    // Span 0's `c_0`, read as one more pid count, is the first of them
    // out of bounds.
    assert_eq!(
        corrupt("horizontal partitions"),
        CodecError::LengthOverflow {
            what: "pid count",
            len: 0
        }
    );
    put_everywhere(&store, Table::Graph, b"config", config);
    TgiService::open(store).expect("intact descriptor");
}

/// A `Micropartitions` row is `(id gap, pid)` entries in node order,
/// and its part count is the span row's pid count for the sid. An
/// entry whose pid is at or past the part count names no
/// micro-partition: `TgiService::open` refuses the row as `Corrupt`,
/// naming the pid, instead of panicking on the map's bound (or, without
/// debug assertions, opening a map whose reads land on a partition no
/// row holds). A pid past `u32` is refused too, not truncated. A node
/// named twice — an id gap of 0 after the first entry — or an id past
/// `u64` is refused by the gap, and a row ending inside an entry is cut
/// short.
#[test]
fn a_partition_map_naming_a_pid_past_its_part_count_is_corrupt() {
    let events = trace();
    let cfg = cfg().with_strategy(PartitionStrategy::Locality {
        replicate_boundary: false,
    });
    let tgi = TgiService::try_build(cfg, StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let store = tgi.store().clone();
    let metas = common::span_metas(&tgi);
    // A stored map of two parts at least, with two entries.
    let tag = Table::Micropartitions.tag();
    let (key, parts, fields) = store
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(nk, _)| nk.first() == Some(&tag))
        .map(|(nk, row)| {
            let tsid = u32::from_be_bytes(nk[1..5].try_into().unwrap());
            let sid = u32::from_be_bytes(nk[5..9].try_into().unwrap());
            let parts = metas[tsid as usize].pid_counts[sid as usize] as u64;
            let mut b: &[u8] = &row;
            let mut fields = Vec::new();
            while !b.is_empty() {
                fields.push(get_varint(&mut b).unwrap());
            }
            (nk[1..].to_vec(), parts, fields)
        })
        .find(|(_, parts, fields)| *parts >= 2 && fields.len() >= 4)
        .expect("a locality build stores a map of two parts or more");
    let intact = varints(&fields);
    let open = |row: Bytes| {
        put_everywhere(&store, Table::Micropartitions, &key, row);
        TgiService::open(store.clone()).map(drop)
    };
    let refused = |at: usize, value: u64| {
        let mut bad = fields.clone();
        bad[at] = value;
        match open(varints(&bad)) {
            Err(OpenError::Corrupt(CodecError::BadRef { what, id })) if id == value => what,
            other => panic!("field {at} = {value}: {other:?}"),
        }
    };
    for pid in [parts, 5 * parts, 1 << 40] {
        assert_eq!(
            refused(3, pid),
            "partition map pid",
            "pid {pid} of {parts} parts"
        );
    }
    // A node named twice, and an id past `u64`.
    for gap in [0, u64::MAX] {
        assert_eq!(refused(2, gap), "partition map id gap");
    }
    let mut cut = intact.to_vec();
    cut.push(1);
    assert!(
        matches!(
            open(Bytes::from(cut)),
            Err(OpenError::Corrupt(CodecError::UnexpectedEof { .. }))
        ),
        "a map ending inside an entry must refuse to open"
    );
    open(intact).expect("intact partition map");
}

/// A `Timespans` row spells neither its `tsid` nor its end: the
/// reader takes the first from the key and the second from the next
/// span's `c_0`. What is left to hold is one rule across rows — span
/// starts never fall, each span's checkpoints after its `c_0` lie below
/// the next span's `c_0`, and the first span opens at 0 — and within a
/// row, checkpoints below `Time::MAX`. A row off these is
/// `OpenError::Corrupt`, naming the field, never a re-open that panics
/// or answers from the wrong span's rows. The row spells no arity to
/// get wrong: the tree's comes from the descriptor, whose bound
/// `out_of_bounds_descriptor_is_corrupt_not_a_panic` holds.
#[test]
fn inconsistent_timespan_rows_are_corrupt_not_a_panic_or_a_wrong_graph() {
    let events = trace();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let store = tgi.store().clone();
    let metas = common::span_metas(&tgi);
    let (span0, span1) = (&metas[0], &metas[1]);
    assert!(span0.checkpoints.len() > 1, "span 0 holds several chunks");
    let last0 = *span0.checkpoints.last().unwrap();
    let reopened = |tsid: u32, meta: &TimespanMeta| {
        put_everywhere(&store, Table::Timespans, &tsid.to_be_bytes(), meta.encode());
        let got = TgiService::open(store.clone()).map(|svc| svc.pin().try_snapshot(end / 2));
        put_everywhere(
            &store,
            Table::Timespans,
            &tsid.to_be_bytes(),
            metas[tsid as usize].encode(),
        );
        got
    };
    let bad_ref = |what, id| CodecError::BadRef { what, id };
    let opening_at = |meta: &TimespanMeta, start: u64| TimespanMeta {
        checkpoints: [start]
            .into_iter()
            .chain(meta.checkpoints[1..].iter().copied())
            .collect(),
        ..meta.clone()
    };
    for (what, tsid, meta, want) in [
        (
            "span 1 opening below span 0's last checkpoint",
            1,
            opening_at(span1, last0 - 1),
            bad_ref("timespan start", last0 - 1),
        ),
        (
            "span 1 opening at span 0's last checkpoint",
            1,
            opening_at(span1, last0),
            bad_ref("timespan start", last0),
        ),
        (
            "span 1 opening where span 0 opens",
            1,
            TimespanMeta {
                checkpoints: vec![0],
                ..span1.clone()
            },
            bad_ref("timespan start", 0),
        ),
        (
            "span 0 opening after time 0",
            0,
            opening_at(span0, 1),
            bad_ref("timespan start", 1),
        ),
    ] {
        match reopened(tsid, &meta) {
            Err(OpenError::Corrupt(e)) => assert_eq!(e, want, "{what}"),
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(_) => panic!("{what}: opened"),
        }
    }
    // A checkpoint gap that runs past `Time::MAX`.
    let mut row = BytesMut::new();
    row.extend_from_slice(&span1.encode());
    put_varint(&mut row, u64::MAX - 1);
    put_everywhere(&store, Table::Timespans, &1u32.to_be_bytes(), row.freeze());
    assert!(matches!(
        TgiService::open(store.clone()).map(drop),
        Err(OpenError::Corrupt(CodecError::BadRef {
            what: "checkpoint",
            ..
        }))
    ));
    // The rows as built reopen to the build's answers.
    assert_eq!(
        reopened(1, span1).expect("intact descriptor").unwrap(),
        tgi.try_snapshot(end / 2).unwrap()
    );
}

/// A span's pid count sizes the hash partition map every read of its
/// `sid` places nodes by. The build writes 1 to `u32::MAX`; a count of
/// 0, or one past `u32` (which would wrap to a small count), is
/// `OpenError::Corrupt`, not an index whose snapshots miss nodes. A
/// zero where sid 0's count stands opens the span's pair table
/// instead; one that names more bytes than the row has is corrupt too.
#[test]
fn a_span_pid_count_of_zero_or_past_u32_is_corrupt() {
    let events = trace();
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let store = tgi.store().clone();
    let last = common::span_metas(&tgi).pop().expect("spans");
    assert!(
        last.pid_counts[1] > 1,
        "sid 1 holds several micro-partitions"
    );
    let key = last.tsid.to_be_bytes();
    // The row's fields: one pid count per sid, then `c_0` and the
    // checkpoint gaps (an attribute-free span spells no pair table).
    let row = |count0: u64, count1: u64| {
        let mut fields = vec![count0, count1];
        fields.extend(last.pid_counts[2..].iter().map(|&p| p as u64));
        let mut prev = 0;
        for &c in &last.checkpoints {
            fields.push(c - prev);
            prev = c;
        }
        varints(&fields)
    };
    let (count0, count1) = (last.pid_counts[0] as u64, last.pid_counts[1] as u64);
    assert_eq!(row(count0, count1), last.encode());
    for count in [0, (1 << 32) + count1] {
        put_everywhere(&store, Table::Timespans, &key, row(count0, count));
        match TgiService::open(store.clone()) {
            Err(OpenError::Corrupt(e)) => assert_eq!(
                e,
                CodecError::LengthOverflow {
                    what: "pid count",
                    len: count
                }
            ),
            Err(other) => panic!("pid count {count}: unexpected error {other}"),
            Ok(_) => panic!("pid count {count} opened"),
        }
    }
    put_everywhere(&store, Table::Timespans, &key, row(0, 0xff));
    assert!(matches!(
        TgiService::open(store.clone()).map(drop),
        Err(OpenError::Corrupt(CodecError::UnexpectedEof { .. }))
    ));
    put_everywhere(&store, Table::Timespans, &key, last.encode());
    let reopened = TgiService::open(store).expect("intact descriptor").pin();
    let t = last.checkpoints[last.checkpoints.len() / 2];
    assert_eq!(reopened.try_snapshot(t), tgi.try_snapshot(t));
}

/// The encodings of a row at their edges, each read through the
/// index: a counts column announcing an edge the record does not
/// hold, a delta row's id column cut short, a weights segment of an
/// impossible length, a `Versions` row under a key that is no
/// `(nid, tsid)`, and rows carrying the magics of the formats before
/// this one. Always `Corrupt` — `BadTag` for the retired magics —
/// never a panic, never a shorter answer. One row pins what is not
/// refused: a wrong restart, which only the full read of a delta row
/// checks, so a lone point read behind it answers the wrong node.
#[test]
fn rows_off_the_grammar_are_corrupt_on_the_reads_that_cross_them() {
    let events = trace();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events)
        .unwrap()
        .pin();
    tgi.set_read_cache_budget(0);
    let store = tgi.store();
    let ns = tgi.config().horizontal_partitions;

    // -- a Versions row under a bare node key ------------------------
    let nid = 0u64;
    let chain = tgi.try_version_chain(nid).unwrap();
    assert!(!chain.is_empty());
    put_everywhere(
        store,
        Table::Versions,
        &node_key(nid),
        Bytes::from_static(&[0]),
    );
    let bad_key = Err(StoreError::Corrupt(CodecError::LengthOverflow {
        what: "Versions key",
        len: 8,
    }));
    assert_eq!(tgi.try_version_chain(nid), bad_key);
    assert_eq!(
        tgi.try_node_history(nid, TimeRange::new(0, end + 1))
            .map(drop),
        bad_key.clone().map(drop)
    );
    assert_eq!(
        tgi.try_attr_history(nid, hgs_core::LABEL_KEY).map(drop),
        bad_key.map(drop)
    );
    // Another node's chain is another prefix.
    tgi.try_version_chain(1).expect("untouched chain");

    // -- eventlist rows ------------------------------------------------
    // A chunk holding node 1, whose every edge is the default one: its
    // weights segment is stored empty.
    let entry = tgi.try_version_chain(1).unwrap()[0];
    let key = DeltaKey::new(
        entry.tsid,
        sid_of(1, ns),
        hgs_core::ELIST_BASE + entry.chunk as u64,
        entry.pid,
    );
    let (_, row) = common::stored_eventlist_rows(store)
        .into_iter()
        .find(|(k, _)| *k == key)
        .expect("the chain names a stored row");
    let good = common::RowSegments::parse(&row);
    assert!(good.segs[common::ELIST_SEG_WEIGHTS].is_empty());
    let range = TimeRange::new(0, end + 1);
    let history = tgi.try_node_history(1, range).unwrap();

    // Neither empty nor five bytes per weighted event.
    let mut odd = common::RowSegments::parse(&row);
    odd.segs[common::ELIST_SEG_WEIGHTS] = vec![0, 0, 0x80, 0x3f, 0, 7, 7];
    put_everywhere(store, Table::Deltas, &key.encode(), odd.assemble());
    let bad_weights = StoreError::Corrupt(CodecError::LengthOverflow {
        what: "weights",
        len: 7,
    });
    assert_eq!(
        tgi.try_node_history(1, range).map(drop),
        Err(bad_weights.clone())
    );
    // ...and a snapshot at the chunk's checkpoint replays it in full.
    let meta = &common::span_metas(&tgi)[entry.tsid as usize];
    let in_chunk = meta.checkpoints[entry.chunk as usize];
    assert_eq!(tgi.try_snapshot(in_chunk).map(drop), Err(bad_weights));

    // The magics of the rows that always spelled their weights, of the
    // rows that spelled attribute values in full, and of the rows whose
    // headers spelled every segment's length.
    let bad_tag = |tag| {
        move |r: Result<(), StoreError>| {
            assert!(
                matches!(r, Err(StoreError::Corrupt(CodecError::BadTag { tag: t, .. })) if t == tag),
                "{r:?}"
            )
        }
    };
    for magic in [0xC1, 0xC6, 0xC9] {
        let mut retired = row.to_vec();
        retired[0] = magic;
        put_everywhere(store, Table::Deltas, &key.encode(), Bytes::from(retired));
        bad_tag(magic)(tgi.try_node_history(1, range).map(drop));
        bad_tag(magic)(tgi.try_snapshot(in_chunk).map(drop));
    }

    // Put back, the row reads as before.
    put_everywhere(store, Table::Deltas, &key.encode(), row);
    assert_eq!(tgi.try_node_history(1, range).unwrap(), history);

    // -- delta rows ------------------------------------------------------
    // The root row of node 1's micro-partition in the last span.
    let span = tgi.span_count() as u32 - 1;
    let pid = tgi.try_version_chain(1).unwrap().last().unwrap().pid;
    let root = DeltaKey::new(span, sid_of(1, ns), 0, pid);
    let mut nk = vec![Table::Deltas.tag()];
    nk.extend_from_slice(&root.encode());
    let root_row = store
        .content_rows()
        .into_iter()
        .flatten()
        .find(|(k, _)| *k == nk)
        .map(|(_, v)| v)
        .expect("the span has a root row for the micro-partition");

    // A one-record row of a bare node is `…, counts = [params, code],
    // records = []`: make the code announce an edge the record does
    // not hold.
    let bare: Delta = [StaticNode::new(1)].into_iter().collect();
    let mut cut = common::RowSegments::parse(&encode_columnar_delta(&bare));
    let counts = &mut cut.segs[common::DELTA_SEG_COUNTS];
    assert_eq!(counts[..], [0, 0b1], "Rice parameter 0, no flags; no edges");
    counts[1] = 0b10;
    assert!(cut.segs[common::DELTA_SEG_RECORDS].is_empty());
    put_everywhere(store, Table::Deltas, &root.encode(), cut.assemble());
    let eof = |r: Result<(), StoreError>| {
        assert!(
            matches!(
                r,
                Err(StoreError::Corrupt(CodecError::UnexpectedEof { .. }))
            ),
            "{r:?}"
        )
    };
    eof(tgi.try_snapshot(end).map(drop));
    eof(tgi.try_node_at(1, end).map(drop));

    // The magics of the rows whose records opened with two counts, of
    // the rows that kept a byte length per record, of the rows whose
    // records spelled every pair's value, and of the rows whose
    // records each opened with a head byte, and of the rows whose
    // headers spelled every segment's length.
    for magic in [0xC3, 0xC4, 0xC7, 0xC8, 0xCA] {
        let mut retired = root_row.to_vec();
        retired[0] = magic;
        put_everywhere(store, Table::Deltas, &root.encode(), Bytes::from(retired));
        bad_tag(magic)(tgi.try_snapshot(end).map(drop));
        bad_tag(magic)(tgi.try_node_at(1, end).map(drop));
    }

    // The id column cut short: the last id's Rice code runs past the
    // end. The full read and the point read of that node refuse it
    // alike — neither answers the node without the root's record.
    let truth = Delta::snapshot_by_replay(&events, end);
    let mut ids: Vec<u64> = ColumnarDelta::parse(root_row.clone())
        .and_then(|row| row.to_delta())
        .unwrap()
        .iter()
        .map(|n| n.id)
        .collect();
    ids.sort_unstable();
    let mut short_ids = common::RowSegments::parse(&root_row);
    short_ids.segs[common::DELTA_SEG_NODE_IDS].pop();
    put_everywhere(store, Table::Deltas, &root.encode(), short_ids.assemble());
    eof(tgi.try_snapshot(end).map(drop));
    eof(tgi.try_node_at(*ids.last().unwrap(), end).map(drop));

    // The first restart one byte short. Only the full read checks a
    // restart, so only it refuses the row; a lone point read of a node
    // in a window behind it skips from inside a record and answers the
    // wrong description — `Ok`, or an error where the bytes it lands
    // on do not parse — for every such node of this row.
    assert!(ids.len() > 16, "the row has a restart");
    let mut short = common::RowSegments::parse(&root_row);
    let mut b: &[u8] = &short.segs[common::DELTA_SEG_RESTARTS];
    let w0 = get_varint(&mut b).unwrap();
    let mut restarts = BytesMut::new();
    put_varint(&mut restarts, w0 - 1);
    restarts.extend_from_slice(b);
    short.segs[common::DELTA_SEG_RESTARTS] = restarts.to_vec();
    put_everywhere(store, Table::Deltas, &root.encode(), short.assemble());
    assert_eq!(
        tgi.try_snapshot(end).map(drop),
        Err(StoreError::Corrupt(CodecError::BadRef {
            what: "restart",
            id: w0 - 1,
        }))
    );
    let mut wrong_ok = 0;
    for (i, &id) in ids.iter().enumerate() {
        let got = tgi.try_node_at(id, end);
        wrong_ok += (i >= 16 && got.is_ok()) as usize;
        let right = got.is_ok_and(|got| got.as_ref() == truth.node(id));
        assert_eq!(right, i < 16, "node {id}");
    }
    assert!(wrong_ok > 0, "some wrong descriptions are answered `Ok`");

    put_everywhere(store, Table::Deltas, &root.encode(), root_row);
    assert_eq!(
        tgi.try_snapshot(end).unwrap(),
        Delta::snapshot_by_replay(&events, end)
    );
}

/// The reads that locate a node's events through its version chain:
/// `try_node_history`, `try_attr_history` and a TAF `son` fetch of the
/// node. An `Ok` history, direct or fetched, must equal replay.
fn chain_reads(
    svc: &Arc<TgiService>,
    events: &[hgs_delta::Event],
    nid: u64,
) -> [Result<(), StoreError>; 3] {
    let tgi = svc.pin();
    let range = TimeRange::new(0, events.last().unwrap().time + 1);
    let want = common::node_events_by_replay(&normalize_events(events), nid, range);
    let whole = |events: Vec<hgs_delta::Event>| assert_eq!(events, want, "a shorter history");
    [
        tgi.try_node_history(nid, range).map(|h| whole(h.events)),
        tgi.try_attr_history(nid, hgs_core::LABEL_KEY).map(drop),
        TgiHandler::serving(Arc::clone(svc), 2)
            .son()
            .timeslice(range)
            .select_ids(vec![nid])
            .try_fetch()
            .map(|son| whole(son.nodes()[0].events().to_vec())),
    ]
}

/// A node's entries in span `tsid`: what its `(nid, tsid)` row holds.
fn chain_segment(tgi: &TgiView, nid: u64, tsid: u32) -> Vec<ChainEntry> {
    let chain = tgi.try_version_chain(nid).unwrap();
    chain.into_iter().filter(|e| e.tsid == tsid).collect()
}

/// A `Versions` row is a set of chunks, and nothing else in the index
/// vouches for it: a row naming chunks its span does not have is
/// `Corrupt` on every read that locates the node's events through its
/// chain, never `Ok` with a shorter history. (When chain entries
/// carried a time, this span-0 row shifted by 10 000 chunks answered 67
/// of node 1's 116 events: the absent rows were flattened away. A
/// chain row's first chunk now takes the bits its span's chunk count
/// needs, so the row that names a chunk past the span here names one
/// more after the chunks it was built with.)
#[test]
fn a_chain_naming_chunks_past_its_span_is_corrupt_not_a_shorter_history() {
    let events = trace();
    let svc = TgiService::try_build(cfg(), StoreConfig::new(4, 2), &events).unwrap();
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let store = tgi.store();
    let entries = chain_segment(&tgi, 1, 0);
    assert!(!entries.is_empty(), "node 1 is touched in span 0");
    for r in chain_reads(&svc, &events, 1) {
        r.expect("the intact chain reads");
    }
    // The row as built, and one chunk 10 000 past its last.
    let chunks = common::span_metas(&tgi)[0].checkpoints.len();
    let mut shifted = entries.clone();
    shifted.push(ChainEntry {
        chunk: entries[entries.len() - 1].chunk + 10_000,
        ..entries[0]
    });
    put_everywhere(
        store,
        Table::Versions,
        &chain_key(1, 0),
        encode_chain(&shifted, chunks),
    );
    let out_of_span = Err(StoreError::Corrupt(CodecError::BadRef {
        what: "chain chunk",
        id: shifted[entries.len()].chunk as u64,
    }));
    assert_eq!(tgi.try_version_chain(1).map(drop), out_of_span);
    for r in chain_reads(&svc, &events, 1) {
        assert_eq!(r, out_of_span);
    }
    put_everywhere(
        store,
        Table::Versions,
        &chain_key(1, 0),
        encode_chain(&entries, chunks),
    );
    for r in chain_reads(&svc, &events, 1) {
        r.expect("the chain as built reads");
    }
}

/// The build names a chunk in a node's chain only beside the node's
/// non-empty bucket, so a named chunk of the span whose eventlist row
/// is absent at the node's micro-partition is `Corrupt` too — where
/// a chain-less read takes an absent row for an empty bucket.
#[test]
fn a_chain_naming_a_chunk_without_the_nodes_row_is_corrupt_not_a_shorter_history() {
    let events = trace();
    // Micro-partitions of a few nodes each: some sit out a chunk.
    let cfg = TgiConfig {
        partition_size: 5,
        ..cfg()
    };
    let svc = TgiService::try_build(cfg, StoreConfig::new(4, 2), &events).unwrap();
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let store = tgi.store();
    let ns = cfg.horizontal_partitions;
    let metas = common::span_metas(&tgi);
    let stored: BTreeSet<DeltaKey> = common::stored_eventlist_rows(store)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    // A node's chain row and a chunk of its span that stores no
    // eventlist row at the node's micro-partition.
    let (nid, tsid, missing) = store
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Versions.tag())
        .find_map(|(k, _)| {
            let nid = u64::from_be_bytes(k[1..9].try_into().unwrap());
            let tsid = chain_key_tsid(&k[1..]).unwrap();
            let pid = chain_segment(&tgi, nid, tsid)[0].pid;
            let absent = |&chunk: &u32| {
                let did = ELIST_BASE + chunk as u64;
                !stored.contains(&DeltaKey::new(tsid, sid_of(nid, ns), did, pid))
            };
            let chunks = metas[tsid as usize].checkpoints.len() as u32;
            (0..chunks).find(absent).map(|chunk| (nid, tsid, chunk))
        })
        .expect("some micro-partition sits out a chunk");
    for r in chain_reads(&svc, &events, nid) {
        r.expect("the intact chain reads");
    }
    let entries = chain_segment(&tgi, nid, tsid);
    let mut named = entries.clone();
    named.push(ChainEntry {
        chunk: missing,
        ..entries[0]
    });
    named.sort_by_key(|e| e.chunk);
    let key = chain_key(nid, tsid);
    let chunks = metas[tsid as usize].checkpoints.len();
    put_everywhere(store, Table::Versions, &key, encode_chain(&named, chunks));
    // The chain itself decodes: every chunk is one the span has.
    assert_eq!(chain_segment(&tgi, nid, tsid), named);
    let dangling = Err(StoreError::Corrupt(CodecError::BadRef {
        what: "chain chunk without an eventlist row",
        id: missing as u64,
    }));
    for r in chain_reads(&svc, &events, nid) {
        assert_eq!(r, dangling);
    }
    put_everywhere(store, Table::Versions, &key, encode_chain(&entries, chunks));
    for r in chain_reads(&svc, &events, nid) {
        r.expect("the chain as built reads");
    }
}

/// A labelled span's `Timespans` row opens with its pair table, which
/// every row of the span names its attribute pairs through. A table cut
/// short, or one whose pair names a key past the table's keys, is
/// refused by `open`; a stored row that names a pair id past its span's
/// table and its own dictionary is `Corrupt` on the reads that cross
/// it — never a panic, never another pair.
#[test]
fn a_pair_table_off_its_grammar_or_an_id_past_it_is_corrupt() {
    let events = hgs_datagen::SkewedLabels {
        nodes: 200,
        edge_events: 1_000,
        attr_churn: 500,
        ..Default::default()
    }
    .generate();
    let end = events.last().unwrap().time;
    let tgi = TgiService::try_build(cfg(), StoreConfig::new(3, 1), &events)
        .unwrap()
        .pin();
    let store = tgi.store().clone();
    let span = common::span_metas(&tgi).pop().expect("spans");
    let table = Arc::clone(&span.pairs);
    assert!(!table.is_empty(), "a labelled span has a pair table");
    let key = span.tsid.to_be_bytes();

    // The row: a zero, the table's length, the table, the rest.
    let built = span.encode();
    assert_eq!(built[0], 0);
    let mut b: &[u8] = &built[1..];
    let len = get_varint(&mut b).unwrap() as usize;
    let (spelled, rest) = b.split_at(len);
    let respell = |table: &[u8]| {
        let mut row = BytesMut::new();
        row.extend_from_slice(&[0]);
        put_varint(&mut row, table.len() as u64);
        row.extend_from_slice(table);
        row.extend_from_slice(rest);
        row.freeze()
    };
    assert_eq!(respell(spelled), built);
    let refused = |row: Bytes, what: &str| -> CodecError {
        put_everywhere(&store, Table::Timespans, &key, row);
        match TgiService::open(store.clone()) {
            Err(OpenError::Corrupt(e)) => e,
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(_) => panic!("{what}: opened"),
        }
    };
    // Cut short by its last byte, the length following the cut: the
    // last pair's value id is missing.
    assert!(matches!(
        refused(respell(&spelled[..len - 1]), "a truncated table"),
        CodecError::UnexpectedEof { .. }
    ));
    // The row cut inside the table, the length as built.
    assert!(matches!(
        refused(
            built.slice(..1 + (built.len() - rest.len()) - 1),
            "a row cut in its table"
        ),
        CodecError::UnexpectedEof { .. }
    ));
    // The last pair's key id (its second-to-last byte, as every id of
    // so small a table is one byte) made the table's key count.
    let n_keys = table.keys().len() as u8;
    let mut past = spelled.to_vec();
    past[len - 2] = n_keys;
    assert_eq!(
        refused(respell(&past), "a pair past the keys"),
        CodecError::BadRef {
            what: "pair-table key",
            id: n_keys as u64
        }
    );
    put_everywhere(&store, Table::Timespans, &key, built);

    // The first node of one of the span's root rows, the row replaced
    // by one whose record names a pair past the table with no
    // dictionary of its own to name: a pair the table lacks is spelled
    // in the row's own dictionary, and that dictionary is then emptied.
    TgiService::open(store.clone()).expect("the rows as built open");
    let (root, nid) = store
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Deltas.tag())
        .filter_map(|(k, v)| Some((DeltaKey::decode(&k[1..])?, v)))
        .filter(|(k, _)| k.tsid == span.tsid && k.did == 0)
        .find_map(|(k, v)| {
            let d = ColumnarDelta::parse_in(v, &table)
                .unwrap()
                .to_delta()
                .unwrap();
            Some((k, *d.sorted_ids().first()?))
        })
        .expect("a root row holds a node");
    let mut odd = StaticNode::new(nid);
    odd.attrs
        .set("a key no span names", hgs_delta::AttrValue::Int(7));
    let row = hgs_delta::columnar::encode_columnar_delta_in(&[odd].into_iter().collect(), &table);
    let mut parts = common::RowSegments::parse(&row);
    assert!(!parts.segs[common::DELTA_SEG_PAIR_DICT].is_empty());
    parts.segs[common::DELTA_SEG_PAIR_DICT].clear();
    put_everywhere(&store, Table::Deltas, &root.encode(), parts.assemble());
    let past_the_table = StoreError::Corrupt(CodecError::LengthOverflow {
        what: "pair-dict-index",
        len: table.pairs().len() as u64,
    });
    // `open` sums the latest state, which crosses the row.
    assert_eq!(
        TgiService::open(store.clone())
            .map(drop)
            .map_err(|e| e.to_string()),
        Err(OpenError::Corrupt(CodecError::LengthOverflow {
            what: "pair-dict-index",
            len: table.pairs().len() as u64,
        })
        .to_string())
    );
    // The built view has read nothing yet: both reads reach the row.
    assert_eq!(tgi.try_node_at(nid, end), Err(past_the_table.clone()));
    assert_eq!(tgi.try_snapshot(end).map(drop), Err(past_the_table));
}

/// A residual root — a span's root stored against its base's root,
/// removals first — that removes a position past the base's record,
/// adds a component the base still holds, or has its removal segment
/// cut short is `Corrupt` on every read that sums it, cold and through
/// a cache already holding the base's rows; arbitrary bytes in its
/// removal segment are read or refused, never a panic.
#[test]
fn a_residual_root_off_its_base_is_corrupt_on_every_read() {
    let events = hgs_datagen::augment_with_churn(&trace(), 1_500, 0.5, 9);
    let build = || {
        TgiService::try_build(cfg(), StoreConfig::new(4, 1), &events)
            .unwrap()
            .pin()
    };
    let rows: Vec<(DeltaKey, Bytes)> = build()
        .store()
        .content_rows()
        .into_iter()
        .flatten()
        .filter(|(k, _)| k[0] == Table::Deltas.tag())
        .filter_map(|(k, v)| Some((DeltaKey::decode(&k[1..])?, v)))
        .collect();
    // A root that removes something — the churn deletes edges — of a
    // span of the first four, whose root bases are the block head's
    // (and, for span 3, span 2's).
    let (key, row) = rows
        .iter()
        .find(|(k, v)| k.did == 0 && (1..=3).contains(&k.tsid) && v[0] == 0xCD)
        .cloned()
        .expect("a residual root with removals");
    let chain: &[u32] = if key.tsid == 3 { &[0, 2] } else { &[0] };
    // The base: its bases' roots of the same `sid`, every
    // micro-partition of each (the wiki trace has no pairs to resolve).
    let mut base = Delta::new();
    for &tsid in chain {
        for (_, v) in rows
            .iter()
            .filter(|(k, _)| (k.tsid, k.sid, k.did) == (tsid, key.sid, 0))
        {
            let col = ColumnarDelta::parse(v.clone()).unwrap();
            col.sum_into(&mut base, None).unwrap();
        }
    }
    // A node of the row that the base holds: its first removal's.
    let segs = common::RowSegments::parse(&row);
    let removals = &segs.segs[common::DELTA_SEG_REMOVALS];
    let mut b: &[u8] = removals;
    let (_count, hub) = (get_varint(&mut b).unwrap(), get_varint(&mut b).unwrap());
    let held = base
        .node(hub)
        .expect("a removal names a node of the base")
        .clone();
    let kept = {
        let mut state = base.clone();
        ColumnarDelta::parse(row.clone())
            .unwrap()
            .sum_node_into(hub, &mut state)
            .unwrap();
        state.node(hub).cloned()
    };

    let meta = &common::span_metas(&build())[key.tsid as usize];
    let t = meta.checkpoints[0];
    let later = meta.range.end;
    let reads = |tgi: &TgiView| -> Vec<(&str, Result<(), StoreError>)> {
        let range = TimeRange::new(t, later);
        vec![
            ("snapshot", tgi.try_snapshot(t).map(drop)),
            ("node_at", tgi.try_node_at(hub, t).map(drop)),
            (
                "khop recursive",
                tgi.try_khop_with(hub, t, 1, KhopStrategy::Recursive)
                    .map(drop),
            ),
            (
                "khop via snapshot",
                tgi.try_khop_with(hub, t, 1, KhopStrategy::ViaSnapshot)
                    .map(drop),
            ),
            (
                "histories of the sid",
                tgi.try_node_histories_for_sid(key.sid, range).map(drop),
            ),
            ("history", tgi.try_node_history(hub, range).map(drop)),
        ]
    };
    // Rewrite the row, warm the cache with the base's rows (the block
    // head's snapshot), then hold every read, twice, to `ok`.
    let corrupted = |value: Bytes, ok: &dyn Fn(&Result<(), StoreError>) -> bool, what: &str| {
        let tgi = build();
        tgi.try_snapshot(common::span_metas(&tgi)[0].checkpoints[1])
            .unwrap();
        put_everywhere(tgi.store(), Table::Deltas, &key.encode(), value);
        for pass in ["cold", "warm"] {
            for (read, got) in reads(&tgi) {
                assert!(ok(&got), "{what}, {pass}: {read}: {got:?}");
            }
        }
    };
    let refused = |want: CodecError| {
        move |got: &Result<(), StoreError>| *got == Err(StoreError::Corrupt(want.clone()))
    };

    // A position past the base's record of the node.
    let past = Residual {
        added: Delta::new(),
        removed: vec![(
            hub,
            Removal::Parts {
                edges: vec![held.degree() as u32 + 5],
                pairs: vec![],
            },
        )],
    };
    corrupted(
        encode_columnar_residual_in(&past, &PairTable::default()),
        &refused(CodecError::BadRef {
            what: "removed component",
            id: hub,
        }),
        "a position past the record",
    );
    // An addition of an entry the base holds and the root keeps.
    let entry = held
        .edges
        .iter()
        .find(|e| {
            kept.as_ref()
                .is_some_and(|k| k.edge(e.nbr, e.dir) == Some(*e))
        })
        .expect("the root keeps an entry of the node")
        .clone();
    let mut piece = StaticNode::new(hub);
    piece.insert_edge(entry);
    let repeat = Residual {
        added: [piece].into_iter().collect(),
        removed: Vec::new(),
    };
    corrupted(
        encode_columnar_residual_in(&repeat, &PairTable::default()),
        &refused(CodecError::RepeatedComponent { node: hub }),
        "a held addition",
    );
    // The removal segment, the row's last, cut short by a byte.
    let any_corrupt = |got: &Result<(), StoreError>| matches!(got, Err(StoreError::Corrupt(_)));
    corrupted(row.slice(..row.len() - 1), &any_corrupt, "a cut segment");
    // Arbitrary bytes in the removal segment.
    for seed in 0..4u64 {
        let mut parts = common::RowSegments::parse(&row);
        parts.segs[common::DELTA_SEG_REMOVALS] = (0..12 + seed * 5)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> (seed + 3)) as u8)
            .collect();
        let read_or_refused =
            |got: &Result<(), StoreError>| matches!(got, Ok(()) | Err(StoreError::Corrupt(_)));
        corrupted(parts.assemble(), &read_or_refused, "arbitrary removals");
    }
}
