//! Decoder fuzz for `Versions` rows: arbitrary and mutated bytes stored
//! as one node's chain row in one span. Every read that decodes the row
//! — `try_version_chain`, `try_node_history`, `try_attr_history` —
//! answers `Ok` or `StoreError::Corrupt`; never panics; never holds
//! more entries than the span has chunks, however long the row; and an
//! `Ok` chain names only chunks its spans have.
//!
//! An `Ok` history holds every event of every chunk the chain names,
//! so it is never shorter than the replay of those chunks, and it is
//! the replay oracle itself when the row is the one the build wrote. A
//! row that leaves out one of the node's chunks is not detectable — the
//! chain is the only record of it — so the chunks a row names are the
//! bar a damaged row is held to.

mod common;

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use common::{attr_history_by_replay, chunk_of, put_everywhere, touches};
use hgs_core::{encode_chain, ChainEntry, TgiConfig, TgiService, TgiView, TimespanMeta, LABEL_KEY};
use hgs_datagen::SkewedLabels;
use hgs_delta::{normalize_events, Event, TimeRange};
use hgs_store::{chain_key, chain_key_tsid, SimStore, StoreConfig, StoreError, Table};
use proptest::prelude::*;

/// One index every case damages one row of, and puts back.
struct Fixture {
    tgi: Arc<TgiView>,
    normalized: Vec<Event>,
    metas: Vec<TimespanMeta>,
    /// Every `(nid, tsid)` chain row, as built.
    rows: Vec<(u64, u32, Bytes)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let events = SkewedLabels {
            nodes: 120,
            edge_events: 900,
            attr_churn: 400,
            ..Default::default()
        }
        .generate();
        let cfg = TgiConfig {
            events_per_timespan: 300,
            eventlist_size: 40,
            partition_size: 8,
            horizontal_partitions: 2,
            ..TgiConfig::default()
        };
        let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
        let tgi = TgiService::try_build_on(cfg, store.clone(), &events)
            .expect("build")
            .pin();
        let mut rows: Vec<(u64, u32, Bytes)> = store
            .content_rows()
            .into_iter()
            .flatten()
            .filter(|(k, _)| k[0] == Table::Versions.tag())
            .map(|(k, v)| {
                let nid = u64::from_be_bytes(k[1..9].try_into().unwrap());
                (nid, chain_key_tsid(&k[1..]).unwrap(), v)
            })
            .collect();
        rows.sort_by_key(|(nid, tsid, _)| (*nid, *tsid));
        rows.dedup_by_key(|(nid, tsid, _)| (*nid, *tsid));
        let metas = common::span_metas(&tgi);
        assert!(metas.len() > 2, "chains over several spans");
        Fixture {
            tgi,
            normalized: normalize_events(&events),
            metas,
            rows,
        }
    })
}

/// What a case stores in place of the row the build wrote.
#[derive(Debug, Clone)]
enum Damage {
    Unchanged,
    /// Bytes with no relation to the row.
    Arbitrary(Vec<u8>),
    /// One byte replaced (its position taken modulo the row's length).
    Replace(usize, u8),
    /// One byte inserted.
    Insert(usize, u8),
    /// The row cut short.
    Truncate(usize),
    /// A row in the grammar naming an arbitrary chunk set — chunks past
    /// the span's end and chunks the node has no row in included (each
    /// taken modulo the span's chunk count plus two, and spelled as for
    /// a span of that many chunks).
    Chunks(Vec<u32>),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        1 => Just(Damage::Unchanged),
        2 => prop::collection::vec(any::<u8>(), 0..12).prop_map(Damage::Arbitrary),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Replace(at, b)),
        1 => (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Insert(at, b)),
        1 => any::<usize>().prop_map(Damage::Truncate),
        3 => prop::collection::vec(0u32..64, 0..8).prop_map(Damage::Chunks),
    ]
}

fn damage(row: &[u8], d: &Damage, chunks: u32) -> Vec<u8> {
    let mut out = row.to_vec();
    match d {
        Damage::Unchanged => {}
        Damage::Arbitrary(bytes) => out = bytes.clone(),
        Damage::Replace(at, b) => {
            if !out.is_empty() {
                let at = at % out.len();
                out[at] = *b;
            }
        }
        Damage::Insert(at, b) => out.insert(at % (out.len() + 1), *b),
        Damage::Truncate(len) => out.truncate(len % (out.len() + 1)),
        Damage::Chunks(named) => {
            let set: BTreeSet<u32> = named.iter().map(|c| c % (chunks + 2)).collect();
            let entries: Vec<ChainEntry> = set
                .into_iter()
                .map(|chunk| ChainEntry {
                    tsid: 0,
                    chunk,
                    pid: 0,
                })
                .collect();
            out = encode_chain(&entries, chunks as usize + 2).to_vec();
        }
    }
    out
}

fn corrupt<T: std::fmt::Debug>(r: &Result<T, StoreError>) -> bool {
    matches!(r, Err(StoreError::Corrupt(_)))
}

proptest! {
    #[test]
    fn damaged_chain_rows_answer_whole_or_corrupt(pick in any::<usize>(), d in arb_damage()) {
        let fx = fixture();
        let tgi = &fx.tgi;
        let (nid, tsid, built) = &fx.rows[pick % fx.rows.len()];
        let (nid, tsid) = (*nid, *tsid);
        let chunks = fx.metas[tsid as usize].checkpoints.len() as u32;
        let row = damage(built, &d, chunks);
        let key = chain_key(nid, tsid);
        put_everywhere(tgi.store(), Table::Versions, &key, Bytes::from(row.clone()));
        let chain = tgi.try_version_chain(nid);
        let range = TimeRange::new(0, tgi.end_time() + 1);
        let history = tgi.try_node_history(nid, range);
        let attrs = tgi.try_attr_history(nid, LABEL_KEY);
        put_everywhere(tgi.store(), Table::Versions, &key, built.clone());

        for (what, corrupt_or_ok) in [
            ("chain", chain.is_ok() || corrupt(&chain)),
            ("history", history.is_ok() || corrupt(&history)),
            ("attrs", attrs.is_ok() || corrupt(&attrs)),
        ] {
            prop_assert!(corrupt_or_ok, "{what}: an error other than Corrupt for {d:?}");
        }
        let Ok(chain) = chain else {
            // The other reads decode the same row.
            prop_assert!(history.is_err() && attrs.is_err(), "{d:?} read past a bad chain");
            return Ok(());
        };
        let segment = chain.iter().filter(|e| e.tsid == tsid).count();
        prop_assert!(segment <= chunks as usize, "{segment} entries in a span of {chunks} chunks");
        for e in &chain {
            let span_chunks = fx.metas[e.tsid as usize].checkpoints.len();
            prop_assert!((e.chunk as usize) < span_chunks, "{e:?} past its span's end");
        }

        // Every event of every chunk the chain names.
        let named: BTreeSet<(u32, u32)> = chain.iter().map(|e| (e.tsid, e.chunk)).collect();
        let touching: Vec<Event> = fx
            .normalized
            .iter()
            .filter(|e| touches(e, nid) && named.contains(&chunk_of(&fx.metas, e.time)))
            .cloned()
            .collect();
        if let Ok(history) = &history {
            let want = common::node_events_by_replay(&touching, nid, range);
            prop_assert_eq!(&history.events, &want, "history of {} under {:?}", nid, d);
            if matches!(d, Damage::Unchanged) {
                let all = common::node_events_by_replay(&fx.normalized, nid, range);
                prop_assert_eq!(&history.events, &all);
            }
        }
        if let Ok(attrs) = &attrs {
            prop_assert_eq!(attrs, &attr_history_by_replay(&touching, nid, LABEL_KEY));
        }
        if matches!(d, Damage::Unchanged) {
            prop_assert!(history.is_ok() && attrs.is_ok(), "the chain as built reads");
        }
    }
}
