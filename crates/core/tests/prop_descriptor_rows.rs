//! Decoder fuzz for the descriptor rows `TgiService::open` reads: a
//! two-span locality build's `Timespans` rows, its `Graph/meta` and
//! `Graph/config` rows and its `Micropartitions` rows (one partition
//! map per span and `sid`), stored unchanged, with one byte replaced,
//! with one byte inserted, with one byte appended, truncated, as
//! arbitrary bytes, or — every descriptor row being a run of varints —
//! re-encoded with one field replaced or dropped. `TgiService::open`
//! answers `Ok` or `OpenError::Corrupt`, never panics; an opened index
//! answers a snapshot at each of three times with `Ok` or
//! `StoreError::Corrupt`; and the rows as built reopen to the build's
//! answers.

mod common;

use std::sync::{Arc, OnceLock};

use bytes::{Bytes, BytesMut};
use common::put_everywhere;
use hgs_core::{OpenError, PartitionStrategy, TgiConfig, TgiService};
use hgs_datagen::WikiGrowth;
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{Delta, Time};
use hgs_store::{SimStore, StoreConfig, StoreError, Table};
use proptest::prelude::*;

/// One index every case damages one descriptor row of, and puts back.
struct Fixture {
    store: Arc<SimStore>,
    /// `(table, key, row as built)`: span 0's and span 1's `Timespans`
    /// rows, `Graph/meta`, `Graph/config`, then every `Micropartitions`
    /// row.
    rows: Vec<(Table, Vec<u8>, Bytes)>,
    times: [Time; 3],
    /// The build's snapshot at each of `times`.
    answers: Vec<Delta>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let events = WikiGrowth::sized(800).generate();
        let cfg = TgiConfig {
            events_per_timespan: events.len() / 2 + 1,
            eventlist_size: 60,
            partition_size: 30,
            ..TgiConfig::default()
        }
        .with_strategy(PartitionStrategy::Locality {
            replicate_boundary: false,
        });
        let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
        let tgi = TgiService::try_build_on(cfg, store.clone(), &events)
            .expect("build")
            .pin();
        assert_eq!(tgi.span_count(), 2, "a two-span build");
        let end = tgi.end_time();
        let times = [end / 4, end / 2, end];
        let answers = times
            .iter()
            .map(|&t| tgi.try_snapshot(t).unwrap())
            .collect();
        let stored: Vec<(Vec<u8>, Bytes)> = store.content_rows().into_iter().flatten().collect();
        let built = |table: Table, key: &[u8]| {
            let mut nk = vec![table.tag()];
            nk.extend_from_slice(key);
            let row = stored.iter().find(|(k, _)| *k == nk);
            (
                table,
                key.to_vec(),
                row.expect("the build wrote the row").1.clone(),
            )
        };
        let mut rows = vec![
            built(Table::Timespans, &0u32.to_be_bytes()),
            built(Table::Timespans, &1u32.to_be_bytes()),
            built(Table::Graph, b"meta"),
            built(Table::Graph, b"config"),
        ];
        let maps: std::collections::BTreeSet<Vec<u8>> = stored
            .iter()
            .filter(|(k, _)| k[0] == Table::Micropartitions.tag())
            .map(|(k, _)| k[1..].to_vec())
            .collect();
        let ns = cfg.horizontal_partitions as usize;
        assert_eq!(maps.len(), 2 * ns, "one map per span and sid");
        rows.extend(maps.iter().map(|key| built(Table::Micropartitions, key)));
        Fixture {
            store,
            rows,
            times,
            answers,
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
    /// One byte appended: the row one byte longer than its grammar.
    Append(u8),
    /// The row cut short.
    Truncate(usize),
    /// One varint field replaced (its index taken modulo the row's
    /// field count), the row re-encoded.
    Field(usize, u64),
    /// One varint field dropped, the row re-encoded.
    DropField(usize),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        1 => Just(Damage::Unchanged),
        2 => prop::collection::vec(any::<u8>(), 0..24).prop_map(Damage::Arbitrary),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Replace(at, b)),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Insert(at, b)),
        1 => any::<u8>().prop_map(Damage::Append),
        2 => any::<usize>().prop_map(Damage::Truncate),
        3 => (any::<usize>(), prop_oneof![0..4u64, any::<u64>()])
            .prop_map(|(at, v)| Damage::Field(at, v)),
        1 => any::<usize>().prop_map(Damage::DropField),
    ]
}

fn damage(row: &[u8], d: &Damage) -> Vec<u8> {
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
        Damage::Append(b) => out.push(*b),
        Damage::Truncate(len) => out.truncate(len % (out.len() + 1)),
        Damage::Field(at, v) => out = refield(row, *at, |fields, at| fields[at] = *v),
        Damage::DropField(at) => {
            out = refield(row, *at, |fields, at| {
                fields.remove(at);
            })
        }
    }
    out
}

/// `row` read as varints, the field at `at` (modulo the field count)
/// changed by `edit`, and encoded again.
fn refield(row: &[u8], at: usize, edit: impl FnOnce(&mut Vec<u64>, usize)) -> Vec<u8> {
    let mut fields = Vec::new();
    let mut b = row;
    while !b.is_empty() {
        fields.push(get_varint(&mut b).expect("a row as built is varints"));
    }
    if !fields.is_empty() {
        let at = at % fields.len();
        edit(&mut fields, at);
    }
    let mut out = BytesMut::new();
    for f in fields {
        put_varint(&mut out, f);
    }
    out.to_vec()
}

proptest! {
    #[test]
    fn damaged_descriptor_rows_open_whole_or_corrupt(pick in any::<usize>(), d in arb_damage()) {
        let fx = fixture();
        let (table, key, built) = &fx.rows[pick % fx.rows.len()];
        put_everywhere(&fx.store, *table, key, Bytes::from(damage(built, &d)));
        let opened = TgiService::open(fx.store.clone());
        let answers: Option<Vec<Result<Delta, StoreError>>> = opened.as_ref().ok().map(|svc| {
            let tgi = svc.pin();
            fx.times.iter().map(|&t| tgi.try_snapshot(t)).collect()
        });
        put_everywhere(&fx.store, *table, key, built.clone());

        let opened = opened.map(drop);
        prop_assert!(
            matches!(opened, Ok(()) | Err(OpenError::Corrupt(_))),
            "{table} row under {d:?}: {opened:?}"
        );
        for answer in answers.iter().flatten() {
            prop_assert!(
                matches!(answer, Ok(_) | Err(StoreError::Corrupt(_))),
                "{table} row under {d:?}: {answer:?}"
            );
        }
        if matches!(d, Damage::Unchanged) {
            let answers: Vec<Delta> = answers
                .expect("the rows as built open")
                .into_iter()
                .map(|a| a.expect("the rows as built answer"))
                .collect();
            prop_assert_eq!(&answers, &fx.answers);
        }
    }
}
