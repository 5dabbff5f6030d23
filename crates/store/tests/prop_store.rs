//! Property tests for the simulated store: model-based checking of
//! put/get/scan against a reference map, compression roundtrips on
//! arbitrary inputs, and replication invariants under failures.

use bytes::Bytes;
use hgs_delta::compress::{compress, decompress};
use hgs_store::{PutRow, SimStore, StoreConfig, StoreError, Table};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Write one row as a one-row batch on a healthy store.
fn put(store: &SimStore, table: Table, key: &[u8], token: u64, value: Bytes) {
    store
        .try_put_batch(vec![PutRow::new(table, key.to_vec(), token, value)])
        .expect("healthy store");
}

/// Read one row as a one-key batch.
fn get(
    store: &SimStore,
    table: Table,
    key: &[u8],
    token: u64,
) -> Result<Option<Bytes>, StoreError> {
    Ok(store.multi_get(table, &[key], token)?.pop().flatten())
}

proptest! {
    #[test]
    fn compression_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        let d = decompress(&c).unwrap();
        prop_assert_eq!(&d[..], &data[..]);
    }

    #[test]
    fn compression_roundtrips_repetitive_bytes(
        pattern in prop::collection::vec(any::<u8>(), 1..32),
        repeats in 1usize..512,
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).copied().collect();
        let c = compress(&data);
        let d = decompress(&c).unwrap();
        prop_assert_eq!(&d[..], &data[..]);
        if data.len() > 256 {
            prop_assert!(c.len() < data.len(), "repetitive data must shrink");
        }
    }

    /// Model-based store check: a SimStore behaves like a map from
    /// (table, key) to the last written value, regardless of placement
    /// tokens and machine count.
    #[test]
    fn store_behaves_like_a_map(
        ops in prop::collection::vec(
            (0u8..2, 0u8..3, prop::collection::vec(any::<u8>(), 1..8), any::<u64>(),
             prop::collection::vec(any::<u8>(), 0..32)),
            1..120
        ),
        machines in 1usize..5,
    ) {
        let store = SimStore::new(StoreConfig::new(machines, 1));
        let mut model: BTreeMap<(u8, Vec<u8>), (u64, Vec<u8>)> = BTreeMap::new();
        let table_of = |i: u8| match i {
            0 => Table::Deltas,
            1 => Table::Versions,
            _ => Table::Graph,
        };
        for (op, ti, key, token, value) in ops {
            let table = table_of(ti);
            match op {
                0 => {
                    put(&store, table, &key, token, Bytes::from(value.clone()));
                    model.insert((ti, key), (token, value));
                }
                _ => {
                    let got = match model.get(&(ti, key.clone())) {
                        // Reads must use the same placement token the
                        // write used (as TGI keys always do).
                        Some((tok, _)) => get(&store, table, &key, *tok).unwrap(),
                        None => get(&store, table, &key, token).unwrap_or(None),
                    };
                    let want = model.get(&(ti, key)).map(|(_, v)| v.clone());
                    prop_assert_eq!(got.map(|b| b.to_vec()), want);
                }
            }
        }
        // Final state: every model entry is readable.
        for ((ti, key), (token, value)) in &model {
            let got = get(&store, table_of(*ti), key, *token).unwrap();
            prop_assert_eq!(got.map(|b| b.to_vec()), Some(value.clone()));
        }
    }

    /// With replication r >= 2, any single machine failure leaves every
    /// row readable. Placement tokens are a pure function of the key,
    /// as they are for every real TGI table.
    #[test]
    fn single_failure_is_invisible_with_replication(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 1..8), 1..40),
        failed in 0usize..3,
    ) {
        let store = SimStore::new(StoreConfig::new(3, 2));
        let token = |key: &[u8]| {
            let mut h = 0u64;
            for &b in key {
                h = h.wrapping_mul(31).wrapping_add(b as u64);
            }
            hgs_delta::hash_u64(h)
        };
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        for (i, key) in keys.iter().enumerate() {
            put(&store, Table::Deltas, key, token(key), Bytes::from(vec![i as u8]));
        }
        store.fail_machine(failed);
        for (i, key) in keys.iter().enumerate() {
            let got = get(&store, Table::Deltas, key, token(key)).unwrap();
            prop_assert_eq!(got.map(|b| b.to_vec()), Some(vec![i as u8]));
        }
    }

    /// Scans return exactly the stored keys with the given prefix, in
    /// order, when all rows share a placement token.
    #[test]
    fn scan_matches_model(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..60),
        prefix in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let store = SimStore::new(StoreConfig::new(2, 1));
        let token = 7u64;
        let mut model: BTreeMap<Vec<u8>, ()> = BTreeMap::new();
        for k in &keys {
            put(&store, Table::Deltas, k, token, Bytes::from_static(b"v"));
            model.insert(k.clone(), ());
        }
        let got: Vec<Vec<u8>> = store
            .scan_prefix_batch(Table::Deltas, &[&prefix], token)
            .unwrap()
            .into_iter()
            .flatten()
            .map(|(k, _)| k)
            .collect();
        let want: Vec<Vec<u8>> =
            model.keys().filter(|k| k.starts_with(&prefix)).cloned().collect();
        prop_assert_eq!(got, want);
    }
}
