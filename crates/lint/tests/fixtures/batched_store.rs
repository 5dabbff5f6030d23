// Fixture for the `batched-store-discipline` rule. Linted as
// `crates/core/src/...` — inside `crates/store/src` the rule is off
// (the store implements the primitives it wraps). Under `crates/core`
// the unbounded raw scan is a `pinned-scan-bounded` finding as well,
// and a `Deltas` multi-get outside `try_fetch_rows` a `one-row-fetch`
// finding, so the batched read below names another table.

pub fn point_read(store: &Store, key: &[u8]) -> Option<Bytes> {
    store.get(Table::Deltas, key, 0) // FIRES:batched-store-discipline
}

pub fn raw_scan(store: &Store, prefix: &[u8]) -> Vec<Row> {
    store.scan_prefix(Table::Deltas, prefix, 0) // FIRES:batched-store-discipline FIRES:pinned-scan-bounded
}

pub fn batched_read(store: &Store, keys: &[&[u8]]) -> Vec<Option<Bytes>> {
    store.multi_get(Table::AttrIndex, keys, 0) // clean: the batched primitive
}

pub fn batched_scan(store: &Store, prefixes: &[&[u8]]) -> Vec<Vec<Row>> {
    store.scan_prefix_batch(Table::Deltas, prefixes, 0) // clean
}

pub fn unrelated_get(map: &Map, key: &Key) -> Option<&Value> {
    map.get(key) // clean: only a receiver literally named `store` fires
}

pub fn allowed_reference_path(store: &Store, key: &[u8]) -> Option<Bytes> {
    // hgs-lint: allow(batched-store-discipline, "one-shot bootstrap read, not a query path")
    store.get(Table::Graph, key, 0)
}
