// Fixture for the secondary-index row paths, linted as
// `crates/core/src/...` (panic-strict, batched-store-discipline on).
// Point fetches of `(term, tsid)` rows must ride the batched
// primitives, a per-term prefix scan needs an explicit justification
// *and* a bound by the view's span list (`pinned-scan-bounded`: the
// justified scan below is the one that leaked post-pin rows until
// PR 23), and the fallible `try_*` surface must never panic on a bad
// row.

pub fn term_point_read(store: &Store, key: &[u8]) -> Option<Bytes> {
    store.get(Table::AttrIndex, key, 0) // FIRES:batched-store-discipline
}

pub fn term_point_read_batched(store: &Store, keys: &[&[u8]]) -> Vec<Option<Bytes>> {
    store.multi_get(Table::AttrIndex, keys, 0) // clean: the batched primitive
}

pub fn term_history_scan(store: &Store, prefix: &[u8]) -> Vec<Row> {
    store.scan_prefix(Table::AttrIndex, prefix, 0) // FIRES:batched-store-discipline FIRES:pinned-scan-bounded
}

pub fn justified_term_history_scan(store: &Store, prefix: &[u8]) -> Vec<Row> {
    // hgs-lint: allow(batched-store-discipline, "one prefix scan per term is the index's native access")
    store.scan_prefix(Table::AttrIndex, prefix, 0) // FIRES:pinned-scan-bounded
}

pub fn try_decode_term_row(bytes: &[u8]) -> Result<Vec<TermPoint>, StoreError> {
    let points = decode_term_points(bytes).unwrap(); // FIRES:no-panic-in-try
    Ok(points)
}

pub fn decode_term_row_settled(bytes: &[u8]) -> Vec<TermPoint> {
    decode_term_points(bytes).expect("stored row decodes") // FIRES-STRICT:no-panic-in-try
}
