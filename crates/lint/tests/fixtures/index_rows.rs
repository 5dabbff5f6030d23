// Fixture for the secondary-index row paths, linted as
// `crates/core/src/...` (panic-strict). A per-term prefix scan needs a
// bound by the view's span list (`pinned-scan-bounded`: the scan below
// is the shape that once leaked post-pin rows), and the fallible
// `try_*` surface must never panic on a bad row.

pub fn term_point_read(store: &Store, keys: &[&[u8]]) -> Vec<Option<Bytes>> {
    store.multi_get(Table::AttrIndex, keys, 0) // clean: a keyed read
}

pub fn term_history_scan(store: &Store, prefix: &[u8]) -> Vec<Vec<Row>> {
    store.scan_prefix_batch(Table::AttrIndex, &[prefix], 0) // FIRES:pinned-scan-bounded
}

pub fn try_decode_term_row(bytes: &[u8]) -> Result<Vec<TermPoint>, StoreError> {
    let points = decode_term_points(bytes).unwrap(); // FIRES:no-panic-in-try
    Ok(points)
}

pub fn decode_term_row_settled(bytes: &[u8]) -> Vec<TermPoint> {
    decode_term_points(bytes).expect("stored row decodes") // FIRES-STRICT:no-panic-in-try
}
