// Fixture for the `pinned-scan-bounded` rule, linted as
// `crates/core/src/...`: a read on a `TgiView` must not see rows of
// spans sealed after the view was published. A prefix scan over a
// table keyed by `tsid` returns them all the same, so the fn must
// show what bounds it.

impl TgiView {
    // The shape `try_attr_history` had before PR 23: every timespan's
    // row of the term, whatever the view's watermark.
    pub fn try_attr_history(&self, nid: NodeId, key: &str) -> Result<Vec<Point>, StoreError> {
        let term = key_term(key);
        let prefix = term_prefix(TERM_KIND_KEY, &term);
        let rows = self.store.scan_prefix_batch(Table::AttrIndex, &[&prefix], term_token(&term))?; // FIRES:pinned-scan-bounded
        let mut out = Vec::new();
        for (row_key, bytes) in rows.into_iter().flatten() {
            let Some(tsid) = term_key_tsid(&row_key) else {
                continue;
            };
            out.extend(decode_points(tsid, &bytes)?.into_iter().filter(|p| p.nid == nid));
        }
        Ok(out)
    }

    // The PR 13 fix: rows of later spans are dropped by the span list.
    pub fn try_version_chain(&self, nid: NodeId) -> Result<Vec<ChainEntry>, StoreError> {
        let rows = self.store.scan_prefix_batch(Table::Versions, &[&chain_prefix(nid)], token(nid))?; // clean
        let mut chain = decode_all(rows)?;
        chain.retain(|e| (e.tsid as usize) < self.spans.len());
        Ok(chain)
    }

    // A scan under the tsid of a span of this view reads that span only.
    fn span_rows(&self, t: Time, sid: u32) -> Result<Vec<Vec<Row>>, StoreError> {
        let meta = &self.span_for(t).meta;
        let prefix = DeltaKey::delta_prefix(meta.tsid, sid, 0);
        self.store.scan_prefix_batch(Table::Deltas, &[&prefix], 0) // clean
    }

    // Prefixes handed in from outside: nothing here says which spans
    // they name. (Before every scan was a batch, this one was exempt.)
    pub fn try_batched(&self, prefixes: &[&[u8]]) -> Result<Vec<Vec<Row>>, StoreError> {
        self.store.scan_prefix_batch(Table::Deltas, prefixes, 0) // FIRES:pinned-scan-bounded FIRES:one-row-fetch
    }

    pub fn try_graph_meta(&self) -> Result<Vec<Vec<Row>>, StoreError> {
        // hgs-lint: allow(pinned-scan-bounded, "the Graph table is not keyed by tsid: one row set per index")
        self.store.scan_prefix_batch(Table::Graph, &[b""], 0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_scan_the_raw_store() {
        let rows = store().scan_prefix_batch(Table::AttrIndex, &[b""], 0); // clean
        assert!(rows.is_empty());
    }
}
