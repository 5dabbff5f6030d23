// Fixture for the `one-row-fetch` rule, linted as
// `crates/core/src/...`: every keyed read of a `Deltas` row goes
// through `try_fetch_rows`, which probes the read cache per key, sends
// the misses in one batch and caches what comes back, and every prefix
// scan of them through `span_rows`.

impl TgiView {
    // The shape the eventlist fetch of node histories had before it was
    // folded into the one routine: its own probe, batch and cache fill.
    pub(crate) fn try_fetch_elists(
        &self,
        tsid: u32,
        sid: u32,
        refs: &[(u32, u32)],
    ) -> Result<Vec<Option<Bytes>>, StoreError> {
        let keys: Vec<[u8; 20]> = refs.iter().map(|&(c, p)| elist_key(tsid, sid, c, p)).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
        let token = PlacementKey::new(tsid, sid).token();
        self.store.multi_get(Table::Deltas, &key_refs, token) // FIRES:one-row-fetch
    }

    // Arguments over several lines: the finding sits on the call.
    fn try_fetch_aux(&self, tsid: u32, sid: u32, key: &[u8]) -> Result<Vec<Option<Bytes>>, StoreError> {
        self.store.multi_get( // FIRES:one-row-fetch
            Table::Deltas,
            &[key],
            PlacementKey::new(tsid, sid).token(),
        )
    }

    // The one routine.
    fn try_fetch_rows(&self, tsid: u32, sid: u32, keys: &[&[u8]]) -> Result<Vec<Option<Bytes>>, StoreError> {
        let token = PlacementKey::new(tsid, sid).token();
        self.store.multi_get(Table::Deltas, keys, token) // clean
    }

    // Other tables are not rows of the index body.
    fn try_term_row(&self, key: &[u8], token: u64) -> Result<Vec<Option<Bytes>>, StoreError> {
        self.store.multi_get(Table::AttrIndex, &[key], token) // clean
    }

    // The shape of the retired cache-bypassing snapshot: a second
    // prefix reader of the same tree and eventlist rows.
    pub fn try_snapshot_uncached_c(&self, span: &SpanRuntime, sid: u32, did: u64) -> Result<Vec<ScanRows>, StoreError> {
        let prefix = DeltaKey::delta_prefix(span.meta.tsid, sid, did);
        let token = PlacementKey::new(span.meta.tsid, sid).token();
        self.store.scan_prefix_batch(Table::Deltas, &[&prefix], token) // FIRES:one-row-fetch
    }

    // The grouped scan of one placement block is the prefix reader.
    fn span_rows(&self, span: &SpanRuntime, sid: u32, refs: &[&[u8]]) -> Result<Vec<ScanRows>, StoreError> {
        let token = PlacementKey::new(span.meta.tsid, sid).token();
        self.store.scan_prefix_batch(Table::Deltas, refs, token) // clean
    }

    // The shape the TAF partition fetch had before it read through
    // `span_rows`: its own prefixes, token and scan, once per span.
    pub fn try_node_histories_for_sid(&self, sid: u32, refs: &[&[u8]]) -> Result<Vec<ScanRows>, StoreError> {
        let mut out = Vec::new();
        for span in &self.spans {
            let token = PlacementKey::new(span.meta.tsid, sid).token();
            out.extend(self.store.scan_prefix_batch(Table::Deltas, refs, token)?); // FIRES:one-row-fetch
        }
        Ok(out)
    }

    // A scan of another table is not a read of the index body.
    fn try_chain(&self, prefix: &[u8], token: u64) -> Result<Vec<ScanRows>, StoreError> {
        let mut rows = self.store.scan_prefix_batch(Table::Versions, &[prefix], token)?; // clean
        rows.truncate(self.spans.len());
        Ok(rows)
    }

    fn try_audited(&self, keys: &[&[u8]]) -> Result<Vec<Option<Bytes>>, StoreError> {
        // hgs-lint: allow(one-row-fetch, "reference read kept out of the cache on purpose")
        self.store.multi_get(Table::Deltas, keys, 0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_rows_directly() {
        let rows = store().multi_get(Table::Deltas, &[b"k"], 0); // clean
        assert!(rows.is_ok());
    }
}
