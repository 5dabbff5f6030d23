// Fixture for the `one-row-fetch` rule, linted as
// `crates/core/src/...`: every keyed read of a `Deltas` row goes
// through `try_fetch_rows`, which probes the read cache per key, sends
// the misses in one batch and caches what comes back.

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
