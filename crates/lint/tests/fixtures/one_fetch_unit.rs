// Fixture for the `one-fetch-unit` rule, linted as
// `crates/core/src/...`: the spans of a placement block share one
// placement per `sid`, and the two `Deltas` readers group the rows
// they are handed by it, so no caller names a block.

impl TgiView {
    // The history read as it stood: its own chunking of the keys by
    // block, one reader call per chunk.
    fn node_events(&self, sid: u32, keys: &[(u32, u64, u32)]) -> Vec<Row> {
        let block = |k: &(u32, u64, u32)| PlacementKey::of_span(k.0, sid); // FIRES:one-fetch-unit
        let mut rows = Vec::new();
        for chunk in keys.chunk_by(|a, b| block(a) == block(b)) {
            rows.extend(self.try_fetch_rows(sid, chunk));
        }
        rows
    }

    // A reader that trusts its keys to share the first one's machine.
    fn try_fetch_rows(&self, sid: u32, first: &DeltaKey, keys: &[DeltaKey]) -> Vec<Row> {
        let token = first.placement().token(); // FIRES:one-fetch-unit
        debug_assert!(keys.iter().all(|k| hgs_store::PlacementKey::of_span(k.tsid, sid) == first.placement())); // FIRES:one-fetch-unit
        self.store.multi_get(Table::Deltas, keys, token)
    }

    fn audited(&self, key: &DeltaKey) -> u64 {
        // hgs-lint: allow(one-fetch-unit, "a probe that reports where one row lives")
        key.placement().token()
    }

    // A span's placement of a node, defining the rule, or naming it in
    // a doc link is not a block.
    fn try_node_at(&self, span: &SpanRuntime, nid: u64) -> (u32, u32) {
        span.placement(nid) // clean: a node's `(sid, pid)`
    }

    fn of_span(&self) {} // clean: defining is not naming a block

    fn placement(&self) -> PlacementKey {
        self.of_span() // clean: a method of its own, not a path
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn rows_of_a_block_share_a_machine() {
        let key = DeltaKey::new(3, 1, 0, 0);
        assert_eq!(key.placement(), PlacementKey::of_span(0, 1)); // clean: tests may
    }
}
