// Fixture for the `no-infallible-twin` rule, linted as
// `crates/taf/src/...` (one of the single-spelling crates): a file
// that defines both `fn NAME` and `fn try_NAME` has forked an
// operation into a panicking and a fallible spelling. The finding
// anchors at the infallible half — the one to delete.

pub trait Index {
    fn snapshot(&self, t: Time) -> Delta; // FIRES:no-infallible-twin
    fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError>;
    fn name(&self) -> &'static str; // clean: no `try_name` anywhere
}

impl Query {
    pub fn fetch(self) -> SoN { // FIRES:no-infallible-twin
        self.try_fetch()
            .unwrap_or_else(|e| panic!("fetch failed ({e}); use try_fetch"))
    }

    pub fn try_fetch(self) -> Result<SoN, StoreError> {
        self.plan().run()
    }

    // clean: the fallible name is the only spelling of this read.
    pub fn try_node_at(&self, nid: NodeId, t: Time) -> Result<Option<Node>, StoreError> {
        self.view.lookup(nid, t)
    }

    // hgs-lint: allow(no-infallible-twin, "total on validated input; the try_ form parses untrusted bytes first")
    pub fn decode(&self, row: &ValidRow) -> Delta {
        row.materialize()
    }

    pub fn try_decode(&self, bytes: &[u8]) -> Result<Delta, StoreError> {
        Ok(self.decode(&ValidRow::parse(bytes)?))
    }
}
