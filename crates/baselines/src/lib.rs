//! # hgs-baselines — the temporal indexes TGI is compared against
//!
//! §4.2 of the paper expresses the prior techniques in the delta
//! framework; this crate implements each of them as a real index over
//! the same simulated store, behind one trait, so that access costs
//! (store lookups, bytes, latencies) are directly comparable:
//!
//! * [`LogIndex`] — the Log approach: a single chronological event log
//!   (chunked for feasibility); every query replays from the start.
//! * [`CopyIndex`] — the Copy approach: a materialized snapshot at
//!   every change point; direct access, quadratic storage.
//! * [`CopyLogIndex`] — Copy+Log: periodic snapshots plus connecting
//!   eventlists.
//! * [`NodeCentricIndex`] — the vertex-centric approach: one eventlist
//!   per node (edges replicated to both endpoints); perfect for node
//!   versions, terrible for snapshots.
//! * [`DeltaGraphIndex`] — the authors' prior DeltaGraph system,
//!   realized as TGI converged to one horizontal partition, monolithic
//!   micro-deltas and no version chains (§4.2's generalization claim).
//!
//! All of them — and TGI itself — implement [`HistoricalIndex`].
//!
//! Every index stores the same row bytes: a snapshot or a piece of
//! one is a columnar delta row, a run of events a columnar eventlist
//! row ([`hgs_delta::columnar`], the rows TGI stores). What Table 1
//! compares is then the structure alone — which rows an index keeps,
//! under which keys, and how many a query fetches.

mod copy;
mod copylog;
mod deltagraph;
mod log;
mod nodecentric;
mod traits;

pub use copy::CopyIndex;
pub use copylog::CopyLogIndex;
pub use deltagraph::DeltaGraphIndex;
pub use log::LogIndex;
pub use nodecentric::NodeCentricIndex;
pub use traits::HistoricalIndex;

use bytes::Bytes;
use hgs_delta::{ColumnarDelta, ColumnarEventlist, Delta, Eventlist};
use hgs_store::{PutRow, SimStore, StoreError, Table};

/// The write side of a baseline's `build`: rows queue up and ship
/// through [`SimStore::try_put_batch`] every [`BuildRows::BATCH_ROWS`]
/// rows and at [`BuildRows::finish`]. Nothing else has touched the
/// store the index just created — no machine is dead, no fault plan
/// attached — so every write is `expect`ed to land.
pub(crate) struct BuildRows<'a> {
    store: &'a SimStore,
    rows: Vec<PutRow>,
}

impl<'a> BuildRows<'a> {
    const FRESH_STORE: &'static str = "a fresh store accepts every write";
    /// A small cap: most baseline rows are whole snapshots.
    const BATCH_ROWS: usize = 16;

    pub(crate) fn new(store: &'a SimStore) -> BuildRows<'a> {
        BuildRows {
            store,
            rows: Vec::with_capacity(Self::BATCH_ROWS),
        }
    }

    pub(crate) fn put(&mut self, row: PutRow) {
        self.rows.push(row);
        if self.rows.len() >= Self::BATCH_ROWS {
            self.flush();
        }
    }

    pub(crate) fn finish(mut self) {
        self.flush();
    }

    fn flush(&mut self) {
        if !self.rows.is_empty() {
            let rows = std::mem::take(&mut self.rows);
            self.store.try_put_batch(rows).expect(Self::FRESH_STORE);
        }
    }
}

impl Drop for BuildRows<'_> {
    fn drop(&mut self) {
        // Skipped during unwind: a double panic would abort the
        // process and mask the original failure.
        debug_assert!(
            std::thread::panicking() || self.rows.is_empty(),
            "BuildRows dropped with {} unwritten rows — call finish()",
            self.rows.len()
        );
    }
}

/// A `Deltas` row the index's `build` wrote. `build` lands every row
/// or panics, so a row that is not there was lost by the store: that
/// is unavailability, not an empty answer.
pub(crate) fn written_row<T>(row: Option<T>) -> Result<T, StoreError> {
    row.ok_or(StoreError::Unavailable {
        table: Table::Deltas,
    })
}

/// Read a stored delta row whole. Bytes that do not decode are
/// [`StoreError::Corrupt`].
pub(crate) fn delta_row(row: Bytes) -> Result<Delta, StoreError> {
    ColumnarDelta::parse(row)
        .and_then(|d| d.to_delta())
        .map_err(StoreError::Corrupt)
}

/// Read a stored eventlist row whole. Bytes that do not decode are
/// [`StoreError::Corrupt`].
pub(crate) fn eventlist_row(row: Bytes) -> Result<Eventlist, StoreError> {
    ColumnarEventlist::parse(row)
        .and_then(|el| el.to_eventlist())
        .map_err(StoreError::Corrupt)
}
