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

pub mod copy;
pub mod copylog;
pub mod deltagraph;
pub mod log;
pub mod nodecentric;
pub mod traits;

pub use copy::CopyIndex;
pub use copylog::CopyLogIndex;
pub use deltagraph::DeltaGraphIndex;
pub use log::LogIndex;
pub use nodecentric::NodeCentricIndex;
pub use traits::HistoricalIndex;

use bytes::Bytes;
use hgs_delta::{ColumnarDelta, ColumnarEventlist, Delta, EventKind, Eventlist, NodeId};
use hgs_store::{PutRow, SimStore, StoreError, Table, WriteBuffer};

/// The write side of a baseline's `build`: a [`WriteBuffer`] over the
/// store the index just created. Nothing else has touched that store —
/// no machine is dead, no fault plan attached — so every write is
/// `expect`ed to land.
pub(crate) struct BuildRows<'a>(WriteBuffer<'a>);

impl<'a> BuildRows<'a> {
    const FRESH_STORE: &'static str = "a fresh store accepts every write";

    pub(crate) fn new(store: &'a SimStore) -> BuildRows<'a> {
        // A small cap: most baseline rows are whole snapshots.
        BuildRows(WriteBuffer::new(store, 16))
    }

    pub(crate) fn put(&mut self, row: PutRow) {
        self.0.push_row(row).expect(Self::FRESH_STORE);
    }

    pub(crate) fn finish(mut self) {
        self.0.flush().expect(Self::FRESH_STORE);
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

/// Apply an event restricted to a single node's description (used by
/// the per-node replay paths of the baselines).
pub(crate) fn scoped_apply(state: &mut Delta, kind: &EventKind, nid: NodeId) {
    hgs_core::scope::apply_event_scoped(state, kind, |id| id == nid);
}
