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

use hgs_delta::{Delta, EventKind, NodeId};
use hgs_store::{StoreError, Table};

/// Apply an event restricted to a single node's description (used by
/// the per-node replay paths of the baselines).
/// A `Deltas` row the index's `build` wrote. The row-at-a-time builds
/// ignore replica counts, so a row written to a dead machine is simply
/// not there: that is unavailability, not an empty answer.
pub(crate) fn written_row<T>(row: Option<T>) -> Result<T, StoreError> {
    row.ok_or(StoreError::Unavailable {
        table: Table::Deltas,
    })
}

pub(crate) fn scoped_apply(state: &mut Delta, kind: &EventKind, nid: NodeId) {
    hgs_core::scope::apply_event_scoped(state, kind, |id| id == nid);
}
