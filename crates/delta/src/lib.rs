//! # hgs-delta — the delta framework of the Historical Graph Store
//!
//! This crate implements the temporal graph data model and the *delta
//! framework* of Section 4.1 of "Storing and Analyzing Historical Graph
//! Data at Scale" (Khurana & Deshpande, EDBT 2016):
//!
//! * [`StaticNode`] — the state of a vertex at one point in time
//!   (Definition 1): node-id, edge-list, attributes. Edges are modelled
//!   as attributes of their endpoint nodes (node-centric logical model).
//! * [`Event`] — the smallest change to a graph (Example 1): structural
//!   (node/edge addition/removal) or attribute-level.
//! * [`Eventlist`] — a chronologically sorted run of events (Example 2),
//!   optionally scoped to a node partition (Example 3).
//! * [`Delta`] — a set of static graph components closed under *sum*,
//!   *difference*, *union* and *intersection* (Definitions 2–5). Graph
//!   snapshots (Example 4) and partitioned snapshots (Example 5) are
//!   deltas from the empty graph.
//! * [`columnar`] — the one on-disk format of delta and eventlist rows,
//!   stored alike by TGI and by every baseline; serialized size is the
//!   storage cost that every index in the paper (Table 1) is measured
//!   by. [`codec`] holds the byte-level primitives and the node record
//!   under it.
//!
//! Everything higher in the stack (the simulated distributed store, the
//! Temporal Graph Index, the baselines and the analytics framework) is
//! built out of these primitives.

mod attr;
mod attr_index;
mod bits;
mod chain;
pub mod codec;
pub mod columnar;
pub mod compress;
mod delta;
mod error;
mod event;
mod hash;
mod node;
mod normalize;
mod pair_table;
mod types;

pub use attr::{AttrValue, Attrs};
pub use attr_index::{
    decode_term_points, encode_term_points, matching_at, term_points_weight, value_term, TermPoint,
    TERM_KIND_VALUE,
};
pub use chain::{decode_chunk_set, encode_chunk_set};
pub use columnar::{ColumnarDelta, ColumnarEventlist, PairTable, StorageLayout};
pub use delta::Delta;
pub use error::CodecError;
pub use event::{Event, EventKind, Eventlist};
pub use hash::{hash_u64, FxHashMap, FxHashSet, FxHasher};
pub use node::{Neighbor, StaticNode};
pub use normalize::normalize_events;
pub use types::{EdgeDir, NodeId, Time, TimeRange};

#[cfg(test)]
mod tests {
    /// A xorshift generator seeded with `x`: the crate's tests' noise.
    pub(crate) fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }
}
