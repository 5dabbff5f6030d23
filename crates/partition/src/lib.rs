//! # hgs-partition — graph partitioning for TGI (§4.5 of the paper)
//!
//! TGI bounds micro-delta sizes by partitioning each horizontal slice
//! of the graph. This crate implements the paper's partitioning
//! machinery, one mode per step:
//!
//! * [`CollapsedGraph`] — the time-collapse function Ω that projects a
//!   temporal graph over a timespan onto a single weighted static
//!   graph: **Union-Max** (the paper's default), every node weighing 1.
//! * [`PartitionMap`], whose
//!   [`PartitionMap::random`] is hash-based random partitioning (zero
//!   bookkeeping), and [`locality_partition`] (streaming LDG placement
//!   and Kernighan–Lin-style refinement), the "Maxflow"/min-cut
//!   partitioner of Fig. 15a, with [`edge_cut_fraction`] / [`balance`]
//!   quality metrics.
//! * [`plan_timespans`] — splitting the history into timespans with roughly
//!   equal numbers of events (Fig. 4), within which the partitioning
//!   stays fixed, by [`cut_events`], which also cuts a span into its
//!   eventlist chunks.
//!
//! The 1-hop edge-cut replicas of auxiliary micro-deltas (Fig. 5d) are
//! planned by the build in `hgs-core`, which knows the span's state.

mod collapse;
mod partitioner;
mod timespan;

pub use collapse::CollapsedGraph;
pub use partitioner::{balance, edge_cut_fraction, locality_partition, PartitionMap};
pub use timespan::{cut_events, plan_timespans, Timespan};
