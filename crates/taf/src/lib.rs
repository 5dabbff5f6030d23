//! # hgs-taf — the Temporal Graph Analysis Framework (§5)
//!
//! TAF lets analysts express temporal graph computations over *sets of
//! temporal nodes* (SoN) and *sets of temporal subgraphs* (SoTS) and
//! runs them data-parallel. The paper builds on Apache Spark; this
//! crate substitutes a worker-pool dataflow engine with the same
//! execution pattern — `RDD<NodeT>` becomes a partitioned vector
//! processed by `ma` OS threads — and the same parallel fetch
//! protocol (each worker pulls whole horizontal partitions straight
//! from the store, Fig. 10).
//!
//! Operators (§5.1): Selection, Timeslicing, Graph materialization,
//! NodeCompute (map), NodeComputeTemporal, NodeComputeDelta
//! (incremental), Compare, Evolution, and the TempAggregation family
//! (Max / Min / Mean / Peak / Saturate).

mod aggregate;
mod handler;
mod node_t;
mod son;
mod sots;
mod subgraph_t;

pub use aggregate::{mean, peak, saturate, TempAggregate};
pub use handler::TgiHandler;
pub use node_t::NodeT;
pub use son::SoN;
pub use sots::SoTS;
pub use subgraph_t::SubgraphT;
