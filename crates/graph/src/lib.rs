//! # hgs-graph — static graph snapshots and algorithms
//!
//! A [`Graph`] is an immutable, analysis-friendly view of one snapshot
//! of the temporal graph (a [`hgs_delta::Delta`] interpreted as a graph
//! state): node-ids are mapped to dense indices and adjacency is laid
//! out in flat vectors, so the algorithm library ([`algo`]) runs at
//! array speed.
//!
//! The algorithms cover everything the paper's analytics examples and
//! evaluation use: degree/density, local & global clustering
//! coefficients (Fig. 15c's workload), PageRank, BFS shortest paths,
//! connected components, Brandes betweenness centrality, k-hop
//! neighborhood extraction, and label counting (Fig. 17's workload).

pub mod algo;
mod graph;

pub use graph::Graph;
