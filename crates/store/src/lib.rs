//! # hgs-store — a simulated distributed key-value store
//!
//! TGI (the paper's index, crate `hgs-core`) stores its deltas in
//! Apache Cassandra. This crate provides an in-process substitute,
//! [`SimStore`], that preserves every property the paper's evaluation
//! depends on:
//!
//! * **m machines** holding ordered key spaces (Cassandra's clustering:
//!   rows sharing a *placement key* live contiguously on one machine
//!   and can be range-scanned cheaply);
//! * **placement keys** `{block, sid}` mapping chunks of the index onto
//!   machines — a block of [`SPAN_BLOCK`] consecutive spans, where the
//!   paper places each `{tsid, sid}` apart — with **replication factor
//!   r** (a chunk lives on `r` consecutive machines of the ring);
//! * **composite delta keys** `{tsid, sid, did, pid}` whose byte
//!   encoding preserves tuple order, so all micro-partitions of one
//!   delta are stored contiguously (§4.4 point 5 of the paper);
//! * optional **value compression** (in-house LZSS; paper Fig. 13a);
//! * **per-machine accounting** (lookups, scans, bytes) feeding a
//!   [`CostModel`] that turns access counts into estimated cluster
//!   latencies — this is how the benches reproduce cluster-shaped
//!   results (m, r, c sweeps) on a laptop;
//! * **batched reads only**: [`SimStore::multi_get`] and
//!   [`SimStore::scan_prefix_batch`] are the two reads — a single-row
//!   read is a batch of one — so a client round trip is one batch;
//! * **parallel fetch clients** (`c` in the paper): real OS threads
//!   pulling requests from a shared queue via
//!   [`parallel_steal`];
//! * **failure injection**: permanent machine death with replica
//!   failover, plus a seeded deterministic chaos layer
//!   ([`FaultPlan`]: transient outage windows, per-request
//!   flakes, corrupt-on-read, latency multipliers) that every
//!   operation survives through a bounded [`RetryPolicy`]
//!   (capped backoff in simulated time, per-machine circuit breakers)
//!   and an anti-entropy repair pass ([`SimStore::try_repair`]).

mod cost;
mod faults;
mod key;
pub mod machine;
mod parallel;
mod retry;
mod store;
mod write;

pub use cost::CostModel;
pub use faults::{FaultPlan, Outage};
pub use key::{
    chain_key, chain_key_tsid, chain_prefix, node_key, node_placement_token, term_key, term_token,
    DeltaKey, PlacementKey, Table, SPAN_BLOCK,
};
pub use parallel::parallel_steal;
pub use retry::RetryPolicy;
pub use store::{
    BatchPutOutcome, PutRow, RepairReport, SimStore, StoreConfig, StoreError, StoreStatsSnapshot,
};
pub use write::WriteBuffer;
