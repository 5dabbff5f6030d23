//! # hgs-core — the Temporal Graph Index (TGI)
//!
//! The paper's primary contribution (§4): a tunable, distributed index
//! over the entire history of a graph, storing three families of
//! deltas in a key-value store:
//!
//! 1. **Partitioned eventlists** — the span's events, chunked every
//!    `l` events, scoped per horizontal partition (`sid`) and
//!    micro-partitioned (`pid`);
//! 2. **Derived partitioned snapshots** — per (timespan, `sid`), a
//!    DeltaGraph-style k-ary tree whose parents are intersections of
//!    children; the root and each `child − parent` difference are
//!    stored, micro-partitioned into bounded chunks;
//! 3. **Version chains** — per node, chronological pointers to every
//!    eventlist micro-delta that mentions the node.
//!
//! Plus the paper's auxiliary 1-hop replication micro-deltas
//! (Fig. 5d) under locality partitioning.
//!
//! Eventlist and delta rows have one on-disk format, the lazily
//! decoded per-column segments of [`hgs_delta::columnar`]: full
//! replays decode a row whole, node-scoped reads only the columns
//! that hold the node.
//!
//! The index is *tunable* ([`TgiConfig`]): with one horizontal
//! partition, one micro-partition and no chains it degenerates to
//! DeltaGraph; with a one-level tree it is Copy+Log; with a single
//! giant eventlist it is Log — the generalization claim of §4.2,
//! which `crates/baselines` and the integration tests exercise.
//!
//! Retrieval (§4.6) implements the paper's Algorithms 1–5: snapshot,
//! node history, k-hop neighborhood (both strategies), and 1-hop
//! neighborhood history, all with `c`-way parallel fetch. Multipoint
//! snapshot batches go through the shared-path planner
//! ([`TgiView::try_snapshots`]): tree-path rows are fetched once per
//! chunk and states are cloned only at path divergence points; one
//! fill runs at every width — `c` only says how many work-stealing
//! workers pull its scans, path sums and per-leaf replays — and
//! caches a checkpoint once, as the whole-graph state of its leaf.
//! Single-point reads run as degenerate one-time plans over the same
//! machinery, so **every** query path shares one session-wide
//! byte-budgeted, lock-striped LRU read cache of decoded rows and
//! materialized checkpoint states (every index starts at
//! [`DEFAULT_READ_CACHE_BYTES`], re-budgeted via
//! [`TgiService::set_read_cache_budget`], counters — split into row vs
//! state hits — via [`TgiView::cache_stats`]). Every retrieval and
//! build primitive has exactly one spelling, `try_*`, which surfaces
//! [`hgs_store::StoreError::Unavailable`] instead of silently
//! returning partial results (a caller that wants a panic writes
//! `.expect(..)` at the call site); a cache miss — including one
//! caused by eviction — always re-runs
//! the fallible fetch. The fetch width is a property of the view:
//! [`TgiView::with_clients`] returns a cheap clone that reads at `c`
//! clients.
//!
//! Serving: there are two handles. [`TgiService`] is the one owning
//! handle — it builds an index ([`TgiService::try_build`]) or re-opens
//! one from its store ([`TgiService::open`]), and its one serialized
//! writer publishes a watermarked view per append.
//! [`TgiView`] is the one read handle: an immutable, cheaply-clonable
//! view holding every read path, which any number of reader threads
//! pin ([`TgiService::pin`]) for snapshot-isolated reads over live
//! ingest. A view answers from its own sealed prefix, so a reader
//! re-pins to see an append.

mod attr_index;
mod build;
mod config;
pub mod costs;
mod meta;
mod persist;
mod query;
mod query_plan;
mod read_cache;
mod service;
mod stats;

pub use attr_index::LABEL_KEY;
pub use build::{BuildError, TgiView};
pub use config::{PartitionStrategy, TgiConfig, DEFAULT_READ_CACHE_BYTES};
pub use meta::{encode_chain, sid_of, ChainEntry, TimespanMeta, TreeShape, AUX_BASE, ELIST_BASE};
pub use persist::OpenError;
pub use query::{KhopStrategy, NeighborhoodHistory, NodeHistory};
pub use query_plan::PlanSummary;
pub use read_cache::{CacheStats, DEFAULT_READ_CACHE_SHARDS};
pub use service::TgiService;
pub use stats::{measure, FetchReport};
