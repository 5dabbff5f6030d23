//! # hgs-bench — paper harnesses for every table and figure
//!
//! One binary per experiment of the paper's §6 (see `src/bin/`), each
//! printing the same rows/series the paper reports as TSV, with both
//! measured wall-clock and cost-model ("cluster-shaped") latencies.
//! `run_all` executes the full suite. These reproduce the paper; the
//! repo's performance is measured by `benchmark/` alone.

pub mod datasets;
pub mod experiments;
pub mod harness;

pub use datasets::*;
pub use harness::*;
