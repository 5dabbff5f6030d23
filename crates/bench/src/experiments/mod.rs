//! One function per paper experiment; the `src/bin/` wrappers and
//! `run_all` call these.

pub mod ablation;
pub mod analytics;
pub mod partitioning;
pub mod retrieval;
pub mod table1;
pub mod versions;

pub use ablation::{ablation_arity, ablation_horizontal, ablation_timespan};
pub use analytics::{fig15c, fig17};
pub use partitioning::fig15a;
pub use retrieval::{fig11, fig12, fig13a, fig13b, fig13c, fig15b};
pub use table1::table1;
pub use versions::{fig14a, fig14b, fig14c, fig16};
