//! One function per paper experiment; the `src/bin/` wrappers and
//! `run_all` call these.

pub mod ablation;
pub mod analytics;
pub mod chaos;
pub mod labels;
pub mod multipoint;
pub mod partitioning;
pub mod read_cache;
pub mod retrieval;
pub mod serve;
pub mod table1;
pub mod versions;

pub use ablation::{ablation_arity, ablation_horizontal, ablation_timespan};
pub use analytics::{fig15c, fig17};
pub use chaos::{chaos, ChaosRow, RepairOutcome};
pub use labels::{labels, LabelRow};
pub use multipoint::{multipoint, multipoint_row, MultipointRow};
pub use partitioning::fig15a;
pub use read_cache::{read_cache, zipf_sequence, CacheRow};
pub use retrieval::{fig11, fig12, fig13a, fig13b, fig13c, fig15b};
pub use serve::{serve, ServeRow};
pub use table1::table1;
pub use versions::{fig14a, fig14b, fig14c, fig16};
