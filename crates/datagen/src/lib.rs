//! # hgs-datagen — synthetic historical-graph workloads
//!
//! Scaled-down analogs of the paper's four evaluation datasets plus two
//! richer workloads for the analytics examples:
//!
//! * [`WikiGrowth`] — Dataset 1: growth-only trace shaped like
//!   the Wikipedia citation network (preferential attachment, bursty
//!   node arrivals, heavy-tailed degrees).
//! * [`augment_with_churn`] — Datasets 2/3: the paper's own
//!   augmentation (random edge additions/deletions appended over time).
//! * [`FriendsterLike`] — Dataset 4: a static power-law
//!   social graph whose edges get uniformly spaced synthetic
//!   timestamps.
//! * [`CommunityGraph`] — a planted-partition temporal graph
//!   with community labels and membership churn (for Compare-style
//!   analytics).
//! * [`LabeledChurn`] — a DBLP-like labeled graph with
//!   attribute flips (the NodeComputeDelta workload of Fig. 17).
//!
//! All generators are deterministic given a seed.

mod churn;
mod community;
mod friendster;
mod labels;
mod wiki;

pub use churn::augment_with_churn;
pub use community::{community_name, CommunityGraph};
pub use friendster::FriendsterLike;
pub use labels::{LabeledChurn, SkewedLabels, CHURN_KEY, DEAD_LABEL};
pub use wiki::WikiGrowth;
