//! Scaled-down analogs of the paper's four evaluation datasets.
//!
//! The paper's traces are 0.27–1 billion events on an EC2 cluster;
//! this box is a 2-core laptop-equivalent, so the harnesses use
//! proportionally scaled traces (the figures report series against
//! *relative* size, preserving shape). Sizes can be scaled further
//! via the `HGS_SCALE` environment variable (default 1.0).

use hgs_datagen::{augment_with_churn, FriendsterLike, LabeledChurn, WikiGrowth};
use hgs_delta::Event;

/// Global scale factor from `HGS_SCALE` (e.g. `HGS_SCALE=0.2` for a
/// quick smoke run), 1.0 when unset. Anything but a finite positive
/// number panics rather than silently running a suite the operator
/// never asked for.
pub fn scale() -> f64 {
    match std::env::var("HGS_SCALE") {
        Err(std::env::VarError::NotPresent) => 1.0,
        Ok(s) => parse_scale(&s)
            .unwrap_or_else(|| panic!("HGS_SCALE must be a finite positive number, got {s:?}")),
        Err(e) => panic!("HGS_SCALE: {e}"),
    }
}

fn parse_scale(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0)
}

fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).max(1_000.0) as usize
}

/// Dataset 1 analog: growth-only Wikipedia-citation-like trace
/// (paper: 267M events; here: ~100k × HGS_SCALE).
pub fn dataset1() -> Vec<Event> {
    WikiGrowth {
        events: scaled(100_000),
        seed: 0xD5_01,
        // Real edit traces are bursty: a node's activity clusters in
        // time. This is what gives version-retrieval queries their
        // eventlist-size sensitivity (Fig. 14a).
        recency_bias: 0.6,
        ..WikiGrowth::default()
    }
    .generate()
}

/// Dataset 2 analog: Dataset 1 plus ~50% synthetic add/delete churn
/// (paper: +333M events).
pub fn dataset2() -> Vec<Event> {
    let base = dataset1();
    let extra = base.len() / 2;
    augment_with_churn(&base, extra, 0.5, 0xD5_02)
}

/// Dataset 3 analog: Dataset 1 plus ~110% churn (paper: +733M).
pub fn dataset3() -> Vec<Event> {
    let base = dataset1();
    let extra = base.len() * 11 / 10;
    augment_with_churn(&base, extra, 0.5, 0xD5_03)
}

/// Dataset 4 analog: Friendster-like static graph with uniform
/// timestamps (paper: 37.5M nodes / 500M edges; here ~15k/60k ×
/// HGS_SCALE).
pub fn dataset4() -> Vec<Event> {
    FriendsterLike {
        nodes: scaled(15_000),
        edges: scaled(60_000),
        seed: 0xD5_04,
        ..FriendsterLike::default()
    }
    .generate()
}

/// DBLP-like labeled trace for the incremental-computation experiment
/// (Fig. 17).
pub fn dataset_labeled() -> Vec<Event> {
    LabeledChurn {
        nodes: scaled(4_000).min(4_000),
        edge_events: scaled(20_000),
        label_flips: scaled(20_000),
        seed: 0xD5_05,
    }
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_wellformed() {
        for (name, ev) in [
            ("d1", dataset1()),
            ("d4", dataset4()),
            ("lab", dataset_labeled()),
        ] {
            assert!(!ev.is_empty(), "{name}");
            assert!(
                ev.windows(2).all(|w| w[0].time <= w[1].time),
                "{name} sorted"
            );
        }
    }

    #[test]
    fn scale_accepts_only_finite_positive_numbers() {
        assert_eq!(parse_scale("0.02"), Some(0.02));
        for bad in ["", "0,2", "abc", "nan", "inf", "-inf", "0", "-0.5"] {
            assert_eq!(parse_scale(bad), None, "{bad:?}");
        }
    }
}
