//! Order statistics over latency samples.

/// Value at quantile `p` (0..=1) of an ascending slice, nearest-rank
/// on `(n - 1) * p` — the convention the repo's older benches use.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: with `n` samples that is `1 - 10/n`. Below twenty samples no
/// percentile above the median qualifies and the maximum stands in.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        1.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Median, supported tail and count of one latency class.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(quantile, value)` of the highest supported percentile.
    pub tail: (f64, f64),
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        count: v.len(),
        p50: percentile(&v, 0.5),
        tail: (
            tail_quantile(v.len()),
            percentile(&v, tail_quantile(v.len())),
        ),
    })
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the spread the acceptance
/// rule is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median_pick_expected_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), 1.0);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(1000), 0.99);
        let s = summarize(&(0..1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        let (q, v) = s.tail;
        assert_eq!(q, 0.99);
        assert!((0..1000).filter(|&x| f64::from(x) > v).count() >= 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
