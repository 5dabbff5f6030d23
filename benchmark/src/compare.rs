//! `compare`: two sets of runs of (possibly different) code, every
//! (metric, workload) pair classified against the metric's own bound —
//! the end-to-end metrics, which decide the exit code, and the `wall.*`
//! diagnostics against the tenth ISSUE 12 gave them, for information.
//!
//! A result file holds one run (an object) or a set of runs (an array
//! of such objects, as `run.sh` writes). Runs are grouped by workload;
//! a pair's value is the median over its runs and its spread the
//! interquartile range over that median.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{end_to_end, wall, MetricDef};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Better,
    /// A side's own run-to-run spread exceeds the bound, so a shift of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Median and relative interquartile spread of one side's runs.
pub fn center_and_spread(values: &[f64]) -> (f64, f64) {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return (m, 0.0);
    }
    let (q1, q3) = quartiles(values);
    (m, (q3 - q1) / m.abs())
}

/// Classify `b` against the baseline `a`. `worse_by` is the signed
/// share of `a`'s median by which `b` is worse.
pub fn classify(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.expect("compared metrics carry a bound");
    let ((ma, sa), (mb, sb)) = (center_and_spread(a), center_and_spread(b));
    let shift = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if def.better == "lower" { shift } else { -shift };
    let verdict = if sa > bound || sb > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// `workload -> metric -> values over runs` of the untraced runs.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn collect(file: &Json) -> Result<Runs, String> {
    let single = [file.clone()];
    let runs = file.as_arr().unwrap_or(&single);
    let mut out = Runs::new();
    for run in runs {
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload name")?;
        let per_metric = out.entry(workload.to_string()).or_default();
        for (section, prefix) in [("end_to_end", ""), ("wall", "wall.")] {
            let metrics = run
                .get(section)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("a run of {workload} without {section} metrics"))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}/{name} has no value"))?;
                per_metric
                    .entry(format!("{prefix}{name}"))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    /// An end-to-end metric (decides the exit code), not a diagnostic.
    pub gated: bool,
    pub verdict: Verdict,
    pub worse_by: f64,
    pub runs: (usize, usize),
}

/// Every (metric, workload) pair of the two result sets, end-to-end
/// metrics first. A workload or metric that only one side has is an
/// error: a result set that lost a workload must not pass as "nothing
/// worse".
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (collect(a)?, collect(b)?);
    if a.is_empty() {
        return Err("the baseline holds no untraced run".into());
    }
    if let Some(w) = b.keys().find(|w| !a.contains_key(*w)) {
        return Err(format!("workload {w} is missing from the baseline"));
    }
    let gated = end_to_end();
    let diagnostics = wall().into_iter().map(|d| MetricDef {
        name: format!("wall.{}", d.name),
        ..d
    });
    let defs: Vec<(MetricDef, bool)> = gated
        .into_iter()
        .map(|d| (d, true))
        .chain(diagnostics.map(|d| (d, false)))
        .collect();
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a {
        let metrics_b = b
            .get(workload)
            .ok_or_else(|| format!("workload {workload} is missing from the candidate"))?;
        for (def, gated) in &defs {
            let values = |side: &BTreeMap<String, Vec<f64>>, which: &str| {
                side.get(&def.name)
                    .cloned()
                    .ok_or_else(|| format!("{workload}/{} is missing from the {which}", def.name))
            };
            let (va, vb) = (
                values(metrics_a, "baseline")?,
                values(metrics_b, "candidate")?,
            );
            let (verdict, worse_by) = classify(def, &va, &vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                gated: *gated,
                verdict,
                worse_by,
                runs: (va.len(), vb.len()),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn def(better: &'static str) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn classifies_by_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = base.map(|v| v * 1.2);
        let faster = base.map(|v| v * 0.8);
        let nudged = base.map(|v| v * 1.05);
        assert_eq!(classify(&def("lower"), &base, &slower).0, Verdict::Worse);
        assert_eq!(classify(&def("lower"), &base, &faster).0, Verdict::Better);
        assert_eq!(
            classify(&def("lower"), &base, &nudged).0,
            Verdict::WithinBound
        );
        assert_eq!(classify(&def("higher"), &base, &slower).0, Verdict::Better);
        assert_eq!(classify(&def("higher"), &base, &faster).0, Verdict::Worse);
        let (_, worse_by) = classify(&def("higher"), &base, &faster);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let steady = [100.0, 100.0, 100.0, 100.0, 100.0];
        assert_eq!(
            classify(&def("lower"), &noisy, &steady).0,
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&def("lower"), &steady, &noisy).0,
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&def("lower"), &[100.0], &[100.0]).0,
            Verdict::WithinBound
        );
    }

    /// A run whose metrics all read `v`, minus `without`.
    fn run(workload: &str, traced: bool, v: f64, without: &str) -> Json {
        let section = |defs: Vec<MetricDef>| {
            obj(defs.into_iter().filter(|d| d.name != without).map(|d| {
                let value = obj([("value", Json::from(v)), ("unit", Json::from(d.unit))]);
                (d.name, value)
            }))
        };
        obj([
            ("workload", Json::from(workload)),
            ("traced", Json::from(traced)),
            ("end_to_end", section(end_to_end())),
            ("wall", section(wall())),
        ])
    }

    #[test]
    fn groups_runs_by_workload_and_skips_traced_ones() {
        let a = Json::Arr(vec![
            run("w", false, 1.0, ""),
            run("w", false, 1.02, ""),
            run("w", true, 9.0, ""),
        ]);
        let b = run("w", false, 2.0, "");
        let runs = collect(&a).unwrap();
        assert_eq!(runs["w"]["setup_s"], vec![1.0, 1.02]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), end_to_end().len() + wall().len());
        let row = |name: &str| rows.iter().find(|r| r.metric == name).unwrap();
        assert_eq!(row("setup_s").verdict, Verdict::Worse);
        assert_eq!(row("setup_s").runs, (2, 1));
        assert!(row("setup_s").gated && !row("wall.khop_p50_us").gated);
        assert_eq!(row("wall.ops_per_s").verdict, Verdict::Better);
    }

    #[test]
    fn a_pair_on_one_side_only_is_an_error() {
        let both = Json::Arr(vec![run("w", false, 1.0, ""), run("x", false, 1.0, "")]);
        let lost_workload = run("w", false, 1.0, "");
        let lost_metric = Json::Arr(vec![
            run("w", false, 1.0, ""),
            run("x", false, 1.0, "khop_p50_us"),
        ]);
        let only_traced = run("w", true, 1.0, "");
        assert!(compare(&both, &both).is_ok());
        for (a, b) in [
            (&both, &lost_workload),
            (&lost_workload, &both),
            (&both, &lost_metric),
            (&lost_metric, &both),
            (&only_traced, &both),
        ] {
            assert!(compare(a, b).is_err());
        }
    }
}
