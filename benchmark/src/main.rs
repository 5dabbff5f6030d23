//! The repo's benchmark. One invocation runs one workload:
//!
//! ```text
//! hgs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--out <dir>]
//! hgs-benchmark compare <baseline.json> <candidate.json>
//! hgs-benchmark manifest
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod api;
mod compare;
mod data;
mod json;
mod metrics;
mod ops;
mod oracle;
mod probes;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Json};

const USAGE: &str = "usage:
  hgs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--out <dir>]
  hgs-benchmark compare <baseline.json> <candidate.json>
  hgs-benchmark manifest";

fn parse_run_args(argv: &[String]) -> Result<run::Args, String> {
    let mut args = run::Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad("a number"))?;
                if !(args.scale > 0.0 && args.scale <= 4.0) {
                    return Err(bad("a scale in (0, 4]"));
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if workloads::spec_by_name(&args.workload).is_none() {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "--workload must be one of: {}\n{USAGE}",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(argv: &[String]) -> Result<bool, String> {
    let args = parse_run_args(argv)?;
    let outcome = run::run(&args)?;
    for m in &outcome.metrics {
        println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.wall {
        println!("wall.{:<43} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for message in &outcome.messages {
        eprintln!("failed: {message}");
    }
    eprintln!("result file: {}", outcome.result_path.display());
    let line = obj([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        (
            "metrics",
            obj(outcome.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.compact());
    Ok(outcome.correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    for r in &rows {
        println!(
            "{:<18} {:<30} {:<13} {:+7.2}% worse  (runs {} vs {})",
            r.workload,
            r.metric,
            r.verdict.label(),
            r.worse_by * 100.0,
            r.runs.0,
            r.runs.1
        );
    }
    // Only the end-to-end pairs decide the exit code; the wall-clock
    // diagnostics are listed for whoever claims a gain or hunts a loss.
    let mut clean = true;
    for (what, gated) in [("end-to-end", true), ("wall-clock diagnostic", false)] {
        let count = |v: compare::Verdict| {
            rows.iter()
                .filter(|r| r.gated == gated && r.verdict == v)
                .count()
        };
        let (worse, unresolved) = (
            count(compare::Verdict::Worse),
            count(compare::Verdict::Unresolved),
        );
        println!(
            "{what} pairs: {} within bound, {} better, {worse} worse, {unresolved} unresolved",
            count(compare::Verdict::WithinBound),
            count(compare::Verdict::Better),
        );
        clean &= !gated || worse + unresolved == 0;
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => run_compare(&argv[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some(_) => run_workload(&argv),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong answers or a regression: reported, then a failing exit.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hgs-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
