//! Fixture-driven rule tests: each file under `tests/fixtures/` is a
//! known-violations specimen annotated with `FIRES:<rule>` markers on
//! the exact lines the engine must report (and `FIRES-STRICT:<rule>`
//! for findings that only apply under a panic-strict crate context).
//! A test fails on a missing finding, an extra finding, or a finding
//! on the wrong line.

use std::collections::BTreeSet;
use std::path::Path;

use hgs_lint::{lint_source, FileCtx};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn ctx(rel: &str) -> FileCtx {
    FileCtx::classify(rel).unwrap_or_else(|| panic!("{rel} must classify as lintable"))
}

/// Expected `(line, rule)` pairs from the fixture's inline markers.
fn expected(src: &str, strict: bool) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        // The two tags are disjoint as substrings (`FIRES:` never
        // occurs inside `FIRES-STRICT:`), so a plain find per tag is
        // unambiguous.
        for (tag, applies) in [("FIRES:", true), ("FIRES-STRICT:", strict)] {
            let mut rest = line;
            while let Some(pos) = rest.find(tag) {
                let after = &rest[pos + tag.len()..];
                let rule: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                assert!(!rule.is_empty(), "bad marker on line {lineno}: {line}");
                if applies {
                    out.insert((lineno, rule));
                }
                rest = after;
            }
        }
    }
    out
}

fn check(name: &str, rel: &str, strict: bool) {
    let src = fixture(name);
    let report = lint_source(&src, &ctx(rel));
    let got: BTreeSet<(u32, String)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    let want = expected(&src, strict);
    assert_eq!(
        got, want,
        "{name} linted as {rel}: findings diverge from the FIRES markers\nreported: {:#?}",
        report.findings
    );
}

#[test]
fn sorted_dedup_fixture() {
    check("sorted_dedup.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn no_panic_fixture_in_strict_crate() {
    // `crates/core` is panic-strict: the panic family fires in all
    // non-test lib code, not just `try_*` fns.
    check("no_panic.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn no_panic_fixture_in_relaxed_crate() {
    // Elsewhere only the fallible `try_*` surface is held to it.
    check("no_panic.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn index_rows_fixture() {
    check("index_rows.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn swallowed_result_fixture() {
    check("swallowed_result.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn lock_ordering_fixture() {
    check("lock_ordering.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn guard_callback_fixture() {
    check("guard_callback.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn watermark_publish_fixture() {
    check("watermark_publish.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn bounded_retry_fixture() {
    check("bounded_retry.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn bounded_retry_rule_is_off_inside_the_store_crate() {
    // The store crate *implements* the RetryPolicy loops the rule
    // demands, so its own `loop`s over machine ops are the sanctioned
    // mechanism — so the fixture's now-useless allow must be flagged
    // stale.
    let src = fixture("bounded_retry.rs");
    let report = lint_source(&src, &ctx("crates/store/src/fixture.rs"));
    assert!(
        report.findings.iter().all(|f| f.rule == "unused-allow"),
        "only the stale allow may surface inside hgs-store: {:#?}",
        report.findings
    );
}

#[test]
fn bounded_retry_rule_is_off_in_tests() {
    // Tests hammer the store in loops deliberately (chaos suites,
    // oracle replays); the discipline binds library code only.
    let src = fixture("bounded_retry.rs");
    let report = lint_source(&src, &ctx("crates/graph/tests/fixture.rs"));
    assert!(
        report.findings.iter().all(|f| f.rule != "bounded-retry"),
        "bounded-retry must not fire in test-like code: {:#?}",
        report.findings
    );
}

#[test]
fn infallible_twin_fixture() {
    check("infallible_twin.rs", "crates/taf/src/fixture.rs", false);
    check(
        "infallible_twin_clean.rs",
        "crates/taf/src/fixture.rs",
        false,
    );
}

#[test]
fn infallible_twin_rule_binds_only_the_single_spelling_crates_library_code() {
    // Elsewhere (and in test-like code) a twin is not a finding — so
    // the fixture's allow, suppressing nothing, is the only report.
    let src = fixture("infallible_twin.rs");
    for rel in ["crates/graph/src/fixture.rs", "crates/taf/tests/fixture.rs"] {
        let report = lint_source(&src, &ctx(rel));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-allow"], "{rel}: {:#?}", report.findings);
    }
}

#[test]
fn whole_row_decode_fixture() {
    check("whole_row_decode.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn whole_row_decode_rule_binds_only_hgs_core_sources() {
    // `to_delta` is the codec's own API (`hgs-delta`), the baselines'
    // and every test suite's: only `crates/core/src` reads tree rows.
    let src = fixture("whole_row_decode.rs");
    for rel in [
        "crates/delta/src/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let report = lint_source(&src, &ctx(rel));
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.rule != "no-whole-row-decode"),
            "{rel}: {:#?}",
            report.findings
        );
    }
}

#[test]
fn pinned_scan_fixture() {
    check("pinned_scan.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn pinned_scan_rule_binds_only_hgs_core_sources() {
    // The baselines and the bench harness scan stores they own; only
    // `crates/core/src` reads through pinned views. Elsewhere the
    // fixture's own allow, suppressing nothing, is what surfaces.
    let src = fixture("pinned_scan.rs");
    for rel in [
        "crates/baselines/src/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let report = lint_source(&src, &ctx(rel));
        let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(
            !rules.contains("pinned-scan-bounded") && rules.contains("unused-allow"),
            "{rel}: {:#?}",
            report.findings
        );
    }
}

#[test]
fn bounded_decode_alloc_fixture() {
    for rel in [
        "crates/core/src/fixture.rs",
        "crates/delta/src/fixture.rs",
        "crates/store/src/fixture.rs",
    ] {
        check("bounded_decode_alloc.rs", rel, true);
    }
}

#[test]
fn bounded_decode_alloc_binds_only_the_decoding_crates_sources() {
    // Generators, harnesses and tests size buffers by counts they made
    // up themselves. Elsewhere the fixture's own allow, suppressing
    // nothing, is what surfaces.
    let src = fixture("bounded_decode_alloc.rs");
    for rel in [
        "crates/datagen/src/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let report = lint_source(&src, &ctx(rel));
        let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(
            !rules.contains("bounded-decode-alloc") && rules.contains("unused-allow"),
            "{rel}: {:#?}",
            report.findings
        );
    }
}

#[test]
fn one_row_fetch_fixture() {
    check("one_row_fetch.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn one_row_fetch_binds_only_hgs_core_sources() {
    // The baselines keep their own row layouts, and tests read the raw
    // store on purpose. Elsewhere the fixture's own allow, suppressing
    // nothing, is what surfaces.
    let src = fixture("one_row_fetch.rs");
    for rel in [
        "crates/baselines/src/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let report = lint_source(&src, &ctx(rel));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-allow"], "{rel}: {:#?}", report.findings);
    }
}

#[test]
fn one_tree_path_fixture() {
    check("one_tree_path.rs", "crates/core/src/fixture.rs", true);
}

#[test]
fn one_tree_path_spares_the_helper_other_crates_and_tests() {
    // Other crates read no tree rows, and tests rebuild trees on
    // purpose: there the fixture's own allow, suppressing nothing, is
    // what surfaces. In the helper's file, its `tree_path` walks the
    // shape's path cleanly and the two readers still fire.
    let src = fixture("one_tree_path.rs");
    for rel in [
        "crates/baselines/src/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let report = lint_source(&src, &ctx(rel));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-allow"], "{rel}: {:#?}", report.findings);
    }
    let report = lint_source(&src, &ctx("crates/core/src/meta.rs"));
    let lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "one-tree-path")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines.len(), 2, "{:#?}", report.findings);
}

#[test]
fn one_compression_layer_fixture() {
    check(
        "one_compression_layer.rs",
        "crates/delta/src/fixture.rs",
        true,
    );
}

#[test]
fn one_compression_layer_spares_the_store_and_tests() {
    // The store's value compression is the one caller, and tests may
    // call the codec anywhere. There the fixture's own allow,
    // suppressing nothing, is what surfaces.
    let src = fixture("one_compression_layer.rs");
    for rel in ["crates/store/src/store.rs", "crates/store/tests/fixture.rs"] {
        let report = lint_source(&src, &ctx(rel));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-allow"], "{rel}: {:#?}", report.findings);
    }
}

#[test]
fn concurrency_rules_are_off_in_tests() {
    // A test may hold a guard across a fetch deliberately (e.g. to
    // force contention); the discipline binds library code only.
    let src = fixture("lock_ordering.rs");
    let report = lint_source(&src, &ctx("crates/graph/tests/fixture.rs"));
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule != "lock-ordering" && f.rule != "no-guard-across-callback"),
        "concurrency rules must not fire in test-like code: {:#?}",
        report.findings
    );
}

#[test]
fn allow_hygiene_fixture() {
    check("allows.rs", "crates/graph/src/fixture.rs", false);
}

#[test]
fn fixtures_are_excluded_from_workspace_discovery() {
    // The specimens deliberately violate every rule; discovery must
    // skip them or the self-check gate could never pass.
    assert!(FileCtx::classify("crates/lint/tests/fixtures/no_panic.rs").is_none());
    // ...while this driver itself stays in scope.
    assert!(FileCtx::classify("crates/lint/tests/fixtures.rs").is_some());
}
