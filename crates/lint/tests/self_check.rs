//! The lint's own acceptance gate: the real workspace must lint clean,
//! and every allow annotation in effect must be live (suppressing a
//! finding), justified and counted. `cargo test -p hgs-lint` therefore
//! fails the moment a change introduces a violation or an allow, even
//! before CI runs the binary.

use std::collections::BTreeMap;
use std::path::Path;

use hgs_lint::{find_workspace_root, lint_workspace, render_text};

/// The allows in effect, per rule. Adding (or retiring) one changes
/// this table — and the tally in ROADMAP.md's aim 3 — in the same
/// diff.
const ALLOWS_IN_EFFECT: &[(&str, usize)] = &[];

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let report = lint_workspace(&root).expect("workspace sources readable");
    assert!(
        report.files_scanned > 50,
        "discovery looks broken: only {} files found",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; run `cargo run -p hgs-lint`\n{}",
        render_text(&report)
    );
    for (file, a) in &report.allows {
        assert!(
            !a.reason.trim().is_empty(),
            "{file}:{}: allow without a justification",
            a.line
        );
    }
    assert_eq!(
        report.allows_used(),
        report.allows.len(),
        "stale allows present (is_clean should have caught this as unused-allow)"
    );
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, a) in &report.allows {
        *per_rule.entry(a.rule.as_str()).or_default() += 1;
    }
    assert_eq!(
        per_rule.into_iter().collect::<Vec<_>>(),
        ALLOWS_IN_EFFECT,
        "the allow tally moved: update ALLOWS_IN_EFFECT and ROADMAP.md together"
    );
}
