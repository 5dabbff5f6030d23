//! # hgs-lint — repo-invariant static analysis for the HGS workspace
//!
//! A dependency-free, self-contained lint pass that tokenizes every
//! `.rs` file in the workspace (comment/string-aware — no `syn`,
//! nothing vendored) and enforces the repo-specific invariants that
//! reviews kept re-catching by hand:
//!
//! * **sorted-dedup** — `.dedup()`/`.dedup_by*()` with no visible
//!   sort in the enclosing fn (PR 2 and PR 4 each fixed one of
//!   these).
//! * **no-panic-in-try** — `unwrap`/`expect`/`panic!`/`unreachable!`
//!   (and slice indexing) hiding inside the fallible `try_*` surface,
//!   plus the same panic family anywhere in `hgs-core`/`hgs-store`/
//!   `hgs-delta` non-test library code.
//! * **no-swallowed-result** — `let _ =` on store/cache operations.
//! * **no-infallible-twin** — `fn NAME` next to `fn try_NAME` in one
//!   file of `hgs-core`/`hgs-taf`/`hgs-baselines`: every fallible
//!   operation has one spelling.
//! * **no-whole-row-decode** — `.to_delta()` anywhere in `hgs-core`'s
//!   sources: a tree row's records are pieces of nodes, so a row
//!   decoded on its own and node-level-summed is a silently wrong
//!   state.
//! * **pinned-scan-bounded** — a `.scan_prefix_batch()` in `hgs-core`'s
//!   sources whose fn never consults the view's span list: a pinned
//!   view would read rows sealed after it was published (PR 13 and
//!   PR 23 each fixed one of these).
//! * **bounded-decode-alloc** — in `hgs-delta`/`hgs-store`/`hgs-core`,
//!   a fn that reads varints and sizes a `with_capacity`/`reserve` by a
//!   bare identifier it never bounds (PR 24 fixed four of these in the
//!   descriptor decoders `TgiService::open` runs).
//! * **one-compression-layer** — `hgs_delta::compress::{compress,
//!   decompress}` named in non-test code anywhere but
//!   `crates/store/src/store.rs`: the store's optional value
//!   compression is the one LZSS layer; index rows carry none.
//! * **one-tree-path** — `.path_to_leaf(` in `hgs-core`'s sources
//!   outside `TimespanMeta::tree_path`: a span's root is stored against
//!   earlier spans' roots, so a reader walking the shape's own path
//!   skips them.
//! * **one-fetch-unit** — `PlacementKey::of_span(` or `.placement()`
//!   in `hgs-core`'s sources outside the writer, the re-open path, the
//!   two `Deltas` readers and the plan's round-trip prediction: the
//!   readers group any spans' rows by placement block themselves.
//! * **unused-allow** — an allow annotation whose rule no longer
//!   fires is itself an error, so annotations cannot rot.
//!
//! Every exception is annotated inline and auditable:
//!
//! ```text
//! // hgs-lint: allow(no-panic-in-try, "slot indices proven in-range by the planner")
//! ```
//!
//! A trailing annotation suppresses findings on its own line; a
//! standalone comment line suppresses the next code line. The rule
//! catalog with per-rule history and allow guidance lives in
//! `crates/lint/RULES.md`.

pub mod report;
pub mod rules;
pub mod scan;

pub use report::{render_json, render_text, WorkspaceReport};
pub use rules::{lint_source, Allow, FileCtx, FileKind, Finding, RULES};

use std::path::{Path, PathBuf};

/// Directories never descended into during workspace discovery.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Recursively collect every lintable `.rs` file under `root`,
/// classified by [`FileCtx::classify`] (which drops the vendored
/// shims and the lint's own violation fixtures).
pub fn discover_files(root: &Path) -> std::io::Result<Vec<(PathBuf, FileCtx)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Some(ctx) = FileCtx::classify(&rel) {
                out.push((path, ctx));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for (path, ctx) in discover_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        let file_report = lint_source(&src, &ctx);
        report.files_scanned += 1;
        report.allows.extend(
            file_report
                .allows
                .into_iter()
                .map(|a| (ctx.rel_path.clone(), a)),
        );
        report.findings.extend(file_report.findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
