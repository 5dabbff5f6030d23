//! The repo-invariant rules and the allow-annotation mechanism.
//!
//! Every rule here exists because a past PR shipped (or nearly
//! shipped) the bug it catches; `RULES.md` carries the catalog with
//! the history. The engine is token-based (see [`crate::scan`]), so
//! rules are heuristics with a deliberate bias: prefer a false
//! positive that costs one annotated `hgs-lint: allow(...)` over a
//! false negative that costs a review cycle.

use crate::scan::{scan, Scanned, TokKind, Token};

/// Every rule the engine can fire, in report order.
pub const RULES: &[&str] = &[
    "sorted-dedup",
    "no-panic-in-try",
    "no-swallowed-result",
    "lock-ordering",
    "no-guard-across-callback",
    "watermark-publish",
    "bounded-retry",
    "no-infallible-twin",
    "no-whole-row-decode",
    "pinned-scan-bounded",
    "bounded-decode-alloc",
    "one-row-fetch",
    "one-compression-layer",
    "one-tree-path",
    "unused-allow",
    "malformed-allow",
];

/// Crates whose non-test library code is held to the
/// `no-panic-in-try` discipline even outside `try_*` fns.
const PANIC_STRICT_CRATES: &[&str] = &["delta", "store", "core"];

/// Crates whose non-test library code spells every fallible operation
/// exactly once, as `try_*` (`no-infallible-twin`).
const SINGLE_SPELLING_CRATES: &[&str] = &["core", "taf", "baselines"];

/// The crate whose sources read tree rows, and therefore may not
/// decode a row as a whole (`no-whole-row-decode`) — whose reads run
/// on pinned views, so may not scan past the view's span list
/// (`pinned-scan-bounded`) — and whose keyed `Deltas` reads all go
/// through one fn (`one-row-fetch`).
const TREE_ROW_READER_CRATE: &str = "core";

/// The one fn of [`TREE_ROW_READER_CRATE`] that may `multi_get`
/// `Deltas` rows (`one-row-fetch`).
const ROW_FETCH_FN: &str = "try_fetch_rows";

/// The fns of [`TREE_ROW_READER_CRATE`] that may `scan_prefix_batch`
/// `Deltas` rows (`one-row-fetch`): the grouped scan of one placement
/// block's rows, which the snapshot fill, the root chains and the TAF
/// partition fetch all read through.
const PREFIX_READER_FNS: &[&str] = &["span_rows"];

/// The one fn of [`TREE_ROW_READER_CRATE`] that may walk a span's own
/// root-to-leaf path (`one-tree-path`), and the file it lives in: the
/// tree path every reader sums, base roots first.
const TREE_PATH_FN: (&str, &str) = ("crates/core/src/meta.rs", "tree_path");

/// The one file that may call the LZSS codec
/// (`one-compression-layer`): the store's optional value compression.
const LZSS_CALLER_FILE: &str = "crates/store/src/store.rs";

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Where a file sits in the workspace, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of some crate: production library/binary code.
    Lib,
    /// `tests/`, `benches/` or `examples/`: panics and raw store
    /// traffic are legitimate there.
    TestLike,
}

/// Per-file context handed to the engine alongside the source text.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, used in findings.
    pub rel_path: String,
    /// The `crates/<dir>` component, e.g. `core`; `None` for the
    /// umbrella crate and top-level `tests/`/`examples/`.
    pub crate_dir: Option<String>,
    pub kind: FileKind,
}

impl FileCtx {
    /// Classify a workspace-relative path (`None` for non-Rust or
    /// out-of-scope files such as the vendored shims and the lint's
    /// own violation fixtures).
    pub fn classify(rel_path: &str) -> Option<FileCtx> {
        if !rel_path.ends_with(".rs") {
            return None;
        }
        let parts: Vec<&str> = rel_path.split('/').collect();
        if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
            return None;
        }
        if rel_path.starts_with("crates/lint/tests/fixtures/") {
            return None; // deliberate violations used by the lint's own tests
        }
        let (crate_dir, rest) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
            (Some(parts[1].to_string()), &parts[2..])
        } else {
            (None, &parts[..])
        };
        let kind = match rest.first().copied() {
            Some("src") => FileKind::Lib,
            Some("tests") | Some("benches") | Some("examples") => FileKind::TestLike,
            _ => return None,
        };
        Some(FileCtx {
            rel_path: rel_path.to_string(),
            crate_dir,
            kind,
        })
    }
}

/// A parsed `// hgs-lint: allow(<rule>, "<reason>")` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line the annotation itself sits on.
    pub line: u32,
    /// Line of code the annotation suppresses findings on.
    pub target_line: u32,
    pub rule: String,
    pub reason: String,
    pub used: bool,
}

/// Full per-file lint result: surviving findings plus the allow table
/// (used and unused alike) for reporting.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
}

// ----------------------------------------------------------------------
// token contexts: which fn / test scope each token sits in
// ----------------------------------------------------------------------

#[derive(Debug)]
struct FnInfo {
    name: String,
    /// Token index of the body's opening `{`.
    body_start: usize,
}

#[derive(Debug, Clone, Copy)]
struct TokCtx {
    /// Innermost enclosing fn, as an index into the fns table.
    fn_id: Option<usize>,
    /// True under `#[test]`, `#[cfg(test)]` or a `mod tests`.
    in_test: bool,
}

#[derive(Debug, Clone, Copy)]
enum ScopeKind {
    Fn(usize),
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    kind: ScopeKind,
    depth: u32,
    is_test: bool,
}

struct Contexts {
    per_token: Vec<TokCtx>,
    fns: Vec<FnInfo>,
}

/// Single forward pass assigning every token its enclosing fn and
/// test-ness. Heuristic item tracking: `#[test]` / `#[cfg(... test
/// ...)]` (but not `cfg(not(test))`) marks the next `fn`/`mod`;
/// `mod tests`/`mod test` counts as test scope on its own.
fn contexts(toks: &[Token]) -> Contexts {
    let mut per_token = Vec::with_capacity(toks.len());
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut depth: u32 = 0;
    let mut pending_test = false;
    // A fn/mod header seen, waiting for its `{` (or dropped at `;`).
    let mut pending_scope: Option<(ScopeKind, bool)> = None;
    let mut pending_fn_name: Option<String> = None;
    // Inside an attribute: (bracket depth, saw `test`, saw `not`).
    let mut attr: Option<(i32, bool, bool)> = None;

    for (i, tok) in toks.iter().enumerate() {
        per_token.push(TokCtx {
            fn_id: stack.iter().rev().find_map(|s| match s.kind {
                ScopeKind::Fn(id) => Some(id),
                ScopeKind::Other => None,
            }),
            in_test: stack.iter().any(|s| s.is_test),
        });

        if let Some((bdepth, has_test, has_not)) = attr.as_mut() {
            match &tok.kind {
                TokKind::Punct('[') => *bdepth += 1,
                TokKind::Punct(']') => {
                    *bdepth -= 1;
                    if *bdepth == 0 {
                        if *has_test && !*has_not {
                            pending_test = true;
                        }
                        attr = None;
                    }
                }
                TokKind::Ident(s) if s == "test" => *has_test = true,
                TokKind::Ident(s) if s == "not" => *has_not = true,
                _ => {}
            }
            continue;
        }

        match &tok.kind {
            TokKind::Punct('#')
                if toks.get(i + 1).is_some_and(|t| t.is_punct('['))
                    || (toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct('['))) =>
            {
                // `#[...]` / `#![...]`: scan its idents for `test`.
                attr = Some((0, false, false));
            }
            TokKind::Ident(kw) if kw == "fn" => {
                // Only a real item header (`fn name`), not an `fn(..)`
                // pointer type.
                if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                    pending_scope = Some((ScopeKind::Fn(usize::MAX), pending_test));
                    pending_fn_name = Some(name.to_string());
                    pending_test = false;
                }
            }
            TokKind::Ident(kw) if kw == "mod" => {
                let name = toks.get(i + 1).and_then(|t| t.ident()).unwrap_or("");
                let is_test = pending_test || name == "tests" || name == "test";
                pending_scope = Some((ScopeKind::Other, is_test));
                pending_test = false;
            }
            TokKind::Punct('{') => {
                depth += 1;
                let scope = match pending_scope.take() {
                    Some((ScopeKind::Fn(_), is_test)) => {
                        let id = fns.len();
                        fns.push(FnInfo {
                            name: pending_fn_name.take().unwrap_or_default(),
                            body_start: i,
                        });
                        Scope {
                            kind: ScopeKind::Fn(id),
                            depth,
                            is_test,
                        }
                    }
                    Some((ScopeKind::Other, is_test)) => Scope {
                        kind: ScopeKind::Other,
                        depth,
                        is_test,
                    },
                    None => Scope {
                        kind: ScopeKind::Other,
                        depth,
                        is_test: false,
                    },
                };
                stack.push(scope);
            }
            TokKind::Punct('}') => {
                if stack.last().is_some_and(|s| s.depth == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
                pending_test = false;
            }
            TokKind::Punct(';') => {
                // Bodyless item (trait fn, use, struct...): drop any
                // pending header and stale attribute marks.
                pending_scope = None;
                pending_fn_name = None;
                pending_test = false;
            }
            _ => {}
        }
    }
    Contexts { per_token, fns }
}

// ----------------------------------------------------------------------
// allow annotations
// ----------------------------------------------------------------------

/// Parse every `hgs-lint:` line comment; malformed ones become
/// findings immediately.
fn parse_allows(scanned: &Scanned, ctx: &FileCtx, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let code_lines = scanned.code_lines();
    let mut allows = Vec::new();
    for c in &scanned.comments {
        // Doc comments (`///` and `//!` leave a leading `/` or `!` in
        // the scanned text) are prose — only a plain `//` comment that
        // *starts* with `hgs-lint` is an annotation.
        if c.text.starts_with('/') || c.text.starts_with('!') || !c.text.starts_with("hgs-lint") {
            continue;
        }
        match parse_allow_text(&c.text) {
            Ok((rule, reason)) => {
                let target_line = if code_lines.contains(&c.line) {
                    c.line // trailing comment: suppress on its own line
                } else {
                    // Standalone: suppress on the next code line.
                    match code_lines.range(c.line + 1..).next() {
                        Some(&l) => l,
                        None => c.line,
                    }
                };
                allows.push(Allow {
                    line: c.line,
                    target_line,
                    rule,
                    reason,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding {
                rule: "malformed-allow",
                file: ctx.rel_path.clone(),
                line: c.line,
                message: format!("malformed hgs-lint annotation: {why}"),
            }),
        }
    }
    allows
}

/// Parse `hgs-lint: allow(<rule>, "<reason>")` out of a comment body.
fn parse_allow_text(text: &str) -> Result<(String, String), String> {
    let rest = text
        .split_once("hgs-lint")
        .map(|(_, r)| r)
        .unwrap_or(text)
        .trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or("expected `hgs-lint: allow(<rule>, \"<reason>\")`")?
        .trim_start();
    let rest = rest
        .strip_prefix("allow(")
        .ok_or("expected `allow(<rule>, \"<reason>\")` after `hgs-lint:`")?;
    let (rule, rest) = rest
        .split_once(',')
        .ok_or("expected a rule name followed by `, \"<reason>\"`")?;
    let rule = rule.trim();
    if !RULES.contains(&rule) {
        return Err(format!(
            "unknown rule `{rule}` (known: {})",
            RULES.join(", ")
        ));
    }
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or("the justification must be a quoted string")?;
    let (reason, tail) = rest
        .split_once('"')
        .ok_or("unterminated justification string")?;
    if reason.trim().is_empty() {
        return Err("the justification must not be empty".to_string());
    }
    if !tail.trim_start().starts_with(')') {
        return Err("expected `)` closing the allow".to_string());
    }
    Ok((rule.to_string(), reason.trim().to_string()))
}

// ----------------------------------------------------------------------
// the rules
// ----------------------------------------------------------------------

/// Keywords that can directly precede a `[` without forming an index
/// expression (slice patterns, array literals after `return`, ...).
const NON_RECEIVER_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "as", "move", "box", "while",
    "for", "where", "impl", "dyn", "const", "static", "break", "continue", "yield", "await",
];

/// Store methods that cross the network to fetch rows; holding a lock
/// guard across one of these serializes every concurrent reader on
/// the guard for the duration of the round trip (`lock-ordering`).
const STORE_FETCH_METHODS: &[&str] = &["multi_get", "scan_prefix_batch"];

/// Worker-pool entry points whose closures run on other threads; a
/// parking_lot guard crossing one deadlocks the moment a worker
/// touches the same lock (`no-guard-across-callback`).
const CALLBACK_FNS: &[&str] = &["parallel_steal"];

/// Store round trips whose re-issue inside a `loop`/`while` is a
/// hand-rolled retry loop (`bounded-retry`): without the store's
/// `RetryPolicy` (attempt budget, capped backoff, circuit breaker) a
/// persistent fault spins such a loop forever.
const RETRY_SENSITIVE_METHODS: &[&str] = &[
    "multi_get",
    "scan_prefix_batch",
    "put_batch",
    "try_put_batch",
];

/// Run every rule over one file.
pub fn lint_source(src: &str, ctx: &FileCtx) -> FileReport {
    let scanned = scan(src);
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows = parse_allows(&scanned, ctx, &mut findings);
    let cx = contexts(&scanned.tokens);
    let toks = &scanned.tokens;
    let guards = guard_regions(toks);

    let strict_panic_crate = ctx.kind == FileKind::Lib
        && ctx
            .crate_dir
            .as_deref()
            .is_some_and(|c| PANIC_STRICT_CRATES.contains(&c));

    for i in 0..toks.len() {
        let t = &toks[i];
        let tcx = cx.per_token[i];
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        let next = toks.get(i + 1);
        let in_try_fn = tcx
            .fn_id
            .is_some_and(|f| cx.fns[f].name.starts_with("try_"));

        // ---- sorted-dedup: applies everywhere, tests included -------
        if let Some(name) = t.ident() {
            if (name == "dedup" || name == "dedup_by" || name == "dedup_by_key")
                && prev.is_some_and(|p| p.is_punct('.'))
                && next.is_some_and(|n| n.is_punct('('))
            {
                let proven = tcx.fn_id.is_some_and(|f| {
                    let start = cx.fns[f].body_start;
                    toks[start..i].windows(2).any(|w| {
                        w[0].is_punct('.') && w[1].ident().is_some_and(|s| s.starts_with("sort"))
                    })
                });
                if !proven {
                    findings.push(Finding {
                        rule: "sorted-dedup",
                        file: ctx.rel_path.clone(),
                        line: t.line,
                        message: format!(
                            "`.{name}()` removes only *adjacent* duplicates but no \
                             sort call precedes it in this fn; sort first or \
                             annotate the sortedness invariant"
                        ),
                    });
                }
            }
        }

        // ---- no-panic-in-try ----------------------------------------
        if !tcx.in_test && ctx.kind == FileKind::Lib {
            let panic_scope = in_try_fn || strict_panic_crate;
            if panic_scope {
                if let Some(name) = t.ident() {
                    let method_panic = (name == "unwrap" || name == "expect")
                        && prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|n| n.is_punct('('));
                    let macro_panic =
                        matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                            && next.is_some_and(|n| n.is_punct('!'));
                    if method_panic || macro_panic {
                        let what = if method_panic {
                            format!(".{name}()")
                        } else {
                            format!("{name}!")
                        };
                        let scope = if in_try_fn {
                            format!(
                                "inside fallible `{}`",
                                cx.fns[tcx.fn_id.unwrap_or_default()].name
                            )
                        } else {
                            "in panic-strict library code".to_string()
                        };
                        findings.push(Finding {
                            rule: "no-panic-in-try",
                            file: ctx.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "{what} {scope}; surface an error or annotate the \
                                 audited invariant"
                            ),
                        });
                    }
                }
            }
            // Slice indexing only inside the fallible surface itself.
            if in_try_fn && t.is_punct('[') {
                let is_index = prev.is_some_and(|p| match &p.kind {
                    TokKind::Ident(s) => !NON_RECEIVER_KEYWORDS.contains(&s.as_str()),
                    TokKind::Punct(c) => *c == ']' || *c == ')',
                });
                if is_index && !is_full_range_index(toks, i) {
                    findings.push(Finding {
                        rule: "no-panic-in-try",
                        file: ctx.rel_path.clone(),
                        line: t.line,
                        message: format!(
                            "slice/array indexing inside fallible `{}` can panic \
                             out-of-bounds; use `.get()` or annotate the audited \
                             bound",
                            cx.fns[tcx.fn_id.unwrap_or_default()].name
                        ),
                    });
                }
            }
        }

        // ---- no-whole-row-decode: all of hgs-core's src, tests too ---
        if ctx.kind == FileKind::Lib
            && ctx.crate_dir.as_deref() == Some(TREE_ROW_READER_CRATE)
            && t.ident() == Some("to_delta")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            findings.push(Finding {
                rule: "no-whole-row-decode",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: "`.to_delta()` decodes a stored row on its own, but a tree \
                          row's records are pieces: apply it to the path state \
                          (`DeltaHandle::sum_into`) or read one record (`node_record`)"
                    .to_string(),
            });
        }

        // ---- lock-ordering / no-guard-across-callback ---------------
        if !tcx.in_test && ctx.kind == FileKind::Lib {
            if let Some(name) = t.ident() {
                let is_call = next.is_some_and(|n| n.is_punct('('));
                let store_fetch = is_call
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && (STORE_FETCH_METHODS.contains(&name)
                        || (name == "put_batch" && i >= 2 && toks[i - 2].ident() == Some("store")));
                let callback = is_call && CALLBACK_FNS.contains(&name);
                if store_fetch || callback {
                    if let Some(g) = guards.iter().find(|g| g.start <= i && i < g.end) {
                        let (rule, message) = if store_fetch {
                            (
                                "lock-ordering",
                                format!(
                                    "store fetch `.{name}(...)` while the lock guard \
                                     `{}` (taken on line {}) is still live; release \
                                     the lock before the round trip, or annotate the \
                                     audited lock order",
                                    g.name, g.lock_line
                                ),
                            )
                        } else {
                            (
                                "no-guard-across-callback",
                                format!(
                                    "`{name}(...)` fans work out to other threads \
                                     while the lock guard `{}` (taken on line {}) is \
                                     still live; a worker touching the same lock \
                                     deadlocks — drop the guard first or annotate \
                                     why the closure cannot contend",
                                    g.name, g.lock_line
                                ),
                            )
                        };
                        findings.push(Finding {
                            rule,
                            file: ctx.rel_path.clone(),
                            line: t.line,
                            message,
                        });
                    }
                }
            }
        }

        // ---- watermark-publish --------------------------------------
        if !tcx.in_test
            && ctx.kind == FileKind::Lib
            && tcx.fn_id.is_some()
            && t.ident() == Some("store")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
            && i >= 2
            && toks[i - 2].ident() == Some("watermark")
        {
            // A watermark publish followed — in the same fn — by a row
            // write/flush means unflushed rows became reachable.
            let mut j = i + 1;
            while j < toks.len() && cx.per_token[j].fn_id == tcx.fn_id {
                if let Some(m) = toks[j].ident() {
                    let flushes = toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                        && j >= 1
                        && toks[j - 1].is_punct('.')
                        && matches!(m, "flush" | "try_flush" | "put_batch" | "try_put_batch");
                    if flushes {
                        findings.push(Finding {
                            rule: "watermark-publish",
                            file: ctx.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "watermark stored before the span's rows are \
                                 durable: `.{m}(...)` on line {} runs after this \
                                 `watermark.store(...)`; publish strictly after \
                                 the flush, or annotate why the later write is \
                                 not covered by this watermark",
                                toks[j].line
                            ),
                        });
                        break;
                    }
                }
                j += 1;
            }
        }

        // ---- no-swallowed-result ------------------------------------
        if t.ident() == Some("let")
            && next.and_then(|n| n.ident()) == Some("_")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            if let Some(hit) = swallowed_store_op(toks, i + 3) {
                findings.push(Finding {
                    rule: "no-swallowed-result",
                    file: ctx.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`let _ =` discards the result of store/cache operation \
                         `{hit}`; handle or propagate it"
                    ),
                });
            }
        }
    }

    bounded_retry(toks, &cx, ctx, &mut findings);
    infallible_twins(toks, &cx, ctx, &mut findings);
    pinned_scan_bounded(toks, &cx, ctx, &mut findings);
    bounded_decode_alloc(toks, &cx, ctx, &mut findings);
    one_row_fetch(toks, &cx, ctx, &mut findings);
    one_compression_layer(toks, &cx, ctx, &mut findings);
    one_tree_path(toks, &cx, ctx, &mut findings);

    // Suppress findings that carry a matching allow on their line.
    findings.retain(|f| {
        if f.rule == "malformed-allow" {
            return true;
        }
        for a in allows.iter_mut() {
            if a.rule == f.rule && a.target_line == f.line {
                a.used = true;
                return false;
            }
        }
        true
    });

    // Unused allows are themselves violations: annotations must not rot.
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: "unused-allow",
                file: ctx.rel_path.clone(),
                line: a.line,
                message: format!(
                    "allow({}) no longer suppresses any finding on line {}; \
                     remove the stale annotation",
                    a.rule, a.target_line
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileReport { findings, allows }
}

/// The `bounded-retry` pass: a `loop`/`while` in non-test library
/// code (outside hgs-store, whose retry layer is the sanctioned
/// implementation) whose header or body re-issues a store round trip
/// is a hand-rolled retry/poll loop with no attempt budget. `for`
/// loops are exempt — they iterate a finite collection, they don't
/// re-issue on failure. Findings anchor at the store-op line so an
/// audited allow sits next to the operation it excuses.
fn bounded_retry(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || ctx.crate_dir.as_deref() == Some("store") {
        return;
    }
    // Nested loops would report the same op once per level; dedupe.
    let mut reported: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        let kw = toks[i].ident();
        if !(kw == Some("loop") || kw == Some("while")) || cx.per_token[i].in_test {
            continue;
        }
        // The body's `{` is the first one outside the header's
        // parens/brackets (closure braces in a `while` condition sit
        // inside call parens and are skipped with them).
        let mut nest = 0i32;
        let mut body_start = None;
        let mut j = i + 1;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(' | '[') => nest += 1,
                TokKind::Punct(')' | ']') => nest -= 1,
                TokKind::Punct('{') if nest <= 0 => {
                    body_start = Some(j);
                    break;
                }
                TokKind::Punct(';') if nest <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body_start) = body_start else {
            continue;
        };
        let mut depth = 0i32;
        let mut body_end = toks.len();
        for (k, t) in toks.iter().enumerate().skip(body_start) {
            match &t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Header + body: a store op in the condition re-issues per
        // iteration just the same.
        for k in i..body_end {
            let Some(name) = toks[k].ident() else {
                continue;
            };
            let is_call = toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                && k >= 1
                && toks[k - 1].is_punct('.');
            if !is_call {
                continue;
            }
            if RETRY_SENSITIVE_METHODS.contains(&name) && !reported.contains(&toks[k].line) {
                reported.push(toks[k].line);
                findings.push(Finding {
                    rule: "bounded-retry",
                    file: ctx.rel_path.clone(),
                    line: toks[k].line,
                    message: format!(
                        "store operation `.{name}(...)` re-issued inside a \
                         `{}` on line {}; unbounded retry/poll loops spin \
                         forever on a persistent fault — route the operation \
                         through the store's RetryPolicy (attempt budget, \
                         capped backoff, breaker) or annotate the audited \
                         bound",
                        kw.unwrap_or("loop"),
                        toks[i].line
                    ),
                });
            }
        }
    }
}

/// The `no-infallible-twin` pass: in the single-spelling crates a
/// file's non-test code may not define both `fn NAME` and
/// `fn try_NAME` (bodyless trait declarations count). The finding
/// anchors at the infallible `fn NAME` — the half to delete.
fn infallible_twins(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let in_scope = ctx.kind == FileKind::Lib
        && ctx
            .crate_dir
            .as_deref()
            .is_some_and(|c| SINGLE_SPELLING_CRATES.contains(&c));
    if !in_scope {
        return;
    }
    let defs: Vec<(&str, u32)> = toks
        .windows(2)
        .enumerate()
        .filter(|(i, w)| w[0].ident() == Some("fn") && !cx.per_token[*i].in_test)
        .filter_map(|(_, w)| w[1].ident().map(|name| (name, w[1].line)))
        .collect();
    for &(name, line) in &defs {
        let twin = format!("try_{name}");
        if defs.iter().any(|(other, _)| *other == twin) {
            findings.push(Finding {
                rule: "no-infallible-twin",
                file: ctx.rel_path.clone(),
                line,
                message: format!(
                    "`fn {name}` duplicates `fn {twin}` in this file; keep the \
                     fallible spelling only — a caller that wants a panic writes \
                     `.expect(..)` at its call site"
                ),
            });
        }
    }
}

/// The `pinned-scan-bounded` pass: in `hgs-core`'s non-test library
/// code, a fn that issues a `.scan_prefix_batch(...)` — the store's
/// one scan — must show what bounds the scan to the view it runs on:
/// it names the view's span list (`spans`), or it builds its prefixes
/// from the `.tsid` of a span it was handed. A prefix scan over a table
/// keyed by `tsid` returns whatever the store holds, rows sealed after
/// the view was published included.
fn pinned_scan_bounded(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || ctx.crate_dir.as_deref() != Some(TREE_ROW_READER_CRATE) {
        return;
    }
    for i in 1..toks.len() {
        let is_scan = toks[i].ident() == Some("scan_prefix_batch")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let Some(f) = cx.per_token[i]
            .fn_id
            .filter(|_| is_scan && !cx.per_token[i].in_test)
        else {
            continue;
        };
        let bounded = (1..toks.len())
            .filter(|&j| cx.per_token[j].fn_id == Some(f))
            .any(|j| match toks[j].ident() {
                Some("spans") => true,
                Some("tsid") => toks[j - 1].is_punct('.'),
                _ => false,
            });
        if !bounded {
            findings.push(Finding {
                rule: "pinned-scan-bounded",
                file: ctx.rel_path.clone(),
                line: toks[i].line,
                message: format!(
                    "`{}` prefix-scans the store but never consults the view's span \
                     list: a pinned view would read rows sealed after it was \
                     published; drop rows whose tsid is not below `spans.len()`, \
                     scan under the `.tsid` of a span of this view, or annotate why \
                     the table holds nothing newer",
                    cx.fns[f].name
                ),
            });
        }
    }
}

/// Fns whose result is a count already held to a bound: the codec's
/// sanity cap (`get_len`) or the bytes left in the row
/// (`bounded_count`).
const BOUNDED_COUNT_FNS: &[&str] = &["get_len", "bounded_count"];

/// The `bounded-decode-alloc` pass: in the non-test library code of
/// the decoding crates, a fn that reads varints (`get_varint(`) may
/// not size an allocation — `with_capacity(n)` / `.reserve(n)` — by a
/// bare identifier unless the fn shows the bound: `n` is assigned from
/// one of [`BOUNDED_COUNT_FNS`], or the fn refuses a large one with
/// `if n > …`. A count read off stored bytes is whatever the bytes say;
/// `n.min(…)` and any other expression are left alone.
fn bounded_decode_alloc(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let in_scope = ctx.kind == FileKind::Lib
        && ctx
            .crate_dir
            .as_deref()
            .is_some_and(|c| PANIC_STRICT_CRATES.contains(&c));
    if !in_scope {
        return;
    }
    let is_call = |i: usize, name: &str| {
        toks[i].ident() == Some(name) && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
    };
    for i in 1..toks.len() {
        let allocates =
            is_call(i, "with_capacity") || (is_call(i, "reserve") && toks[i - 1].is_punct('.'));
        // The whole argument is one identifier: `(` ident `)`.
        let bare = toks.get(i + 2).and_then(|t| t.ident());
        let (Some(f), Some(count)) = (
            cx.per_token[i]
                .fn_id
                .filter(|_| allocates && !cx.per_token[i].in_test),
            bare.filter(|_| toks.get(i + 3).is_some_and(|t| t.is_punct(')'))),
        ) else {
            continue;
        };
        let in_fn: Vec<usize> = (0..toks.len())
            .filter(|&j| cx.per_token[j].fn_id == Some(f))
            .collect();
        if !in_fn.iter().any(|&j| is_call(j, "get_varint")) {
            continue;
        }
        let bounded = in_fn.iter().any(|&j| {
            toks[j].ident() == Some(count)
                && match (&toks[j - 1], toks.get(j + 1), toks.get(j + 2)) {
                    // `count = get_len(` / `count = bounded_count(`
                    (_, Some(eq), Some(callee)) if eq.is_punct('=') => callee
                        .ident()
                        .is_some_and(|c| BOUNDED_COUNT_FNS.contains(&c)),
                    // `if count > …`
                    (kw, Some(gt), _) => kw.ident() == Some("if") && gt.is_punct('>'),
                    _ => false,
                }
        });
        if !bounded {
            findings.push(Finding {
                rule: "bounded-decode-alloc",
                file: ctx.rel_path.clone(),
                line: toks[i].line,
                message: format!(
                    "`{}` decodes varints and sizes an allocation by `{count}` with no \
                     bound in sight: a hostile count is a capacity-overflow panic or an \
                     OOM-sized reservation; read it with `get_len` / `bounded_count`, \
                     refuse it with `if {count} > …`, or cap it (`{count}.min(…)`)",
                    cx.fns[f].name
                ),
            });
        }
    }
}

/// The `one-row-fetch` pass: in `hgs-core`'s non-test library code, a
/// `.multi_get(` whose argument list names `Table::Deltas`, in any fn
/// but [`ROW_FETCH_FN`], or a `.scan_prefix_batch(` naming it, in any
/// fn but the [`PREFIX_READER_FNS`]. The one keyed fetch probes the
/// read cache per key, sends the misses in one batch and caches what
/// comes back, absent rows included; a second point read of `Deltas`
/// rows repeats all of it, and its traffic escapes whatever counts
/// reads in that one place. A new prefix reader of the index body is a
/// second way to a snapshot or a history, beside the ones that are.
fn one_row_fetch(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || ctx.crate_dir.as_deref() != Some(TREE_ROW_READER_CRATE) {
        return;
    }
    for i in 1..toks.len() {
        let (keyed, allowed_fns): (bool, &[&str]) = match toks[i].ident() {
            Some("multi_get") => (true, &[ROW_FETCH_FN]),
            Some("scan_prefix_batch") => (false, PREFIX_READER_FNS),
            _ => continue,
        };
        let is_call = toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let tcx = cx.per_token[i];
        if !is_call
            || tcx.in_test
            || tcx
                .fn_id
                .is_some_and(|f| allowed_fns.contains(&cx.fns[f].name.as_str()))
        {
            continue;
        }
        // The argument list, up to the matching `)`.
        let mut depth = 0i32;
        let mut names_deltas = false;
        for j in i + 1..toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(s) if s == "Deltas" => {
                    names_deltas |= toks[j - 1].is_punct(':')
                        && toks[j - 2].is_punct(':')
                        && toks[j - 3].ident() == Some("Table");
                }
                _ => {}
            }
        }
        if !names_deltas {
            continue;
        }
        let message = if keyed {
            format!(
                "a keyed read of `Deltas` rows outside `{ROW_FETCH_FN}`: that fn is \
                 the one place a point read probes the read cache, batches its \
                 misses and caches rows and absences; call it instead, or \
                 annotate why this read must not go through the cache"
            )
        } else {
            format!(
                "a prefix scan of `Deltas` rows outside `{}`: that is the index \
                 body's prefix reader (the grouped scan of one placement block, \
                 which the snapshot fill and the TAF partition fetch read \
                 through); read through it or through `{ROW_FETCH_FN}`, or \
                 annotate why this scan is not a second reader of the same rows",
                PREFIX_READER_FNS.join("` / `")
            )
        };
        findings.push(Finding {
            rule: "one-row-fetch",
            file: ctx.rel_path.clone(),
            line: toks[i].line,
            message,
        });
    }
}

/// The `one-tree-path` pass: in `hgs-core`'s non-test library code, a
/// `.path_to_leaf(` call anywhere but in [`TREE_PATH_FN`]. A span's
/// root is stored against the roots of earlier spans of its block, so
/// its own root-to-leaf path sums to a leaf only after those: a reader
/// that walks the shape's path itself skips the base roots and answers
/// a graph without what they hold.
fn one_tree_path(toks: &[Token], cx: &Contexts, ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || ctx.crate_dir.as_deref() != Some(TREE_ROW_READER_CRATE) {
        return;
    }
    let (file, helper) = TREE_PATH_FN;
    for i in 1..toks.len() {
        let is_call = toks[i].ident() == Some("path_to_leaf")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let tcx = cx.per_token[i];
        let in_helper = ctx.rel_path == file && tcx.fn_id.is_some_and(|f| cx.fns[f].name == helper);
        if is_call && !tcx.in_test && !in_helper {
            findings.push(Finding {
                rule: "one-tree-path",
                file: ctx.rel_path.clone(),
                line: toks[i].line,
                message: format!(
                    "`.path_to_leaf(...)` outside `{helper}` in `{file}`: a span's \
                     own path skips the base roots its root is stored against; walk \
                     `TimespanMeta::{helper}`, or annotate why this path needs no \
                     base root"
                ),
            });
        }
    }
}

/// The `one-compression-layer` pass: in non-test library code outside
/// [`LZSS_CALLER_FILE`], a path that names `compress::compress` or
/// `compress::decompress` — a qualified call, or a `use` bringing
/// either into scope, in a `{..}` group or by a `*` glob. Index rows
/// are kept small by their grammar; the store's value compression is
/// the one LZSS layer, and a second one inside the rows it stores
/// would compress what the first then cannot.
fn one_compression_layer(
    toks: &[Token],
    cx: &Contexts,
    ctx: &FileCtx,
    findings: &mut Vec<Finding>,
) {
    if ctx.kind != FileKind::Lib || ctx.rel_path == LZSS_CALLER_FILE {
        return;
    }
    let is_codec_fn = |t: &Token| matches!(t.ident(), Some("compress" | "decompress"));
    for i in 0..toks.len() {
        let path = toks[i].ident() == Some("compress")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !path || cx.per_token[i].in_test {
            continue;
        }
        let names_codec = match toks.get(i + 3) {
            Some(t) if t.is_punct('*') => true,
            // A use group: any leaf at its top level.
            Some(t) if t.is_punct('{') => {
                let mut depth = 0i32;
                let mut hit = false;
                for j in i + 3..toks.len() {
                    match &toks[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            hit |= depth == 1
                                && is_codec_fn(&toks[j])
                                && !toks.get(j + 1).is_some_and(|t| t.is_punct(':'));
                        }
                    }
                }
                hit
            }
            Some(t) => is_codec_fn(t),
            None => false,
        };
        if names_codec {
            findings.push(Finding {
                rule: "one-compression-layer",
                file: ctx.rel_path.clone(),
                line: toks[i].line,
                message: format!(
                    "the LZSS codec named outside `{LZSS_CALLER_FILE}`: rows are \
                     compressed by their grammar, and the store's optional value \
                     compression is the one LZSS layer; drop the second layer, or \
                     annotate why this code must compress on its own"
                ),
            });
        }
    }
}

/// A lexical region in which a lock guard bound by a `let` statement
/// is live: from the end of the binding statement to the close of the
/// enclosing block, or to an explicit `drop(<guard>)`.
#[derive(Debug)]
struct GuardRegion {
    /// The bound guard's name, for the finding message.
    name: String,
    /// Line of the `let` that took the lock.
    lock_line: u32,
    /// First token index at which the guard is live.
    start: usize,
    /// Token index ending the region (exclusive).
    end: usize,
}

/// Find every `let [mut] <name> = <expr>.lock();` (or `.read()` /
/// `.write()`) statement and compute the guard's live region. Only
/// tail-position lock calls bind a guard — `m.lock().take()` binds the
/// *taken value* and releases the temporary guard at the `;`.
fn guard_regions(toks: &[Token]) -> Vec<GuardRegion> {
    // Brace depth per token; a `}` carries the depth of the block it
    // closes, so the `}` ending the `let`'s block has depth <= the
    // `let`'s own depth.
    let mut depths = Vec::with_capacity(toks.len());
    let mut depth = 0u32;
    for t in toks {
        match &t.kind {
            TokKind::Punct('{') => {
                depth += 1;
                depths.push(depth);
            }
            TokKind::Punct('}') => {
                depths.push(depth);
                depth = depth.saturating_sub(1);
            }
            _ => depths.push(depth),
        }
    }

    let mut regions = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(|t| t.ident()) else {
            continue;
        };
        // End of the statement: the first `;` outside any nesting.
        let mut nest = 0i32;
        let mut k = j + 1;
        let mut stmt_end = None;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct('(' | '[' | '{') => nest += 1,
                TokKind::Punct(')' | ']' | '}') => nest -= 1,
                TokKind::Punct(';') if nest <= 0 => {
                    stmt_end = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(stmt_end) = stmt_end else { continue };
        let tail_is_lock = stmt_end >= 4
            && toks[stmt_end - 1].is_punct(')')
            && toks[stmt_end - 2].is_punct('(')
            && toks[stmt_end - 3]
                .ident()
                .is_some_and(|m| matches!(m, "lock" | "read" | "write"))
            && toks[stmt_end - 4].is_punct('.');
        if !tail_is_lock {
            continue;
        }
        // Live until the enclosing block closes or the guard is
        // explicitly dropped.
        let let_depth = depths[i];
        let mut end = toks.len();
        let mut m = stmt_end + 1;
        while m < toks.len() {
            let closes_block = toks[m].is_punct('}') && depths[m] <= let_depth;
            let drops_guard = toks[m].ident() == Some("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(m + 2).and_then(|t| t.ident()) == Some(name);
            if closes_block || drops_guard {
                end = m;
                break;
            }
            m += 1;
        }
        regions.push(GuardRegion {
            name: name.to_string(),
            lock_line: toks[i].line,
            start: stmt_end + 1,
            end,
        });
    }
    regions
}

/// True when `toks[open]` is a `[` whose contents are exactly `..`
/// (full-range slicing never panics).
fn is_full_range_index(toks: &[Token], open: usize) -> bool {
    toks.get(open + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(open + 2).is_some_and(|t| t.is_punct('.'))
        && toks.get(open + 3).is_some_and(|t| t.is_punct(']'))
}

/// Scan the right-hand side of a `let _ =` (from `start` to the
/// statement's `;`) for store/cache operations; returns the matched
/// name.
fn swallowed_store_op(toks: &[Token], start: usize) -> Option<String> {
    const RECEIVERS: &[&str] = &["store", "cache", "buffer"];
    const METHODS: &[&str] = &[
        "put",
        "put_batch",
        "try_put_batch",
        "multi_get",
        "scan_prefix_batch",
        "flush",
    ];
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(';') if depth <= 0 => return None,
            TokKind::Ident(s) => {
                if RECEIVERS.contains(&s.as_str()) {
                    return Some(s.clone());
                }
                if METHODS.contains(&s.as_str()) && j > 0 && toks[j - 1].is_punct('.') {
                    return Some(format!(".{s}()"));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}
