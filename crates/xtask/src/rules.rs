//! The audit rules.
//!
//! Every rule is a pure function over the lexed token stream (plus raw
//! source for the comment-marker rules) of one file. See DESIGN.md
//! §"Invariants & static analysis" for the rationale behind each rule.

use crate::lexer::{Tok, TokKind};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit unless allowlisted.
    Error,
    /// Reported for visibility; never fails the audit. Used by the
    /// heuristic indexing check, whose token-level detection cannot
    /// reach zero false positives without type information.
    Warning,
}

/// One rule finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule identifier (used in the allowlist).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Trimmed source line for context (and allowlist matching).
    pub snippet: String,
    /// Human explanation.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
    /// For call-graph rules: the `root -> ... -> site` path that makes
    /// the site reachable. Empty for single-site rules.
    pub chain: Vec<String>,
}

/// An indexed `// INVARIANT:` marker.
#[derive(Debug, Clone)]
pub struct InvariantMarker {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Marker text after `INVARIANT:`.
    pub text: String,
}

/// Which rule families apply to a file. Decided by
/// [`crate::workspace::classify`] from the file's location.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// R1: panic-free library code (`unwrap`/`expect`/`panic!`/
    /// `unreachable!`/`todo!`/`unimplemented!` banned outside tests).
    pub panic_free: bool,
    /// R2: no unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`).
    pub seeded_rng: bool,
    /// R3: no float-literal `==`/`!=` comparisons.
    pub float_eq: bool,
    /// R1b: heuristic indexing-without-`get` check.
    pub indexing: bool,
    /// R1b at error severity (`linalg`/`rtree`, where every index must
    /// be justified or allowlisted).
    pub indexing_strict: bool,
    /// R6: `as` casts to a narrower integer type.
    pub lossy_cast: bool,
    /// R7: public `Result`-returning fns must document `# Errors`.
    pub error_docs: bool,
    /// C3: atomic operations must name an explicit `Ordering` at the
    /// call site, and `Relaxed` requires an `// ORDERING:` comment.
    pub atomic_ordering: bool,
}

/// Trimmed text of `line` (1-based) — the violation context line.
pub fn snippet(source: &str, line: usize) -> String {
    source
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_owned()
}

/// Computes the token-index ranges covered by `#[cfg(test)]` /
/// `#[cfg(all(test, ...))]` / `#[test]` items: from the attribute to the
/// end of the item's brace block.
pub fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct && toks[i].text == "#" {
            if let Some(attr_end) = match_test_attribute(toks, i) {
                // Find the opening brace of the annotated item, skipping
                // further attributes and the item header.
                let mut j = attr_end;
                let mut found = None;
                while j < toks.len() {
                    if toks[j].kind == TokKind::Punct {
                        match toks[j].text.as_str() {
                            "{" => {
                                found = Some(j);
                                break;
                            }
                            // `#[cfg(test)] use foo;` or `mod tests;` —
                            // no block to skip.
                            ";" => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if let Some(open) = found {
                    let close = matching_brace(toks, open);
                    regions.push((i, close));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    regions
}

/// If a `#[cfg(test)]`-like or `#[test]` attribute starts at token `i`
/// (the `#`), returns the index one past its closing `]`.
fn match_test_attribute(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
        return None;
    }
    let close = matching_delim(toks, i + 1, "[", "]");
    let inner: Vec<&str> = toks[i + 2..close].iter().map(|t| t.text.as_str()).collect();
    let is_test_attr = match inner.as_slice() {
        ["test"] => true,
        ["cfg", "(", "test", ")"] => true,
        _ => {
            // #[cfg(all(test, ...))] and #[cfg(any(test, ...))]: treat as
            // test-only — over-approximating keeps the audit quiet on
            // genuinely test-gated code. (any(test, …) can also compile
            // into non-test builds; none exist in this workspace.)
            inner.len() > 4
                && inner[0] == "cfg"
                && matches!(inner.get(2), Some(&"all") | Some(&"any"))
                && inner.contains(&"test")
        }
    };
    if is_test_attr {
        Some(close + 1)
    } else {
        None
    }
}

fn matching_delim(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            if toks[j].text == open {
                depth += 1;
            } else if toks[j].text == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn matching_brace(toks: &[Tok], open_idx: usize) -> usize {
    matching_delim(toks, open_idx, "{", "}")
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// Integer types an `as` cast can truncate into (rule R6). `u128`/
/// `i128` can only widen from the types this codebase uses.
const NARROW_INT_TYPES: [&str; 10] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Collects identifiers that are heuristically in-bounds as indices
/// within one fn body: `for`-loop binding names and parameters of
/// closures passed to `from_fn` (the `Vector::from_fn(|i| a[i] + b[i])`
/// idiom, where the closure index ranges over the same `D`).
fn bounded_idents(toks: &[Tok], open: usize, close: usize) -> std::collections::BTreeSet<String> {
    let mut set = std::collections::BTreeSet::new();
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut i = open;
    while i < close {
        if toks[i].kind == TokKind::Ident && toks[i].text == "for" {
            // Binding idents up to `in` (covers `for (i, x) in ...`).
            let mut j = i + 1;
            while j < close && text(j) != "in" && text(j) != "{" {
                if toks[j].kind == TokKind::Ident {
                    set.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
        } else if toks[i].kind == TokKind::Ident
            && toks[i].text == "from_fn"
            && text(i + 1) == "("
            && text(i + 2) == "|"
        {
            let mut j = i + 3;
            while j < close && text(j) != "|" {
                if toks[j].kind == TokKind::Ident {
                    set.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
        } else if text(i) == "("
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::IntLit)
            && matches!(text(i + 2), ".." | "..=")
        {
            // `(0..D).all(|i| ...)` — an adapter over a literal-start
            // range: the closure parameter is as bounded as a `for`
            // counter over the same range.
            let close_paren = matching_delim(toks, i, "(", ")");
            if text(close_paren + 1) == "."
                && text(close_paren + 3) == "("
                && text(close_paren + 4) == "|"
            {
                let mut j = close_paren + 5;
                while j < close && text(j) != "|" {
                    if toks[j].kind == TokKind::Ident {
                        set.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    set
}

/// R1 + R1b + R2 + R3 + R6: token-stream rules over one file. The
/// parsed `analysis` scopes the indexing check to expression positions
/// (function bodies) and supplies the bounded-index exemptions.
pub fn check_tokens(
    path: &str,
    source: &str,
    toks: &[Tok],
    rules: RuleSet,
    analysis: &crate::parser::FileAnalysis,
    out: &mut Vec<Violation>,
) {
    let regions = test_regions(toks);
    // Per-fn body ranges with their bounded index idents, for R1b.
    let fn_bodies: Vec<((usize, usize), std::collections::BTreeSet<String>)> = analysis
        .fns
        .iter()
        .filter_map(|f| f.body)
        .map(|(a, b)| ((a, b), bounded_idents(toks, a, b)))
        .collect();
    for (i, tok) in toks.iter().enumerate() {
        let in_test = in_regions(&regions, i);
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);

        // R1: panic-family calls in library code.
        if rules.panic_free && !in_test && tok.kind == TokKind::Ident {
            let is_method = prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == ".");
            let is_macro = next.is_some_and(|x| x.kind == TokKind::Punct && x.text == "!");
            let flagged = match tok.text.as_str() {
                "unwrap" | "expect" => is_method,
                "panic" | "unreachable" | "todo" | "unimplemented" => is_macro,
                _ => false,
            };
            if flagged {
                out.push(Violation {
                    rule: "panic-free",
                    path: path.to_owned(),
                    line: tok.line,
                    snippet: snippet(source, tok.line),
                    message: format!(
                        "`{}` in library code — return `PrqError`/`Result` instead \
                         (hot-path code must not panic)",
                        tok.text
                    ),
                    severity: Severity::Error,
                    chain: Vec::new(),
                });
            }
        }

        // R1b (heuristic): indexing on an expression. Parser-scoped to
        // fn bodies, so attribute/type/pattern positions never fire.
        if rules.indexing
            && !in_test
            && tok.kind == TokKind::Punct
            && tok.text == "["
            && prev.is_some_and(|p| {
                (p.kind == TokKind::Ident
                    && !matches!(
                        p.text.as_str(),
                        // Keywords that legitimately precede `[`:
                        // slice patterns, array types/expressions.
                        "mut" | "ref" | "in" | "return" | "break" | "else" | "dyn" | "as"
                            | "let"
                    ))
                    || (p.kind == TokKind::Punct && (p.text == ")" || p.text == "]"))
            })
            // Full-range slicing `x[..]` cannot panic.
            && !next.is_some_and(|x| x.kind == TokKind::Punct && x.text == "..")
        {
            // Innermost enclosing fn body (nested fns have smaller
            // ranges); outside any body = type/const position, skip.
            let body = fn_bodies
                .iter()
                .filter(|((a, b), _)| i > *a && i < *b)
                .min_by_key(|((a, b), _)| b - a);
            if let Some((_, bounded)) = body {
                let close = matching_delim(toks, i, "[", "]");
                let index_toks = &toks[i + 1..close.min(toks.len())];
                let all_bounded = !index_toks.is_empty()
                    && index_toks.iter().any(|t| t.kind == TokKind::Ident)
                    && index_toks.iter().all(|t| match t.kind {
                        TokKind::Ident => bounded.contains(&t.text),
                        TokKind::Punct => matches!(t.text.as_str(), "," | "(" | ")"),
                        _ => false,
                    });
                if !all_bounded {
                    let severity = if rules.indexing_strict {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    out.push(Violation {
                        rule: "indexing",
                        path: path.to_owned(),
                        line: tok.line,
                        snippet: snippet(source, tok.line),
                        message: format!(
                            "possible panicking index — prefer `.get()`, a bounded \
                             loop counter, or allowlist with a bounds argument \
                             (heuristic{})",
                            if rules.indexing_strict {
                                ""
                            } else {
                                "; warning only"
                            }
                        ),
                        severity,
                        chain: Vec::new(),
                    });
                }
            }
        }

        // R6: `as` cast to a type that can truncate the value.
        if rules.lossy_cast
            && !in_test
            && tok.kind == TokKind::Ident
            && tok.text == "as"
            && next.is_some_and(|x| {
                x.kind == TokKind::Ident && NARROW_INT_TYPES.contains(&x.text.as_str())
            })
        {
            out.push(Violation {
                rule: "lossy-cast",
                path: path.to_owned(),
                line: tok.line,
                snippet: snippet(source, tok.line),
                message: format!(
                    "`as {}` can silently truncate — use `try_from` with an error \
                     path, or allowlist with an argument for why the value always \
                     fits",
                    next.map_or("", |x| x.text.as_str())
                ),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }

        // R2: unseeded RNG sources.
        if rules.seeded_rng
            && tok.kind == TokKind::Ident
            && matches!(
                tok.text.as_str(),
                "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng"
            )
        {
            out.push(Violation {
                rule: "unseeded-rng",
                path: path.to_owned(),
                line: tok.line,
                snippet: snippet(source, tok.line),
                message: format!(
                    "`{}` breaks reproducibility — derive every stream from an \
                     explicit seed (`StdRng::seed_from_u64`)",
                    tok.text
                ),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }

        // R3: float-literal equality.
        if rules.float_eq
            && !in_test
            && tok.kind == TokKind::Punct
            && (tok.text == "==" || tok.text == "!=")
            && (prev.is_some_and(|p| p.kind == TokKind::FloatLit)
                || next.is_some_and(|x| x.kind == TokKind::FloatLit))
        {
            out.push(Violation {
                rule: "float-eq",
                path: path.to_owned(),
                line: tok.line,
                snippet: snippet(source, tok.line),
                message: "direct float equality — use a tolerance helper, or allowlist \
                          with a justification if the exact comparison is intentional \
                          (e.g. an exact-zero boundary guard)"
                    .to_owned(),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }
    }
}

/// Which kind of crate root a file is (rule R4). Decided by
/// [`crate::workspace::crate_root`] from the file's location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateRoot {
    /// A library root (`src/lib.rs`).
    Lib,
    /// A binary root (`src/main.rs` or a file directly under `src/bin/`).
    Bin,
}

/// R4: every crate root forbids `unsafe` code, so the compiler rejects
/// every `unsafe` block, fn, impl and trait in audited code, and with
/// them every access to a mutable static. Library roots also warn on
/// undocumented items; binaries export no API.
pub fn check_crate_root(path: &str, source: &str, root: CrateRoot, out: &mut Vec<Violation>) {
    let attrs: &[&str] = match root {
        CrateRoot::Lib => &["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"],
        CrateRoot::Bin => &["#![forbid(unsafe_code)]"],
    };
    for attr in attrs {
        if !source.contains(attr) {
            out.push(Violation {
                rule: "crate-root-attrs",
                path: path.to_owned(),
                line: 1,
                snippet: String::new(),
                message: format!("crate root is missing `{attr}`"),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }
    }
}

/// Names of functions that implement conservative lookups and therefore
/// must carry an `// INVARIANT:` marker (rule R5). Matched within the
/// files listed in [`crate::workspace::INVARIANT_FILES`].
fn needs_invariant_marker(fn_name: &str) -> bool {
    fn_name.starts_with("lookup") || fn_name == "r_theta_exact"
}

/// R5a: collect `// INVARIANT:` markers from raw source.
pub fn collect_invariants(path: &str, source: &str, out: &mut Vec<InvariantMarker>) {
    for (idx, raw) in source.lines().enumerate() {
        if let Some(pos) = raw.find("// INVARIANT:") {
            out.push(InvariantMarker {
                path: path.to_owned(),
                line: idx + 1,
                text: raw[pos + "// INVARIANT:".len()..].trim().to_owned(),
            });
        }
    }
}

/// R5b: in conservative-lookup files, every lookup function must have a
/// marker within the `WINDOW` lines above its `fn` line.
pub fn check_invariant_markers(path: &str, source: &str, out: &mut Vec<Violation>) {
    const WINDOW: usize = 16;
    let lines: Vec<&str> = source.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        let Some(rest) = trimmed
            .strip_prefix("pub fn ")
            .or_else(|| trimmed.strip_prefix("fn "))
        else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !needs_invariant_marker(&name) {
            continue;
        }
        let start = idx.saturating_sub(WINDOW);
        let has_marker = lines[start..idx]
            .iter()
            .any(|l| l.contains("// INVARIANT:"));
        if !has_marker {
            out.push(Violation {
                rule: "invariant-marker",
                path: path.to_owned(),
                line: idx + 1,
                snippet: trimmed.trim_end().to_owned(),
                message: format!(
                    "conservative-lookup function `{name}` has no `// INVARIANT:` \
                     marker in the {WINDOW} lines above it — document why the \
                     returned bound never under-covers"
                ),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }
    }
}

/// R7 (per-file half): every public `Result`-returning function must
/// carry an `# Errors` doc section, so the failure contract is part of
/// the API surface. Trait methods and private helpers are exempt (the
/// contract belongs on the public inherent API).
pub fn check_error_docs(
    path: &str,
    source: &str,
    analysis: &crate::parser::FileAnalysis,
    out: &mut Vec<Violation>,
) {
    for f in &analysis.fns {
        if !f.is_pub || !f.returns_result || f.in_test || f.doc_has_errors {
            continue;
        }
        out.push(Violation {
            rule: "error-docs",
            path: path.to_owned(),
            line: f.line,
            snippet: snippet(source, f.line),
            message: format!(
                "public `Result`-returning fn `{}` has no `# Errors` doc \
                 section — document when and why it fails",
                f.qual_name()
            ),
            severity: Severity::Error,
            chain: Vec::new(),
        });
    }
}

/// Attachment window for `// ORDERING:` justification comments: the
/// comment must sit on the site's line or within this many lines above
/// it. Same width as the `// INVARIANT:` window.
const COMMENT_WINDOW: usize = 16;

/// Does `needle` occur on the site's line or within [`COMMENT_WINDOW`]
/// lines above it? (`line` is 1-based.)
fn has_comment_near(lines: &[&str], line: usize, needle: &str) -> bool {
    let idx = line.saturating_sub(1).min(lines.len().saturating_sub(1));
    let start = idx.saturating_sub(COMMENT_WINDOW);
    lines
        .get(start..=idx)
        .unwrap_or(&[])
        .iter()
        .any(|l| l.contains(needle))
}

/// Method names that are unambiguously atomic operations in this
/// workspace: every call must name an explicit `Ordering` in its
/// argument list.
const ATOMIC_METHODS: [&str; 13] = [
    "load",
    "store",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
];

/// The five memory-ordering variant names.
const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// C3 `atomic-ordering`: two checks in one pass.
///
/// * An atomic method call (`ATOMIC_METHODS`) whose argument list
///   names no `Ordering` variant forwards a variable ordering; the
///   ordering decision must be visible at the call site.
/// * `Relaxed` anywhere in the argument list requires an
///   `// ORDERING:` comment within the attachment window arguing why
///   no synchronization edge is needed.
///
/// `.swap(...)` is atomic only when an `Ordering` appears in its
/// arguments (`slice::swap(i, j)` shares the name); and a nested
/// atomic call inside another's argument list can satisfy the outer
/// call's ordering scan — a known token-level over-approximation, the
/// nested shape does not occur in first-party code.
pub fn check_atomic_ordering(path: &str, source: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let regions = test_regions(toks);
    let lines: Vec<&str> = source.lines().collect();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || in_regions(&regions, i) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        let is_method_call = prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == ".")
            && next.is_some_and(|x| x.kind == TokKind::Punct && x.text == "(");
        let maybe_atomic = ATOMIC_METHODS.contains(&tok.text.as_str()) || tok.text == "swap";
        if !is_method_call || !maybe_atomic {
            continue;
        }
        let close = matching_delim(toks, i + 1, "(", ")");
        let orderings: Vec<&str> = toks[i + 2..close.min(toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && ORDERING_NAMES.contains(&t.text.as_str()))
            .map(|t| t.text.as_str())
            .collect();
        if tok.text == "swap" && orderings.is_empty() {
            // `slice::swap(i, j)` etc. — not an atomic op.
            continue;
        }
        if orderings.is_empty() {
            out.push(Violation {
                rule: "atomic-ordering",
                path: path.to_owned(),
                line: tok.line,
                snippet: snippet(source, tok.line),
                message: format!(
                    "atomic `.{}(..)` names no explicit `Ordering` — the memory \
                     ordering is a correctness decision that must be visible at \
                     the call site, not forwarded through a variable",
                    tok.text
                ),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        } else if orderings.contains(&"Relaxed")
            && !has_comment_near(&lines, tok.line, "// ORDERING:")
        {
            out.push(Violation {
                rule: "atomic-ordering",
                path: path.to_owned(),
                line: tok.line,
                snippet: snippet(source, tok.line),
                message: format!(
                    "`Ordering::Relaxed` on `.{}(..)` without an `// ORDERING:` \
                     comment within the {COMMENT_WINDOW} lines above — argue why \
                     no happens-before edge is needed (or which fence provides it)",
                    tok.text
                ),
                severity: Severity::Error,
                chain: Vec::new(),
            });
        }
    }
}
