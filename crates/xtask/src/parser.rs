//! A recursive-descent item parser over the lexed token stream.
//!
//! PR 1's auditor pattern-matched flat token windows, which cannot see
//! *through* a function boundary: a panic hidden behind a helper call, or
//! an allocation two calls below a hot loop, was invisible. This module
//! recovers enough syntactic structure for the call-graph rules of
//! [`crate::callgraph`]:
//!
//! * items — `fn` (free, impl, trait-default, nested), `impl` blocks with
//!   their self type, `trait`/`mod` scopes, `enum` variants;
//! * per-function facts — visibility, `self` parameter, `&mut` reference
//!   parameters (the buffer-reuse exemption of the `hot-path-alloc`
//!   rule), whether the return type mentions `Result`, body token range;
//! * per-function *call sites* — free calls, `Path::calls` (with one
//!   qualifying segment), `.method(...)` calls (with the receiver ident
//!   when it is simple), and `macro!` invocations;
//! * doc facts from the raw source — `# Errors` / `# Panics` sections and
//!   the `// HOT-PATH:` marker convention (mirroring `// INVARIANT:`).
//!
//! Still no `syn` in the offline build environment, so the parser is
//! hand-rolled and *forgiving*: unknown constructs are skipped token by
//! token, and a file the parser cannot make sense of degrades to "no
//! items found" rather than an error — the auditor must never fail on
//! user source.

use crate::lexer::{Tok, TokKind};

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (first identifier of the pattern).
    pub name: String,
    /// `true` when the parameter type starts with `&mut` — the
    /// caller-owned-buffer shape the `hot-path-alloc` rule exempts.
    pub by_mut_ref: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — unqualified.
    Free,
    /// `Qual::foo(...)` — one qualifying segment retained.
    Path,
    /// `recv.foo(...)`.
    Method,
    /// `foo!(...)` — macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment / method name / macro name).
    pub name: String,
    /// Qualifying segment for [`CallKind::Path`] calls (`Vec` in
    /// `Vec::new`), if present.
    pub qual: Option<String>,
    /// Receiver identifier for [`CallKind::Method`] calls when the
    /// receiver is a plain identifier or field (`out` in `out.push(x)`
    /// and in `self.out.push(x)`).
    pub receiver: Option<String>,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
    /// Token-index range of the argument list `( ... )` (inclusive
    /// delimiters), when the call has one. Macros keep the range of
    /// their delimiter group regardless of delimiter style.
    pub args_range: Option<(usize, usize)>,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self type or `trait` name, when any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared with `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Lexically inside a `#[cfg(test)]` region or `#[test]` item.
    pub in_test: bool,
    /// Takes a `self` parameter (method).
    pub has_self: bool,
    /// Return type mentions `Result`.
    pub returns_result: bool,
    /// Parameters, in order (excluding `self`).
    pub params: Vec<Param>,
    /// Token-index range of the body `{ ... }` (inclusive braces), when
    /// the function has one.
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
    /// Doc block above the item contains an `# Errors` section.
    pub doc_has_errors: bool,
    /// Doc block above the item contains a `# Panics` section.
    pub doc_has_panics: bool,
    /// Text of a `// HOT-PATH:` marker attached above the item, if any.
    pub hot_marker: Option<String>,
}

/// One parsed `enum` item (only what the `error-docs` rule needs).
#[derive(Debug, Clone)]
pub struct EnumInfo {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names in declaration order, with their 1-based lines.
    pub variants: Vec<(String, usize)>,
}

/// An indexed `// HOT-PATH:` marker (mirrors `InvariantMarker`).
#[derive(Debug, Clone)]
pub struct HotPathMarker {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Marker text after `HOT-PATH:`.
    pub text: String,
    /// Qualified name of the function the marker attaches to (the next
    /// `fn` within the attachment window), if any.
    pub attached_fn: Option<String>,
}

/// One `Qual::name` reference anywhere in a file (the `error-docs`
/// variant-construction check consumes these).
#[derive(Debug, Clone)]
pub struct QualRef {
    /// Qualifying segment (`PrqError` in `PrqError::InvalidTheta`).
    pub qual: String,
    /// Referenced name.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Inside a `#[cfg(test)]` region or `#[test]` item.
    pub in_test: bool,
    /// Heuristically in pattern position (match arm / `let` binding)
    /// rather than construction position.
    pub is_pattern: bool,
}

/// Everything the parser recovers from one file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// All function items, including nested and test functions.
    pub fns: Vec<FnInfo>,
    /// All enum items.
    pub enums: Vec<EnumInfo>,
    /// All `// HOT-PATH:` markers.
    pub hot_markers: Vec<HotPathMarker>,
    /// All `Qual::name` references.
    pub qual_refs: Vec<QualRef>,
}

impl FnInfo {
    /// `Qual::name` when a qualifier exists, else the bare name.
    pub fn qual_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "dyn", "impl", "where", "unsafe", "box", "await",
];

/// Parses one file. `path` is recorded into every item; `source` is the
/// raw text (for doc/marker line scans); `toks` its lexed form.
pub fn parse_file(path: &str, source: &str, toks: &[Tok]) -> FileAnalysis {
    let lines: Vec<&str> = source.lines().collect();
    let test_regions = crate::rules::test_regions(toks);
    let mut out = FileAnalysis::default();
    let mut p = Parser {
        path,
        toks,
        lines: &lines,
        test_regions: &test_regions,
        out: &mut out,
    };
    p.items(0, toks.len(), None, false);
    attach_hot_markers(path, &lines, &mut out);
    collect_qual_refs(toks, &test_regions, &mut out.qual_refs);
    out
}

/// Collects every `// HOT-PATH:` line, attaches each to the first `fn`
/// in the parsed set that starts within the window below it, and marks
/// that function as a hot root. The window-based attachment (not
/// doc-block contiguity) is authoritative, mirroring `// INVARIANT:`.
fn attach_hot_markers(path: &str, lines: &[&str], out: &mut FileAnalysis) {
    /// A marker must sit within this many lines above its function
    /// (same window as the `// INVARIANT:` rule).
    const WINDOW: usize = 16;
    for (idx, raw) in lines.iter().enumerate() {
        let Some(pos) = raw.find("// HOT-PATH:") else {
            continue;
        };
        let line = idx + 1;
        let text = raw[pos + "// HOT-PATH:".len()..].trim().to_owned();
        let attached = out
            .fns
            .iter_mut()
            .filter(|f| f.line > line && f.line <= line + WINDOW)
            .min_by_key(|f| f.line);
        let attached_fn = attached.map(|f| {
            if f.hot_marker.is_none() {
                f.hot_marker = Some(text.clone());
            }
            f.qual_name()
        });
        out.hot_markers.push(HotPathMarker {
            path: path.to_owned(),
            line,
            text,
            attached_fn,
        });
    }
}

/// Scans the whole token stream for `Ident :: Ident` references,
/// classifying pattern vs. construction position heuristically: the
/// token after the reference (skipping one balanced payload group) is
/// `=>` or `|`, or the reference follows a `let`, in pattern position.
fn collect_qual_refs(toks: &[Tok], test_regions: &[(usize, usize)], out: &mut Vec<QualRef>) {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || text(i + 1) != "::"
            || toks.get(i + 2).map_or(true, |t| t.kind != TokKind::Ident)
        {
            continue;
        }
        // Skip the middle of longer paths (`a::b::c` records only `b::c`).
        if i >= 2 && text(i - 1) == "::" {
            continue;
        }
        let name_idx = i + 2;
        // Position after the reference and one optional payload group.
        let mut after = name_idx + 1;
        if text(after) == "(" || text(after) == "{" {
            let (open, close) = if text(after) == "(" {
                ("(", ")")
            } else {
                ("{", "}")
            };
            let mut depth = 0usize;
            while after < toks.len() {
                if text(after) == open {
                    depth += 1;
                } else if text(after) == close {
                    depth -= 1;
                    if depth == 0 {
                        after += 1;
                        break;
                    }
                }
                after += 1;
            }
        }
        let is_pattern = matches!(text(after), "=>" | "|") || (i >= 1 && text(i - 1) == "let");
        let in_test = test_regions.iter().any(|&(a, b)| i >= a && i <= b);
        out.push(QualRef {
            qual: toks[i].text.clone(),
            name: toks[name_idx].text.clone(),
            line: toks[name_idx].line,
            in_test,
            is_pattern,
        });
    }
}

struct Parser<'a> {
    path: &'a str,
    toks: &'a [Tok],
    lines: &'a [&'a str],
    test_regions: &'a [(usize, usize)],
    out: &'a mut FileAnalysis,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// Index of the token after the matching close of the delimiter
    /// opening at `i` (`{`/`(`/`[`). Returns `end` if unbalanced.
    fn skip_delim(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skips a generic parameter list starting at the `<` at `i`;
    /// returns the index after the matching `>`. Angle depth ignores
    /// `->` / `=>` (distinct tokens in the lexer).
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0isize;
        let mut j = i;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                // A shift such as `1 << 2` never appears in the generic
                // positions we skip from; treat `<=`/`>=` as opaque.
                ";" | "{" => return j, // bail out: malformed generics
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Parses items in `[start, end)`, with `qual` the enclosing
    /// `impl`/`trait` name and `in_trait_or_impl` controlling whether a
    /// bare `fn` belongs to that scope.
    fn items(&mut self, start: usize, end: usize, qual: Option<&str>, in_trait_or_impl: bool) {
        let mut i = start;
        let mut pending_pub = false;
        while i < end {
            let t = self.text(i);
            match t {
                "#" if self.text(i + 1) == "[" => {
                    i = self.skip_delim(i + 1, end, "[", "]");
                }
                "pub" => {
                    pending_pub = true;
                    i += 1;
                    // `pub(crate)` / `pub(in path)`.
                    if self.text(i) == "(" {
                        i = self.skip_delim(i, end, "(", ")");
                    }
                }
                // `unsafe` is a modifier of the next `fn` / `impl` /
                // `trait` item, stepped over like `pub`, or opens an
                // `unsafe { }` block in statement position — consumed
                // here so the block is not mistaken for an item body.
                // Crate roots forbid `unsafe` code, but test targets may
                // still contain it.
                "unsafe" => {
                    i += 1;
                    if self.text(i) == "{" {
                        // An `unsafe { ... }` block: its contents are
                        // scanned for nested items like any other range.
                        let close = self.skip_delim(i, end, "{", "}");
                        self.items(i + 1, close.saturating_sub(1), qual, false);
                        i = close;
                    }
                }
                // Other modifiers that may precede `fn`.
                "const" | "async" | "extern" | "default" => {
                    i += 1;
                    // `extern "C"` — the ABI string literal.
                    if self.toks.get(i).is_some_and(|x| x.kind == TokKind::StrLit) {
                        i += 1;
                    }
                    // A `const NAME: ...;` item rather than `const fn`.
                    if t == "const" && !self.is_ident(i, "fn") {
                        i = self.skip_to_semi_or_block(i, end);
                        pending_pub = false;
                    }
                }
                "fn" => {
                    i = self.parse_fn(i, end, qual, in_trait_or_impl, pending_pub);
                    pending_pub = false;
                }
                "impl" => {
                    i = self.parse_impl(i, end);
                    pending_pub = false;
                }
                "trait" => {
                    let name = self.text(i + 1).to_owned();
                    i = self.parse_braced_scope(i + 2, end, Some(&name));
                    pending_pub = false;
                }
                "mod" => {
                    // `mod name;` or `mod name { ... }`.
                    let mut j = i + 2;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.skip_delim(j, end, "{", "}");
                        self.items(j + 1, close.saturating_sub(1), None, false);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                    pending_pub = false;
                }
                "enum" => {
                    i = self.parse_enum(i, end, pending_pub);
                    pending_pub = false;
                }
                "struct" | "union" | "use" | "static" | "type" | "macro_rules" => {
                    i = self.skip_to_semi_or_block(i + 1, end);
                    pending_pub = false;
                }
                _ => {
                    i += 1;
                    pending_pub = false;
                }
            }
        }
    }

    /// From `i`, advances past the next `;` at depth 0 or past a `{...}`
    /// block, whichever comes first (item tail skipping).
    fn skip_to_semi_or_block(&self, i: usize, end: usize) -> usize {
        let mut j = i;
        while j < end {
            match self.text(j) {
                ";" => return j + 1,
                "{" => return self.skip_delim(j, end, "{", "}"),
                "(" => j = self.skip_delim(j, end, "(", ")"),
                "[" => j = self.skip_delim(j, end, "[", "]"),
                _ => j += 1,
            }
        }
        end
    }

    /// Parses `impl<G> Type { ... }` / `impl<G> Trait for Type { ... }`,
    /// returning the index after the block. Methods are qualified by the
    /// self type.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        // Scan the header for `for` at angle-depth 0 and remember the
        // first identifier after it (the self type); otherwise the first
        // identifier of the header.
        let mut self_ty: Option<String> = None;
        let mut first_ident: Option<String> = None;
        let mut after_for = false;
        let mut depth = 0isize;
        while j < end {
            let t = self.text(j);
            match t {
                "{" | ";" => break,
                "<" => depth += 1,
                ">" => depth -= 1,
                "for" if depth == 0 => after_for = true,
                _ => {
                    if self.toks[j].kind == TokKind::Ident && !matches!(t, "dyn" | "mut") {
                        if after_for && self_ty.is_none() {
                            self_ty = Some(t.to_owned());
                        }
                        if first_ident.is_none() {
                            first_ident = Some(t.to_owned());
                        }
                        // Skip the rest of a path segment so `where`
                        // clauses' type paths don't overwrite anything.
                    }
                }
            }
            j += 1;
        }
        // With a `for` clause the identifier after `for` is the self
        // type; without one (an inherent impl) the first identifier is.
        let qual = self_ty.or(first_ident);
        if self.text(j) == "{" {
            let close = self.skip_delim(j, end, "{", "}");
            self.items(j + 1, close.saturating_sub(1), qual.as_deref(), true);
            close
        } else {
            j + 1
        }
    }

    /// Parses a `trait Name { ... }` scope at the token after the name.
    fn parse_braced_scope(&mut self, i: usize, end: usize, qual: Option<&str>) -> usize {
        let mut j = i;
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            if self.text(j) == "<" {
                j = self.skip_angles(j, end);
            } else {
                j += 1;
            }
        }
        if self.text(j) == "{" {
            let close = self.skip_delim(j, end, "{", "}");
            self.items(j + 1, close.saturating_sub(1), qual, true);
            close
        } else {
            j + 1
        }
    }

    /// Parses `enum Name<G> { Variant, Variant(..), Variant{..} }`.
    fn parse_enum(&mut self, i: usize, end: usize, _is_pub: bool) -> usize {
        let name = self.text(i + 1).to_owned();
        let line = self.toks.get(i).map_or(0, |t| t.line);
        let mut j = i + 2;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1;
        }
        let close_after = self.skip_delim(j, end, "{", "}");
        let body_end = close_after.saturating_sub(1);
        let mut variants = Vec::new();
        let mut k = j + 1;
        let mut expect_variant = true;
        while k < body_end {
            match self.text(k) {
                "#" if self.text(k + 1) == "[" => {
                    k = self.skip_delim(k + 1, body_end, "[", "]");
                }
                "(" => k = self.skip_delim(k, body_end, "(", ")"),
                "{" => k = self.skip_delim(k, body_end, "{", "}"),
                "," => {
                    expect_variant = true;
                    k += 1;
                }
                "=" => {
                    // Discriminant: skip to comma.
                    while k < body_end && self.text(k) != "," {
                        k += 1;
                    }
                }
                _ => {
                    if expect_variant && self.toks[k].kind == TokKind::Ident {
                        variants.push((self.text(k).to_owned(), self.toks[k].line));
                        expect_variant = false;
                    }
                    k += 1;
                }
            }
        }
        self.out.enums.push(EnumInfo {
            path: self.path.to_owned(),
            name,
            line,
            variants,
        });
        close_after
    }

    /// Parses a `fn` item whose `fn` keyword sits at `i`; returns the
    /// index after the item (past the body or the `;`).
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        qual: Option<&str>,
        _in_scope: bool,
        is_pub: bool,
    ) -> usize {
        let name_idx = i + 1;
        if self
            .toks
            .get(name_idx)
            .map_or(true, |t| t.kind != TokKind::Ident)
        {
            // `fn(...)` pointer type or malformed — not an item.
            return i + 1;
        }
        let name = self.text(name_idx).to_owned();
        let line = self.toks[i].line;
        let mut j = name_idx + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        // Parameter list.
        let mut params = Vec::new();
        let mut has_self = false;
        if self.text(j) == "(" {
            let close_after = self.skip_delim(j, end, "(", ")");
            let params_end = close_after.saturating_sub(1);
            self.parse_params(j + 1, params_end, &mut params, &mut has_self);
            j = close_after;
        }
        // Return type.
        let mut returns_result = false;
        if self.text(j) == "->" {
            j += 1;
            let mut depth = 0isize;
            while j < end {
                let t = self.text(j);
                match t {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "{" | ";" if depth <= 0 => break,
                    "where" if depth <= 0 => break,
                    _ => {
                        if self.toks[j].kind == TokKind::Ident && t == "Result" {
                            returns_result = true;
                        }
                    }
                }
                j += 1;
            }
        }
        // Where clause.
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        // Body.
        let (body, after) = if self.text(j) == "{" {
            let close_after = self.skip_delim(j, end, "{", "}");
            (Some((j, close_after.saturating_sub(1))), close_after)
        } else {
            (None, j + 1)
        };
        let mut calls = Vec::new();
        if let Some((open, close)) = body {
            self.collect_calls(open + 1, close, &mut calls);
            // Nested items (closures need no recursion — their calls are
            // part of this body; nested `fn` items are parsed as their
            // own functions *and* their calls excluded from this one).
            self.parse_nested_fns(open + 1, close, qual);
        }
        let (doc_has_errors, doc_has_panics) = self.doc_facts(line);
        self.out.fns.push(FnInfo {
            path: self.path.to_owned(),
            name,
            qual: qual.map(str::to_owned),
            line,
            is_pub,
            in_test: self.in_test(i),
            has_self,
            returns_result,
            params,
            body,
            calls,
            doc_has_errors,
            doc_has_panics,
            // Filled in by `attach_hot_markers` after item parsing.
            hot_marker: None,
        });
        after
    }

    /// Recursively parses `fn` items nested inside a body range.
    fn parse_nested_fns(&mut self, start: usize, end: usize, qual: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.is_ident(i, "fn")
                && self
                    .toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident)
            {
                i = self.parse_fn(i, end, qual, false, false);
            } else {
                i += 1;
            }
        }
    }

    /// Splits a parameter list token range into [`Param`]s.
    fn parse_params(&self, start: usize, end: usize, params: &mut Vec<Param>, has_self: &mut bool) {
        let mut i = start;
        while i < end {
            // One parameter: up to a comma at depth 0.
            let mut j = i;
            let mut depth = 0isize;
            while j < end {
                match self.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            // Inspect the parameter tokens [i, j).
            let slice: Vec<&str> = (i..j).map(|k| self.text(k)).collect();
            if slice.contains(&"self") {
                *has_self = true;
            } else if !slice.is_empty() {
                // Binding name: first identifier before the top-level
                // `:` (skipping `mut`); `_` patterns produce no param.
                let colon = slice.iter().position(|t| *t == ":");
                let head = &slice[..colon.unwrap_or(slice.len())];
                let name = head
                    .iter()
                    .find(|t| {
                        !matches!(**t, "mut" | "ref" | "&" | "(" | ")")
                            && t.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                    })
                    .copied()
                    .unwrap_or("")
                    .to_owned();
                let by_mut_ref = colon.is_some_and(|c| {
                    slice.get(c + 1) == Some(&"&")
                        && (slice.get(c + 2) == Some(&"mut")
                            // `&'a mut T`
                            || slice.get(c + 3) == Some(&"mut"))
                });
                if !name.is_empty() && name != "_" {
                    params.push(Param { name, by_mut_ref });
                }
            }
            i = j + 1;
        }
    }

    /// Collects call sites in a body token range. Nested `fn` item
    /// bodies are excluded (their calls belong to the nested item).
    fn collect_calls(&self, start: usize, end: usize, out: &mut Vec<Call>) {
        let mut i = start;
        while i < end {
            // Exclude nested fn items.
            if self.is_ident(i, "fn")
                && self
                    .toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident)
            {
                // Skip to past the nested body.
                let mut j = i;
                while j < end && self.text(j) != "{" && self.text(j) != ";" {
                    j += 1;
                }
                i = if self.text(j) == "{" {
                    self.skip_delim(j, end, "{", "}")
                } else {
                    j + 1
                };
                continue;
            }
            let tok = &self.toks[i];
            if tok.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
                let prev = i.checked_sub(1).map(|p| self.text(p)).unwrap_or("");
                // Position after an optional turbofish.
                let mut after = i + 1;
                if self.text(after) == "::" && self.text(after + 1) == "<" {
                    after = self.skip_angles(after + 1, end);
                }
                let next = self.text(after);
                if next == "!" && self.text(after + 1) != "=" {
                    let args_range = match self.text(after + 1) {
                        "(" => Some((after + 1, self.skip_delim(after + 1, end, "(", ")"))),
                        "[" => Some((after + 1, self.skip_delim(after + 1, end, "[", "]"))),
                        "{" => Some((after + 1, self.skip_delim(after + 1, end, "{", "}"))),
                        _ => None,
                    }
                    .map(|(lo, past)| (lo, past.saturating_sub(1)));
                    out.push(Call {
                        name: tok.text.clone(),
                        qual: None,
                        receiver: None,
                        kind: CallKind::Macro,
                        line: tok.line,
                        args_range,
                    });
                } else if next == "(" {
                    let close = self.skip_delim(after, end, "(", ")").saturating_sub(1);
                    let args_range = Some((after, close));
                    if prev == "." {
                        let receiver = i
                            .checked_sub(2)
                            .map(|r| &self.toks[r])
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                        out.push(Call {
                            name: tok.text.clone(),
                            qual: None,
                            receiver,
                            kind: CallKind::Method,
                            line: tok.line,
                            args_range,
                        });
                    } else if prev == "::" {
                        let qual = i
                            .checked_sub(2)
                            .map(|q| &self.toks[q])
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                        out.push(Call {
                            name: tok.text.clone(),
                            qual,
                            receiver: None,
                            kind: CallKind::Path,
                            line: tok.line,
                            args_range,
                        });
                    } else {
                        out.push(Call {
                            name: tok.text.clone(),
                            qual: None,
                            receiver: None,
                            kind: CallKind::Free,
                            line: tok.line,
                            args_range,
                        });
                    }
                }
            }
            i += 1;
        }
    }

    /// Scans the contiguous doc/attribute block above `fn_line` for
    /// `# Errors` and `# Panics` sections. (`// HOT-PATH:` attachment is
    /// handled window-based by [`attach_hot_markers`].)
    fn doc_facts(&self, fn_line: usize) -> (bool, bool) {
        let mut has_errors = false;
        let mut has_panics = false;
        // 0-based index of the line above the `fn` line.
        let mut idx = fn_line.saturating_sub(1);
        while idx > 0 {
            idx -= 1;
            let line = self.lines.get(idx).map_or("", |l| l.trim_start());
            let is_block_line = line.starts_with("///")
                || line.starts_with("//")
                || line.starts_with("#[")
                || line.starts_with("#!")
                // Continuation lines of a multi-line attribute.
                || line.starts_with(')');
            if !is_block_line {
                break;
            }
            if line.starts_with("///") {
                let doc = line.trim_start_matches('/').trim();
                if doc.starts_with("# Errors") {
                    has_errors = true;
                }
                if doc.starts_with("# Panics") {
                    has_panics = true;
                }
            }
        }
        (has_errors, has_panics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileAnalysis {
        parse_file("test.rs", src, &lex(src))
    }

    #[test]
    fn free_fn_and_method_are_recovered() {
        let a = parse(
            "pub fn alpha(x: f64) -> Result<f64, E> { beta(x) }\n\
             fn beta(y: f64) -> f64 { y }\n\
             impl Gamma { pub fn delta(&self, v: &mut Vec<u8>) { v.push(1); } }",
        );
        assert_eq!(a.fns.len(), 3);
        let alpha = &a.fns[0];
        assert!(alpha.is_pub && alpha.returns_result && !alpha.has_self);
        assert_eq!(alpha.calls.len(), 1);
        assert_eq!(alpha.calls[0].name, "beta");
        assert_eq!(alpha.calls[0].kind, CallKind::Free);
        let delta = &a.fns[2];
        assert_eq!(delta.qual.as_deref(), Some("Gamma"));
        assert!(delta.has_self);
        assert_eq!(delta.params.len(), 1);
        assert!(delta.params[0].by_mut_ref);
        assert_eq!(delta.params[0].name, "v");
        let push = &delta.calls[0];
        assert_eq!(push.kind, CallKind::Method);
        assert_eq!(push.receiver.as_deref(), Some("v"));
    }

    #[test]
    fn trait_impl_uses_self_type_not_trait_name() {
        let a = parse("impl<const D: usize> Evaluator<D> for Mc { fn go(&mut self) {} }");
        assert_eq!(a.fns[0].qual.as_deref(), Some("Mc"));
    }

    #[test]
    fn path_calls_and_turbofish() {
        let a = parse(
            "fn f() { let v = Vec::new(); let w: Vec<u8> = x.iter().collect::<Vec<_>>(); \
             crate::theta_region::r_theta_exact::<D>(0.1); }",
        );
        let calls = &a.fns[0].calls;
        let vec_new = calls.iter().find(|c| c.name == "new").unwrap();
        assert_eq!(vec_new.qual.as_deref(), Some("Vec"));
        assert_eq!(vec_new.kind, CallKind::Path);
        let collect = calls.iter().find(|c| c.name == "collect").unwrap();
        assert_eq!(collect.kind, CallKind::Method);
        let rte = calls.iter().find(|c| c.name == "r_theta_exact").unwrap();
        assert_eq!(rte.qual.as_deref(), Some("theta_region"));
    }

    #[test]
    fn macros_are_calls_but_neq_is_not() {
        let a = parse("fn f() { vec![1]; format!(\"x\"); if a != b {} }");
        let names: Vec<&str> = a.fns[0]
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Macro)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["vec", "format"]);
    }

    #[test]
    fn test_fns_are_marked() {
        let a =
            parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib(); }\n}");
        assert!(!a.fns[0].in_test);
        let t = a.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
    }

    #[test]
    fn doc_sections_and_hot_markers() {
        let a = parse(
            "/// Does things.\n///\n/// # Errors\n///\n/// Fails when unlucky.\n\
             pub fn fallible() -> Result<(), E> { Ok(()) }\n\
             /// # Panics\npub fn angry() { }\n\
             // HOT-PATH: per-candidate predicate\nfn hot(p: f64) -> bool { p > 0.0 }\n\
             // HOT-PATH: dangling marker\nstruct NotAFn;",
        );
        let fallible = a.fns.iter().find(|f| f.name == "fallible").unwrap();
        assert!(fallible.doc_has_errors && !fallible.doc_has_panics);
        let angry = a.fns.iter().find(|f| f.name == "angry").unwrap();
        assert!(angry.doc_has_panics);
        let hot = a.fns.iter().find(|f| f.name == "hot").unwrap();
        assert_eq!(hot.hot_marker.as_deref(), Some("per-candidate predicate"));
        assert_eq!(a.hot_markers.len(), 2);
        assert_eq!(a.hot_markers[0].attached_fn.as_deref(), Some("hot"));
        assert_eq!(a.hot_markers[1].attached_fn, None, "marker on a struct");
    }

    #[test]
    fn enums_with_payloads() {
        let a = parse("pub enum PrqError { InvalidTheta(f64), NoPrimaryStrategy, Bad { x: u8 }, }");
        assert_eq!(a.enums.len(), 1);
        let names: Vec<&str> = a.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["InvalidTheta", "NoPrimaryStrategy", "Bad"]);
    }

    #[test]
    fn nested_fn_calls_stay_with_the_nested_item() {
        let a = parse("fn outer() { fn inner() { helper(); } inner(); }");
        let outer = a.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = a.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "inner");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "helper");
    }

    #[test]
    fn const_fn_and_where_clauses() {
        let a = parse(
            "pub const fn square(x: f64) -> f64 { x * x }\n\
             fn generic<T>(t: T) -> Result<T, E> where T: Clone { Ok(t) }",
        );
        assert_eq!(a.fns.len(), 2);
        assert!(a.fns[0].is_pub);
        assert!(a.fns[1].returns_result);
    }

    #[test]
    fn degenerate_input_is_silent() {
        let a = parse("fn (((( ]] impl enum {{{");
        // Must not panic; item recovery may be empty.
        assert!(a.enums.len() <= 1);
    }

    #[test]
    fn unsafe_modifiers_and_blocks_still_parse() {
        let a = parse(
            "pub unsafe fn raw() {}\n\
             unsafe extern \"C\" fn callback(x: u64) -> u64 { x }\n\
             unsafe impl Send for Cell { fn plain(&self) {} }\n\
             fn outer() { unsafe { unsafe { work(); } } }",
        );
        let names: Vec<String> = a.fns.iter().map(FnInfo::qual_name).collect();
        assert_eq!(names, ["raw", "callback", "Cell::plain", "outer"]);
        assert!(a.fns[0].is_pub && !a.fns[1].is_pub);
        let calls: Vec<&str> = a.fns[3].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["work"], "calls inside nested `unsafe {{ }}` blocks");
    }

    #[test]
    fn call_args_ranges_cover_the_argument_lists() {
        let a = parse("fn f() { g(1, h(2)); v.push(3); }");
        let f = &a.fns[0];
        let g = f.calls.iter().find(|c| c.name == "g").unwrap();
        let (lo, hi) = g.args_range.unwrap();
        // The range is inclusive of the parens and covers the nested call.
        let h = f.calls.iter().find(|c| c.name == "h").unwrap();
        let (hlo, hhi) = h.args_range.unwrap();
        assert!(lo < hlo && hhi < hi, "nested call inside outer args");
        let push = f.calls.iter().find(|c| c.name == "push").unwrap();
        assert!(push.args_range.is_some());
    }
}
