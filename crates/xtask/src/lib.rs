//! # xtask — the workspace invariant auditor
//!
//! The paper's filtering strategies (RR/OR/BF, §IV) are only correct if
//! every filter is *strictly conservative*: a pruned object must
//! provably have `Pr < θ`. The codebase encodes that contract — and the
//! panic/determinism hygiene the production pipeline depends on — in
//! conventions that a reviewer cannot re-verify on every diff. This
//! crate machine-checks them:
//!
//! | rule id             | what it enforces |
//! |---------------------|------------------|
//! | `panic-free`        | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in library code of `linalg`, `gaussian`, `rtree`, `core` outside `#[cfg(test)]` |
//! | `indexing`          | (warning) heuristic `expr[...]` detection in the same crates — prefer `.get()` |
//! | `unseeded-rng`      | no `thread_rng`/`from_entropy`/`OsRng` outside `crates/bench` |
//! | `float-eq`          | no `==`/`!=` against float literals outside tests/allowlist |
//! | `crate-root-attrs`  | every crate root, library or binary, has `#![forbid(unsafe_code)]`; library roots also `#![warn(missing_docs)]` |
//! | `invariant-marker`  | conservative-lookup functions carry `// INVARIANT:` markers, indexed into the report |
//! | `stale-allowlist`   | allowlist entries that no longer match anything fail the audit |
//! | `hot-path-alloc`    | no allocation site transitively reachable from a `// HOT-PATH:` root (call graph) |
//! | `panic-reachability`| no panic-family site transitively reachable from a public entry point, unless the containing fn documents `# Panics` (call graph) |
//! | `lossy-cast`        | no `as` cast to a narrower integer type in `linalg`/`gaussian`/`core` |
//! | `error-docs`        | public `Result`-returning fns document `# Errors`; every `PrqError` variant is constructed outside tests |
//! | `atomic-ordering`   | atomic ops name an explicit `Ordering` at the call site, `Relaxed` carries an `// ORDERING:` comment |
//! | `hot-path-lock`     | no blocking `Mutex`/`RwLock` acquisition transitively reachable from a `// HOT-PATH:` root (call graph) |
//! | `lock-order`        | held-then-acquire edges between lock classes admit no cycle — deadlock freedom by a single global acquisition order (lock graph) |
//!
//! Run locally with `cargo xtask audit`; see DESIGN.md §"Invariants &
//! static analysis" and §13 (lock order and the parallel audit) for the
//! allowlist policy, the `// HOT-PATH:` marker convention, and the
//! call-graph resolution rules. `cargo xtask markers` prints (or,
//! with `--check`, verifies) the committed marker-index snapshot
//! `audit-markers.txt`.
//!
//! The build environment is offline (no `syn`), so the auditor uses its
//! own minimal lexer ([`lexer`]) and a hand-rolled item parser
//! ([`parser`]) feeding a name-resolved call graph ([`callgraph`]).
//! The trade-off is documented per rule; fixture self-tests under
//! `tests/fixtures/` pin the expected behavior of each rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod workspace;

use callgraph::{Analysis, Sources};
use parser::FileAnalysis;
use report::AuditReport;
use rules::{RuleSet, Violation};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "audit-allowlist.txt";

/// Name of the committed audit-runtime baseline file (first
/// non-comment line: full-audit wall time in milliseconds).
pub const BASELINE_FILE: &str = "audit-baseline.txt";

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Audits a single file's source under the given rule set, appending
/// findings and per-rule wall times, and returns the parsed analysis
/// so callers can feed the workspace call graph. Used by both the
/// workspace audit and the fixture tests.
#[allow(clippy::too_many_arguments)]
pub fn audit_source(
    rel_path: &str,
    source: &str,
    rule_set: RuleSet,
    crate_root: Option<rules::CrateRoot>,
    check_invariants: bool,
    violations: &mut Vec<Violation>,
    invariants: &mut Vec<rules::InvariantMarker>,
    timings: &mut Vec<(&'static str, f64)>,
) -> FileAnalysis {
    let t = Instant::now();
    let toks = lexer::lex(source);
    let analysis = parser::parse_file(rel_path, source, &toks);
    timings.push(("lex-parse", ms_since(t)));
    let t = Instant::now();
    rules::check_tokens(rel_path, source, &toks, rule_set, &analysis, violations);
    timings.push(("token-rules", ms_since(t)));
    if rule_set.error_docs {
        let t = Instant::now();
        rules::check_error_docs(rel_path, source, &analysis, violations);
        timings.push(("error-docs", ms_since(t)));
    }
    if rule_set.atomic_ordering {
        let t = Instant::now();
        rules::check_atomic_ordering(rel_path, source, &toks, violations);
        timings.push(("atomic-ordering", ms_since(t)));
    }
    if let Some(root) = crate_root {
        rules::check_crate_root(rel_path, source, root, violations);
    }
    if check_invariants {
        rules::check_invariant_markers(rel_path, source, violations);
    }
    // Dogfooding exclusion: the auditor's own sources mention the marker
    // strings as rule data and must not pollute the index.
    if !rel_path.starts_with("crates/xtask") {
        rules::collect_invariants(rel_path, source, invariants);
    }
    analysis
}

/// Runs the call-graph rules over a set of parsed files, appending
/// findings and returning the merged analysis (for report stats and
/// the marker index). Split out so fixture tests can run the graph
/// rules over a single file.
pub fn run_graph_checks(
    files: &[(String, FileAnalysis)],
    sources: &Sources,
    violations: &mut Vec<Violation>,
    timings: &mut Vec<(&'static str, f64)>,
) -> Analysis {
    let t = Instant::now();
    let analysis = Analysis::build(files);
    timings.push(("graph-build", ms_since(t)));
    let t = Instant::now();
    analysis.check_hot_path_alloc(sources, violations);
    timings.push(("hot-path-alloc", ms_since(t)));
    let t = Instant::now();
    analysis.check_hot_path_lock(sources, violations);
    timings.push(("hot-path-lock", ms_since(t)));
    let t = Instant::now();
    analysis.check_panic_reachability(sources, violations);
    timings.push(("panic-reachability", ms_since(t)));
    let t = Instant::now();
    analysis.check_error_variants_constructed(violations);
    timings.push(("error-variants", ms_since(t)));
    let t = Instant::now();
    analysis.check_lock_order(sources, violations);
    timings.push(("lock-order", ms_since(t)));
    analysis
}

/// Per-file result produced by one audit worker.
struct Unit {
    violations: Vec<Violation>,
    invariants: Vec<rules::InvariantMarker>,
    timings: Vec<(&'static str, f64)>,
    source: String,
    analysis: FileAnalysis,
}

fn audit_one(root: &Path, rel: &str) -> Result<Unit, String> {
    let source =
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
    let mut unit = Unit {
        violations: Vec::new(),
        invariants: Vec::new(),
        timings: Vec::new(),
        source: String::new(),
        analysis: FileAnalysis::default(),
    };
    let analysis = audit_source(
        rel,
        &source,
        workspace::classify(rel),
        workspace::crate_root(rel),
        workspace::INVARIANT_FILES.contains(&rel),
        &mut unit.violations,
        &mut unit.invariants,
        &mut unit.timings,
    );
    unit.source = source;
    unit.analysis = analysis;
    Ok(unit)
}

/// Runs the full audit over the workspace rooted at `root`. Files are
/// scanned in parallel (one unit of work per file, claimed off a
/// shared counter) and merged back in path order, so the report —
/// violations, marker indexes, timings — is byte-identical to a
/// sequential scan.
pub fn audit_workspace(root: &Path) -> Result<AuditReport, String> {
    let clock = Instant::now();
    let files = workspace::rust_files(root).map_err(|e| format!("walking workspace: {e}"))?;
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(8)
        .min(files.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut merged: Vec<(usize, Result<Unit, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // ORDERING: Relaxed — the counter only hands out
                        // distinct indices (the RMW is atomic regardless
                        // of ordering); workers share no other state, and
                        // the scope join below publishes their results.
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= files.len() {
                            break;
                        }
                        local.push((idx, audit_one(root, &files[idx])));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(_) => all.push((usize::MAX, Err("audit worker panicked".to_owned()))),
            }
        }
        all
    });
    merged.sort_by_key(|(idx, _)| *idx);

    let mut violations = Vec::new();
    let mut invariants = Vec::new();
    let mut rule_timings: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut parsed = Vec::new();
    let mut sources = Sources::default();
    for (idx, result) in merged {
        let unit = result?;
        violations.extend(unit.violations);
        invariants.extend(unit.invariants);
        for (name, ms) in unit.timings {
            *rule_timings.entry(name).or_insert(0.0) += ms;
        }
        sources.insert(&files[idx], &unit.source);
        parsed.push((files[idx].clone(), unit.analysis));
    }
    let mut graph_timings = Vec::new();
    let analysis = run_graph_checks(&parsed, &sources, &mut violations, &mut graph_timings);
    for (name, ms) in graph_timings {
        *rule_timings.entry(name).or_insert(0.0) += ms;
    }

    let allowlist_path = root.join(ALLOWLIST_FILE);
    let allowlist = if allowlist_path.is_file() {
        let text = std::fs::read_to_string(&allowlist_path)
            .map_err(|e| format!("reading {ALLOWLIST_FILE}: {e}"))?;
        allowlist::parse(&text).map_err(|errs| errs.join("\n"))?
    } else {
        Vec::new()
    };
    let (active, suppressed, unused_allowlist) = allowlist::apply(violations, &allowlist);

    Ok(AuditReport {
        active,
        suppressed,
        allowlist,
        unused_allowlist,
        invariants,
        hot_paths: analysis.hot_markers.clone(),
        callgraph: analysis.stats(),
        lock_sites: analysis.lock_sites.clone(),
        lock_edges: analysis.lock_edges.clone(),
        rule_timings_ms: rule_timings
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        total_ms: ms_since(clock),
        files_scanned: files.len(),
    })
}
