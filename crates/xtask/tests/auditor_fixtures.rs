//! Fixture self-tests: each file under `tests/fixtures/` violates
//! exactly one rule, and the auditor must report that violation and
//! nothing else. `clean.rs` exercises every exemption at once and must
//! come back empty.

use xtask::callgraph::Sources;
use xtask::rules::{CrateRoot, InvariantMarker, RuleSet, Severity, Violation};

const ALL_RULES: RuleSet = RuleSet {
    panic_free: true,
    seeded_rng: true,
    float_eq: true,
    indexing: true,
    indexing_strict: false,
    lossy_cast: true,
    error_docs: true,
    atomic_ordering: true,
};

fn read_fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn audit_fixture(
    name: &str,
    crate_root: Option<CrateRoot>,
    check_invariants: bool,
) -> (Vec<Violation>, Vec<InvariantMarker>) {
    let source = read_fixture(name);
    let mut violations = Vec::new();
    let mut invariants = Vec::new();
    let mut timings = Vec::new();
    xtask::audit_source(
        name,
        &source,
        ALL_RULES,
        crate_root,
        check_invariants,
        &mut violations,
        &mut invariants,
        &mut timings,
    );
    (violations, invariants)
}

/// Audits a fixture as if it lived in `crates/core/src/` (a call-graph
/// crate), running the token rules under `rules` AND the three
/// call-graph rules over its single-file graph.
fn audit_fixture_graph(name: &str, rules: RuleSet) -> Vec<Violation> {
    let source = read_fixture(name);
    let rel = format!("crates/core/src/{name}");
    let mut violations = Vec::new();
    let mut invariants = Vec::new();
    let mut timings = Vec::new();
    let analysis = xtask::audit_source(
        &rel,
        &source,
        rules,
        None,
        false,
        &mut violations,
        &mut invariants,
        &mut timings,
    );
    let mut sources = Sources::default();
    sources.insert(&rel, &source);
    let files = vec![(rel, analysis)];
    xtask::run_graph_checks(&files, &sources, &mut violations, &mut timings);
    violations
}

/// Asserts the fixture produced exactly one violation of `rule`.
fn assert_single(violations: &[Violation], rule: &str, line: usize, severity: Severity) {
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one `{rule}` violation, got: {violations:#?}"
    );
    assert_eq!(violations[0].rule, rule);
    assert_eq!(violations[0].line, line, "wrong line: {violations:#?}");
    assert_eq!(violations[0].severity, severity);
}

#[test]
fn panic_free_flags_library_unwrap_but_not_test_unwrap() {
    let (violations, _) = audit_fixture("panic_free.rs", None, false);
    assert_single(&violations, "panic-free", 5, Severity::Error);
    assert!(violations[0].snippet.contains("unwrap"));
}

#[test]
fn panic_free_flags_panic_macro_but_not_string_literal() {
    let (violations, _) = audit_fixture("panic_macro.rs", None, false);
    assert_single(&violations, "panic-free", 6, Severity::Error);
}

#[test]
fn indexing_heuristic_warns_but_skips_full_range_slice() {
    let (violations, _) = audit_fixture("indexing.rs", None, false);
    assert_single(&violations, "indexing", 6, Severity::Warning);
}

#[test]
fn unseeded_rng_flags_thread_rng_but_not_seed_from_u64() {
    let (violations, _) = audit_fixture("unseeded_rng.rs", None, false);
    assert_single(&violations, "unseeded-rng", 5, Severity::Error);
    assert!(violations[0].snippet.contains("thread_rng"));
}

#[test]
fn float_eq_flags_literal_equality_but_not_tolerance_or_int() {
    let (violations, _) = audit_fixture("float_eq.rs", None, false);
    assert_single(&violations, "float-eq", 6, Severity::Error);
}

#[test]
fn crate_root_attrs_reports_each_missing_attribute() {
    let (violations, _) = audit_fixture("crate_root_attrs.rs", Some(CrateRoot::Lib), false);
    assert_single(&violations, "crate-root-attrs", 1, Severity::Error);
    assert!(violations[0].message.contains("missing_docs"));
}

#[test]
fn crate_root_attrs_requires_the_unsafe_ban_on_a_binary_root() {
    let (violations, _) = audit_fixture("bin_root.rs", Some(CrateRoot::Bin), false);
    assert_single(&violations, "crate-root-attrs", 1, Severity::Error);
    assert!(violations[0].message.contains("unsafe_code"));
    // Binary roots are recognized by location, outside test targets.
    for bin in [
        "src/main.rs",
        "crates/bench/src/bin/table1.rs",
        "src/bin/prq.rs",
    ] {
        assert_eq!(
            xtask::workspace::crate_root(bin),
            Some(CrateRoot::Bin),
            "{bin}"
        );
    }
    for exempt in ["examples/quickstart.rs", "crates/bench/benches/eigen.rs"] {
        assert_eq!(xtask::workspace::crate_root(exempt), None, "{exempt}");
    }
}

#[test]
fn invariant_marker_required_on_lookup_functions() {
    let (violations, invariants) = audit_fixture("invariant_marker.rs", None, true);
    assert_single(&violations, "invariant-marker", 5, Severity::Error);
    assert!(violations[0].message.contains("lookup_reject"));
    // The annotated function's marker is still indexed.
    assert_eq!(invariants.len(), 1);
    assert!(invariants[0].text.contains("rounded toward rejection"));
}

#[test]
fn clean_fixture_passes_every_rule() {
    let (violations, invariants) = audit_fixture("clean.rs", Some(CrateRoot::Lib), true);
    assert!(
        violations.is_empty(),
        "clean fixture must produce no findings: {violations:#?}"
    );
    assert_eq!(invariants.len(), 1);
}

#[test]
fn hot_path_alloc_flags_transitive_allocation_with_chain() {
    let violations = audit_fixture_graph("hot_path_alloc.rs", RuleSet::default());
    assert_single(&violations, "hot-path-alloc", 18, Severity::Error);
    assert!(violations[0].snippet.contains("vec!"));
    // The diagnostic names the whole path from the hot root to the site.
    assert_eq!(violations[0].chain, ["descend", "scale", "<vec!>"]);
}

#[test]
fn panic_reachability_respects_panics_doc_section() {
    let violations = audit_fixture_graph("panic_reach.rs", RuleSet::default());
    assert_single(&violations, "panic-reachability", 13, Severity::Error);
    assert!(violations[0].snippet.contains("panic!"));
    assert_eq!(violations[0].chain, ["entry", "inner"]);
}

#[test]
fn lossy_cast_flags_int_narrowing_but_not_float_or_test_casts() {
    let (violations, _) = audit_fixture("lossy_cast.rs", None, false);
    assert_single(&violations, "lossy-cast", 5, Severity::Error);
    assert!(violations[0].snippet.contains("as u32"));
}

#[test]
fn error_docs_flags_missing_section_and_dead_variant() {
    let violations = audit_fixture_graph("error_docs.rs", ALL_RULES);
    assert_eq!(
        violations.len(),
        2,
        "expected the missing `# Errors` doc and the dead variant: {violations:#?}"
    );
    assert!(violations.iter().all(|v| v.rule == "error-docs"));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("undocumented") && v.message.contains("# Errors")));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("PrqError::Imaginary") && v.message.contains("never")));
}

#[test]
fn relaxed_without_ordering_comment_is_flagged_commented_and_explicit_pass() {
    let (violations, _) = audit_fixture("atomic_ordering.rs", None, false);
    assert_single(&violations, "atomic-ordering", 8, Severity::Error);
    assert!(violations[0].message.contains("// ORDERING:"));
}

#[test]
fn forwarding_a_variable_ordering_is_flagged() {
    let (violations, _) = audit_fixture("atomic_forwarded.rs", None, false);
    assert_single(&violations, "atomic-ordering", 7, Severity::Error);
    assert!(violations[0].message.contains("no explicit `Ordering`"));
}

#[test]
fn hot_path_lock_flags_transitive_acquisition_with_chain() {
    let violations = audit_fixture_graph("hot_path_lock.rs", RuleSet::default());
    assert_single(&violations, "hot-path-lock", 18, Severity::Error);
    assert!(violations[0].snippet.contains("lock"));
    assert_eq!(violations[0].chain, ["passes", "bump", "<.lock()>"]);
}

#[test]
fn lock_order_cycle_fixture_reports_the_full_cycle_chain() {
    let violations = audit_fixture_graph("lock_order.rs", RuleSet::default());
    assert_single(&violations, "lock-order", 7, Severity::Error);
    assert!(
        violations[0].message.contains("`a` -> `b` -> `c` -> `a`"),
        "{}",
        violations[0].message
    );
    // One witness per edge of the cycle; the last hop is the
    // interprocedural acquisition through `reacquire`.
    assert_eq!(violations[0].chain.len(), 3, "{violations:#?}");
    assert!(
        violations[0].chain[2].contains("reacquire"),
        "{violations:#?}"
    );
}

#[test]
fn consistent_lock_order_fixture_is_clean() {
    let violations = audit_fixture_graph("lock_order_clean.rs", RuleSet::default());
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn allowlist_suppresses_a_triaged_violation() {
    let (violations, _) = audit_fixture("float_eq.rs", None, false);
    let entries =
        xtask::allowlist::parse("float-eq | float_eq.rs | x == 0.25 | intentional boundary")
            .unwrap();
    let (active, suppressed, unused) = xtask::allowlist::apply(violations, &entries);
    assert!(active.is_empty());
    assert_eq!(suppressed.len(), 1);
    assert!(unused.is_empty());
}

/// The acceptance gate: the real workspace must audit clean — zero
/// unsuppressed errors, no stale allowlist entries — and the invariant
/// index must cover the conservative-lookup sites.
#[test]
fn workspace_audits_clean() {
    let root = xtask::workspace::find_root(None).expect("workspace root");
    let report = xtask::audit_workspace(&root).expect("audit runs");
    assert!(
        !report.failed(),
        "workspace audit failed:\n{}",
        report.render_text(false)
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let marked_files: std::collections::BTreeSet<&str> =
        report.invariants.iter().map(|m| m.path.as_str()).collect();
    assert!(
        marked_files.contains("crates/core/src/theta_region.rs"),
        "theta_region exact radius must carry INVARIANT markers"
    );
    // The call graph is populated and the hot roots the design names
    // (rtree descent, strategy predicates, evaluator loops) are marked.
    assert!(
        report.callgraph.functions > 100,
        "call graph suspiciously small: {:?}",
        report.callgraph
    );
    assert!(report.callgraph.edges > report.callgraph.functions);
    assert!(
        report.callgraph.hot_roots >= 3,
        "expected the designated hot roots to be marked: {:?}",
        report.callgraph
    );
    let hot_files: std::collections::BTreeSet<&str> =
        report.hot_paths.iter().map(|m| m.path.as_str()).collect();
    assert!(
        hot_files.contains("crates/rtree/src/query.rs"),
        "rtree query descent must be a HOT-PATH root"
    );
    assert!(
        report.hot_paths.iter().all(|m| m.attached_fn.is_some()),
        "no dangling HOT-PATH markers"
    );
    // The lock graph must index the observability registry's mutex —
    // with no ordering cycle anywhere in the workspace.
    assert!(
        report
            .lock_sites
            .iter()
            .any(|s| s.path == "crates/obs/src/registry.rs"),
        "the obs registry mutex must be in the lock graph: {:?}",
        report.lock_sites
    );
    // Per-rule timings are recorded for the --fix-report JSON; the
    // lock-order rule must appear.
    let timed: std::collections::BTreeSet<&str> = report
        .rule_timings_ms
        .iter()
        .map(|(r, _)| r.as_str())
        .collect();
    assert!(
        timed.contains("lock-order"),
        "missing timing for lock-order: {timed:?}"
    );
    assert!(report.total_ms > 0.0);
}
