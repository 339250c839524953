//! Workspace file discovery and per-file rule selection.

use crate::rules::{CrateRoot, RuleSet};
use std::path::{Path, PathBuf};

/// Library crates whose `src/` trees must be panic-free (rule R1). The
/// paper's filtering pipeline lives here; a panic in these crates is a
/// production outage, not a test failure.
pub const PANIC_FREE_CRATES: [&str; 5] = [
    "crates/linalg",
    "crates/gaussian",
    "crates/rtree",
    "crates/core",
    "crates/obs",
];

/// Files containing conservative-lookup functions that rule R5 checks
/// for `// INVARIANT:` markers.
pub const INVARIANT_FILES: [&str; 2] = [
    "crates/core/src/theta_region.rs",
    "crates/gaussian/src/cloud.rs",
];

/// Directory prefixes never scanned: build output, the auditor's own
/// bad-code fixtures, and version control.
const SKIP_PREFIXES: [&str; 3] = ["target", "crates/xtask/tests/fixtures", ".git"];

/// Recursively finds every `.rs` file under `root`, returning
/// workspace-relative paths (with `/` separators) in sorted order.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut found = Vec::new();
    walk(root, root, &mut found)?;
    found.sort();
    Ok(found)
}

fn walk(root: &Path, dir: &Path, found: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = relative(root, &path);
        if SKIP_PREFIXES
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
            || rel.starts_with('.')
        {
            continue;
        }
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            walk(root, &path, found)?;
        } else if file_type.is_file() && rel.ends_with(".rs") {
            found.push(rel);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Which crate root, if any, rule R4 applies to: library roots
/// (`src/lib.rs`) and binary roots (`src/main.rs`, files directly
/// under `src/bin/`). Test, bench and example targets are exempt.
pub fn crate_root(rel: &str) -> Option<CrateRoot> {
    if is_test_target(rel) {
        return None;
    }
    let is_lib = rel == "src/lib.rs"
        || ((rel.starts_with("crates/") || rel.starts_with("shims/"))
            && rel.ends_with("/src/lib.rs"));
    let in_bin_dir = rel
        .rsplit_once('/')
        .is_some_and(|(dir, _)| dir == "src/bin" || dir.ends_with("/src/bin"));
    if is_lib {
        Some(CrateRoot::Lib)
    } else if rel == "src/main.rs" || rel.ends_with("/src/main.rs") || in_bin_dir {
        Some(CrateRoot::Bin)
    } else {
        None
    }
}

/// Is this file inside any test/bench/example target (exempt from the
/// library-code rules wholesale)?
fn is_test_target(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.starts_with("benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
}

/// Selects the rule families for one workspace-relative path.
pub fn classify(rel: &str) -> RuleSet {
    let mut rules = RuleSet::default();
    if is_test_target(rel) {
        // R2 still applies to tests: a test drawing from ambient entropy
        // is flaky by construction.
        rules.seeded_rng = !rel.starts_with("crates/bench");
        return rules;
    }
    let in_panic_free_crate = PANIC_FREE_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("{c}/src/")));
    rules.panic_free = in_panic_free_crate;
    rules.indexing = in_panic_free_crate;
    // R1b is an allowlisted *error* where indexing is pervasive and
    // every site must argue its bounds (the numeric kernel and the
    // tree), a warning elsewhere.
    rules.indexing_strict =
        rel.starts_with("crates/linalg/src/") || rel.starts_with("crates/rtree/src/");
    // R6 scope per DESIGN.md §8: the numeric crates, where a silent
    // truncation corrupts probabilities rather than crashing.
    rules.lossy_cast = rel.starts_with("crates/linalg/src/")
        || rel.starts_with("crates/gaussian/src/")
        || rel.starts_with("crates/core/src/");
    rules.error_docs = in_panic_free_crate;
    // Benches may use ad-hoc RNG; shims implement the RNG itself; the
    // auditor is excluded by dogfooding choice (its sources mention the
    // banned identifiers as rule data).
    rules.seeded_rng = !(rel.starts_with("crates/bench")
        || rel.starts_with("shims/")
        || rel.starts_with("crates/xtask"));
    // Float equality: all first-party library code (not shims, whose API
    // mirrors upstream crates; not the auditor).
    rules.float_eq = !(rel.starts_with("shims/") || rel.starts_with("crates/xtask"));
    // C3 exempts shims: their atomic wrappers forward a caller-supplied
    // `Ordering` variable by design (the API mirrors upstream crates),
    // which the call-site-visibility check would flag on every method.
    rules.atomic_ordering = !rel.starts_with("shims/");
    rules
}

/// Returns the absolute path of the workspace root, either from
/// `--root` or by walking up from the current directory to the first
/// directory containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_root(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(r) = explicit {
        return Ok(PathBuf::from(r));
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("could not locate workspace root (no Cargo.toml with [workspace])".into());
        }
    }
}
