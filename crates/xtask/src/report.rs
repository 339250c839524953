//! Human and machine-readable audit reports.

use crate::allowlist::AllowEntry;
use crate::callgraph::{CallGraphStats, LockEdge, LockSite};
use crate::parser::HotPathMarker;
use crate::rules::{InvariantMarker, Violation};

/// JSON report schema version. v2 added `hot_paths`, `callgraph`, and
/// per-violation `chain` arrays; v3 added an inventory of `unsafe`
/// sites; v4 added `cfg_fns` (per-function CFG summaries from the
/// dataflow rules), `lock_graph` (acquisition sites and
/// held-then-acquire edges), and `rule_timings_ms`/`total_ms` (per-rule
/// wall time); v5 removed `cfg_fns` with the dataflow rules; v6 removed
/// the `unsafe` inventory, since every crate root forbids `unsafe` code.
pub const SCHEMA_VERSION: u32 = 6;

/// Complete result of one audit run.
#[derive(Debug)]
pub struct AuditReport {
    /// Violations not covered by the allowlist (audit fails if any
    /// error-severity entries exist).
    pub active: Vec<Violation>,
    /// Violations suppressed by an allowlist entry (entry index).
    pub suppressed: Vec<(Violation, usize)>,
    /// Allowlist entries, as parsed.
    pub allowlist: Vec<AllowEntry>,
    /// Indexes of allowlist entries that matched nothing.
    pub unused_allowlist: Vec<usize>,
    /// Every `// INVARIANT:` marker in the workspace.
    pub invariants: Vec<InvariantMarker>,
    /// Every `// HOT-PATH:` marker in the workspace.
    pub hot_paths: Vec<HotPathMarker>,
    /// Call-graph summary counts.
    pub callgraph: CallGraphStats,
    /// Lock-acquisition sites in the lock-order graph.
    pub lock_sites: Vec<LockSite>,
    /// Held-then-acquire edges between lock classes.
    pub lock_edges: Vec<LockEdge>,
    /// Per-rule wall time in milliseconds, summed across files and
    /// workers, sorted by rule name.
    pub rule_timings_ms: Vec<(String, f64)>,
    /// Total audit wall time in milliseconds.
    pub total_ms: f64,
    /// Files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// `true` when the audit should fail the build.
    pub fn failed(&self) -> bool {
        use crate::rules::Severity;
        self.active.iter().any(|v| v.severity == Severity::Error)
            || !self.unused_allowlist.is_empty()
    }

    /// Counts of (errors, warnings) among active violations.
    pub fn counts(&self) -> (usize, usize) {
        use crate::rules::Severity;
        let errors = self
            .active
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count();
        (errors, self.active.len() - errors)
    }

    /// Renders the human-readable report.
    pub fn render_text(&self, show_warnings: bool) -> String {
        use crate::rules::Severity;
        use std::fmt::Write as _;
        let mut out = String::new();
        let (errors, warnings) = self.counts();
        for v in &self.active {
            if v.severity == Severity::Warning && !show_warnings {
                continue;
            }
            let tag = match v.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = writeln!(
                out,
                "{tag}[{}]: {}\n  --> {}:{}\n   | {}",
                v.rule, v.message, v.path, v.line, v.snippet
            );
            if !v.chain.is_empty() {
                let _ = writeln!(out, "   = via {}", v.chain.join(" -> "));
            }
            let _ = writeln!(out);
        }
        for &i in &self.unused_allowlist {
            let e = &self.allowlist[i];
            let _ = writeln!(
                out,
                "error[stale-allowlist]: entry at allowlist line {} (`{} | {} | {}`) matched \
                 nothing — remove it\n",
                e.line, e.rule, e.path_suffix, e.fragment
            );
        }
        let _ = writeln!(
            out,
            "audit: {} file(s) scanned, {} fn(s) / {} call edge(s) in graph, {} error(s), \
             {} warning(s), {} allowlisted, {} invariant + {} hot-path marker(s) indexed, \
             {} lock site(s) / {} lock edge(s), {:.1} ms",
            self.files_scanned,
            self.callgraph.functions,
            self.callgraph.edges,
            errors,
            warnings,
            self.suppressed.len(),
            self.invariants.len(),
            self.hot_paths.len(),
            self.lock_sites.len(),
            self.lock_edges.len(),
            self.total_ms
        );
        out
    }

    /// Renders the machine-readable JSON report for `--fix-report`.
    pub fn render_json(&self) -> String {
        use crate::rules::Severity;
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {SCHEMA_VERSION},\n  \"files_scanned\": {},\n  \"failed\": {},\n",
            self.files_scanned,
            self.failed()
        ));
        out.push_str(&format!(
            "  \"callgraph\": {{\"functions\": {}, \"edges\": {}, \"hot_roots\": {}, \
             \"pub_roots\": {}, \"lock_sites\": {}, \"lock_edges\": {}}},\n",
            self.callgraph.functions,
            self.callgraph.edges,
            self.callgraph.hot_roots,
            self.callgraph.pub_roots,
            self.callgraph.lock_sites,
            self.callgraph.lock_edges
        ));
        out.push_str(&format!("  \"total_ms\": {:.3},\n", self.total_ms));
        out.push_str("  \"rule_timings_ms\": {");
        let items: Vec<String> = self
            .rule_timings_ms
            .iter()
            .map(|(rule, ms)| format!("{}: {ms:.3}", json_str(rule)))
            .collect();
        out.push_str(&items.join(", "));
        out.push_str("},\n  \"lock_graph\": {\n    \"sites\": [\n");
        let items: Vec<String> = self
            .lock_sites
            .iter()
            .map(|s| {
                format!(
                    "      {{\"class\": {}, \"desc\": {}, \"path\": {}, \"line\": {}, \
                     \"fn\": {}}}",
                    json_str(&s.class),
                    json_str(&s.desc),
                    json_str(&s.path),
                    s.line,
                    json_str(&s.fn_qual)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n    ],\n    \"edges\": [\n");
        let items: Vec<String> = self
            .lock_edges
            .iter()
            .map(|e| {
                format!(
                    "      {{\"from\": {}, \"to\": {}, \"path\": {}, \"line\": {}, \
                     \"witness\": {}}}",
                    json_str(&e.from),
                    json_str(&e.to),
                    json_str(&e.path),
                    e.line,
                    json_str(&e.witness)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n    ]\n  },\n");
        out.push_str("  \"violations\": [\n");
        let items: Vec<String> = self
            .active
            .iter()
            .map(|v| {
                let chain: Vec<String> = v.chain.iter().map(|c| json_str(c)).collect();
                format!(
                    "    {{\"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \
                     \"snippet\": {}, \"message\": {}, \"chain\": [{}]}}",
                    json_str(v.rule),
                    json_str(match v.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    }),
                    json_str(&v.path),
                    v.line,
                    json_str(&v.snippet),
                    json_str(&v.message),
                    chain.join(", ")
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n  ],\n  \"allowlisted\": [\n");
        let items: Vec<String> = self
            .suppressed
            .iter()
            .map(|(v, idx)| {
                format!(
                    "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"reason\": {}}}",
                    json_str(v.rule),
                    json_str(&v.path),
                    v.line,
                    json_str(&self.allowlist[*idx].reason)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n  ],\n  \"invariants\": [\n");
        let items: Vec<String> = self
            .invariants
            .iter()
            .map(|m| {
                format!(
                    "    {{\"path\": {}, \"line\": {}, \"text\": {}}}",
                    json_str(&m.path),
                    m.line,
                    json_str(&m.text)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n  ],\n  \"hot_paths\": [\n");
        let items: Vec<String> = self
            .hot_paths
            .iter()
            .map(|m| {
                format!(
                    "    {{\"path\": {}, \"line\": {}, \"text\": {}, \"attached_fn\": {}}}",
                    json_str(&m.path),
                    m.line,
                    json_str(&m.text),
                    m.attached_fn.as_deref().map_or("null".to_owned(), json_str)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (no external serializer available in
/// the offline build).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn failed_iff_errors_or_stale_entries() {
        let mut report = AuditReport {
            active: Vec::new(),
            suppressed: Vec::new(),
            allowlist: Vec::new(),
            unused_allowlist: Vec::new(),
            invariants: Vec::new(),
            hot_paths: Vec::new(),
            callgraph: CallGraphStats::default(),
            lock_sites: Vec::new(),
            lock_edges: Vec::new(),
            rule_timings_ms: Vec::new(),
            total_ms: 0.0,
            files_scanned: 0,
        };
        assert!(!report.failed());
        report.active.push(Violation {
            rule: "indexing",
            path: "x.rs".into(),
            line: 1,
            snippet: String::new(),
            message: String::new(),
            severity: Severity::Warning,
            chain: Vec::new(),
        });
        assert!(!report.failed(), "warnings alone must not fail the audit");
        report.active.push(Violation {
            rule: "panic-free",
            path: "x.rs".into(),
            line: 1,
            snippet: String::new(),
            message: String::new(),
            severity: Severity::Error,
            chain: Vec::new(),
        });
        assert!(report.failed());
    }

    #[test]
    fn json_is_structurally_sound() {
        let report = AuditReport {
            active: vec![Violation {
                rule: "float-eq",
                path: "a.rs".into(),
                line: 3,
                snippet: "x == 0.0".into(),
                message: "msg".into(),
                severity: Severity::Error,
                chain: vec!["root".into(), "site".into()],
            }],
            suppressed: Vec::new(),
            allowlist: Vec::new(),
            unused_allowlist: Vec::new(),
            invariants: Vec::new(),
            hot_paths: Vec::new(),
            callgraph: CallGraphStats::default(),
            lock_sites: vec![LockSite {
                class: "inner".into(),
                desc: ".lock() on `inner`".into(),
                path: "crates/obs/src/registry.rs".into(),
                line: 43,
                fn_qual: "Registry::with".into(),
            }],
            lock_edges: vec![LockEdge {
                from: "a".into(),
                to: "b".into(),
                witness: "`f` acquires `a` then `b`".into(),
                path: "x.rs".into(),
                line: 2,
            }],
            rule_timings_ms: vec![("panic-free".into(), 1.25)],
            total_ms: 10.5,
            files_scanned: 1,
        };
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"float-eq\""));
        assert!(json.contains("\"lock_graph\""));
        assert!(json.contains("\"rule_timings_ms\": {\"panic-free\": 1.250}"));
        assert!(json.contains("\"from\": \"a\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
