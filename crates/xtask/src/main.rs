//! CLI entry point: `cargo xtask audit [--fix-report <path>] [--root
//! <path>] [--warnings] [--enforce-runtime]` and `cargo xtask markers
//! [--check] [--root <path>]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

/// Committed snapshot of the marker index, kept current by
/// `cargo xtask markers > audit-markers.txt` and enforced by the CI
/// `markers --check` lane.
const MARKERS_FILE: &str = "audit-markers.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(&args[1..]),
        Some("markers") => markers(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask audit [--fix-report <path>] [--root <path>] [--warnings]\n\
         \x20                       [--enforce-runtime]\n\
         \x20      cargo xtask markers [--check] [--root <path>]\n\
         \n\
         audit: checks the workspace against the invariant rules described in\n\
         DESIGN.md §\"Invariants & static analysis\" and §13 (lock order).\n\
         \n\
         options:\n\
           --fix-report <path>  also write a machine-readable JSON report (schema v6,\n\
                                including per-rule wall times and the lock graph)\n\
           --root <path>        workspace root (default: walk up from cwd)\n\
           --warnings           print heuristic warnings (never fail the audit)\n\
           --enforce-runtime    fail if the audit takes more than 2x the baseline\n\
                                committed in `audit-baseline.txt`\n\
         \n\
         markers: prints the INVARIANT / HOT-PATH / LOCKGRAPH marker\n\
         index; with --check, diffs it against the committed `audit-markers.txt`\n\
         snapshot and fails on drift (regenerate with\n\
         `cargo xtask markers > audit-markers.txt`)."
    );
}

/// Renders the marker index in the committed snapshot format.
fn render_markers(report: &xtask::report::AuditReport) -> String {
    use std::fmt::Write as _;
    let mut lines = Vec::new();
    for m in &report.invariants {
        lines.push(format!("INVARIANT {}:{} {}", m.path, m.line, m.text));
    }
    for m in &report.hot_paths {
        lines.push(format!(
            "HOT-PATH {}:{} [{}] {}",
            m.path,
            m.line,
            m.attached_fn.as_deref().unwrap_or("-"),
            m.text
        ));
    }
    for s in &report.lock_sites {
        lines.push(format!(
            "LOCKGRAPH-SITE {}:{} [{}] class={} {}",
            s.path, s.line, s.fn_qual, s.class, s.desc
        ));
    }
    for e in &report.lock_edges {
        lines.push(format!(
            "LOCKGRAPH-EDGE {} -> {} ({}:{})",
            e.from, e.to, e.path, e.line
        ));
    }
    lines.sort();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Marker index — regenerate with `cargo xtask markers > {MARKERS_FILE}`."
    );
    let _ = writeln!(
        out,
        "# CI fails if this snapshot drifts from the source markers, so every"
    );
    let _ = writeln!(
        out,
        "# added/moved/removed INVARIANT or HOT-PATH marker and every change to"
    );
    let _ = writeln!(
        out,
        "# the lock-acquisition graph (LOCKGRAPH lines) is reviewed here."
    );
    for l in lines {
        let _ = writeln!(out, "{l}");
    }
    out
}

fn markers(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut root_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match it.next() {
                Some(p) => root_arg = Some(p.clone()),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown option `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let root = match xtask::workspace::find_root(root_arg.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match xtask::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = render_markers(&report);
    if !check {
        print!("{rendered}");
        return ExitCode::SUCCESS;
    }
    let snapshot_path = root.join(MARKERS_FILE);
    let committed = std::fs::read_to_string(&snapshot_path).unwrap_or_default();
    if committed == rendered {
        println!(
            "markers: snapshot up to date ({} invariant, {} hot-path, \
             {} lock-site, {} lock-edge)",
            report.invariants.len(),
            report.hot_paths.len(),
            report.lock_sites.len(),
            report.lock_edges.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("markers: `{MARKERS_FILE}` is stale — marker index drifted:");
    let committed_lines: std::collections::BTreeSet<&str> = committed.lines().collect();
    let current_lines: std::collections::BTreeSet<&str> = rendered.lines().collect();
    for gone in committed_lines.difference(&current_lines) {
        eprintln!("  - {gone}");
    }
    for added in current_lines.difference(&committed_lines) {
        eprintln!("  + {added}");
    }
    eprintln!("regenerate with: cargo xtask markers > {MARKERS_FILE}");
    ExitCode::FAILURE
}

/// Reads the committed audit-runtime baseline: the first line of
/// `audit-baseline.txt` that is neither blank nor a `#` comment,
/// parsed as milliseconds.
fn read_baseline_ms(root: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(root.join(xtask::BASELINE_FILE)).ok()?;
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .and_then(|l| l.parse::<f64>().ok())
}

fn audit(args: &[String]) -> ExitCode {
    let mut fix_report: Option<String> = None;
    let mut root_arg: Option<String> = None;
    let mut show_warnings = false;
    let mut enforce_runtime = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fix-report" => match it.next() {
                Some(p) => fix_report = Some(p.clone()),
                None => {
                    eprintln!("--fix-report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root_arg = Some(p.clone()),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--warnings" => show_warnings = true,
            "--enforce-runtime" => enforce_runtime = true,
            other => {
                eprintln!("unknown option `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let root = match xtask::workspace::find_root(root_arg.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match xtask::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text(show_warnings));
    if let Some(path) = fix_report {
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote JSON report to {path}");
    }
    if enforce_runtime {
        match read_baseline_ms(&root) {
            Some(baseline) if report.total_ms > 2.0 * baseline => {
                eprintln!(
                    "audit-runtime: {:.0} ms exceeds 2x the committed baseline of \
                     {baseline:.0} ms ({}) — the auditor regressed; profile the new \
                     rule or refresh the baseline with a justification",
                    report.total_ms,
                    xtask::BASELINE_FILE
                );
                return ExitCode::FAILURE;
            }
            Some(baseline) => {
                eprintln!(
                    "audit-runtime: {:.0} ms within 2x baseline ({baseline:.0} ms)",
                    report.total_ms
                );
            }
            None => {
                eprintln!(
                    "audit-runtime: no parsable baseline in {} — commit one to enforce",
                    xtask::BASELINE_FILE
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
