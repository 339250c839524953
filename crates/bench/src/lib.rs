//! # gprq-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§V–§VI), plus ablations. See `DESIGN.md` §5 for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.
//!
//! Every binary accepts `--n`, `--trials`, `--samples`, `--seed`
//! overrides so a laptop run can trade fidelity for time; defaults are
//! chosen to finish in minutes while preserving the papers' comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gprq_linalg::Vector;
use gprq_rtree::{RStarParams, RTree};
use gprq_workloads as workloads;

/// Simple `--key value` argument parser for the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    /// Gets a typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// `true` if the flag was given (with any or no value).
    pub fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

/// Road-network records (point, index payload) — the shared input when
/// a bench builds several Phase-1 backends over the same workload.
pub fn road_records(n: usize, seed: u64) -> Vec<(Vector<2>, u32)> {
    workloads::road_network_2d(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u32))
        .collect()
}

/// Builds the road-network tree (the paper's 2-D dataset) with payload =
/// point index.
pub fn road_tree(n: usize, seed: u64) -> RTree<2, u32> {
    RTree::bulk_load(road_records(n, seed), RStarParams::paper_default(2))
}

/// Builds the Corel-like tree (the paper's 9-D dataset).
pub fn corel_tree(n: usize, seed: u64) -> (RTree<9, u32>, Vec<Vector<9>>) {
    let pts = workloads::corel_like_9d(n, seed);
    let tree = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
        RStarParams::paper_default(9),
    );
    (tree, pts)
}

/// Plumbing for the bench **guard** binary `obs`: it records its
/// headline metric in a hand-rolled JSON file and enforces a budget on
/// it — on the live run *and* against the committed file via `--check`
/// (CI's stale gate). The schema gate, mini JSON parser and file write
/// live here.
pub mod guard {
    use std::io::Write as _;

    /// One bench's guarded metric: the JSON key it is recorded under,
    /// the schema version of the file, and the budget enforced on it.
    #[derive(Debug, Clone, Copy)]
    pub struct Guard {
        /// Bench name, for messages.
        pub bench: &'static str,
        /// Schema version stamped into the JSON; `--check` rejects any
        /// other (a layout change without a regenerated file is stale).
        pub schema: u64,
        /// JSON key (unquoted) holding the guarded metric.
        pub metric: &'static str,
        /// The largest value the metric may take (an overhead ceiling).
        pub budget: f64,
    }

    impl Guard {
        /// Live-run enforcement: exits non-zero when `value` violates
        /// the bound — the bench is a guard, not just a report.
        ///
        /// # Panics
        ///
        /// When the budget is exceeded; that is the guard firing.
        pub fn enforce(&self, value: f64) {
            assert!(
                value <= self.budget,
                "{} bench violated its budget: {} = {value:.4} vs {:.4}",
                self.bench,
                self.metric,
                self.budget,
            );
        }

        /// The `--check` stale gate: the committed file must exist,
        /// carry the current schema, and record a metric within the
        /// bound.
        ///
        /// # Panics
        ///
        /// On a missing/stale/out-of-bound file — CI turns this into a
        /// failed lane with a "regenerate" instruction.
        pub fn check(&self, path: &str) {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                panic!(
                    "{path} missing — run the {} bench to regenerate: {e}",
                    self.bench
                )
            });
            let schema = extract_number(&text, "schema")
                .unwrap_or_else(|| panic!("{path} predates the schema field — regenerate"));
            assert!(
                (schema - self.schema as f64).abs() < f64::EPSILON,
                "{path} has schema {schema}, expected {} — stale file, regenerate",
                self.schema,
            );
            let value = extract_number(&text, self.metric)
                .unwrap_or_else(|| panic!("{path} lacks {} — regenerate", self.metric));
            assert!(
                value <= self.budget,
                "{path} records {} = {value} outside the budget {:.4}",
                self.metric,
                self.budget,
            );
            println!(
                "{path}: schema {}, {} = {value} within the budget {:.4}",
                self.schema, self.metric, self.budget,
            );
        }

        /// Writes the bench's JSON report and names the file.
        ///
        /// # Panics
        ///
        /// On I/O failure — a bench that cannot record its result has
        /// failed.
        pub fn write(&self, path: &str, json: &str) {
            let mut file = std::fs::File::create(path).expect("create output file");
            file.write_all(json.as_bytes()).expect("write output file");
            println!("wrote {path}");
        }
    }

    /// Pulls the number following `"key":` out of a flat JSON file —
    /// enough parser for our own hand-rolled output. `key` is the bare
    /// key name, without quotes.
    pub fn extract_number(text: &str, key: &str) -> Option<f64> {
        let quoted = format!("\"{key}\"");
        let at = text.find(&quoted)? + quoted.len();
        let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
}

/// Renders one row of a fixed-width table.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:>10} |");
    for c in cells {
        s.push_str(&format!(" {c:>9} |"));
    }
    s
}

/// Renders a table header with the paper's six strategy columns (plus
/// optional extra columns).
pub fn strategy_header(extra: &[&str]) -> String {
    let mut cells: Vec<String> = gprq_core::StrategySet::PAPER_COMBINATIONS
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    cells.extend(extra.iter().map(|s| s.to_string()));
    let mut out = row("", &cells);
    out.push('\n');
    out.push_str(&"-".repeat(out.len().saturating_sub(1)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_defaults() {
        let args = Args { pairs: vec![] };
        assert_eq!(args.get("n", 42usize), 42);
        assert!(!args.flag("full"));
    }

    #[test]
    fn args_typed_lookup() {
        let args = Args {
            pairs: vec![
                ("n".into(), "100".into()),
                ("gamma".into(), "2.5".into()),
                ("full".into(), String::new()),
            ],
        };
        assert_eq!(args.get("n", 0usize), 100);
        assert_eq!(args.get("gamma", 0.0f64), 2.5);
        assert!(args.flag("full"));
        // Unparseable falls back to default.
        assert_eq!(args.get("full", 7usize), 7);
    }

    #[test]
    fn trees_build() {
        let t = road_tree(500, 1);
        assert_eq!(t.len(), 500);
        let (t9, pts) = corel_tree(300, 1);
        assert_eq!(t9.len(), 300);
        assert_eq!(pts.len(), 300);
    }

    #[test]
    fn guard_bounds_and_parser() {
        use guard::{extract_number, Guard};

        let json = "{\n  \"schema\": 1,\n  \"qps_ratio\": 3.25,\n  \"neg\": -1.5e-3\n}\n";
        assert_eq!(extract_number(json, "schema"), Some(1.0));
        assert_eq!(extract_number(json, "qps_ratio"), Some(3.25));
        assert_eq!(extract_number(json, "neg"), Some(-0.0015));
        assert_eq!(extract_number(json, "absent"), None);

        // Round-trip: write then check against the same guard.
        let g = Guard {
            bench: "unit",
            schema: 1,
            metric: "qps_ratio",
            budget: 3.25,
        };
        g.enforce(3.25);
        let over = std::panic::catch_unwind(|| g.enforce(3.26));
        assert!(over.is_err(), "a value over the budget must fire the guard");
        let path =
            std::env::temp_dir().join(format!("guard_unit_test_{}.json", std::process::id()));
        let path = path.to_str().expect("UTF-8 temp path");
        g.write(path, json);
        g.check(path);
        std::fs::remove_file(path).expect("cleanup");
    }

    #[test]
    fn table_rendering() {
        let h = strategy_header(&["ANS"]);
        assert!(h.contains("RR+BF"));
        assert!(h.contains("ANS"));
        let r = row("γ=10", &["1".into(), "2".into()]);
        assert!(r.contains("γ=10"));
    }
}
