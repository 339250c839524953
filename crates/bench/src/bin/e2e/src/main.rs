//! # End-to-end PRQ benchmark
//!
//! Times whole probabilistic range queries on the paper's two datasets,
//! as a library caller sees them, and — in a separate traced pass —
//! where each query's time and work go, layer by layer.
//!
//! ## Running
//!
//! ```text
//! # One workload, as BENCHMARK.json's command runs it. The last line of
//! # standard output is the result object (correct, attempted, failed,
//! # metrics).
//! cargo run --release --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
//!     --workload road2d_paper --seed 42 --seconds 20 --trace 0
//!
//! # Every workload, each in a child process so that peak_rss_mb belongs
//! # to one workload; prints `workload metric value unit` lines and
//! # writes target/e2e/{e2e,trace}-seed<seed>.json.
//! cargo run --release --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
//!     --seed 42 [--trace] [--quick]
//! ```
//!
//! `--trace` (or `--trace 1`) runs the per-layer pass and writes its
//! spans to `target/e2e/spans-<workload>-seed<seed>.jsonl`. `--quick`
//! cuts every request pool to 1/50 and runs it once through, ignoring
//! `--seconds`; the smoke test runs that scale in-process.
//!
//! Durations, measured on a shared 2-core x86-64 container: a 20-second
//! run of `corel9d_feedback` or `road2d_churn` ends after about 21 s,
//! `corel9d_batch16` after 25 s (every 10th batch is re-run query by
//! query) and `road2d_paper` after 31 s (every 20th query goes to the
//! quadrature oracle). One pass over all four workloads takes about
//! 100 s; a clean release build of the package about 15 s.
//!
//! ## Load
//!
//! Every workload is a closed loop: one client in one process sends the
//! next request when the previous one returns, for `--seconds`, and the
//! batch integrator runs one thread. A library caller waits for its
//! answer, and the target machine has two cores. Requests come from a
//! seeded pool ordered by stratified Phase-3 work (see
//! `workloads::stratify`), so the part of the pool a run reaches samples
//! every cost level.
//!
//! ## Workloads
//!
//! | name | one request | why |
//! |---|---|---|
//! | `road2d_paper` | a query on the 50 747-point road network (`FlatRTree`): center from `random_query_centers`, Σ = `eq34_covariance(10)`, δ = 25, θ = 0.01, all strategies, a fresh `MonteCarloEvaluator::new(100_000, seed ⊕ i)`; pool of 2000 | Table I. Phase 3 is ~99 % of the query: ~63 % cloud build, ~37 % per-candidate counting over ~170 integrations; BF decides ~40 % of candidates. A 2-D exact oracle exists. |
//! | `corel9d_feedback` | a query on the 68 040-point Corel-like table: Σ = `pseudo_feedback_covariance` of the center's 20-NN (found on the bench's own pointer tree, untimed), δ = 0.7, θ = 0.4; pool of 2000 | Table III. The 9-D draw is ~half the query, the other half ~80 integrations whose count varies tenfold, so the tail (p95 ≈ 3.5 × p50) follows candidate count. |
//! | `corel9d_batch16` | 16 queries sharing one feedback Σ through a fresh `QueryBatch` over the flat tree with `ParallelIntegrator::new(100_000, seed, 1)`; pool of 400 batches | The only `core::batch` workload: 15 of 16 queries hit the Σ-factor cache and skip the draw, so a cloud-build gain should barely show here. |
//! | `road2d_churn` | 1000 moves (remove a random live record, insert it ±5 away under a fresh id) on the pointer `RTree`, then one query with Σ = 10·I, δ = 25, θ = 0.01 | Writes beside reads (~half the time). Isotropic Σ lets BF decide every candidate: 0 integrations, and the whole query is a cloud build whose samples are never used. |
//!
//! The datasets are fixed (see `workloads`); `--seed` picks the queries,
//! the moves and every Monte-Carlo stream.
//!
//! ## End-to-end metrics (untraced pass)
//!
//! | metric | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `p50_ms` | ms | lower | 0.2 | median request latency: a query, or for `corel9d_batch16` the batch completion time, which every member waits for |
//! | `qps` | 1/s | higher | 0.2 | queries answered ÷ time spent inside requests (churn moves included) |
//! | `setup_s` | s | lower | 0.25 | median of 9 index builds from the generated records |
//! | `peak_rss_mb` | MB | lower | 0.05 | `VmHWM` of the workload's process |
//!
//! The bounds follow the measured spread: across ten seeds, the
//! interquartile range of `p50_ms` and `qps` was 5–10 % of the median
//! on the machine above, the most on the 9-D workloads, whose 7 MB
//! sample clouds share the cache with other tenants.
//!
//! Every end-to-end metric exists on every workload, so nothing that
//! only some workloads have is bounded here. Tail latency is printed
//! beside the metrics (`# p99_ms=… (n=…)`): an exact order statistic,
//! refused when fewer than ten samples lie beyond it (see `stats`). A
//! 20-second run supports p99 on the 2-D workloads (~2000 requests), p95
//! on `corel9d_feedback` (~350) and no tail on `corel9d_batch16` (~35
//! batches). Write latency is per-layer (`write_p50_us`,
//! `write_p99_us`), failed operations go to the result's `failed`
//! count, and the oracle's verdict error rate is per-layer and gates
//! `correct` (see `check`).
//!
//! ## Per-layer metrics (traced pass)
//!
//! Means per query unless the name says otherwise, and 0 where the
//! workload makes no call into the layer. Spans share a trace id per
//! request; a root `query` span has the children `plan`, `phase1`,
//! `phase2`, `cloud_build` and `phase3`, which tile it. On
//! `corel9d_batch16` the Phase-1 counts come from the bench's own
//! `search_rects_into` call and the Phase-2/3 counts from each
//! `BatchOutcome`'s statistics, since the fused phases cannot be timed
//! from outside.
//!
//! | layer · public calls timed | metrics | should move | on (no change predicted on) |
//! |---|---|---|---|
//! | plan · `ThetaRegion::for_query`, `RrFilter::new`, `OrFilter::new`, `BfBounds::exact` | `plan_us` | nothing measurable (<1 % of a query) | all |
//! | Phase 1 · `Phase1Index::search_rect_into` | `phase1_us`, `phase1_node_visits`, `phase1_entries_checked`, `phase1_candidates`, `phase1_hit_frac` | nothing measurable (<0.5 %) | all: a Phase-1 change predicts no end-to-end change |
//! | Phase 2 · `RrFilter::passes`, `OrFilter::passes`, `BfBounds::classify` | `phase2_us`, `phase2_fringe_prunes`, `phase2_or_prunes`, `phase2_bf_rejects`, `phase2_bf_accepts`, `phase2_integrations`, `phase2_decided_frac` | `p50_ms`, `qps` through Phase-3 work | `road2d_paper`, `corel9d_feedback`, `corel9d_batch16` (not `road2d_churn`, already fully decided) |
//! | cloud build · `ProbabilityEvaluator::begin_query` | `cloud_build_us`, `cloud_build_unused_frac` | `p50_ms`, `qps` | `road2d_churn` (the whole query), `road2d_paper` (~63 %), `corel9d_feedback` (~49 %) (not `corel9d_batch16`: cached offsets) |
//! | Phase 3 · `ProbabilityEvaluator::probability`, `take_cloud_stats` | `phase3_us`, `phase3_us_per_integration`, `cloud_cells_scanned`, `cloud_cells_inside_frac`, `cloud_samples_tested` | `p50_ms`, `qps` | `corel9d_feedback` (~51 %), `road2d_paper` (~37 %), `corel9d_batch16` (not `road2d_churn`: 0 integrations) |
//! | batch · `QueryBatch::execute`, `SigmaFactorCache::{hits, misses}`, `Phase1Index::search_rects_into` | `batch_us`, `sigma_cache_hit_frac`, `batch_phase1_us` | `qps`, `p50_ms` | `corel9d_batch16` only |
//! | index writes · `RTree::remove`, `RTree::insert`, `height`, `node_count` | `remove_us`, `insert_us`, `write_p50_us`, `write_p99_us` (per move), `write_wall_frac`, `tree_height`, `tree_nodes` | `qps` | `road2d_churn` only |
//! | registry · `PrqExecutor::with_metrics`, `PipelineMetrics::snapshot` | `metrics_counter_mismatches`: registry counters that disagree with the bench's own sums | none; informational (1 today: `prq_phase3_samples_total` stays 0) | all |
//! | oracle · `BfBounds::exact`, `Quadrature2dEvaluator` | `verdict_error_rate` | none; must stay ≤ 0.01 for `correct` | `road2d_paper`, `road2d_churn` (no 9-D oracle yet) |
//! | bench | `query_self_us`, `span_coverage_frac`, `trace_overhead_frac` (decomposed vs `execute` time on the same queries; 0 on `corel9d_batch16`, whose traced call is the untraced one) | none | all |

#![forbid(unsafe_code)]

mod check;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

use run::Opts;
use workloads::{Scale, Workload};

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one workload pass produced.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics: sample counts, tails.
    pub notes: Vec<String>,
    /// Correctness counts.
    pub tally: check::Tally,
    /// Spans of the traced pass (empty otherwise).
    pub spans: Vec<trace::Span>,
}

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]";

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Where result files go, relative to the working directory.
const OUT_DIR: &str = "target/e2e";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(workload) => single(workload, &args),
        None => all(&raw, &args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB (10⁶ bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the result object.
fn single(workload: Workload, args: &Args) -> Result<(), String> {
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
        trace: args.trace,
    };
    let mut report = run::run(&opts);
    if !args.trace {
        report
            .metrics
            .push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
    }
    let name = workload.name();
    println!("{name} # why: {}", workload.why());
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("{name} # {note}");
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.name));
    }
    if args.trace {
        let path = format!("{OUT_DIR}/spans-{name}-seed{}.jsonl", args.seed);
        write_spans(&path, &report.spans).map_err(|e| format!("{path}: {e}"))?;
        println!("{name} # spans written to {path}");
    }
    println!("{}", result_json(&report));
    Ok(())
}

fn write_spans(path: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        writeln!(out, "{}", span.json(id))?;
    }
    out.flush()
}

/// The one-line result object: `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.correct(),
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

/// Runs every workload, each in a child process of this binary so that
/// `peak_rss_mb` belongs to one workload; passes their lines through and
/// collects their result objects into one file.
fn all(raw: &[String], args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe)
            .args(raw)
            .args(["--workload", workload.name()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines() {
                let line = line.map_err(|e| format!("read {}: {e}", workload.name()))?;
                if line.starts_with('{') {
                    last = line;
                } else {
                    println!("{line}");
                }
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait {}: {e}", workload.name()))?;
        if !status.success() || last.is_empty() {
            return Err(format!("{} failed: {status}", workload.name()));
        }
        results.push(format!("\"{}\": {last}", workload.name()));
    }
    let pass = if args.trace { "trace" } else { "e2e" };
    let path = format!("{OUT_DIR}/{pass}-seed{}.json", args.seed);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{{{}}}\n", results.join(",\n"))))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("results written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SPEC: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The string values of `key` inside the JSON array `section`.
    fn values(section: &str, key: &str) -> Vec<String> {
        let start = SPEC
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &SPEC[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().trim_start_matches(':').trim_start();
                let rest = rest.strip_prefix('"').expect("string value");
                rest[..rest.find('"').expect("string closes")].to_owned()
            })
            .collect()
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let whys: Vec<&str> = Workload::ALL.iter().map(|w| w.why()).collect();
        assert_eq!(values("workloads", "name"), names);
        assert_eq!(values("workloads", "why"), whys);
    }

    #[test]
    fn parses_harness_and_manual_flags() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload road2d_churn --seed 7 --seconds 3 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Road2dChurn));
        assert_eq!((a.seed, a.trace, a.quick), (7, false, false));
        let b = parse(&argv("--trace --quick")).unwrap();
        assert!(b.trace && b.quick && b.workload.is_none());
        assert!(parse(&argv("--trace 1")).unwrap().trace);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
    }

    /// Every workload at quick scale, both passes, in-process: the
    /// emitted names are exactly the declared ones, every value is
    /// finite, and nothing failed.
    #[test]
    fn quick_smoke_every_workload() {
        let declared = |section| values(section, "name").into_iter().collect::<BTreeSet<_>>();
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    workload,
                    seed: 42,
                    seconds: 1.0,
                    scale: Scale::Quick,
                    trace,
                };
                let mut report = run::run(&opts);
                if !trace {
                    report
                        .metrics
                        .push(Metric::new("peak_rss_mb", peak_rss_mb().unwrap(), "MB"));
                }
                let names: BTreeSet<String> =
                    report.metrics.iter().map(|m| m.name.to_owned()).collect();
                assert_eq!(
                    &names,
                    if trace { &layers } else { &e2e },
                    "{workload:?} trace={trace}"
                );
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{workload:?} {} = {}", m.name, m.value);
                }
                assert!(report.tally.attempted > 0);
                assert_eq!(report.tally.failed, 0, "{workload:?} trace={trace}");
                assert!(
                    report.tally.correct(),
                    "{workload:?} trace={trace}: {:?}",
                    report.tally
                );
            }
        }
    }
}
