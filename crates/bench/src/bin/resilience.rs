//! **Resilience bench guard** — Phase-3 sample counts on the seed
//! workload with and without Wilson-interval early termination, written
//! to `BENCH_resilience.json` so the saving is tracked over time. The
//! count is `cloud_samples_tested`: for the sequential evaluator, the
//! sum over objects of the samples each one was evaluated over.
//!
//! The baseline evaluator spends the full per-object budget on every
//! candidate (the paper's fixed-sample regime); the sequential evaluator
//! stops a candidate as soon as its confidence interval clears θ. Both
//! run the same queries over the same tree with the same seeds, so the
//! recorded ratio isolates the early-termination effect. The binary
//! exits non-zero if early termination fails to reduce samples — it is
//! a guard, not just a report.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin resilience \
//!     [--n 20000] [--trials 5] [--samples 100000] [--out BENCH_resilience.json]
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;

use gprq_bench::{road_tree, Args};
use gprq_core::{
    EvalBudget, QueryStats, ResilientExecutor, SequentialMonteCarloEvaluator, StrategySet,
};
use gprq_workloads::{eq34_covariance, random_query_centers};

fn main() {
    let args = Args::parse();
    let n = args.get("n", 20_000usize);
    let trials = args.get("trials", 5usize);
    let samples = args.get("samples", 100_000usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);
    let out = args.get("out", String::from("BENCH_resilience.json"));

    println!("Resilience bench: Phase-3 samples, CI early termination on vs off");
    println!(
        "dataset: road-network substitute, n = {n}; {trials} queries; budget {samples}/object\n"
    );

    let tree = road_tree(n, seed);
    let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
    let centers = random_query_centers(&data, trials, seed ^ 0xABCD);
    let sigma = eq34_covariance(10.0);
    let budget = EvalBudget {
        max_samples_per_object: samples,
        ..EvalBudget::UNLIMITED
    };

    let mut totals = [QueryStats::default(), QueryStats::default()];
    for (mode, total) in totals.iter_mut().enumerate() {
        let early = mode == 0;
        for (t, (_, center)) in centers.iter().enumerate() {
            let mut eval = SequentialMonteCarloEvaluator::with_defaults(seed + t as u64)
                .with_early_termination(early);
            let mut exec = ResilientExecutor::new(StrategySet::ALL).with_budget(budget);
            let outcome = exec
                .execute(&tree, *center, sigma, delta, theta, &mut eval)
                .expect("seed workload executes");
            assert!(
                !outcome.report.is_degraded(),
                "seed workload must run undegraded: {}",
                outcome.report
            );
            total.merge(&outcome.stats);
        }
    }
    let [with_ci, without_ci] = totals;

    let ratio = with_ci.cloud_samples_tested as f64 / without_ci.cloud_samples_tested.max(1) as f64;
    println!("                        with CI      without CI");
    println!(
        "samples tested      {:>12} {:>14}",
        with_ci.cloud_samples_tested, without_ci.cloud_samples_tested
    );
    println!(
        "integrations        {:>12} {:>14}",
        with_ci.integrations, without_ci.integrations
    );
    println!(
        "early terminations  {:>12} {:>14}",
        with_ci.early_terminations, without_ci.early_terminations
    );
    println!(
        "uncertain           {:>12} {:>14}",
        with_ci.uncertain, without_ci.uncertain
    );
    println!("\nsample ratio (with/without): {ratio:.4}");

    let json = format!(
        "{{\n  \"n\": {n},\n  \"trials\": {trials},\n  \"samples_per_object\": {samples},\n  \
         \"delta\": {delta},\n  \"theta\": {theta},\n  \"seed\": {seed},\n  \
         \"with_early_termination\": {{\n    \"samples_tested\": {}, \"integrations\": {}, \
         \"early_terminations\": {}, \"uncertain\": {}\n  }},\n  \
         \"without_early_termination\": {{\n    \"samples_tested\": {}, \"integrations\": {}, \
         \"early_terminations\": {}, \"uncertain\": {}\n  }},\n  \"sample_ratio\": {ratio:.6}\n}}\n",
        with_ci.cloud_samples_tested,
        with_ci.integrations,
        with_ci.early_terminations,
        with_ci.uncertain,
        without_ci.cloud_samples_tested,
        without_ci.integrations,
        without_ci.early_terminations,
        without_ci.uncertain,
    );
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output file");
    println!("wrote {out}");

    // Guard: the whole point of the sequential evaluator.
    assert!(
        with_ci.cloud_samples_tested < without_ci.cloud_samples_tested,
        "early termination must reduce Phase-3 samples \
         ({} vs {})",
        with_ci.cloud_samples_tested,
        without_ci.cloud_samples_tested
    );
    // Both modes are Monte Carlo, so truly borderline objects can land
    // differently — but the answer sets must agree to within a handful
    // of boundary cases, or the early stop is biasing verdicts.
    let drift = with_ci.answers.abs_diff(without_ci.answers);
    let tolerance = (without_ci.answers / 100).max(2);
    assert!(
        drift <= tolerance,
        "early termination shifted the answer count too far \
         ({} vs {}, tolerance {tolerance})",
        with_ci.answers,
        without_ci.answers
    );
}
