//! **Observability bench guard** — instrumented-vs-uninstrumented query
//! time on the seed workload, written to `BENCH_obs.json` so the
//! overhead of the metrics layer is tracked over time.
//!
//! Both modes run the identical three-phase pipeline over the same tree
//! with the same seeds; the only difference is a `PipelineMetrics`
//! attached to the executor. Passes alternate between the modes and the
//! minimum per-mode wall time is kept, so scheduler noise cancels
//! instead of accumulating into one mode. The binary exits non-zero if
//! instrumentation costs more than the DESIGN.md §10 budget (3 %) — it
//! is a guard, not just a report.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin obs \
//!     [--n 20000] [--trials 5] [--samples 20000] [--passes 3] [--out BENCH_obs.json]
//! cargo run -p gprq-bench --release --bin obs -- --check   # validate committed JSON
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use gprq_bench::guard::Guard;
use gprq_bench::{road_tree, Args};
use gprq_core::{MonteCarloEvaluator, PipelineMetrics, PrqExecutor, PrqQuery, StrategySet};
use gprq_workloads::{eq34_covariance, random_query_centers};

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 1;

/// Maximum tolerated instrumented/uninstrumented wall-time ratio.
const BUDGET: f64 = 1.03;

/// The guarded metric: `overhead_ratio` must stay within the budget.
const GUARD: Guard = Guard {
    bench: "obs",
    schema: SCHEMA,
    metric: "overhead_ratio",
    budget: BUDGET,
};

fn main() {
    let args = Args::parse();
    let out = args.get("out", String::from("BENCH_obs.json"));
    if args.flag("check") {
        GUARD.check(&out);
        return;
    }

    let n = args.get("n", 20_000usize);
    let trials = args.get("trials", 5usize);
    let samples = args.get("samples", 20_000usize);
    let passes = args.get("passes", 3usize).max(1);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);

    println!("Observability bench: metrics layer on vs off");
    println!(
        "dataset: road-network substitute, n = {n}; {trials} queries; \
         {samples} samples/object; {passes} alternating passes\n"
    );

    let tree = road_tree(n, seed);
    let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
    let centers = random_query_centers(&data, trials, seed ^ 0xABCD);
    let sigma = eq34_covariance(10.0);
    let queries: Vec<PrqQuery<2>> = centers
        .iter()
        .map(|(_, c)| PrqQuery::new(*c, sigma, delta, theta).expect("seed workload is valid"))
        .collect();

    let metrics = PipelineMetrics::new();
    let mut best = [f64::INFINITY; 2]; // [uninstrumented, instrumented]
    let mut answers = [0usize; 2];
    for _ in 0..passes {
        for (mode, slot) in best.iter_mut().enumerate() {
            let started = Instant::now();
            let mut found = 0usize;
            for (t, query) in queries.iter().enumerate() {
                let mut eval = MonteCarloEvaluator::new(samples, seed + t as u64);
                let mut exec = PrqExecutor::new(StrategySet::ALL);
                if mode == 1 {
                    exec = exec.with_metrics(&metrics);
                }
                let outcome = exec
                    .execute(&tree, query, &mut eval)
                    .expect("seed workload executes");
                found += outcome.answers.len();
            }
            *slot = slot.min(started.elapsed().as_secs_f64());
            answers[mode] = found;
        }
    }
    let [plain, instrumented] = best;

    // Same seeds, same pipeline: the metrics layer must not perturb
    // results at all, only (slightly) the clock.
    assert_eq!(
        answers[0], answers[1],
        "instrumentation changed the answer count"
    );

    let ratio = instrumented / plain.max(f64::MIN_POSITIVE);
    println!("uninstrumented (min of {passes}): {plain:.4} s");
    println!("instrumented   (min of {passes}): {instrumented:.4} s");
    println!("overhead ratio: {ratio:.4} (budget {BUDGET})");

    let snapshot = metrics.snapshot();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"n\": {n},\n  \"trials\": {trials},\n  \
         \"samples_per_object\": {samples},\n  \"passes\": {passes},\n  \"seed\": {seed},\n  \
         \"delta\": {delta},\n  \"theta\": {theta},\n  \
         \"uninstrumented_secs\": {plain:.6},\n  \"instrumented_secs\": {instrumented:.6},\n  \
         \"overhead_ratio\": {ratio:.6},\n  \"budget\": {BUDGET},\n  \
         \"metrics\": {}\n}}\n",
        indent_json(&snapshot.to_json(), "  "),
    );
    GUARD.write(&out, &json);

    // Guard: the whole point of the phase-span/flush-once design.
    GUARD.enforce(ratio);
}

/// Re-indents the snapshot's own pretty JSON so it nests one level deep.
fn indent_json(json: &str, pad: &str) -> String {
    let mut out = String::with_capacity(json.len() + 64);
    for (i, line) in json.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
    out
}
