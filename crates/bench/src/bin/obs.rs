//! **Observability bench guard** — instrumented-vs-uninstrumented query
//! time on the seed workload, written to `BENCH_obs.json` so the
//! overhead of the metrics layer is tracked over time.
//!
//! Both modes run the identical three-phase pipeline over the same tree
//! with the same seeds; the only difference is a `PipelineMetrics`
//! attached to the executor. Each pass times both modes back to back,
//! alternating which runs first, and yields one instrumented/plain
//! ratio; the guarded `overhead_ratio` is the median of those ratios.
//! A slow spell of the machine then hits both halves of one ratio and
//! moves few ratios, which the median ignores; and a warm-cache edge of
//! the second mode cancels across the alternation. The binary exits
//! non-zero if instrumentation costs more than the DESIGN.md §10 budget
//! (3 %) — it is a guard, not just a report.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin obs \
//!     [--n 20000] [--trials 5] [--samples 20000] [--passes 201] [--out BENCH_obs.json]
//! cargo run -p gprq-bench --release --bin obs -- --check   # validate committed JSON
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use gprq_bench::guard::Guard;
use gprq_bench::{road_tree, Args};
use gprq_core::{MonteCarloEvaluator, PipelineMetrics, PrqExecutor, PrqQuery, StrategySet};
use gprq_workloads::{eq34_covariance, random_query_centers};

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 3;

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
    let passes = args.get("passes", 201usize).max(1);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);

    println!("Observability bench: metrics layer on vs off");
    println!(
        "dataset: road-network substitute, n = {n}; {trials} queries; \
         {samples} samples per query cloud; {passes} paired passes\n"
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
    // One timed run of every query: wall seconds and answers found.
    let run = |instrumented: bool| {
        let started = Instant::now();
        let mut found = 0usize;
        for (t, query) in queries.iter().enumerate() {
            let mut eval = MonteCarloEvaluator::new(samples, seed + t as u64);
            let mut exec = PrqExecutor::new(StrategySet::ALL);
            if instrumented {
                exec = exec.with_metrics(&metrics);
            }
            let outcome = exec
                .execute(&tree, query, &mut eval)
                .expect("seed workload executes");
            found += outcome.answers.len();
        }
        (started.elapsed().as_secs_f64(), found)
    };
    let mut secs = [Vec::new(), Vec::new()]; // [uninstrumented, instrumented]
    let mut ratios = Vec::with_capacity(passes);
    for pass in 0..passes {
        let mut pair = [0.0; 2];
        let mut answers = [0usize; 2];
        for instrumented in [pass % 2 == 1, pass % 2 == 0] {
            let mode = usize::from(instrumented);
            (pair[mode], answers[mode]) = run(instrumented);
            secs[mode].push(pair[mode]);
        }
        // Same seeds, same pipeline: the metrics layer must not perturb
        // results at all, only (slightly) the clock.
        assert_eq!(
            answers[0], answers[1],
            "instrumentation changed the answer count"
        );
        ratios.push(pair[1] / pair[0].max(f64::MIN_POSITIVE));
    }
    let [plain, instrumented] = secs.map(|mut s| quantile(&mut s, 0.5));
    let ratio = quantile(&mut ratios, 0.5);
    let (q1, q3) = (quantile(&mut ratios, 0.25), quantile(&mut ratios, 0.75));
    println!("uninstrumented (median of {passes}): {plain:.4} s");
    println!("instrumented   (median of {passes}): {instrumented:.4} s");
    println!("overhead ratio: {ratio:.4}, quartiles [{q1:.4}, {q3:.4}] (budget {BUDGET})");

    let snapshot = metrics.snapshot();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"n\": {n},\n  \"trials\": {trials},\n  \
         \"samples_per_query\": {samples},\n  \"passes\": {passes},\n  \"seed\": {seed},\n  \
         \"delta\": {delta},\n  \"theta\": {theta},\n  \
         \"uninstrumented_secs\": {plain:.6},\n  \"instrumented_secs\": {instrumented:.6},\n  \
         \"overhead_ratio\": {ratio:.6},\n  \"overhead_ratio_q1\": {q1:.6},\n  \
         \"overhead_ratio_q3\": {q3:.6},\n  \"budget\": {BUDGET},\n  \
         \"metrics\": {}\n}}\n",
        indent_json(&snapshot.to_json(), "  "),
    );
    GUARD.write(&out, &json);

    // Guard: the whole point of the phase-span/flush-once design.
    GUARD.enforce(ratio);
}

/// The nearest-rank `q`-quantile of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
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
