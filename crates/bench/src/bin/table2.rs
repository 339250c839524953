//! **Table II** — number of candidate objects requiring numerical
//! integration, for γ ∈ {1, 10, 100} across the six combinations, plus
//! the answer-set size (ANS column). Paper §V-B.1, δ = 25, θ = 0.01.
//!
//! Candidate counts are determined purely by the filters, so this binary
//! is fast regardless of sample counts; the ANS column uses a
//! shared-sample evaluator.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin table2 [--n 50747] [--trials 5]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::{road_tree, row, strategy_header, Args};
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet};
use gprq_workloads::{eq34_covariance, random_query_centers};

fn main() {
    let args = Args::parse();
    let n = args.get("n", gprq_workloads::ROAD_NETWORK_SIZE);
    let trials = args.get("trials", 5usize);
    let samples = args.get("samples", 100_000usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);

    println!("Table II reproduction: #candidates needing integration, δ = {delta}, θ = {theta}");
    println!("dataset: road-network substitute, n = {n}; mean over {trials} trials\n");

    let tree = road_tree(n, seed);
    let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
    let centers = random_query_centers(&data, trials, seed ^ 0xABCD);

    println!("{}", strategy_header(&["ANS"]));
    for gamma in [1.0, 10.0, 100.0] {
        let sigma = eq34_covariance(gamma);
        let mut cells = Vec::new();
        let mut ans_mean = 0.0;
        for (ci, (_, set)) in StrategySet::PAPER_COMBINATIONS.iter().enumerate() {
            let mut total = 0usize;
            let mut answers = 0usize;
            for (t, (_, center)) in centers.iter().enumerate() {
                let query = PrqQuery::new(*center, sigma, delta, theta).expect("valid");
                let mut eval = MonteCarloEvaluator::<2>::new(samples, seed + t as u64);
                let outcome = PrqExecutor::new(*set)
                    .execute(&tree, &query, &mut eval)
                    .expect("executes");
                total += outcome.stats.integrations;
                answers += outcome.stats.answers;
            }
            cells.push(format!("{:.0}", total as f64 / trials as f64));
            if ci == 0 {
                ans_mean = answers as f64 / trials as f64;
            }
        }
        cells.push(format!("{ans_mean:.0}"));
        println!("{}", row(&format!("γ={gamma}"), &cells));
    }

    println!("\npaper (Long Beach TIGER, 1 query):");
    println!(
        "{}",
        row(
            "γ=1",
            &fmt(&[357.0, 302.0, 297.0, 335.0, 285.0, 281.0, 295.0])
        )
    );
    println!(
        "{}",
        row(
            "γ=10",
            &fmt(&[792.0, 683.0, 636.0, 682.0, 569.0, 558.0, 546.0])
        )
    );
    println!(
        "{}",
        row(
            "γ=100",
            &fmt(&[2998.0, 2599.0, 2346.0, 2270.0, 1832.0, 1788.0, 1566.0])
        )
    );
    println!("\nexpected shape: counts fall left→right; ALL is the minimum; counts");
    println!("grow roughly with the θ-region area (∝ γ); ANS close to the ALL column.");
}

fn fmt(xs: &[f64]) -> Vec<String> {
    xs.iter().map(|x| format!("{x:.0}")).collect()
}
