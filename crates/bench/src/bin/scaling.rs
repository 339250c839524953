//! **Scaling sweep** (extension) — Phase-3 integration counts and query
//! time as the dataset grows.
//!
//! The paper fixes n = 50,747; this binary sweeps n to confirm the
//! filtering behaviour is density-linear (candidates ∝ n at fixed
//! region geometry) and that Phase-1 index cost stays logarithmic.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin scaling [--trials 3] [--samples 20000]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::{road_tree, row, Args};
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet};
use gprq_workloads::{eq34_covariance, random_query_centers};

fn main() {
    let args = Args::parse();
    let trials = args.get("trials", 3usize);
    let samples = args.get("samples", 50_000usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);
    let gamma = args.get("gamma", 10.0f64);

    println!("Scaling sweep: γ = {gamma}, δ = {delta}, θ = {theta}, {trials} trials/point\n");
    println!(
        "{}",
        row(
            "n",
            &["ALL integ".into(), "node acc".into(), "ms/query".into()]
        )
    );

    for n in [6_343usize, 12_686, 25_373, 50_747, 101_494] {
        let tree = road_tree(n, seed);
        let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
        let centers = random_query_centers(&data, trials, seed ^ 0xBEEF);
        let sigma = eq34_covariance(gamma);

        let mut integ = 0usize;
        let mut accesses = 0usize;
        let mut ms = 0.0;
        for (t, (_, center)) in centers.iter().enumerate() {
            let query = PrqQuery::new(*center, sigma, delta, theta).expect("valid");
            let mut eval = MonteCarloEvaluator::<2>::new(samples, seed + t as u64);
            let outcome = PrqExecutor::new(StrategySet::ALL)
                .execute(&tree, &query, &mut eval)
                .expect("executes");
            integ += outcome.stats.integrations;
            accesses += outcome.stats.node_accesses;
            ms += outcome.stats.total_time().as_secs_f64() * 1e3;
        }
        let tf = trials as f64;
        println!(
            "{}",
            row(
                &format!("{n}"),
                &[
                    format!("{:.0}", integ as f64 / tf),
                    format!("{:.0}", accesses as f64 / tf),
                    format!("{:.1}", ms / tf),
                ]
            )
        );
    }

    println!("\nexpected shape: integrations and time scale ~linearly with n (density");
    println!("doubles → integrations double); node accesses grow ~logarithmically.");
}
