//! **Table III** — 9-D experiment: mean number of candidates needing
//! integration across ten pseudo-feedback queries, plus the ANS column
//! and the §VI-B anchor quantities (paper §VI, δ = 0.7, θ = 0.4, k = 20).
//!
//! ```text
//! cargo run -p gprq-bench --release --bin table3 [--n 68040] [--trials 10]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::{corel_tree, row, strategy_header, Args};
use gprq_core::{MonteCarloEvaluator, OrFilter, PrqExecutor, PrqQuery, StrategySet, ThetaRegion};
use gprq_gaussian::chi::chi_inverse;
use gprq_linalg::Vector;
use gprq_workloads::pseudo_feedback_covariance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse();
    let n = args.get("n", gprq_workloads::COREL_SIZE);
    let trials = args.get("trials", 10usize);
    let samples = args.get("samples", 50_000usize);
    let seed = args.get("seed", 42u64);
    let delta = args.get("delta", 0.7f64);
    let theta = args.get("theta", 0.4f64);
    let k = args.get("k", 20usize);

    println!("Table III reproduction: 9-D candidates, δ = {delta}, θ = {theta}, k = {k}");
    println!("dataset: Corel-like substitute, n = {n}; mean over {trials} trials\n");

    // §VI-B anchors from the chi distribution (exact).
    println!(
        "anchors: r_θ(θ=0.4) = {:.2} (paper 2.32), r_θ(θ=0.01) = {:.2} (paper 4.44)\n",
        chi_inverse(9, 1.0 - 2.0 * 0.4),
        chi_inverse(9, 1.0 - 2.0 * 0.01)
    );

    let (tree, points) = corel_tree(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);

    // Build the pseudo-feedback queries of §VI-A.
    let queries: Vec<PrqQuery<9>> = (0..trials)
        .map(|_| {
            let idx = rng.gen_range(0..points.len());
            let knn = tree.nearest_neighbors(&points[idx], k);
            let samples_vecs: Vec<Vector<9>> = knn.iter().map(|(_, p, _)| **p).collect();
            let sigma = pseudo_feedback_covariance(&samples_vecs);
            PrqQuery::new(points[idx], sigma, delta, theta).expect("valid query")
        })
        .collect();

    println!("{}", strategy_header(&["ANS"]));
    let mut cells = Vec::new();
    let mut ans_mean = 0.0;
    for (ci, (_, set)) in StrategySet::PAPER_COMBINATIONS.iter().enumerate() {
        let mut total = 0usize;
        let mut answers = 0usize;
        for (t, query) in queries.iter().enumerate() {
            let mut eval = MonteCarloEvaluator::<9>::new(samples, seed + t as u64);
            let outcome = PrqExecutor::new(*set)
                .execute(&tree, query, &mut eval)
                .expect("executes");
            total += outcome.stats.integrations;
            answers += outcome.stats.answers;
        }
        cells.push(format!("{:.0}", total as f64 / trials as f64));
        if ci == 0 {
            ans_mean = answers as f64 / trials as f64;
        }
    }
    cells.push(format!("{ans_mean:.1}"));
    println!("{}", row("9-D", &cells));

    println!(
        "\npaper:      {}",
        row(
            "9-D",
            &[3713.0, 3216.0, 2468.0, 1905.0, 1998.0, 1699.0, 3.9]
                .iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
        )
    );

    // §VI-B extra observations.
    let mut or_in_region_total = 0usize;
    let mut center_prob_total = 0.0;
    for (t, query) in queries.iter().enumerate() {
        // Objects inside the OR filter region alone (paper: 2,620 avg).
        let region = ThetaRegion::for_query(query).expect("θ < 1/2");
        let or = OrFilter::new(query, &region);
        or_in_region_total += tree.iter().filter(|(p, _)| or.passes(p)).count();
        // Qualification probability of the query center itself
        // (paper: 70.0% on average).
        let mut eval = MonteCarloEvaluator::<9>::new(samples, seed + 1000 + t as u64);
        use gprq_core::ProbabilityEvaluator;
        eval.begin_query(query.gaussian());
        center_prob_total += eval.probability(query.gaussian(), query.center(), delta);
    }
    println!("\n§VI-B observations:");
    println!(
        "  objects inside OR region alone: {:.0}   (paper: 2620)",
        or_in_region_total as f64 / trials as f64
    );
    println!(
        "  qualification probability of the query center: {:.1}%   (paper: 70.0%)",
        100.0 * center_prob_total / trials as f64
    );
    println!("\nexpected shape: all counts ≫ ANS (curse of dimensionality); OR-based");
    println!("combinations prune more than in 2-D because the 9-D isosurfaces are narrow.");
}
