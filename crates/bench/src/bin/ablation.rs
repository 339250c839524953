//! **Ablations** — design-choice measurements beyond the paper's tables
//! (indexed in DESIGN.md §5):
//!
//! 1. importance sampling (the paper's integrator) vs uniform-ball Monte
//!    Carlo: error against the quadrature oracle across sample budgets
//!    and dimensions — the paper's claim that importance sampling
//!    "converges quickly … especially for medium-dimensional cases";
//! 2. fresh-per-object vs shared-sample evaluation: Phase-3 time;
//! 3. R*-tree Phase 1 vs linear scan: node accesses and time;
//! 4. the generalized (any-dimension) fringe filter vs paper-faithful
//!    (2-D only) in the 9-D workload;
//! 5. quasi-Monte-Carlo (Halton) vs pseudo-random importance sampling:
//!    convergence at equal sample budgets;
//! 6. uniform-grid Phase 1 vs the R*-tree on the 2-D road data.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin ablation [--n 20000]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::{corel_tree, road_tree, Args};
use gprq_core::{FringeMode, MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet, ThetaRegion};
use gprq_gaussian::integrate::{
    importance_sampling_probability, quadrature_probability_2d, uniform_ball_probability,
};
use gprq_gaussian::quasi::quasi_monte_carlo_probability;
use gprq_gaussian::Gaussian;
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::UniformGrid;
use gprq_workloads::{eq34_covariance, pseudo_feedback_covariance, random_query_centers};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let n = args.get("n", 20_000usize);
    let seed = args.get("seed", 42u64);

    let tree = road_tree(n, seed);
    let data: Vec<_> = tree.iter().map(|(p, _)| *p).collect();
    let center = random_query_centers(&data, 1, seed)[0].1;
    let query = PrqQuery::new(center, eq34_covariance(10.0), 25.0, 0.01).expect("valid");

    // ------------------------------------------------------------------
    println!("=== Ablation 1: importance sampling vs uniform-ball MC ===");
    let g2 = Gaussian::new(center, eq34_covariance(10.0)).unwrap();
    let target = center + Vector::from([15.0, 8.0]);
    let oracle = quadrature_probability_2d(&g2, &target, 25.0, 64, 128);
    println!("2-D target probability (oracle): {oracle:.5}");
    println!(
        "{:>9} | {:>12} | {:>12}",
        "samples", "IS |err|", "uniform |err|"
    );
    for budget in [1_000usize, 10_000, 100_000] {
        let (mut is_err, mut ub_err) = (0.0, 0.0);
        let reps = 20;
        for r in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed + r);
            is_err += (importance_sampling_probability(&g2, &target, 25.0, budget, &mut rng)
                .unwrap_or(0.0)
                - oracle)
                .abs();
            ub_err +=
                (uniform_ball_probability(&g2, &target, 25.0, budget, &mut rng) - oracle).abs();
        }
        println!(
            "{budget:>9} | {:>12.5} | {:>12.5}",
            is_err / reps as f64,
            ub_err / reps as f64
        );
    }
    // 9-D comparison, where the paper says importance sampling shines.
    let sigma9 = {
        let mut m = Matrix::<9>::identity().scale(0.5);
        m[(0, 0)] = 4.0;
        m
    };
    let g9 = Gaussian::new(Vector::<9>::splat(0.0), sigma9).unwrap();
    let target9 = Vector::<9>::from_fn(|i| if i == 0 { 1.0 } else { 0.2 });
    // High-budget IS as the 9-D reference.
    let mut rng = StdRng::seed_from_u64(seed);
    let ref9 =
        importance_sampling_probability(&g9, &target9, 2.0, 4_000_000, &mut rng).unwrap_or(0.0);
    println!("\n9-D target probability (4M-sample reference): {ref9:.5}");
    println!(
        "{:>9} | {:>12} | {:>12}",
        "samples", "IS |err|", "uniform |err|"
    );
    for budget in [1_000usize, 10_000, 100_000] {
        let (mut is_err, mut ub_err) = (0.0, 0.0);
        let reps = 20;
        for r in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed + 100 + r);
            is_err += (importance_sampling_probability(&g9, &target9, 2.0, budget, &mut rng)
                .unwrap_or(0.0)
                - ref9)
                .abs();
            ub_err += (uniform_ball_probability(&g9, &target9, 2.0, budget, &mut rng) - ref9).abs();
        }
        println!(
            "{budget:>9} | {:>12.5} | {:>12.5}",
            is_err / reps as f64,
            ub_err / reps as f64
        );
    }

    // ------------------------------------------------------------------
    println!("\n=== Ablation 2: fresh vs shared samples (Phase 3 time) ===");
    // `MonteCarloEvaluator` *is* the shared-cloud engine now, so the
    // fresh-per-object baseline lives here, in the ablation, as a local
    // evaluator that redraws its batch for every candidate.
    struct FreshPerObject {
        samples: usize,
        rng: StdRng,
    }
    impl gprq_core::ProbabilityEvaluator<2> for FreshPerObject {
        fn probability(&mut self, g: &Gaussian<2>, center: &Vector<2>, delta: f64) -> f64 {
            importance_sampling_probability(g, center, delta, self.samples, &mut self.rng)
                .unwrap_or(0.0)
        }
    }
    for shared in [false, true] {
        let label = if shared {
            "shared cloud"
        } else {
            "fresh/object"
        };
        let t = Instant::now();
        let stats = if shared {
            let mut eval = MonteCarloEvaluator::<2>::new(100_000, seed);
            PrqExecutor::new(StrategySet::ALL)
                .execute(&tree, &query, &mut eval)
                .unwrap()
                .stats
        } else {
            let mut eval = FreshPerObject {
                samples: 100_000,
                rng: StdRng::seed_from_u64(seed),
            };
            PrqExecutor::new(StrategySet::ALL)
                .execute(&tree, &query, &mut eval)
                .unwrap()
                .stats
        };
        println!(
            "{label:>13}: {:.2} s total for {} integrations ({} answers)",
            t.elapsed().as_secs_f64(),
            stats.integrations,
            stats.answers
        );
    }

    // ------------------------------------------------------------------
    println!("\n=== Ablation 3: R*-tree Phase 1 vs linear scan ===");
    let region = ThetaRegion::for_query(&query).unwrap();
    let rr = gprq_core::RrFilter::new(&query, &region, FringeMode::PaperFaithful);
    let rect = rr.search_rect();
    let t = Instant::now();
    let mut stats = gprq_rtree::SearchStats::default();
    let hits = tree.query_rect_with_stats(&rect, &mut stats);
    let tree_time = t.elapsed();
    let t = Instant::now();
    let scan_hits = data.iter().filter(|p| rect.contains_point(p)).count();
    let scan_time = t.elapsed();
    println!(
        "R*-tree: {} hits, {} node accesses, {:.1} µs;  linear scan: {} hits, {:.1} µs",
        hits.len(),
        stats.nodes_visited,
        tree_time.as_secs_f64() * 1e6,
        scan_hits,
        scan_time.as_secs_f64() * 1e6
    );

    // ------------------------------------------------------------------
    println!("\n=== Ablation 4: generalized fringe filter in 9-D ===");
    let (tree9, pts9) = corel_tree(args.get("n9", 20_000usize), seed);
    let knn = tree9.nearest_neighbors(&pts9[7], 20);
    let samples: Vec<Vector<9>> = knn.iter().map(|(_, p, _)| **p).collect();
    let q9 = PrqQuery::new(pts9[7], pseudo_feedback_covariance(&samples), 0.7, 0.4).unwrap();
    for (label, mode) in [
        ("paper (off in 9-D)", FringeMode::PaperFaithful),
        ("generalized (on)", FringeMode::AllDimensions),
    ] {
        let mut eval = MonteCarloEvaluator::<9>::new(50_000, seed);
        let outcome = PrqExecutor::new(StrategySet::RR)
            .with_fringe_mode(mode)
            .execute(&tree9, &q9, &mut eval)
            .unwrap();
        println!(
            "{label:>20}: {} integrations, {} answers",
            outcome.stats.integrations, outcome.stats.answers
        );
    }
    println!("\n(The generalized fringe is our extension: point-to-box distance is");
    println!("cheap in any dimension, so the paper's d = 2 restriction is unnecessary.)");

    // ------------------------------------------------------------------
    println!("\n=== Ablation 5: quasi-Monte-Carlo vs importance sampling ===");
    println!("2-D target probability (oracle): {oracle:.6}");
    println!(
        "{:>9} | {:>12} | {:>12}",
        "samples", "IS |err|", "QMC |err|"
    );
    for budget in [1_000usize, 10_000, 100_000] {
        let reps = 20;
        let mut is_err = 0.0;
        for r in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed + 300 + r);
            is_err += (importance_sampling_probability(&g2, &target, 25.0, budget, &mut rng)
                .unwrap_or(0.0)
                - oracle)
                .abs();
        }
        // QMC is deterministic: one evaluation.
        let qmc_err = (quasi_monte_carlo_probability(&g2, &target, 25.0, budget) - oracle).abs();
        println!(
            "{budget:>9} | {:>12.6} | {:>12.6}",
            is_err / reps as f64,
            qmc_err
        );
    }

    // ------------------------------------------------------------------
    println!("\n=== Ablation 6: uniform-grid Phase 1 vs R*-tree ===");
    let grid = UniformGrid::build(tree.iter().map(|(p, d)| (*p, *d)).collect(), 64);
    let t = Instant::now();
    let mut gstats = gprq_rtree::SearchStats::default();
    let ghits = grid.query_rect_with_stats(&rect, &mut gstats);
    let grid_time = t.elapsed();
    println!(
        "grid(64²):  {} hits, {} cells visited, {:.1} µs",
        ghits.len(),
        gstats.nodes_visited,
        grid_time.as_secs_f64() * 1e6
    );
    println!(
        "R*-tree:    {} hits, {} node accesses, {:.1} µs",
        hits.len(),
        stats.nodes_visited,
        tree_time.as_secs_f64() * 1e6
    );
    println!("(In 9-D a 64-per-axis grid would need 64⁹ ≈ 1.8·10¹⁶ cells — the");
    println!("R-tree family is the only structure of the two that scales in d.)");
}
