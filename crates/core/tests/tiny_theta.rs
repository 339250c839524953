//! No θ in `(0, 1)` panics the plan. For θ ≲ 1.1·10⁻¹⁶, `1 − 2θ` rounds
//! to 1, so `r_θ` is solved from the exact tail mass `2θ`; and for an
//! anisotropic Σ with tiny θ, BF's reject target `(λ∥)^{d/2}|Σ|^{1/2}·θ`
//! underflows to 0, which means BF rejects nothing. Both cases run
//! through `PrqExecutor::execute` under every strategy set that plans
//! them, and through one `QueryBatch` call, on the paper's 2-D Eq. 34 Σ
//! and on a 9-D Σ with condition number 10¹² on eight axes.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, QueryBatch, StrategySet};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THETAS: [f64; 3] = [1e-17, 1e-300, 5e-324];
const SAMPLES: usize = 2_000;

fn tree<const D: usize>(n: usize, scale: f64, seed: u64) -> RTree<D, usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|i| (Vector::from_fn(|_| rng.gen::<f64>() * scale), i))
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(D))
}

/// Every plan-stage path at each θ: the solo executor under `ALL` and
/// BF-only, and a two-query batch under `ALL`.
fn runs_without_panic<const D: usize>(
    tree: &RTree<D, usize>,
    center: Vector<D>,
    sigma: Matrix<D>,
    delta: f64,
) {
    for theta in THETAS {
        let query = PrqQuery::new(center, sigma, delta, theta).unwrap();
        for strategies in [StrategySet::ALL, StrategySet::BF] {
            let mut eval = MonteCarloEvaluator::new(SAMPLES, 7);
            let outcome = PrqExecutor::new(strategies).execute(tree, &query, &mut eval);
            assert!(outcome.is_ok(), "D = {D}, θ = {theta}, {strategies:?}");
        }
        let integrator = ParallelIntegrator::new(SAMPLES, 7, 1).unwrap();
        let mut batch = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);
        let outcomes = batch.execute(tree, &[query.clone(), query]);
        assert!(outcomes.is_ok(), "D = {D}, θ = {theta}, batch");
    }
}

#[test]
fn eq34_sigma_plans_every_tiny_theta() {
    let s3 = 3.0f64.sqrt();
    let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
    let tree = tree::<2>(2_000, 1_000.0, 11);
    runs_without_panic(&tree, Vector::from([500.0, 500.0]), sigma, 5.0);
}

#[test]
fn stiff_nine_dim_sigma_plans_every_tiny_theta() {
    // Eight unit axes against one of variance 10¹²: the reject target is
    // 10⁻⁴⁸·θ, which underflows from θ = 1e-300 on.
    let mut sigma = Matrix::<9>::identity();
    sigma[(0, 0)] = 1e12;
    let tree = tree::<9>(500, 2.0, 12);
    runs_without_panic(&tree, Vector::splat(1.0), sigma, 0.7);
}
