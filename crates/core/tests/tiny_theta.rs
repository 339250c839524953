//! No θ in `(0, 1)` panics the plan. For θ ≲ 1.1·10⁻¹⁶, `1 − 2θ` rounds
//! to 1, so `r_θ` is solved from the exact tail mass `2θ`; and for an
//! anisotropic Σ with tiny θ, BF's reject target `(λ∥)^{d/2}|Σ|^{1/2}·θ`
//! underflows to 0, which means BF rejects nothing. Both cases run
//! through `PrqExecutor::execute` under every strategy set that plans
//! them, and through one `QueryBatch` call, on the paper's 2-D Eq. 34 Σ
//! and on a 9-D Σ with condition number 10¹² on eight axes. A tiny θ
//! also admits objects whose probability lies far in the noncentral
//! χ²'s lower tail: one such object must be answered on every route, and
//! a stiff Σ whose BF accept radius is solved there must plan at once.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{
    execute_naive, ExactEvaluator, MonteCarloEvaluator, PrqExecutor, PrqQuery, QueryBatch,
    StrategySet,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

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

/// A probability far below any double's precision of 1 still counts: an
/// object at distance √λ, λ = 1.5·10⁵, from a Σ = I query whose δ² lies
/// 30 sd below the mean of χ'²₂(λ) qualifies with `P ≈ 8.1·10⁻²¹⁵`, so
/// at θ = 10⁻²⁵⁰ every strategy set answers it, as the naive scan does.
/// There the central CDF at the Poisson mode underflows, which BF's radii
/// and the exact evaluator's sandwich must not read as `P = 0`.
#[test]
fn far_tail_object_qualifies_under_every_strategy_set() {
    let lambda: f64 = 1.5e5;
    let delta = (2.0 + lambda - 30.0 * (4.0 + 4.0 * lambda).sqrt()).sqrt();
    let tree = RTree::bulk_load(
        vec![(Vector::from([lambda.sqrt(), 0.0]), 0usize)],
        RStarParams::paper_default(2),
    );
    let query = PrqQuery::new(Vector::ZERO, Matrix::identity(), delta, 1e-250).unwrap();
    let naive = execute_naive(&tree, &query, &mut ExactEvaluator::default());
    assert_eq!(naive.answers.len(), 1, "naive: {:?}", naive.stats);
    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let outcome = PrqExecutor::new(set)
            .execute(&tree, &query, &mut ExactEvaluator::default())
            .unwrap();
        assert_eq!(outcome.answers.len(), 1, "{name}: {:?}", outcome.stats);
    }
}

/// Σ = diag(1, 10⁻¹²) at δ = 200 and θ = 10⁻²⁰⁰ poses BF's accept problem
/// at ρ = 2·10⁸, whose Newton solve starts ~30 sd below the mean of
/// χ'²₂(λ ≈ 4·10¹⁶), where no f64 index counts the noncentral CDF's terms
/// down by one. The query must plan and run at once under `ALL`. The
/// density lies along the first axis, so every object within 199 of the
/// center qualifies with P > 1/2, and none beyond 240 does (that needs
/// the first coordinate 40 sd out).
#[test]
fn stiff_sigma_plans_its_far_tail_accept_radius() {
    let center = Vector::from([500.0, 500.0]);
    let mut rng = StdRng::seed_from_u64(13);
    let points: Vec<(Vector<2>, usize)> = (0..2_000)
        .map(|i| (Vector::from_fn(|_| rng.gen::<f64>() * 1_000.0), i))
        .collect();
    let distances: Vec<f64> = points.iter().map(|(p, _)| p.distance(&center)).collect();
    let (send, recv) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
        let mut sigma = Matrix::<2>::identity();
        sigma[(1, 1)] = 1e-12;
        let query = PrqQuery::new(center, sigma, 200.0, 1e-200).unwrap();
        let mut eval = MonteCarloEvaluator::new(SAMPLES, 7);
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .map(|o| o.answers.iter().map(|&(_, &i)| i).collect::<Vec<_>>());
        let _ = send.send(outcome);
    });
    let answers = recv
        .recv_timeout(Duration::from_secs(30))
        .expect("the query did not return")
        .unwrap();
    worker.join().unwrap();
    for (i, &dist) in distances.iter().enumerate() {
        if dist < 199.0 {
            assert!(answers.contains(&i), "object {i} at {dist} not answered");
        } else if dist > 240.0 {
            assert!(!answers.contains(&i), "object {i} at {dist} answered");
        }
    }
}
