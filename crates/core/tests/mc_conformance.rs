//! Statistical conformance suite.
//!
//! For an **isotropic** query Gaussian `N(q, σ²I₂)` the qualification
//! probability has a closed form: standardizing by σ reduces
//! `Pr(‖x − o‖ ≤ δ)` to the noncentral-χ² ball probability
//! `F₂(‖o − q‖/σ, δ/σ)` (paper Eq. 21 — the Rayleigh/noncentral-χ²
//! CDF in d = 2). That closed form is the oracle here, twice over:
//!
//! 1. the seeded Monte-Carlo estimator must land within a
//!    Wilson-style binomial tolerance of it across a (σ, dist, δ) grid;
//! 2. every strategy set's answer set must *exactly* match the naive
//!    full-scan oracle across a (σ, δ, θ) grid when both use the same
//!    deterministic evaluator — filtering may never change an answer.
//!
//! For the paper's **anisotropic** road regime (Eq. 34's Σ at γ = 10,
//! δ = 25) the oracle is the 2-D quadrature, and the check is on the
//! distribution of the estimator's z-scores at the paper's 100 000
//! samples: centered and of unit spread down to the p ≈ 10⁻³ tail.
//!
//! Everything is seeded (`SEED` below); a failure is reproducible, not
//! a flake.

use gprq_core::{
    execute_naive, MonteCarloEvaluator, ProbabilityEvaluator, PrqExecutor, PrqQuery,
    Quadrature2dEvaluator, StrategySet,
};
use gprq_gaussian::isotropic_qualification_probability;
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};

/// Documented base seed for every stochastic draw in this suite.
const SEED: u64 = 0x5EED_C0DE;

/// Monte-Carlo samples per grid cell.
const SAMPLES: usize = 20_000;

const CENTER: [f64; 2] = [500.0, 500.0];

fn query(sigma: f64, delta: f64, theta: f64) -> PrqQuery<2> {
    PrqQuery::new(
        Vector::from(CENTER),
        Matrix::identity().scale(sigma * sigma),
        delta,
        theta,
    )
    .unwrap()
}

/// Deterministic scatter of `n` ids around the query center, dense where
/// the probability gradient is steep.
fn scatter(n: usize) -> Vec<(Vector<2>, usize)> {
    (0..n)
        .map(|i| {
            let angle = i as f64 * 0.61;
            let radius = (i % 79) as f64 * 0.9;
            (
                Vector::from([
                    CENTER[0] + radius * angle.cos(),
                    CENTER[1] + radius * angle.sin(),
                ]),
                i,
            )
        })
        .collect()
}

#[test]
fn monte_carlo_matches_closed_form_within_wilson_tolerance() {
    // Two-sided z ≈ 5 puts a per-cell false-alarm rate near 3·10⁻⁷
    // under the binomial model; the additive slack absorbs the
    // importance-sampling estimator's deviation from pure binomial
    // variance. With a fixed seed the test is deterministic either way.
    const Z: f64 = 5.0;
    const SLACK: f64 = 2e-3;

    let mut cell = 0u64;
    for &sigma in &[2.0, 5.0] {
        for &dist in &[0.0, 5.0, 10.0, 20.0] {
            for &delta in &[5.0, 15.0] {
                let truth = isotropic_qualification_probability(2, sigma, dist, delta);
                assert!((0.0..=1.0).contains(&truth));

                let q = query(sigma, delta, 0.05);
                let object = Vector::from([CENTER[0] + dist, CENTER[1]]);
                let mut mc = MonteCarloEvaluator::new(SAMPLES, SEED.wrapping_add(cell));
                let estimate = mc.probability(q.gaussian(), &object, delta);

                let tol = Z * (truth * (1.0 - truth) / SAMPLES as f64).sqrt() + SLACK;
                assert!(
                    (estimate - truth).abs() <= tol,
                    "σ = {sigma}, dist = {dist}, δ = {delta}: \
                     MC {estimate} vs closed form {truth} (tol {tol})"
                );
                cell += 1;
            }
        }
    }
}

#[test]
fn anisotropic_road_regime_z_scores_are_standard() {
    // Eq. 34's tilted 3:1 ellipse at γ = 10 (σ ≈ 9.5 and 3.2 along its
    // axes), δ = 25. Objects sit at 25 + t·σ(φ) from the mean along 16
    // directions over a half turn (the distribution is point-symmetric),
    // where σ(φ) is the query's spread along φ: the true probability
    // runs from ~0.5 at t = 0 down through the θ = 0.01 tail the road
    // workload lives in. Centers below p = 10⁻³ are skipped.
    const DIRECTIONS: usize = 16;
    const STEPS: [f64; 6] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
    const P_FLOOR: f64 = 1e-3;
    const SAMPLES: usize = 100_000;
    const DELTA: f64 = 25.0;
    let s3 = 3.0f64.sqrt();
    let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
    let q = PrqQuery::new(Vector::from(CENTER), sigma, DELTA, 0.01).unwrap();
    let mut quad = Quadrature2dEvaluator::default();

    let mut z_scores = Vec::new();
    let (mut p_min, mut p_max) = (1.0f64, 0.0f64);
    for k in 0..DIRECTIONS {
        let phi = k as f64 * std::f64::consts::PI / DIRECTIONS as f64;
        let u = Vector::from([phi.cos(), phi.sin()]);
        let spread = u.dot(&sigma.mul_vec(&u)).sqrt();
        for &t in &STEPS {
            let object = Vector::from(CENTER) + u * (DELTA + t * spread);
            let truth = quad.probability(q.gaussian(), &object, DELTA);
            if truth < P_FLOOR {
                continue;
            }
            p_min = p_min.min(truth);
            p_max = p_max.max(truth);
            // A fresh seed per estimate: every z-score has its own cloud.
            let seed = SEED.wrapping_add(1_000 + z_scores.len() as u64);
            let mut mc = MonteCarloEvaluator::new(SAMPLES, seed);
            let estimate = mc.probability(q.gaussian(), &object, DELTA);
            let se = (truth * (1.0 - truth) / SAMPLES as f64).sqrt();
            z_scores.push((estimate - truth) / se);
        }
    }
    assert!(
        z_scores.len() >= 80 && p_min < 2e-3 && p_max > 0.4,
        "setup: {} centers spanning p ∈ [{p_min}, {p_max}]",
        z_scores.len()
    );

    // N independent z-scores of an unbiased estimator with binomial
    // variance: the mean has standard error 1/√N and the sample sd
    // about 1/√(2N). Allow 4 of each.
    let n = z_scores.len() as f64;
    let mean = z_scores.iter().sum::<f64>() / n;
    let sd = (z_scores.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    let (mean_limit, sd_limit) = (4.0 / n.sqrt(), 4.0 / (2.0 * n).sqrt());
    assert!(
        mean.abs() <= mean_limit,
        "biased estimates: mean z {mean} over {n} centers (limit ±{mean_limit})"
    );
    assert!(
        (sd - 1.0).abs() <= sd_limit,
        "z-score sd {sd} over {n} centers (limit 1 ± {sd_limit})"
    );
}

#[test]
fn closed_form_is_monotone_in_delta_and_distance() {
    for &sigma in &[2.0, 5.0] {
        for &dist in &[0.0, 5.0, 10.0, 20.0] {
            let mut prev = 0.0;
            for step in 1..=30 {
                let delta = step as f64;
                let p = isotropic_qualification_probability(2, sigma, dist, delta);
                assert!(p >= prev, "σ = {sigma}, dist = {dist}, δ = {delta}");
                prev = p;
            }
        }
        for &delta in &[5.0, 15.0] {
            let mut prev = 1.0;
            for step in 0..=30 {
                let dist = step as f64;
                let p = isotropic_qualification_probability(2, sigma, dist, delta);
                assert!(p <= prev, "σ = {sigma}, dist = {dist}, δ = {delta}");
                prev = p;
            }
        }
    }
}

fn sorted_ids(answers: &[(&Vector<2>, &usize)]) -> Vec<usize> {
    let mut ids: Vec<usize> = answers.iter().map(|(_, id)| **id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn every_strategy_set_matches_the_naive_oracle_exactly() {
    let tree = RTree::bulk_load(scatter(400), RStarParams::paper_default(2));
    let strategy_sets = [
        StrategySet::RR,
        StrategySet::RR_OR,
        StrategySet::BF,
        StrategySet::RR_BF,
        StrategySet::BF_OR,
        StrategySet::ALL,
    ];
    for &sigma in &[2.0, 5.0] {
        for &delta in &[5.0, 15.0] {
            for &theta in &[0.05, 0.2, 0.4] {
                let q = query(sigma, delta, theta);
                // Deterministic quadrature (exact to ~1e-10) on both
                // sides: any answer-set difference is a filtering bug,
                // not Monte-Carlo noise.
                let mut oracle = Quadrature2dEvaluator::default();
                let truth = sorted_ids(&execute_naive(&tree, &q, &mut oracle).answers);
                for &set in &strategy_sets {
                    let mut eval = Quadrature2dEvaluator::default();
                    let outcome = PrqExecutor::new(set).execute(&tree, &q, &mut eval).unwrap();
                    assert_eq!(
                        sorted_ids(&outcome.answers),
                        truth,
                        "σ = {sigma}, δ = {delta}, θ = {theta}, set = {}",
                        set.name()
                    );
                }
            }
        }
    }
}

#[test]
fn bf_only_handles_theta_at_or_above_one_half() {
    // The θ-region (RR/OR) is undefined for θ ≥ 1/2; BF alone must
    // still agree with the oracle there.
    let tree = RTree::bulk_load(scatter(400), RStarParams::paper_default(2));
    for &theta in &[0.5, 0.6, 0.75] {
        let q = query(2.0, 15.0, theta);
        let mut oracle = Quadrature2dEvaluator::default();
        let truth = sorted_ids(&execute_naive(&tree, &q, &mut oracle).answers);
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &q, &mut eval)
            .unwrap();
        assert_eq!(sorted_ids(&outcome.answers), truth, "θ = {theta}");
        assert!(!truth.is_empty(), "θ = {theta} should keep near objects");
    }
}
