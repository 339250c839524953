//! Numerical integration of Gaussian densities over balls — the
//! *qualification probability* `Pr(‖x − o‖ ≤ δ)` of paper Eq. 3.
//!
//! For a general covariance the integral has no closed form (after
//! whitening, the ball becomes an ellipsoid), which is the paper's core
//! cost argument: Phase 3 dominates query time. This module provides the
//! paper's estimator and three cross-checking alternatives:
//!
//! * [`importance_sampling_probability`] — the paper's method (§V-A):
//!   draw `x ~ N(q, Σ)` and count the fraction landing in the ball.
//!   Converges quickly because the proposal *is* the measure.
//! * the [`crate::cloud`] module — an optimization the paper does not
//!   apply: since the proposal does not depend on the target object, one
//!   batch of samples ([`crate::cloud::SampleCloud`]) can be reused
//!   across every candidate of a query and pruned spatially
//!   ([`crate::cloud::CloudGrid`]). This is the default Phase-3 path.
//! * [`uniform_ball_probability`] — the "standard Monte Carlo method" the
//!   paper contrasts against: sample uniformly in the ball, average the
//!   density, multiply by ball volume. Degrades in higher dimensions.
//! * [`quadrature_probability_2d`] — a deterministic polar Gauss–Legendre
//!   tensor rule for `d = 2`, used as the high-accuracy oracle in tests
//!   and experiment validation.
//! * [`analytic_interval_probability_1d`] — the trivial 1-D case the paper
//!   notes in §I (closed form via `Φ`).

use crate::mvn::Gaussian;
use crate::sampler::{sample_uniform_ball, GaussianSampler, StandardNormal};
use crate::specfun::{ball_volume, std_normal_cdf};
use gprq_linalg::Vector;
use rand::Rng;
use std::fmt;

/// Number of Monte-Carlo samples the paper uses per integration (§V-A:
/// "for each numerical integration, 100,000 random numbers were
/// generated").
pub const PAPER_MC_SAMPLES: usize = 100_000;

/// A Monte-Carlo sample budget of zero was requested: no estimator can
/// produce a probability from zero draws, and silently returning `0.0`
/// would masquerade as a confident rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSampleBudget;

impl fmt::Display for InvalidSampleBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Monte-Carlo sample budget must be positive")
    }
}

impl std::error::Error for InvalidSampleBudget {}

/// Estimates `Pr(‖x − center‖ ≤ delta)` for `x ~ gaussian` by importance
/// sampling from the Gaussian itself — the paper's integrator.
///
/// The estimate is the fraction of `n_samples` draws that land inside the
/// ball; its standard error is `√(p(1−p)/n)`. Debug-asserts `delta ≥ 0`.
///
/// # Errors
///
/// [`InvalidSampleBudget`] if `n_samples == 0` — a zero-draw estimate
/// would be an unfounded hard rejection.
// HOT-PATH: importance-sampling integration loop (Phase 3, paper §V-A)
pub fn importance_sampling_probability<const D: usize, R: Rng + ?Sized>(
    gaussian: &Gaussian<D>,
    center: &Vector<D>,
    delta: f64,
    n_samples: usize,
    rng: &mut R,
) -> Result<f64, InvalidSampleBudget> {
    if n_samples == 0 {
        return Err(InvalidSampleBudget);
    }
    debug_assert!(delta >= 0.0);
    let delta_sq = delta * delta;
    let mut sampler = GaussianSampler::new(gaussian);
    let mut hits = 0usize;
    for _ in 0..n_samples {
        let x = sampler.sample(rng);
        if x.distance_squared(center) <= delta_sq {
            hits += 1;
        }
    }
    Ok(hits as f64 / n_samples as f64)
}

/// Estimates the ball probability with the "standard" Monte-Carlo method:
/// uniform samples in `B(center, delta)`, density averaged and scaled by
/// the ball volume.
///
/// Provided as the comparator the paper mentions; its variance grows with
/// dimension because the density varies over many orders of magnitude
/// across the ball (see the `mc_convergence` ablation bench).
///
/// # Panics
///
/// Panics if `n_samples == 0`; debug-asserts `delta ≥ 0`.
pub fn uniform_ball_probability<const D: usize, R: Rng + ?Sized>(
    gaussian: &Gaussian<D>,
    center: &Vector<D>,
    delta: f64,
    n_samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(n_samples > 0, "need at least one sample");
    debug_assert!(delta >= 0.0);
    if delta == 0.0 {
        return 0.0;
    }
    let mut sn = StandardNormal::new();
    let mut acc = 0.0;
    for _ in 0..n_samples {
        let x = sample_uniform_ball(&mut sn, rng, center, delta);
        acc += gaussian.pdf(&x);
    }
    (acc / n_samples as f64) * ball_volume(D, delta)
}

/// Deterministic reference integration for `d = 2`: a polar
/// Gauss–Legendre tensor rule around `center`.
///
/// ```text
/// ∫_{B(o,δ)} p_q = ∫₀^δ ∫₀^{2π} p_q(o + r·(cos φ, sin φ)) · r dφ dr
/// ```
///
/// With `n_radial × n_angular` nodes this is accurate to ~10⁻¹⁰ for the
/// paper's parameter ranges and serves as the oracle that validates both
/// Monte-Carlo estimators and the strategy filters.
///
/// # Panics
///
/// Panics if either node count is zero; debug-asserts `delta ≥ 0`.
pub fn quadrature_probability_2d(
    gaussian: &Gaussian<2>,
    center: &Vector<2>,
    delta: f64,
    n_radial: usize,
    n_angular: usize,
) -> f64 {
    assert!(n_radial > 0 && n_angular > 0, "need positive node counts");
    debug_assert!(delta >= 0.0);
    if delta == 0.0 {
        return 0.0;
    }
    let (r_nodes, r_weights) = gauss_legendre(n_radial);
    let (a_nodes, a_weights) = gauss_legendre(n_angular);
    let mut acc = 0.0;
    for (rn, rw) in r_nodes.iter().zip(&r_weights) {
        // Map [−1, 1] → [0, δ].
        let r = 0.5 * delta * (rn + 1.0);
        let jac_r = 0.5 * delta;
        let mut ring = 0.0;
        for (an, aw) in a_nodes.iter().zip(&a_weights) {
            // Map [−1, 1] → [0, 2π].
            let phi = std::f64::consts::PI * (an + 1.0);
            let x = Vector::from([center[0] + r * phi.cos(), center[1] + r * phi.sin()]);
            ring += aw * gaussian.pdf(&x);
        }
        let jac_a = std::f64::consts::PI;
        acc += rw * ring * r * jac_r * jac_a;
    }
    acc
}

/// Exact 1-D qualification probability: for `x ~ N(mean, std²)`,
/// `Pr(|x − center| ≤ delta) = Φ((center+δ−µ)/σ) − Φ((center−δ−µ)/σ)`.
///
/// The paper restricts itself to `d ≥ 2` because this closed form makes
/// the 1-D problem trivial; we include it for completeness and as a test
/// oracle for the `D = 1` instantiations of the generic code.
///
/// # Panics
///
/// Panics unless `std > 0`; debug-asserts `delta ≥ 0`.
pub fn analytic_interval_probability_1d(mean: f64, std: f64, center: f64, delta: f64) -> f64 {
    assert!(std > 0.0, "standard deviation must be positive");
    debug_assert!(delta >= 0.0);
    let hi = (center + delta - mean) / std;
    let lo = (center - delta - mean) / std;
    std_normal_cdf(hi) - std_normal_cdf(lo)
}

/// Computes the `n`-point Gauss–Legendre nodes and weights on `[−1, 1]`
/// by Newton iteration on the Legendre polynomial `P_n`.
///
/// Exposed publicly because the experiment harness also uses it for
/// region-area quadrature.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0, "need at least one node");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev-based initial guess for the i-th root.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(x) and P'_n(x) via the three-term recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for k in 2..=n {
                let kf = k as f64;
                let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                p0 = p1;
                p1 = p2;
            }
            // p1 = P_n, p0 = P_{n−1}.
            dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n == 1 {
        nodes[0] = 0.0;
        weights[0] = 2.0;
    }
    (nodes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noncentral::ball_probability;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sigma_paper(gamma: f64) -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
    }

    #[test]
    fn gauss_legendre_low_orders() {
        let (n1, w1) = gauss_legendre(1);
        assert_eq!(n1, vec![0.0]);
        assert_eq!(w1, vec![2.0]);
        let (n2, w2) = gauss_legendre(2);
        let inv_sqrt3 = 1.0 / 3.0f64.sqrt();
        assert!((n2[0] + inv_sqrt3).abs() < 1e-14);
        assert!((n2[1] - inv_sqrt3).abs() < 1e-14);
        assert!((w2[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // n nodes integrate degree ≤ 2n−1 exactly: ∫_{−1}^{1} x⁶ = 2/7.
        let (nodes, weights) = gauss_legendre(4);
        let approx: f64 = nodes.iter().zip(&weights).map(|(x, w)| w * x.powi(6)).sum();
        assert!((approx - 2.0 / 7.0).abs() < 1e-14);
        // Weights sum to the interval length.
        let total: f64 = weights.iter().sum();
        assert!((total - 2.0).abs() < 1e-13);
    }

    #[test]
    fn quadrature_matches_noncentral_for_standard_gaussian() {
        // For Σ = I, the ball probability has the noncentral-χ² closed
        // form — the strongest available cross-check.
        let g = Gaussian::<2>::standard();
        for &(beta, delta) in &[(0.0, 1.0), (1.5, 1.0), (2.0, 2.5), (4.0, 1.0)] {
            let center = Vector::from([beta, 0.0]);
            let quad = quadrature_probability_2d(&g, &center, delta, 64, 128);
            let exact = ball_probability(2, beta, delta);
            assert!(
                (quad - exact).abs() < 1e-10,
                "β = {beta}, δ = {delta}: quad {quad} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quadrature_rotation_invariant_center() {
        // Off-axis centers must give the same result as on-axis ones at
        // equal distance when the covariance is isotropic.
        let g = Gaussian::<2>::standard();
        let a = quadrature_probability_2d(&g, &Vector::from([2.0, 0.0]), 1.0, 48, 96);
        let c = 2.0 / 2.0f64.sqrt();
        let b = quadrature_probability_2d(&g, &Vector::from([c, c]), 1.0, 48, 96);
        assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn importance_sampling_matches_quadrature() {
        let g = Gaussian::new(Vector::from([500.0, 500.0]), sigma_paper(10.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for &offset in &[[0.0, 0.0], [10.0, 5.0], [-20.0, 12.0]] {
            let center = *g.mean() + Vector::from(offset);
            let delta = 25.0;
            let exact = quadrature_probability_2d(&g, &center, delta, 64, 128);
            let mc =
                importance_sampling_probability(&g, &center, delta, 200_000, &mut rng).unwrap();
            // Standard error at p≈0.5, n=200k is ~0.0011; allow 5σ.
            assert!(
                (mc - exact).abs() < 0.006,
                "offset {offset:?}: mc {mc} vs exact {exact}"
            );
        }
    }

    #[test]
    fn uniform_ball_matches_quadrature_2d() {
        let g = Gaussian::new(Vector::from([0.0, 0.0]), sigma_paper(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let center = Vector::from([2.0, 1.0]);
        let delta = 3.0;
        let exact = quadrature_probability_2d(&g, &center, delta, 64, 128);
        let mc = uniform_ball_probability(&g, &center, delta, 400_000, &mut rng);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn zero_sample_budget_is_an_error() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let err = importance_sampling_probability(&g, &Vector::ZERO, 1.0, 0, &mut rng).unwrap_err();
        assert_eq!(err, InvalidSampleBudget);
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn analytic_1d_anchors() {
        // Standard normal, interval [−1, 1]: 0.682689…
        let p = analytic_interval_probability_1d(0.0, 1.0, 0.0, 1.0);
        assert!((p - 0.682_689_492_137_085_9).abs() < 1e-12);
        // Shifted: N(5, 2²), Pr(|x − 5| ≤ 2) = Φ(1) − Φ(−1).
        let p = analytic_interval_probability_1d(5.0, 2.0, 5.0, 2.0);
        assert!((p - 0.682_689_492_137_085_9).abs() < 1e-12);
        // Far away: essentially zero.
        let p = analytic_interval_probability_1d(0.0, 1.0, 100.0, 1.0);
        assert!(p < 1e-12);
    }

    #[test]
    fn analytic_1d_matches_mc() {
        let g = Gaussian::new(Vector::from([3.0]), Matrix::from_rows([[4.0]])).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mc = importance_sampling_probability(&g, &Vector::from([4.0]), 1.5, 200_000, &mut rng)
            .unwrap();
        let exact = analytic_interval_probability_1d(3.0, 2.0, 4.0, 1.5);
        assert!((mc - exact).abs() < 0.006, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn zero_delta_probabilities() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(
            uniform_ball_probability(&g, &Vector::ZERO, 0.0, 10, &mut rng),
            0.0
        );
        assert_eq!(quadrature_probability_2d(&g, &Vector::ZERO, 0.0, 8, 8), 0.0);
        assert_eq!(
            importance_sampling_probability(&g, &Vector::ZERO, 0.0, 10, &mut rng).unwrap(),
            0.0
        );
    }

    #[test]
    fn point_symmetry_of_gaussian() {
        // Paper Fig. 3's argument: by point symmetry, the probability for
        // o and its reflection o′ = 2q − o are equal.
        let g = Gaussian::new(Vector::from([50.0, 50.0]), sigma_paper(10.0)).unwrap();
        let o = Vector::from([80.0, 45.0]);
        let o_reflected = *g.mean() * 2.0 - o;
        let delta = 20.0;
        let p1 = quadrature_probability_2d(&g, &o, delta, 64, 128);
        let p2 = quadrature_probability_2d(&g, &o_reflected, delta, 64, 128);
        assert!((p1 - p2).abs() < 1e-10);
    }
}
