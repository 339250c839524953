//! Statistical validation of the sampling and integration machinery:
//! goodness-of-fit of both normal generators — the ziggurat that serves
//! Phase 3 and the Box–Muller `StandardNormal` that builds the fixed
//! datasets — distributional checks of the Cholesky-transformed
//! sampler, and unbiasedness / convergence-rate checks of the
//! Monte-Carlo integrators.
//!
//! All tests are seeded and use generous significance margins so they are
//! deterministic in CI. The million-draw tests live here rather than in
//! the library's unit tests, which the Miri lane interprets.

use gprq_gaussian::chi::chi_squared_cdf;
use gprq_gaussian::integrate::{
    importance_sampling_probability, quadrature_probability_2d, uniform_ball_probability,
};
use gprq_gaussian::specfun::std_normal_cdf;
use gprq_gaussian::{Gaussian, GaussianSampler, StandardNormal};
use gprq_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts a Pearson chi-square fit of `samples` to `N(0, 1)` over 64
/// equiprobable buckets (boundaries at normal quantiles).
fn assert_normal_chi_square_fit(samples: &[f64]) {
    let buckets = 64;
    let mut counts = vec![0usize; buckets];
    for &x in samples {
        let u = std_normal_cdf(x);
        let b = ((u * buckets as f64) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let expected = samples.len() as f64 / buckets as f64;
    let stat: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    // χ²(63) has mean 63, std ≈ 11.2; 5σ margin keeps this deterministic
    // while still catching any real distributional defect.
    let dof = (buckets - 1) as f64;
    assert!(
        stat < dof + 5.0 * (2.0 * dof).sqrt(),
        "chi-square statistic {stat} too large for {dof} dof"
    );
    // And it should not be suspiciously *small* either (over-uniformity
    // would indicate a broken bucket mapping).
    assert!(stat > dof - 5.0 * (2.0 * dof).sqrt());
}

#[test]
fn box_muller_goodness_of_fit() {
    let mut rng = StdRng::seed_from_u64(20260706);
    let mut sn = StandardNormal::new();
    let samples: Vec<f64> = (0..100_000).map(|_| sn.sample(&mut rng)).collect();
    assert_normal_chi_square_fit(&samples);
}

/// `n` raw ziggurat normals: `GaussianSampler` over `N(0, 1)` in one
/// dimension returns `0 + (0.0 + 1·z) = z` exactly.
fn ziggurat_normals(n: usize, seed: u64) -> Vec<f64> {
    let g = Gaussian::<1>::standard();
    let mut sampler = GaussianSampler::new(&g);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sampler.sample(&mut rng)[0]).collect()
}

#[test]
fn ziggurat_goodness_of_fit() {
    assert_normal_chi_square_fit(&ziggurat_normals(1_000_000, 20261017));
}

#[test]
fn ziggurat_kolmogorov_smirnov() {
    let mut samples = ziggurat_normals(1_000_000, 4242);
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    let mut d_stat = 0.0f64;
    for (i, &x) in samples.iter().enumerate() {
        let cdf = std_normal_cdf(x);
        d_stat = d_stat.max((i + 1) as f64 / n - cdf).max(cdf - i as f64 / n);
    }
    // 1 % critical value of the KS statistic: 1.628 / √n ≈ 1.63·10⁻³.
    let critical = 1.628 / n.sqrt();
    assert!(d_stat < critical, "KS D = {d_stat}, critical {critical}");
}

#[test]
fn ziggurat_tails_match_the_normal_on_both_sides() {
    // Masses beyond ±3, beyond the ziggurat's tail edge R ≈ ±3.654 (the
    // exponential tail method), and beyond ±4, each side on its own,
    // against the binomial expectation with a 4σ band.
    let n = 4_000_000usize;
    let samples = ziggurat_normals(n, 77);
    for edge in [3.0, 3.654_152_885_361_009, 4.0] {
        let p = 1.0 - std_normal_cdf(edge);
        let expect = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let above = samples.iter().filter(|&&x| x > edge).count() as f64;
        let below = samples.iter().filter(|&&x| x < -edge).count() as f64;
        for (side, count) in [("upper", above), ("lower", below)] {
            assert!(
                (count - expect).abs() < 4.0 * sd,
                "{side} tail beyond {edge}: {count} draws, expected {expect:.1} ± {sd:.1}"
            );
        }
    }
    assert!(samples.iter().all(|x| x.is_finite()));
}

#[test]
fn box_muller_higher_moments() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut sn = StandardNormal::new();
    let n = 400_000usize;
    let (mut m3, mut m4) = (0.0, 0.0);
    for _ in 0..n {
        let z = sn.sample(&mut rng);
        m3 += z * z * z;
        m4 += z * z * z * z;
    }
    let skew = m3 / n as f64;
    let kurt = m4 / n as f64;
    // Skewness 0 (se ≈ √(6/n) ≈ 0.004), kurtosis 3 (se ≈ √(24/n) ≈ 0.008).
    assert!(skew.abs() < 0.02, "skewness {skew}");
    assert!((kurt - 3.0).abs() < 0.05, "kurtosis {kurt}");
}

#[test]
fn transformed_sampler_mahalanobis_is_chi_squared() {
    // For x ~ N(q, Σ), the Mahalanobis form (x−q)ᵗΣ⁻¹(x−q) follows a
    // χ²_d distribution — a complete end-to-end check of the Cholesky
    // transform against the analytic CDF.
    let s3 = 3.0f64.sqrt();
    let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
    let g = Gaussian::new(Vector::from([100.0, -50.0]), sigma).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut sampler = GaussianSampler::new(&g);
    let n = 100_000;
    // Empirical CDF vs analytic at several probe points.
    let probes = [0.5, 1.0, 2.0, 4.0, 8.0];
    let mut counts = [0usize; 5];
    for _ in 0..n {
        let x = sampler.sample(&mut rng);
        let m = g.mahalanobis_squared(&x);
        for (i, &p) in probes.iter().enumerate() {
            if m <= p {
                counts[i] += 1;
            }
        }
    }
    for (i, &p) in probes.iter().enumerate() {
        let empirical = counts[i] as f64 / n as f64;
        let analytic = chi_squared_cdf(2, p);
        assert!(
            (empirical - analytic).abs() < 0.006,
            "CDF at {p}: empirical {empirical} vs χ²₂ {analytic}"
        );
    }
}

#[test]
fn importance_sampling_is_unbiased() {
    // Mean of repeated estimates must converge to the oracle much faster
    // than the single-run standard error.
    let g = Gaussian::<2>::standard();
    let center = Vector::from([1.0, 0.5]);
    let delta = 1.2;
    let oracle = quadrature_probability_2d(&g, &center, delta, 64, 128);
    let reps = 200;
    let n = 2_000;
    let mut mean = 0.0;
    for r in 0..reps {
        let mut rng = StdRng::seed_from_u64(1000 + r);
        mean += importance_sampling_probability(&g, &center, delta, n, &mut rng).unwrap();
    }
    mean /= reps as f64;
    // se of the mean ≈ √(p(1−p)/(n·reps)) ≈ 0.0007; allow 5σ.
    assert!(
        (mean - oracle).abs() < 0.004,
        "bias detected: mean {mean} vs oracle {oracle}"
    );
}

#[test]
fn monte_carlo_error_shrinks_with_sqrt_n() {
    let g = Gaussian::<2>::standard();
    let center = Vector::from([0.8, 0.0]);
    let delta = 1.0;
    let oracle = quadrature_probability_2d(&g, &center, delta, 64, 128);
    let rmse = |n: usize, base: u64| {
        let reps = 40;
        let mut acc = 0.0;
        for r in 0..reps {
            let mut rng = StdRng::seed_from_u64(base + r);
            let e =
                importance_sampling_probability(&g, &center, delta, n, &mut rng).unwrap() - oracle;
            acc += e * e;
        }
        (acc / reps as f64).sqrt()
    };
    let e_small = rmse(1_000, 10);
    let e_large = rmse(16_000, 20);
    // 16× samples → 4× smaller error; allow slack factor 2.
    assert!(
        e_large < e_small / 2.0,
        "no √n convergence: {e_small} → {e_large}"
    );
}

/// RMSE of both estimators against a reference over seeded repetitions.
fn estimator_rmse_9d(
    g: &Gaussian<9>,
    center: &Vector<9>,
    delta: f64,
    reference: f64,
) -> (f64, f64) {
    let reps = 15;
    let n = 20_000;
    let (mut is_sq, mut ub_sq) = (0.0, 0.0);
    for r in 0..reps {
        let mut rng = StdRng::seed_from_u64(100 + r);
        let e1 =
            importance_sampling_probability(g, center, delta, n, &mut rng).unwrap() - reference;
        let e2 = uniform_ball_probability(g, center, delta, n, &mut rng) - reference;
        is_sq += e1 * e1;
        ub_sq += e2 * e2;
    }
    ((is_sq / reps as f64).sqrt(), (ub_sq / reps as f64).sqrt())
}

#[test]
fn uniform_ball_estimator_is_consistent_but_noisier_in_9d() {
    // The paper's §V-A claim behind choosing importance sampling holds
    // wherever the query ball captures substantial probability mass —
    // the regime that decides actual answers. (Reproduction finding: for
    // *tiny tail balls* the density is nearly constant across the ball
    // and the pdf-averaging estimator is actually quieter — see the
    // companion assertion below and the `ablation` bench.)
    let mut m = Matrix::<9>::identity();
    for i in 0..9 {
        m[(i, i)] = 0.4 + 0.15 * i as f64;
    }
    let g = Gaussian::new(Vector::<9>::splat(0.0), m).unwrap();

    // High-mass ball: importance sampling must win clearly.
    let center = Vector::<9>::splat(0.5);
    let delta = 4.0;
    let mut rng = StdRng::seed_from_u64(5);
    let reference =
        importance_sampling_probability(&g, &center, delta, 2_000_000, &mut rng).unwrap();
    assert!(
        reference > 0.5,
        "setup check: high-mass ball, got {reference}"
    );
    let (is_rmse, ub_rmse) = estimator_rmse_9d(&g, &center, delta, reference);
    assert!(
        ub_rmse > 2.0 * is_rmse,
        "high-mass: uniform-ball ({ub_rmse}) should be ≫ noisier than IS ({is_rmse})"
    );

    // Tail ball: the comparison flips (documented behaviour).
    let center = Vector::<9>::splat(0.5);
    let delta = 1.2;
    let mut rng = StdRng::seed_from_u64(6);
    let reference =
        importance_sampling_probability(&g, &center, delta, 2_000_000, &mut rng).unwrap();
    assert!(reference < 0.01, "setup check: tail ball, got {reference}");
    let (is_rmse, ub_rmse) = estimator_rmse_9d(&g, &center, delta, reference);
    assert!(
        ub_rmse < is_rmse,
        "tail: pdf-averaging ({ub_rmse}) should beat Bernoulli counting ({is_rmse})"
    );
}
