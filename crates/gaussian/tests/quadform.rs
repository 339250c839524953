//! Ruben's series (`quadform`) against its own certificate and the
//! closed forms, and the noncentral-χ² CDF its eigenvalue sandwich reads
//! at huge noncentralities. The randomized and heavy cases live here
//! rather than in the library's unit tests, which the Miri lane
//! interprets.

use gprq_gaussian::integrate::{analytic_interval_probability_1d, quadrature_probability_2d};
use gprq_gaussian::noncentral::{
    ball_probability, inverse_center_distance, isotropic_qualification_probability,
    noncentral_chi_squared_cdf,
};
use gprq_gaussian::quadform::{Bracket, RubenSeries};
use gprq_gaussian::specfun::std_normal_cdf;
use gprq_gaussian::Gaussian;
use gprq_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Truncation the converged values reach.
const CONVERGED: f64 = 1e-12;

/// A standard normal draw (Box–Muller; the tests need no speed).
fn normal(rng: &mut StdRng) -> f64 {
    let (u, v): (f64, f64) = (rng.gen::<f64>().max(1e-300), rng.gen());
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// A random orthonormal basis: the eigenvectors of a random symmetric
/// matrix.
fn random_rotation<const D: usize>(rng: &mut StdRng) -> Matrix<D> {
    let a = Matrix::<D>::from_fn(|_, _| normal(rng));
    let sym = Matrix::from_fn(|i, j| a[(i, j)] + a[(j, i)]);
    sym.symmetric_eigen()
        .expect("finite symmetric")
        .eigenvectors
}

/// `N(q, E·diag(λ)·Eᵀ)` with `λ` log-uniform over `[s, s·κ]`, the
/// extremes included, for a random scale `s` and rotation `E`.
fn random_gaussian<const D: usize>(rng: &mut StdRng, kappa: f64) -> (Gaussian<D>, [f64; D]) {
    let scale = 10f64.powf(rng.gen_range(-2.0..2.0));
    let mut lambda = [0.0; D];
    for (i, l) in lambda.iter_mut().enumerate() {
        let t = match i {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen::<f64>(),
        };
        *l = scale * kappa.powf(if D == 1 { 0.0 } else { t });
    }
    let e = random_rotation::<D>(rng);
    let sigma = Matrix::from_fn(|i, j| {
        let lower = (0..D)
            .map(|k| e[(i, k)] * lambda[k] * e[(j, k)])
            .sum::<f64>();
        let upper = (0..D)
            .map(|k| e[(j, k)] * lambda[k] * e[(i, k)])
            .sum::<f64>();
        0.5 * (lower + upper)
    });
    let mean = Vector::from_fn(|_| rng.gen_range(-100.0..100.0));
    (
        Gaussian::new(mean, sigma).expect("SPD by construction"),
        lambda,
    )
}

/// The bracket converged to a [`CONVERGED`]-wide truncation, or `None`
/// where the series' term cap comes first.
fn converged<const D: usize>(g: &Gaussian<D>, o: &Vector<D>, delta: f64) -> Option<Bracket> {
    let b = RubenSeries::new(g).bracket(g.mean(), o, delta, |b| b.truncation <= CONVERGED);
    (b.truncation <= CONVERGED).then_some(b)
}

/// The bracket at the term cap (the series summed to its last term and
/// intersected with the eigenvalue sandwich).
fn capped<const D: usize>(g: &Gaussian<D>, o: &Vector<D>, delta: f64) -> Bracket {
    RubenSeries::new(g).bracket(g.mean(), o, delta, |_| false)
}

/// Checks `want` against the converged value to `tol` and against the
/// capped bracket, widened by `tol`.
fn agrees<const D: usize>(g: &Gaussian<D>, o: &Vector<D>, delta: f64, want: f64, tol: f64) {
    let label = format!("Σ = {:?}, o = {o:?}, δ = {delta}", g.covariance());
    let got = converged(g, o, delta)
        .unwrap_or_else(|| panic!("{label}: no convergence within the cap"))
        .estimate;
    assert!((got - want).abs() <= tol, "{label}: {got:e} vs {want:e}");
    let b = capped(g, o, delta);
    assert!(
        b.lower - tol <= want && want <= b.upper + tol,
        "{label}: capped {b:?} vs {want:e}"
    );
}

/// A random case with `κ ≤ 10³`: offsets up to 6 whitened σ
/// (`Σbᵢ² ≤ 36`) in a random direction, radii from a tenth to 3 σmax.
fn random_case<const D: usize>(rng: &mut StdRng) -> (Gaussian<D>, Vector<D>, f64, String) {
    let kappa = 10f64.powf(rng.gen_range(0.0..3.0));
    let (g, lambda) = random_gaussian::<D>(rng, kappa);
    let max = lambda.iter().copied().fold(0.0, f64::max);
    let dir = Vector::<D>::from_fn(|_| normal(rng));
    let whitened = rng.gen_range(0.0..6.0) / dir.norm().max(1e-300);
    let e = *g.eigen();
    let local = Vector::<D>::from_fn(|i| whitened * dir[i] * e.eigenvalues[i].sqrt());
    let o = *g.mean() + e.from_eigenbasis(&local);
    let delta = max.sqrt() * rng.gen_range(0.1..3.0);
    (
        g,
        o,
        delta,
        format!("D = {D}: κ = {kappa:.1}, δ = {delta:.3}"),
    )
}

/// Every bracket on the way to the converged value, and the capped one,
/// contains it. A case the cap stops first has no converged value and is
/// skipped here (the 2-D ones are checked against quadrature below);
/// those must stay under a third.
fn brackets_contain_the_converged_value<const D: usize>(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut skipped = 0;
    for _ in 0..cases {
        let (g, o, delta, label) = random_case::<D>(&mut rng);
        let Some(reference) = converged(&g, &o, delta) else {
            skipped += 1;
            continue;
        };
        let value = reference.estimate;
        assert!(value.is_finite() && (0.0..=1.0).contains(&value), "{label}");
        // The converged value is itself known to ±½·truncation.
        let slack = 0.5 * reference.truncation;
        let contains = |b: &Bracket| b.lower <= value + slack && value - slack <= b.upper;
        let mut seen = 0;
        RubenSeries::new(&g).bracket(g.mean(), &o, delta, |b| {
            assert!(contains(b), "{label}: {b:?} vs {value}");
            seen += 1;
            b.truncation <= CONVERGED
        });
        assert!(seen >= 1, "{label}: {reference:?}");
        let capped = capped(&g, &o, delta);
        assert!(contains(&capped), "{label}: capped {capped:?} vs {value}");
    }
    assert!(
        skipped * 3 <= cases,
        "D = {D}: {skipped} of {cases} hit the cap"
    );
}

#[test]
fn brackets_contain_the_converged_value_for_kappa_up_to_1e3() {
    brackets_contain_the_converged_value::<1>(1, 40);
    brackets_contain_the_converged_value::<2>(2, 40);
    brackets_contain_the_converged_value::<3>(3, 30);
    brackets_contain_the_converged_value::<9>(9, 30);
}

/// The same 2-D cases, the capped ones included: the bracket at the cap
/// holds the quadrature value (512 × 1 024 nodes agree with 1 024 × 2 048
/// to ~10⁻¹⁴ on them).
#[test]
fn capped_brackets_hold_the_two_dimensional_quadrature() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut open = 0;
    for _ in 0..40 {
        let (g, o, delta, label) = random_case::<2>(&mut rng);
        let want = quadrature_probability_2d(&g, &o, delta, 512, 1024);
        let b = capped(&g, &o, delta);
        assert!(
            b.lower - 1e-9 <= want && want <= b.upper + 1e-9,
            "{label}: capped {b:?} vs {want:e}"
        );
        open += usize::from(b.upper - b.lower > 1e-6);
    }
    assert!(open > 0, "no case reached the cap undecided");
}

fn isotropic_agrees_with_the_noncentral_closed_form<const D: usize>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..50 {
        let sigma = 10f64.powf(rng.gen_range(-1.0..2.0));
        let g = Gaussian::new(Vector::ZERO, Matrix::<D>::identity().scale(sigma * sigma)).unwrap();
        let dist = sigma * rng.gen_range(0.0..6.0);
        let delta = sigma * rng.gen_range(0.05..5.0);
        let o = random_rotation::<D>(&mut rng).mul_vec(&Vector::from_fn(|i| {
            if i == 0 {
                dist
            } else {
                0.0
            }
        }));
        let want = isotropic_qualification_probability(D, sigma, o.norm(), delta);
        agrees(&g, &o, delta, want, 1e-12);
    }
}

#[test]
fn isotropic_sigma_agrees_with_the_noncentral_closed_form() {
    isotropic_agrees_with_the_noncentral_closed_form::<1>(11);
    isotropic_agrees_with_the_noncentral_closed_form::<2>(12);
    isotropic_agrees_with_the_noncentral_closed_form::<3>(13);
    isotropic_agrees_with_the_noncentral_closed_form::<9>(19);
}

#[test]
fn one_dimensional_agrees_with_the_interval_closed_form() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..200 {
        let (mean, std) = (
            rng.gen_range(-50.0..50.0),
            10f64.powf(rng.gen_range(-2.0..2.0)),
        );
        let g = Gaussian::new(Vector::from([mean]), Matrix::from_rows([[std * std]])).unwrap();
        let center = mean + std * rng.gen_range(-8.0..8.0);
        let delta = std * rng.gen_range(0.01..6.0);
        let want = analytic_interval_probability_1d(mean, std, center, delta);
        agrees(&g, &Vector::from([center]), delta, want, 1e-12);
    }
}

#[test]
fn two_dimensional_agrees_with_quadrature() {
    let s3 = 3.0f64.sqrt();
    let road = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
    let mut rng = StdRng::seed_from_u64(22);
    let mut sigmas = vec![road, Matrix::from_rows([[40.0, -12.0], [-12.0, 9.0]])];
    sigmas.extend((0..4).map(|_| *random_gaussian::<2>(&mut rng, 10.0).0.covariance()));
    for sigma in sigmas {
        let g = Gaussian::new(Vector::from([500.0, 500.0]), sigma).unwrap();
        let scale = g.eigen().max_eigenvalue().sqrt();
        for _ in 0..20 {
            let o = *g.mean() + Vector::from_fn(|_| scale * rng.gen_range(-3.0..3.0));
            let delta = scale * rng.gen_range(0.3..3.0);
            let want = quadrature_probability_2d(&g, &o, delta, 64, 128);
            agrees(&g, &o, delta, want, 1e-9);
        }
    }
}

/// An object 1 000 away under the road Σ (Eq. 34, γ = 10) lies far past
/// where `a₀` underflows; the eigenvalue sandwich rejects it with no
/// series term at all.
#[test]
fn far_object_under_the_road_sigma_is_rejected_before_the_cap() {
    let s3 = 3.0f64.sqrt();
    let road = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
    let g = Gaussian::new(Vector::from([500.0, 500.0]), road).unwrap();
    let mut series = RubenSeries::new(&g);
    for angle in [0.0f64, 0.7, 2.0, 4.0] {
        let o = *g.mean() + Vector::from([angle.cos(), angle.sin()]) * 1_000.0;
        let b = series.bracket(g.mean(), &o, 25.0, |b| b.upper < 0.01);
        assert!(b.upper < 0.01 && b.terms == 0, "angle {angle}: {b:?}");
    }
}

/// Past where `a₀` underflows the eigenvalue sandwich alone bounds `P`.
/// In one dimension `λmin = λmax` and the sandwich is exact, so it must
/// hold the interval closed form on both sides of the mean.
#[test]
fn sandwich_holds_the_one_dimensional_closed_form() {
    let g = Gaussian::new(Vector::from([0.0]), Matrix::from_rows([[1.0]])).unwrap();
    let pairs = [
        (40.0, 38.0),
        (50.0, 50.0),
        (60.0, 61.0),
        (80.0, 77.0),
        (1e4, 1e4),
    ];
    for (dist, delta) in pairs {
        let b = capped(&g, &Vector::from([dist]), delta);
        let want = analytic_interval_probability_1d(0.0, 1.0, dist, delta);
        assert!(
            b.terms == 0 && b.lower <= want && want <= b.upper,
            "dist = {dist}, δ = {delta}: {b:?} vs {want:e}"
        );
    }
}

/// Nothing admission lets through — κ up to 10¹², offsets with
/// `Σbᵢ²` up to 10¹², radii from 10⁻⁶ to 10⁶ σ — panics or yields NaN.
fn extremes_stay_finite<const D: usize>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for kappa in [1.0, 1e4, 1e8, 1e12] {
        let (g, lambda) = random_gaussian::<D>(&mut rng, kappa);
        let min = lambda.iter().copied().fold(f64::INFINITY, f64::min);
        let mut series = RubenSeries::new(&g);
        for m in [0.0, 1.0, 30.0, 1e3, 1e6] {
            for rho in [1e-6, 1.0, 1e3, 1e6] {
                let o = *g.mean() + Vector::from_fn(|i| if i == 0 { m * min.sqrt() } else { 0.0 });
                let delta = rho * min.sqrt();
                let label = format!("D = {D}, κ = {kappa:e}, m = {m:e}, δ/σmin = {rho:e}");
                let t = Instant::now();
                let b = series.bracket(g.mean(), &o, delta, |b| b.lower >= 0.4 || b.upper < 0.4);
                assert!(
                    0.0 <= b.lower
                        && b.lower <= b.estimate
                        && b.estimate <= b.upper
                        && b.upper <= 1.0,
                    "{label}: {b:?}"
                );
                assert!(
                    t.elapsed() < Duration::from_secs(2),
                    "{label}: {:?}",
                    t.elapsed()
                );
            }
        }
    }
}

#[test]
fn extreme_inputs_never_panic_or_yield_nan() {
    extremes_stay_finite::<1>(31);
    extremes_stay_finite::<2>(32);
    extremes_stay_finite::<9>(39);
}

/// The Poisson weights span ~8·√(λ/2) terms on each side of the mode, so
/// past λ ≈ 10¹⁰ the sweep must run beyond 100 000 terms: stopping there
/// reads 0.612 where the CDF is ≈ 1, and the sandwich's upper bound with
/// it.
#[test]
fn noncentral_cdf_covers_the_poisson_spread_at_huge_noncentrality() {
    let timed = |d: usize, lambda: f64, x: f64| {
        let t = Instant::now();
        let p = noncentral_chi_squared_cdf(d, lambda, x);
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "({d}, {lambda:e}, {x:e}): {:?}",
            t.elapsed()
        );
        p
    };
    for (d, lambda, x) in [(9, 2.45e11, 4.9e11), (2, 1e10, 2e10), (2, 1e9, 2e9)] {
        let p = timed(d, lambda, x);
        assert!((p - 1.0).abs() <= 1e-12, "({d}, {lambda:e}, {x:e}): {p}");
    }
    let at_mean = timed(9, 2.45e11, 2.45e11 + 9.0);
    assert!((at_mean - 0.5).abs() <= 0.01, "{at_mean}");
}

/// Below the mean at large λ the upward sweep stops after a few terms
/// (the central CDFs vanish above the mode) and the downward one runs
/// long, in blocks. Rescaling the sum by the Poisson weight the sweeps
/// covered reads high here (+18 % at λ = 1.5·10⁵, 20 sd down), and a
/// truncated incomplete-gamma start reads low. From ~30 sd down the
/// central CDF at the mode underflows, and the sum must start below the
/// mode, near the peak of its terms. In one and three dimensions the CDF
/// has closed forms in `Φ`:
/// `F₁ = Φ(√x − √λ) − Φ(−√x − √λ)` and
/// `F₃ = F₁ − (φ(√x − √λ) − φ(√x + √λ))/√λ`.
#[test]
fn noncentral_cdf_below_the_mean_matches_the_odd_closed_forms() {
    for lambda in [1.5e5, 1e6, 1e8] {
        for d in [1usize, 3] {
            for k in [3.0, 5.0, 10.0, 20.0, 30.0, 35.0] {
                let (x, want) = odd_closed_form(d, lambda, k);
                let got = noncentral_chi_squared_cdf(d, lambda, x);
                assert!(
                    want > 0.0 && (got - want).abs() <= 1e-9 * want,
                    "d = {d}, λ = {lambda:e}, {k} sd below: {got:e} vs {want:e}"
                );
            }
        }
    }
}

/// `(x, F_d(λ, x))` for the `x` that lies `k` sd below the mean of
/// `χ'²_d(λ)`, `d ∈ {1, 3}`, from the closed forms above.
fn odd_closed_form(d: usize, lambda: f64, k: f64) -> (f64, f64) {
    let pdf = |t: f64| (-0.5 * t * t).exp() / std::f64::consts::TAU.sqrt();
    let x = d as f64 + lambda - k * (2.0 * d as f64 + 4.0 * lambda).sqrt();
    let (r, m) = (x.sqrt(), lambda.sqrt());
    let f1 = std_normal_cdf(r - m) - std_normal_cdf(-r - m);
    let f = if d == 1 {
        f1
    } else {
        f1 - (pdf(r - m) - pdf(r + m)) / m
    };
    (x, f)
}

/// From λ ≈ 10⁸ the terms below the mode span more than ~10⁵ indices,
/// and from λ/2 = 2⁵³ an f64 index no longer counts down by one. There
/// the sum is taken by the trapezoid rule over its peak, so it returns
/// at once. At λ ≥ 10¹⁶ rounding `x` and `√λ` leaves the closed forms
/// themselves only ~10⁻⁶ relative, hence the bound.
#[test]
fn noncentral_cdf_far_below_the_mean_returns_at_huge_noncentrality() {
    let (send, recv) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for lambda in [1e16, 1e17, 1e18] {
            for d in [1usize, 3] {
                for k in [30.0, 37.0] {
                    let (x, want) = odd_closed_form(d, lambda, k);
                    let got = noncentral_chi_squared_cdf(d, lambda, x);
                    let _ = send.send((d, lambda, k, got, want));
                }
            }
        }
    });
    for _ in 0..12 {
        let (d, lambda, k, got, want) = recv
            .recv_timeout(Duration::from_secs(20))
            .expect("the noncentral CDF did not return");
        assert!(
            want > 0.0 && (got - want).abs() <= 1e-5 * want,
            "d = {d}, λ = {lambda:e}, {k} sd below: {got:e} vs {want:e}"
        );
    }
    worker.join().unwrap();
}

/// BF's radius solve reads the same far-below sums, and the fused
/// `F_{d+2}` beside them, at `ρ ≥ 10⁸` for a stiff Σ and a tiny θ: its
/// Newton iteration must converge there, to a center distance whose
/// ball probability is the target.
#[test]
fn inverse_center_distance_converges_far_below_the_mean_at_huge_radius() {
    let (send, recv) = std::sync::mpsc::channel();
    let cases = [(2usize, 2e8, 1e-194), (1, 1e9, 1e-250), (9, 3e8, 1e-290)];
    let worker = std::thread::spawn(move || {
        for (d, rho, target) in cases {
            let p = inverse_center_distance(d, rho, target).map(|b| ball_probability(d, b, rho));
            let _ = send.send((d, rho, target, p));
        }
    });
    for _ in cases {
        let (d, rho, target, p) = recv
            .recv_timeout(Duration::from_secs(20))
            .expect("the radius solve did not return");
        let p = p.unwrap_or(f64::NAN);
        assert!(
            (p - target).abs() <= 1e-4 * target,
            "d = {d}, ρ = {rho:e}: P = {p:e} at the solved distance, target {target:e}"
        );
    }
    worker.join().unwrap();
}
