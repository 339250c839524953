//! Centered ball probabilities of the standard Gaussian — the chi
//! distribution.
//!
//! For `x ~ N(0, I_d)`, the probability that `x` falls inside the centered
//! ball of radius `r` is
//!
//! ```text
//! P(‖x‖ ≤ r) = P(χ_d ≤ r) = P(χ²_d ≤ r²) = P(d/2, r²/2)
//! ```
//!
//! with `P(a, x)` the regularized lower incomplete gamma function. This is
//! exactly the integral of paper Eq. 7 defining `r̃_θ` (and by Property 1,
//! `r_θ = r̃_θ`), and it is the curve family plotted in the paper's Fig. 17.
//!
//! The paper looks `r_θ` up in a *U-catalog* of pre-tabulated Monte-Carlo
//! integrations; here the closed form is inverted directly
//! ([`chi_inverse`], [`chi_tail_inverse`]), and `gprq-core` solves every
//! query's `r_θ` that way.

use crate::specfun::{ln_gamma, ln_regularized_gamma_q, regularized_gamma_p, std_normal_quantile};

/// CDF of the chi-squared distribution with `d` degrees of freedom.
///
/// # Panics
///
/// Panics if `d == 0`; debug-asserts `x ≥ 0`.
pub fn chi_squared_cdf(d: usize, x: f64) -> f64 {
    assert!(d > 0, "chi-squared requires d >= 1");
    debug_assert!(x >= 0.0);
    regularized_gamma_p(0.5 * d as f64, 0.5 * x)
}

/// Probability that a standard `d`-dimensional Gaussian falls inside the
/// centered ball of radius `r`: `P(‖x‖ ≤ r)` (paper Eq. 7, Fig. 17).
pub fn chi_ball_probability(d: usize, r: f64) -> f64 {
    debug_assert!(r >= 0.0);
    chi_squared_cdf(d, r * r)
}

/// Inverse of [`chi_ball_probability`] in `r`: the radius containing
/// probability mass `p`.
///
/// `chi_inverse(d, 1 − 2θ)` is the paper's `r_θ` (Definition 5 +
/// Property 1); the executor solves it from the exact tail mass `2θ`
/// with [`chi_tail_inverse`]; the experiment bins and the tests call
/// this form.
///
/// Solved by safeguarded Newton steps in `r` on the log of the smaller
/// tail — `ln P(d/2, r²/2)` for `p ≤ ½`, `ln Q` on the exact `1 − p`
/// otherwise — with [`chi_pdf`] as the derivative. The start is the
/// Wilson–Hilferty cube-root normal approximation to the χ²_d quantile.
/// A bracket around the root rejects any Newton step that would leave it
/// (bisecting instead), and the solve stops once a step is below
/// `2·10⁻¹³·max(r, 1)`. Both tails are log-concave, so the steps
/// converge monotonically after the first; a handful of CDF evaluations
/// reach full precision.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)` or `d == 0`.
pub fn chi_inverse(d: usize, p: f64) -> f64 {
    assert!(d > 0, "chi distribution requires d >= 1");
    assert!(
        p > 0.0 && p < 1.0,
        "chi_inverse requires 0 < p < 1, got {p}"
    );
    if p > 0.5 {
        // Exact: 1 − p needs no rounding for p ∈ [½, 1] (Sterbenz).
        return solve_radius(d, 1.0 - p, Tail::Upper);
    }
    solve_radius(d, p, Tail::Lower)
}

/// Inverse of the chi upper tail: the radius `r` with `P(‖x‖ > r) = tail`
/// for a standard `d`-dimensional Gaussian.
///
/// This is how the executor computes `r_θ`: the mass outside the θ-region
/// is `2θ`, which is exact in floating point, while `1 − 2θ` rounds to 1
/// for `θ ≲ 1.1·10⁻¹⁶`. The solve runs on `ln Q(d/2, r²/2)`, so it stays
/// accurate for tails down to the smallest subnormal; the result is
/// finite for every `tail` in `(0, 1)`. Method as in [`chi_inverse`].
///
/// # Panics
///
/// Panics if `tail` is not in `(0, 1)` or `d == 0`.
pub fn chi_tail_inverse(d: usize, tail: f64) -> f64 {
    assert!(d > 0, "chi distribution requires d >= 1");
    assert!(
        tail > 0.0 && tail < 1.0,
        "chi_tail_inverse requires 0 < tail < 1, got {tail}"
    );
    solve_radius(d, tail, Tail::Upper)
}

/// Which tail of the chi distribution a radius solve matches.
#[derive(Clone, Copy)]
enum Tail {
    /// `P(‖x‖ ≤ r) = mass`.
    Lower,
    /// `P(‖x‖ > r) = mass`.
    Upper,
}

/// Solves for the radius whose `tail` mass is `mass`.
fn solve_radius(d: usize, mass: f64, tail: Tail) -> f64 {
    let df = d as f64;
    let a = 0.5 * df;
    let ln_mass = mass.ln();
    // Wilson–Hilferty: χ²_d quantile ≈ d·(1 − 2/(9d) + z·√(2/(9d)))³,
    // with z the normal quantile of the lower-tail mass.
    let z = match tail {
        Tail::Lower => std_normal_quantile(mass),
        Tail::Upper => -std_normal_quantile(mass),
    };
    let k = 2.0 / (9.0 * df);
    let cube = 1.0 - k + z * k.sqrt();
    let start = if cube > 0.0 {
        (df * cube * cube * cube).sqrt()
    } else {
        // Deep lower tail: P(a, y) ≈ y^a/Γ(a + 1).
        (2.0 * ((ln_mass + ln_gamma(a + 1.0)) / a).exp()).sqrt()
    };
    let ln_norm = (a - 1.0) * std::f64::consts::LN_2 + ln_gamma(a);
    newton_decreasing(start, f64::INFINITY, |r| {
        let y = 0.5 * r * r;
        // d/dr ln T(r) = ±pdf(r)/T(r), formed in log space so neither
        // factor underflows in the far tail.
        let ln_pdf = ln_chi_kernel(df, r) - ln_norm;
        match tail {
            Tail::Lower => {
                let ln_p = regularized_gamma_p(a, y).ln();
                (ln_mass - ln_p, -(ln_pdf - ln_p).exp())
            }
            Tail::Upper => {
                let ln_q = ln_regularized_gamma_q(a, y);
                (ln_q - ln_mass, -(ln_pdf - ln_q).exp())
            }
        }
    })
    .0
}

/// Relative step below which the safeguarded Newton solves stop.
const NEWTON_RTOL: f64 = 2e-13;
/// Evaluation cap of a safeguarded Newton solve. Doubling reaches any
/// finite bracket and bisection then narrows it to `NEWTON_RTOL` well
/// within it; a converging solve takes a handful.
const NEWTON_MAX_EVALS: u32 = 200;

/// Root of a decreasing `g` on `[0, ∞)` with `g(0) > 0`, by Newton steps
/// from `start`, safeguarded by a bracket. `g` returns its value and
/// derivative at a point.
///
/// The bracket is `[lo, hi]`, with `hi = ∞` until a point with `g ≤ 0`
/// is seen. A Newton step strictly inside the bracket is taken; any other
/// step is replaced by doubling `lo` while `hi = ∞` and by bisection
/// after. The solve stops when a Newton step or the bracket is below
/// `2·10⁻¹³·max(x, 1)` and returns that step clamped into the bracket.
/// A doubled point past `cap` is returned as is, unevaluated (the
/// caller's pathological bound). Returns the root and the number of
/// evaluations of `g`.
pub(crate) fn newton_decreasing(
    start: f64,
    cap: f64,
    mut g: impl FnMut(f64) -> (f64, f64),
) -> (f64, u32) {
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut x = if start.is_finite() {
        start.max(0.0)
    } else {
        0.0
    };
    for evals in 1..=NEWTON_MAX_EVALS {
        let (value, slope) = g(x);
        // Every bracket decision reads `g` itself; the slope only steers.
        // An exact root lands on `hi`, and its zero step ends the solve.
        if value > 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let newton = x - value / slope;
        let tol = NEWTON_RTOL * x.max(1.0);
        if (newton - x).abs() < tol || hi - lo < tol {
            // `max`/`min` also map a NaN step into the bracket.
            return (newton.max(lo).min(hi), evals);
        }
        x = if newton > lo && newton < hi {
            newton
        } else if hi.is_finite() {
            0.5 * (lo + hi)
        } else {
            let doubled = (2.0 * lo).max(1.0);
            if doubled > cap {
                return (doubled, evals);
            }
            doubled
        };
    }
    let last = if hi.is_finite() { 0.5 * (lo + hi) } else { lo };
    (last, NEWTON_MAX_EVALS)
}

/// Probability density function of the chi distribution with `d` degrees of
/// freedom, `f(r) = r^{d−1} e^{−r²/2} / (2^{d/2−1} Γ(d/2))`.
///
/// Exposed for the experiment harness (it annotates Fig. 17 with the mode
/// `√(d−1)` of the radial density, which explains the "curse of
/// dimensionality" discussion in §VI-B).
///
/// # Panics
///
/// Panics when `d = 0`: the chi distribution needs at least one degree
/// of freedom.
pub fn chi_pdf(d: usize, r: f64) -> f64 {
    assert!(d > 0);
    if r < 0.0 {
        return 0.0;
    }
    if r == 0.0 {
        return if d == 1 {
            (2.0 / std::f64::consts::PI).sqrt()
        } else {
            0.0
        };
    }
    let df = d as f64;
    let ln_pdf =
        ln_chi_kernel(df, r) - (0.5 * df - 1.0) * std::f64::consts::LN_2 - ln_gamma(0.5 * df);
    ln_pdf.exp()
}

/// The unnormalized log chi density `(d − 1)·ln r − r²/2`.
fn ln_chi_kernel(df: f64, r: f64) -> f64 {
    (df - 1.0) * r.ln() - 0.5 * r * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfun::regularized_gamma_q;
    use proptest::prelude::*;

    #[test]
    fn two_dimensional_closed_form() {
        // In 2-D, P(‖x‖ ≤ r) = 1 − e^{−r²/2} exactly.
        for &r in &[0.1, 0.5, 1.0, 2.0, 2.797, 5.0] {
            let expect = 1.0 - f64::exp(-0.5 * r * r);
            assert!(
                (chi_ball_probability(2, r) - expect).abs() < 1e-13,
                "r = {r}"
            );
        }
    }

    #[test]
    fn paper_fig17_anchor_2d() {
        // §VI-B: "if a query object obeys 2D pnorm distribution, the
        // probability that the object is located within distance one from
        // the origin is 39%".
        let p = chi_ball_probability(2, 1.0);
        assert!((p - 0.393_469_340_287_366_6).abs() < 1e-12);
    }

    #[test]
    fn paper_fig17_anchor_9d() {
        // §VI-B: "for the 9D case, the probability that a query object is
        // located within distance two from the query center is only 9%".
        let p = chi_ball_probability(9, 2.0);
        assert!((p - 0.089).abs() < 0.003, "got {p}");
    }

    #[test]
    fn paper_r_theta_anchors() {
        // §V/§VI anchors: r_θ for 1−2θ mass.
        // d = 2, θ = 0.01 → r_θ = 2.79…
        let r = chi_inverse(2, 0.98);
        assert!((r - 2.796_999).abs() < 1e-3, "got {r}");
        // d = 9, θ = 0.01 → r_θ = 4.44 (paper §VI-B).
        let r = chi_inverse(9, 0.98);
        assert!((r - 4.44).abs() < 0.01, "got {r}");
        // d = 9, θ = 0.40 → r_θ = 2.32 (paper §VI-A).
        let r = chi_inverse(9, 0.20);
        assert!((r - 2.32).abs() < 0.01, "got {r}");
    }

    #[test]
    fn inverse_round_trips() {
        for d in [1usize, 2, 3, 5, 9, 15] {
            for &p in &[0.01, 0.2, 0.5, 0.9, 0.999] {
                let r = chi_inverse(d, p);
                assert!(
                    (chi_ball_probability(d, r) - p).abs() < 1e-10,
                    "d = {d}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn two_dimensional_inverse_closed_form() {
        // In 2-D, r = √(−2 ln(1 − p)).
        for p in [1e-9f64, 0.01, 0.2, 0.5, 0.8, 0.98, 0.999, 1.0 - 1e-12] {
            let expect = (-2.0 * (-p).ln_1p()).sqrt();
            let r = chi_inverse(2, p);
            assert!(
                (r - expect).abs() <= 1e-13 * expect,
                "p = {p}: {r} vs {expect}"
            );
        }
    }

    #[test]
    fn tail_inverse_round_trips_the_exact_tail() {
        // r_θ from the upper-tail mass 2θ: finite, shrinking as θ grows,
        // and Q(d/2, r²/2) = 2θ wherever Q is a normal float.
        let thetas = [5e-324, 1e-300, 1e-100, 1e-17, 1e-10, 0.01, 0.4];
        for d in [1usize, 2, 9] {
            let mut previous = f64::INFINITY;
            for &theta in &thetas {
                let r = chi_tail_inverse(d, 2.0 * theta);
                assert!(
                    r.is_finite() && r <= previous,
                    "d = {d}, θ = {theta}: r = {r}"
                );
                previous = r;
                if theta >= 1e-100 {
                    let q = regularized_gamma_q(0.5 * d as f64, 0.5 * r * r);
                    assert!(
                        (q - 2.0 * theta).abs() <= 1e-10 * 2.0 * theta,
                        "d = {d}, θ = {theta}: Q = {q:e}"
                    );
                }
            }
        }
        // The upper half of `chi_inverse` is this solve on 1 − p.
        assert_eq!(chi_inverse(9, 0.98), chi_tail_inverse(9, 1.0 - 0.98));
    }

    #[test]
    #[should_panic(expected = "0 < tail < 1")]
    fn tail_inverse_rejects_zero_tail() {
        chi_tail_inverse(2, 0.0);
    }

    #[test]
    fn chi_squared_cdf_anchor() {
        // χ²_1: CDF(1) = erf(1/√2) = 0.682689492137086.
        assert!((chi_squared_cdf(1, 1.0) - 0.682_689_492_137_085_9).abs() < 1e-12);
        // χ²_2: CDF(x) = 1 − e^{−x/2}.
        assert!((chi_squared_cdf(2, 3.0) - (1.0 - (-1.5f64).exp())).abs() < 1e-13);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // Trapezoid-integrate the pdf and compare with the CDF (d = 5).
        let d = 5;
        let n = 20_000;
        let rmax = 4.0;
        let h = rmax / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let a = i as f64 * h;
            let b = a + h;
            acc += 0.5 * (chi_pdf(d, a) + chi_pdf(d, b)) * h;
        }
        assert!((acc - chi_ball_probability(d, rmax)).abs() < 1e-6);
    }

    #[test]
    fn pdf_edge_cases() {
        assert_eq!(chi_pdf(3, -1.0), 0.0);
        assert_eq!(chi_pdf(3, 0.0), 0.0);
        // d = 1 pdf at 0 is √(2/π) (half-normal).
        assert!((chi_pdf(1, 0.0) - (2.0 / std::f64::consts::PI).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn higher_dimension_needs_larger_radius() {
        // The "curse of dimensionality" effect of Fig. 17: at fixed radius,
        // the contained probability drops as d grows.
        let r = 2.0;
        let mut prev = 1.0;
        for d in [2usize, 3, 5, 9, 15] {
            let p = chi_ball_probability(d, r);
            assert!(p < prev, "d = {d}");
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn inverse_rejects_p_one() {
        chi_inverse(2, 1.0);
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn cdf_rejects_zero_dim() {
        chi_squared_cdf(0, 1.0);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone_in_radius(d in 1usize..16, r in 0.0..8.0f64, dr in 0.001..2.0f64) {
            prop_assert!(chi_ball_probability(d, r + dr) > chi_ball_probability(d, r) - 1e-15);
        }

        #[test]
        fn prop_cdf_decreasing_in_dim(d in 1usize..15, r in 0.1..6.0f64) {
            prop_assert!(chi_ball_probability(d, r) >= chi_ball_probability(d + 1, r) - 1e-12);
        }

        #[test]
        fn prop_inverse_consistent(d in 1usize..16, p in 0.001..0.999f64) {
            let r = chi_inverse(d, p);
            prop_assert!((chi_ball_probability(d, r) - p).abs() < 1e-9);
        }
    }
}
