//! Special functions implemented from scratch.
//!
//! Everything downstream (θ-region radii, BF radii, analytic 1-D
//! probabilities) reduces to two classical special functions:
//!
//! * the log-gamma function `ln Γ(x)` (Lanczos approximation, g = 7, n = 9,
//!   the well-known coefficient set accurate to ~15 significant digits);
//! * the regularized lower incomplete gamma function
//!   `P(a, x) = γ(a, x) / Γ(a)`, computed by the standard dual scheme:
//!   a power series for `x < a + 1` and a Lentz continued fraction for the
//!   complementary function `Q(a, x)` otherwise (both from *Numerical
//!   Recipes*, which the paper itself cites as ref. 18).
//!
//! `erf`, `erfc`, and the standard normal CDF `Φ` are thin wrappers over
//! `P(1/2, x²)`.

/// Lanczos coefficients (g = 7, n = 9).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to roughly machine precision over the domain used here
/// (`x = d/2` for dimensions up to a few dozen, plus series intermediates).
///
/// # Panics
///
/// Debug-asserts `x > 0`; for `x ≤ 0` the reflection formula is not
/// implemented because no caller needs it.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos evaluated at x-1 (Γ(x) = (x-1)!-style shift).
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Floor of the expansions' iteration cap, which grows as `16·√a` (near
/// `x ≈ a` both need ~8·√a iterations).
const MAX_ITER: usize = 500;
/// Relative convergence tolerance.
const EPS: f64 = 1e-15;
/// Smallest representable pivot for the Lentz continued fraction.
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// * `P(a, 0) = 0`, `P(a, ∞) = 1`, monotone increasing in `x`.
/// * For the chi-squared distribution with `k` degrees of freedom,
///   `CDF(x) = P(k/2, x/2)` — the identity behind paper Eq. 7.
///
/// # Panics
///
/// Debug-asserts `a > 0` and `x ≥ 0`.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "regularized_gamma_p requires a > 0, got {a}");
    debug_assert!(x >= 0.0, "regularized_gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// Computed directly (not as `1 − P`) when `x ≥ a + 1`, so tail values far
/// below machine epsilon of 1 are still meaningful.
pub fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0);
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Power-series evaluation of `P(a, x)`, valid/fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    (gamma_p_sum(a, x) * ln_prefactor(a, x).exp()).clamp(0.0, 1.0)
}

/// The series `Σₙ xⁿ/(a(a+1)⋯(a+n)) = P(a, x)·Γ(a)/(x^a e^{−x})` for
/// `x < a + 1`: `P(a, x)` without its prefactor, so finite and full
/// precision where `P` itself underflows.
pub(crate) fn gamma_p_sum(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    let end = a + max_iter(a);
    while ap < end {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum
}

/// `ln Q(a, x)`, finite even where `Q` itself underflows: for
/// `x ≥ a + 1` the continued fraction's prefactor `x^a e^{−x}/Γ(a)` stays
/// in log space. The chi upper-tail inverse solves on this scale, so a
/// tail mass near the smallest subnormal still has a full-precision log.
pub(crate) fn ln_regularized_gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0);
    if x < a + 1.0 {
        regularized_gamma_q(a, x).ln()
    } else {
        gamma_q_fraction(a, x).ln() + ln_prefactor(a, x)
    }
}

/// Modified-Lentz continued fraction for `Q(a, x)`, valid/fast for `x ≥ a + 1`.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    (gamma_q_fraction(a, x) * ln_prefactor(a, x).exp()).clamp(0.0, 1.0)
}

/// The Lentz fraction `h` of `Q(a, x) = h · x^a e^{−x}/Γ(a)`.
fn gamma_q_fraction(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    let cap = max_iter(a);
    let mut i = 0.0;
    while i < cap {
        i += 1.0;
        let an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// The iteration cap of the expansions at shape `a`.
fn max_iter(a: f64) -> f64 {
    (MAX_ITER as f64).max(16.0 * a.sqrt())
}

/// Shape from which `x^a e^{−x}/Γ(a + 1)` is formed from Stirling's
/// series and the deviance instead of `a·ln x − x − ln Γ(a + 1)`, whose
/// terms of size `a·ln a` cancel to a result of size `ln a` (at
/// `a = 10¹¹` it keeps ~4 digits).
const STIRLING_FROM: f64 = 1e4;

/// `ln(x^a e^{−x}/Γ(a))`, the prefactor of both expansions.
fn ln_prefactor(a: f64, x: f64) -> f64 {
    if a < STIRLING_FROM {
        -x + a * x.ln() - ln_gamma(a)
    } else {
        a.ln() + ln_poisson_kernel(a, x)
    }
}

/// `ln(x^a e^{−x}/Γ(a + 1))` for `a ≥ 0`, `x > 0`: the log Poisson(x)
/// probability of `a`, continued to real `a`. Past [`STIRLING_FROM`] it
/// is `−½·ln 2πa − (1/(12a) − 1/(360a³)) − D`, with the deviance
/// `D = a·ln(a/x) + x − a` summed as `x·((1 + r)·ln(1 + r) − r)`,
/// `r = (a − x)/x`, whose error stays near `ε·|a − x|`. Where `r`
/// overflows (`x` tiny) or `1 + r` rounds to 0 (`x ≫ a`) the deviance is
/// not finite, and the direct form, exact enough that far out, is used.
pub(crate) fn ln_poisson_kernel(a: f64, x: f64) -> f64 {
    let direct = || a * x.ln() - x - ln_gamma(a + 1.0);
    if a < STIRLING_FROM {
        return direct();
    }
    let r = (a - x) / x;
    let deviance = x * ((1.0 + r) * r.ln_1p() - r);
    if !deviance.is_finite() {
        return direct();
    }
    -0.5 * (std::f64::consts::TAU * a).ln() - (1.0 / 12.0 - 1.0 / (360.0 * a * a)) / a - deviance
}

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{−t²} dt`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = regularized_gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, accurate in the
/// positive tail (uses `Q(1/2, x²)` directly).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        regularized_gamma_q(0.5, x * x)
    } else {
        1.0 + regularized_gamma_p(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF `Φ⁻¹(p)`.
///
/// Acklam's rational approximation (relative error ≲ 1.2·10⁻⁹) refined
/// with one Halley step against the exact [`std_normal_cdf`], giving
/// ~machine precision. Fast enough for the quasi-Monte-Carlo integrator,
/// which calls it once per sample coordinate.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires 0 < p < 1, got {p}");

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D_COEF: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D_COEF[0] * q + D_COEF[1]) * q + D_COEF[2]) * q + D_COEF[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D_COEF[0] * q + D_COEF[1]) * q + D_COEF[2]) * q + D_COEF[3]) * q + 1.0)
    };

    // One Halley refinement: u = (Φ(x) − p)/φ(x);
    // x ← x − u / (1 + x·u/2).
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    if pdf > 0.0 {
        let u = (std_normal_cdf(x) - p) / pdf;
        x - u / (1.0 + 0.5 * x * u)
    } else {
        x
    }
}

/// Natural log of the volume of the unit `d`-ball:
/// `ln V_d = (d/2)·ln π − ln Γ(d/2 + 1)`.
///
/// The uniform-ball Monte Carlo integrator multiplies mean density by the
/// ball volume `V_d·δ^d`; in 9-D that volume spans many orders of
/// magnitude, so it is carried in log space.
pub fn ln_unit_ball_volume(d: usize) -> f64 {
    let df = d as f64;
    0.5 * df * std::f64::consts::PI.ln() - ln_gamma(0.5 * df + 1.0)
}

/// Volume of the `d`-ball of radius `r`.
pub fn ball_volume(d: usize, r: f64) -> f64 {
    (ln_unit_ball_volume(d) + (d as f64) * r.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(1/2) = √π.
        assert!((gamma(1.0) - 1.0).abs() < TOL);
        assert!((gamma(2.0) - 1.0).abs() < TOL);
        assert!((gamma(5.0) - 24.0).abs() < 1e-10);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < TOL);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln Γ(x) + ln x.
        for &x in &[0.3, 1.7, 4.5, 10.0, 33.3] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0), "x = {x}");
        }
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(regularized_gamma_p(2.5, 0.0), 0.0);
        assert!((regularized_gamma_p(2.5, 1e6) - 1.0).abs() < TOL);
        assert_eq!(regularized_gamma_q(2.5, 0.0), 1.0);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 − e^{−x} (exponential distribution CDF).
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let expect = 1.0 - f64::exp(-x);
            assert!(
                (regularized_gamma_p(1.0, x) - expect).abs() < 1e-13,
                "x = {x}"
            );
        }
        // P(1/2, x) = erf(√x); anchor erf(1) = 0.842700792949715.
        assert!((regularized_gamma_p(0.5, 1.0) - 0.842_700_792_949_714_9).abs() < 1e-13);
    }

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.5, 1.0, 4.5, 20.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 50.0] {
                let s = regularized_gamma_p(a, x) + regularized_gamma_q(a, x);
                assert!((s - 1.0).abs() < 1e-12, "a = {a}, x = {x}");
            }
        }
    }

    /// Past the Stirling shape a subnormal `x` overflows `r = (a − x)/x`
    /// and `x ≫ a` rounds `1 + r` to 0; both leave the deviance NaN, and
    /// the direct form must answer instead.
    #[test]
    fn large_shape_at_extreme_arguments_is_not_nan() {
        for (a, x, p) in [(1e5, 1e-310, 0.0), (1e5, 5e-324, 0.0), (1e4, 1e300, 1.0)] {
            assert_eq!(regularized_gamma_p(a, x), p, "P({a}, {x})");
            assert_eq!(regularized_gamma_q(a, x), 1.0 - p, "Q({a}, {x})");
        }
        assert!(ln_poisson_kernel(1e5, 1e-310) < -7e7);
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-13);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-13);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-13);
        assert!((erf(5.0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.209049699858544e-5 — must retain relative accuracy.
        let v = erfc(3.0);
        assert!((v - 2.209_049_699_858_544e-5).abs() / v < 1e-10);
        // Symmetry erfc(−x) = 2 − erfc(x).
        assert!((erfc(-1.5) - (2.0 - erfc(1.5))).abs() < 1e-13);
    }

    #[test]
    fn normal_cdf_anchors() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < TOL);
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((std_normal_cdf(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-13);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.5, 0.8, 0.999] {
            let x = std_normal_quantile(p);
            assert!((std_normal_cdf(x) - p).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_rejects_out_of_range() {
        std_normal_quantile(1.0);
    }

    #[test]
    fn ball_volumes() {
        use std::f64::consts::PI;
        // V_1(r) = 2r, V_2(r) = πr², V_3(r) = 4/3 πr³.
        assert!((ball_volume(1, 2.0) - 4.0).abs() < 1e-12);
        assert!((ball_volume(2, 3.0) - PI * 9.0).abs() < 1e-10);
        assert!((ball_volume(3, 1.0) - 4.0 / 3.0 * PI).abs() < 1e-12);
        // 9-D unit ball volume: π^4.5/Γ(5.5) = 3.29850890...
        assert!((ball_volume(9, 1.0) - 3.298_508_902_738_707).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_gamma_p_monotone_in_x(a in 0.25..30.0f64, x in 0.0..50.0f64, dx in 0.01..5.0f64) {
            prop_assert!(regularized_gamma_p(a, x + dx) >= regularized_gamma_p(a, x) - 1e-14);
        }

        #[test]
        fn prop_gamma_p_in_unit_interval(a in 0.25..30.0f64, x in 0.0..100.0f64) {
            let p = regularized_gamma_p(a, x);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_erf_odd(x in -5.0..5.0f64) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
        }

        #[test]
        fn prop_normal_cdf_monotone(x in -8.0..8.0f64, dx in 0.001..2.0f64) {
            prop_assert!(std_normal_cdf(x + dx) > std_normal_cdf(x));
        }
    }
}
