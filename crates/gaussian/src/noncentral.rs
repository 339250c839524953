//! Off-center ball probabilities of the standard Gaussian — the noncentral
//! chi-squared distribution.
//!
//! The BF strategy (paper §IV-C) needs, for a standard Gaussian, the
//! probability mass inside a ball of radius `ρ` whose **center is at
//! distance `β` from the origin** (paper Eqs. 21 and 27):
//!
//! ```text
//! F_d(β, ρ) = ∫_{‖u − β·e₁‖ ≤ ρ} p_norm(u) du
//! ```
//!
//! By rotational symmetry only the distance `β` matters, and `‖u‖²` with
//! `u ~ N(β·e₁, I_d)` follows a noncentral chi-squared law with `d` degrees
//! of freedom and noncentrality `λ = β²`. Hence
//!
//! ```text
//! F_d(β, ρ) = P( χ'²_d(β²) ≤ ρ² )
//! ```
//!
//! which we evaluate with the classical Poisson mixture of central
//! chi-squared CDFs, expanded outward from the Poisson mode for numerical
//! robustness at large noncentralities.
//!
//! The paper builds its BF U-catalog `(δ, θ, α)` by Monte-Carlo integrating
//! these quantities offline; [`inverse_center_distance`] is the exact
//! analogue of the paper's `ucatalog_lookup(δ, θ)` (Eq. 21 solved for the
//! center offset), and `gprq-core` solves BF's radii with it per query.

use crate::chi::{chi_ball_probability, chi_squared_cdf, newton_decreasing};
use crate::specfun::{ln_poisson_kernel, std_normal_quantile};

/// Relative series truncation tolerance.
const SERIES_EPS: f64 = 1e-14;
/// Floor of the upward sweep's term cap, which grows as `16·√λ`: the
/// Poisson(λ/2) weights span ~8·√(λ/2) terms above the mode. The sweep
/// normally ends far sooner, on its tail bounds.
const MAX_TERMS: usize = 100_000;
/// Terms per block of a long sweep. At each block's end the weight and
/// the incomplete-gamma increment restart from [`ln_poisson_kernel`], so
/// millions of ratio products cannot drift, and the block's terms join
/// the total as one partial sum, so millions of terms are not each
/// rounded against a sum ~10⁶ times their size. A sweep within one block
/// sums as it always has (the pinned bits).
const BLOCK: usize = 4096;

/// CDF of the noncentral chi-squared distribution:
/// `P(χ'²_d(λ) ≤ x)` for `d ≥ 1` degrees of freedom and noncentrality
/// `λ ≥ 0`.
///
/// Evaluated as `Σⱼ Pois(j; λ/2) · P(χ²_{d+2j} ≤ x)`, summing outward from
/// the Poisson mode `⌊λ/2⌋` so the weights never underflow, with the
/// central CDFs advanced by the stable incomplete-gamma recurrence
/// `P(a+1, y) = P(a, y) − y^a e^{−y}/Γ(a+1)`.
///
/// # Panics
///
/// Panics if `d == 0`; debug-asserts `λ ≥ 0` and `x ≥ 0`.
pub fn noncentral_chi_squared_cdf(d: usize, lambda: f64, x: f64) -> f64 {
    assert!(d > 0, "noncentral chi-squared requires d >= 1");
    debug_assert!(lambda >= 0.0, "noncentrality must be >= 0, got {lambda}");
    debug_assert!(x >= 0.0);
    cdf_pair(d, lambda, x).0
}

/// `(F_d, F_{d+2})` at `(λ, x)`, with `F_k = P(χ'²_k(λ) ≤ x)`, from one
/// Poisson sweep.
///
/// `F_{d+2} = Σⱼ Pois(j; λ/2) · C_{j+1}` weighs the same terms as
/// `F_d = Σⱼ Pois(j; λ/2) · C_j` against the next central CDF
/// `C_{j+1} = P(χ²_{d+2j+2} ≤ x)`, which the sweep already computes:
/// upward it is `C_j − t_j`, downward the `C_j` held before `s_j` is
/// added. The truncation rules are those of `F_d` alone, so its value is
/// bit for bit the one [`noncentral_chi_squared_cdf`] returns; the pair
/// gives the noncentrality derivative `∂F_d/∂λ = ½(F_{d+2} − F_d)`.
fn cdf_pair(d: usize, lambda: f64, x: f64) -> (f64, f64) {
    let y = 0.5 * x; // incomplete-gamma argument
    if y <= 0.0 {
        // x = 0, or so small that x/2 rounds to 0 (the ratios below
        // divide by y).
        return (0.0, 0.0);
    }
    if lambda < 1e-300 {
        return (chi_squared_cdf(d, x), chi_squared_cdf(d + 2, x));
    }

    let a = 0.5 * d as f64; // central shape parameter
    let half_lambda = 0.5 * lambda;

    // Start at the Poisson mode.
    let j0 = half_lambda.floor() as usize;
    let w0 = ln_poisson_kernel(j0 as f64, half_lambda).exp();
    // Incomplete-gamma increment t_j = y^{a+j} e^{−y} / Γ(a+j+1), advanced
    // by the recurrences t_{j+1} = t_j · y/(a+j+1) (up) and
    // t_{j−1} = t_j · (a+j)/y (down) — no per-term ln Γ / exp.
    let ln_t0 = ln_poisson_kernel(a + j0 as f64, y);
    // Far below the mean `C_{j0}` is 0 or subnormal and the mass sits at
    // lower j. `C_{j0} ≤ t_{j0}·b/(b − y)` at `b = a + j0 > y` says so
    // before the incomplete-gamma series, which takes ~√λ terms, runs
    // (e⁻⁷¹⁶ is e⁻⁷·⁶ below the smallest normal double).
    let b0 = a + j0 as f64;
    if ln_t0 < -716.0 && b0 > y && ln_t0 + (b0 / (b0 - y)).ln() < -716.0 {
        return cdf_pair_below_mode(a, half_lambda, y);
    }
    let c0 = crate::specfun::regularized_gamma_p(b0, y);
    if c0 < f64::MIN_POSITIVE {
        return cdf_pair_below_mode(a, half_lambda, y);
    }
    let t0 = ln_t0.exp();

    // `sum` and `sum_next` hold the current block's terms, `total` the
    // earlier blocks' (F_d first, F_{d+2} second).
    let mut total = (0.0, 0.0);
    let mut sum = w0 * c0;
    let mut weight_used = w0;
    // Term j0 of F_{d+2}: w_{j0} · (C_{j0} − t_{j0}).
    let mut sum_next = w0 * (c0 - t0).max(0.0);

    // Upward sweep: j = j0+1, j0+2, …
    {
        let mut w = w0;
        let mut c = c0;
        let mut t = t0;
        let mut j = j0;
        let reach = (MAX_TERMS as f64).max(16.0 * lambda.sqrt());
        let mut step = 0usize;
        while (step as f64) < reach {
            step += 1;
            // Advance central CDF: C_{j+1} = C_j − t_j.
            c -= t;
            if c < 0.0 {
                c = 0.0;
            }
            t *= y / (a + j as f64 + 1.0);
            j += 1;
            w *= half_lambda / j as f64;
            if step % BLOCK == 0 {
                w = ln_poisson_kernel(j as f64, half_lambda).exp();
                t = ln_poisson_kernel(a + j as f64, y).exp();
                total = (total.0 + sum, total.1 + sum_next);
                (sum, sum_next) = (0.0, 0.0);
            }
            let term = w * c;
            sum += term;
            weight_used += w;
            sum_next += w * (c - t).max(0.0);
            let threshold = SERIES_EPS * (total.0 + sum).max(1e-300);
            if c == 0.0 {
                break;
            }
            // Two rigorous tail bounds; stop when either one is met:
            // (a) CDFs are decreasing in j, so the tail contributes at
            //     most (1 − weight_used)·c — but `weight_used` omits the
            //     below-mode half of the Poisson mass, so this alone can
            //     fail to trigger when `c` stops decaying;
            // (b) beyond the mode the weight ratio r = λ/2/(j+1) < 1 and
            //     keeps shrinking, so the remaining sum is at most
            //     term·r/(1−r) (a geometric majorant).
            if (1.0 - weight_used) * c < threshold {
                break;
            }
            let ratio = half_lambda / (j as f64 + 1.0);
            if ratio < 1.0 && term * ratio / (1.0 - ratio) < threshold {
                break;
            }
        }
    }

    // Downward sweep: j = j0−1, …, 0.
    if j0 > 0 {
        let mut w = w0;
        let mut c = c0;
        // s_j = y^{a+j−1} e^{−y} / Γ(a+j) is the downward increment:
        // C_{j−1} = C_j + s_j, and s_j = t_j · (a+j)/y.
        let mut s = t0 * (a + j0 as f64) / y;
        let mut j = j0;
        for step in 1.. {
            let c_above = c;
            c += s;
            if c > 1.0 {
                c = 1.0;
            }
            w *= j as f64 / half_lambda;
            j -= 1;
            s *= (a + j as f64) / y;
            if step % BLOCK == 0 && j > 0 {
                w = ln_poisson_kernel(j as f64, half_lambda).exp();
                s = ln_poisson_kernel(a + j as f64 - 1.0, y).exp();
                total = (total.0 + sum, total.1 + sum_next);
                (sum, sum_next) = (0.0, 0.0);
            }
            let term = w * c;
            sum += term;
            sum_next += w * c_above;
            // Below the mode each weight is r = j/(λ/2) < 1 times the
            // last, so the terms left out sum to about term·r/(1 − r),
            // and r/(1 − r) ≈ √(λ/2)/k at k sd below the mode: past the
            // first block that sum, not the term alone, must fall below
            // the tolerance.
            let ratio = j as f64 / half_lambda;
            let rest = if step < BLOCK {
                term
            } else {
                term * ratio / (1.0 - ratio)
            };
            if j == 0 || rest < SERIES_EPS * (total.0 + sum).max(1e-300) {
                break;
            }
        }
    }

    let (sum, sum_next) = (total.0 + sum, total.1 + sum_next);
    (sum.clamp(0.0, 1.0), sum_next.clamp(0.0, 1.0))
}

/// Peak width of the terms below the mode past which
/// [`cdf_pair_below_mode`] sums them by the trapezoid rule instead of
/// one by one. A sum one by one spans ~21 widths, so up to ~86 000 terms.
const TRAPEZOID_WIDTH: f64 = 4096.0;

/// [`cdf_pair`] where `C_{j0}` is 0 or subnormal, far below the mean.
/// There the sweeps from the mode would stop at their first term, while
/// the terms `w_j·C_j` that carry the mass lie well below the mode.
///
/// As `C_{j+1}/C_j ≤ y/(a+j+1)`, consecutive terms have ratio at most
/// `(λ/2)·y/((j+1)(a+j+1))`, so they peak near `j* = u − 1` with
/// `u(u + a) = λy/2`, in a window of width `σ = (1/u + 1/(u+a))^{−½}`.
/// The sum runs downward, which only adds positive terms, from
/// `j* + 12σ` (the terms above it are ~e⁻⁷² of the peak), or from the
/// mode if that is lower. Each term is `g_j·m_j` with
/// `g_j = w_j·t_j` in units of its start value, whose log is kept
/// apart, and `m_j = C_j/t_j = 1 + e_j`, where the excess
/// `e_j = C_{j+1}/t_j` obeys `e_{j−1} = (1 + e_j)·y/(a+j)`: `F_{d+2}`
/// sums `g_j·e_j`, and no term underflows before the final rescale.
/// Past [`TRAPEZOID_WIDTH`] (λ ≳ 10⁸) [`below_mode_trapezoid`] sums the
/// window instead, and this loop, at most `max(MAX_TERMS, 16·√λ)`
/// terms, is its fallback.
/// Where the Chernoff bound `F_d ≤ e^{tx}·E[e^{−tW}]`, at its optimum
/// `1 + 2t = (u + a)/y`, is below e⁻⁷⁴⁶, both values round to 0 and
/// nothing is summed.
#[cold]
fn cdf_pair_below_mode(a: f64, half_lambda: f64, y: f64) -> (f64, f64) {
    let u = 0.5 * ((a * a + 4.0 * half_lambda * y).sqrt() - a);
    let s = (u + a) / y;
    if (s - 1.0) * y - a * s.ln() - half_lambda * (s - 1.0) / s < -746.0 {
        return (0.0, 0.0);
    }
    let width = (u * (u + a) / (2.0 * u + a)).sqrt();
    if width > TRAPEZOID_WIDTH {
        if let Some(pair) = below_mode_trapezoid(a, half_lambda, y, (u - 1.0).max(0.0), width) {
            return pair;
        }
    }
    let top = (u - 1.0 + 12.0 * width).max(0.0).min(half_lambda).floor();
    let mut j = top as usize;
    let mut b = a + top;
    let ln_unit = ln_poisson_kernel(top, half_lambda) + ln_poisson_kernel(b, y);
    let mut g = 1.0;
    let mut excess = y * crate::specfun::gamma_p_sum(b + 1.0, y);
    let (mut sum, mut sum_next, mut last) = (0.0, 0.0, 0.0);
    let reach = (MAX_TERMS as f64).max(16.0 * (2.0 * half_lambda).sqrt());
    let mut step = 0usize;
    while (step as f64) < reach {
        step += 1;
        let term = g * (1.0 + excess);
        sum += term;
        sum_next += g * excess;
        // Past the peak the ratio of consecutive terms only shrinks, so
        // the terms left out sum to at most term·r/(1 − r).
        let ratio = term / last;
        if j == 0 || (ratio < 1.0 && term * ratio / (1.0 - ratio) < SERIES_EPS * sum) {
            break;
        }
        last = term;
        g *= j as f64 * b / (half_lambda * y);
        excess = (1.0 + excess) * y / b;
        j -= 1;
        b = a + j as f64;
    }
    let rescale = |s: f64| (s.ln() + ln_unit).exp().clamp(0.0, 1.0);
    (rescale(sum), rescale(sum_next))
}

/// [`cdf_pair_below_mode`]'s sum for a peak `width` past
/// [`TRAPEZOID_WIDTH`], by the trapezoid rule: the terms `g_j·m_j` are a
/// smooth bump in `j`, and by Poisson summation `h` times their sum over
/// any lattice of step `h` equals their sum over the integers up to
/// ~`e^{−2π²(σ/h)²}`, at `h = σ/4` far below rounding. So ~70 samples,
/// from `peak` outward until a term is below 10⁻¹⁷ of the sum, stand for
/// the ~20σ terms. `None` where a sample's [`watson_ratio`] does not
/// settle or the samples run out.
fn below_mode_trapezoid(
    a: f64,
    half_lambda: f64,
    y: f64,
    peak: f64,
    width: f64,
) -> Option<(f64, f64)> {
    const SAMPLES: usize = 64;
    let step = 0.25 * width;
    let ln_g = |j: f64| ln_poisson_kernel(j, half_lambda) + ln_poisson_kernel(a + j, y);
    let ln_unit = ln_g(peak);
    let (mut sum, mut sum_next) = (0.0, 0.0);
    for (first, sign) in [(0, 1.0), (1, -1.0)] {
        let mut settled = false;
        for i in first..SAMPLES {
            let j = peak + sign * step * i as f64;
            if j < 0.0 {
                settled = true;
                break;
            }
            let m = watson_ratio(a + j, y)?;
            let g = (ln_g(j) - ln_unit).exp();
            sum += g * m;
            sum_next += g * (m - 1.0);
            if g * m < 1e-17 * sum {
                settled = true;
                break;
            }
        }
        if !settled {
            return None;
        }
    }
    let rescale = |s: f64| (s.ln() + ln_unit + step.ln()).exp().clamp(0.0, 1.0);
    Some((rescale(sum), rescale(sum_next)))
}

/// `m = C_j/t_j = P(b, y)·Γ(b + 1)/(y^b e^{−y})` at `b = a + j > y`, as
/// `b∫₀^∞ e^{−(b−y)v}·e^{y(1 − v − e^{−v})} dv` by Watson's lemma: with
/// `v = w/s`, `s = b − y`, the second factor is `exp(Σᵢ₌₂ pᵢwⁱ)`,
/// `pᵢ = −y(−1)ⁱ/(i!·sⁱ)`, a power series `Σ eₖwᵏ`, and
/// `m = (b/s)·Σ k!·eₖ = (b/s)(1 − τ + 3τ² − …)`, asymptotic in
/// `τ = y/s²`. `None` unless its terms fall below 10⁻¹⁷ of the sum
/// within 64 (they do for `τ ≲ 1/50`).
fn watson_ratio(b: f64, y: f64) -> Option<f64> {
    const POWERS: usize = 8;
    const TERMS: usize = 64;
    let s = b - y;
    if !(s > 0.0 && s.is_finite()) {
        return None;
    }
    // q[i] = i·pᵢ.
    let mut q = [0.0; POWERS + 1];
    let mut p = y / s;
    for (i, qi) in q.iter_mut().enumerate().skip(2) {
        p *= -1.0 / (i as f64 * s);
        *qi = i as f64 * p;
    }
    // f[k] = k!·eₖ, from k·eₖ = Σᵢ i·pᵢ·e_{k−i}: the sum over i = 2, 3, …
    // pairs q[i] with f[k−2], f[k−3], … and (k−1)!/(k−i)!.
    let mut f = [0.0; TERMS];
    let (mut sum, mut last) = (0.0, 0.0f64);
    for k in 0..TERMS {
        let mut next = if k == 0 { 1.0 } else { 0.0 };
        let mut falling = 1.0;
        let below = f.iter().take(k.saturating_sub(1)).rev();
        for (n, (&qi, &fi)) in q.iter().skip(2).zip(below).enumerate() {
            falling *= (k - 1 - n) as f64;
            next += qi * fi * falling;
        }
        if let Some(slot) = f.get_mut(k) {
            *slot = next;
        }
        sum += next;
        if k > 0 && next.abs() + last.abs() < 1e-17 * sum.abs() {
            return Some(b / s * sum);
        }
        last = next;
    }
    None
}

/// Probability that a standard `d`-dimensional Gaussian falls inside the
/// ball of radius `rho` centered at distance `beta` from the origin
/// (paper Eq. 21 / Eq. 27, the BF catalog integrand).
pub fn ball_probability(d: usize, beta: f64, rho: f64) -> f64 {
    debug_assert!(beta >= 0.0 && rho >= 0.0);
    if rho == 0.0 {
        return 0.0;
    }
    noncentral_chi_squared_cdf(d, beta * beta, rho * rho)
}

/// Closed-form qualification probability for an **isotropic** query
/// Gaussian: for `x ~ N(q, σ²I_d)` and a target object at distance
/// `dist = ‖o − q‖`, returns `Pr(‖x − o‖ ≤ δ)`.
///
/// Standardizing by σ reduces the integral to the noncentral-χ² ball
/// probability with center offset `dist/σ` and radius `δ/σ` — the exact
/// value the Monte-Carlo estimators approximate, which makes this the
/// oracle for the statistical conformance suite. Non-finite or
/// non-positive `sigma` yields `0.0` rather than a panic.
pub fn isotropic_qualification_probability(d: usize, sigma: f64, dist: f64, delta: f64) -> f64 {
    let well_posed = sigma.is_finite() && sigma > 0.0 && dist >= 0.0 && delta > 0.0;
    if !well_posed {
        return 0.0;
    }
    ball_probability(d, dist / sigma, delta / sigma)
}

/// Solves `ball_probability(d, β, rho) = target` for the center distance β.
///
/// This is the exact form of the paper's `ucatalog_lookup(δ, θ)` (§IV-C):
/// given the ball radius and a probability threshold, it returns how far
/// from the distribution center the ball's center may sit while still
/// capturing probability mass `target`.
///
/// Returns `None` when even the centered ball (`β = 0`) holds less than
/// `target` mass — the situation of paper Eq. 37 where no internal
/// "hole" exists and the BF sure-accept radius `α⊥` is undefined — and
/// `Some(0.0)` when it holds exactly `target`. A target below what the
/// series can resolve returns a pathological `β > 10⁸`.
///
/// Solved by safeguarded Newton steps in the noncentrality `λ = β²`,
/// where `F(λ) = P(χ'²_d(λ) ≤ ρ²)` has the derivative
/// `∂F_d/∂λ = ½(F_{d+2} − F_d)`; one Poisson sweep yields both CDFs. The
/// steps solve `ln F(λ) = ln target` (slope `½(F_{d+2}/F_d − 1)`), which
/// is close to linear in λ far into the tail, where `F` itself decays
/// exponentially and Newton would crawl. In `β` the slope
/// `β·(F_{d+2} − F_d)` vanishes at the center, which stalls roots near
/// it. The start solves the two-moment normal approximation
/// `χ'²_d(λ) ≈ N(d + λ, 2d + 4λ)`: `(ρ² − d − λ)² = z²(2d + 4λ)` with
/// `z = Φ⁻¹(target)`, taking the root with `sign(ρ² − d − λ) = sign(z)`,
/// clamped at 0. A bracket `[lo, hi]` (`hi = ∞` until a point with
/// `F ≤ target`, then expansion by doubling) rejects Newton steps that
/// would leave it, bisecting instead; every bracket decision reads `F_d`.
/// The solve stops once a step or the bracket is below
/// `2·10⁻¹³·max(λ, 1)` — after 4–5 sweeps on the paper's workloads.
///
/// # Panics
///
/// Panics unless `0 < target < 1` and `rho > 0`.
pub fn inverse_center_distance(d: usize, rho: f64, target: f64) -> Option<f64> {
    assert!(
        target > 0.0 && target < 1.0,
        "target probability must be in (0, 1), got {target}"
    );
    assert!(rho > 0.0, "ball radius must be positive");
    solve_center_distance(d, rho, target).0
}

/// Noncentralities past this (`β > 10⁸`) end the solve as pathological.
const LAMBDA_CAP: f64 = 1e16;

/// [`inverse_center_distance`] on validated inputs, plus the number of
/// Poisson sweeps it took.
fn solve_center_distance(d: usize, rho: f64, target: f64) -> (Option<f64>, u32) {
    let at_center = chi_ball_probability(d, rho);
    if at_center < target {
        return (None, 0);
    }
    if at_center == target {
        return (Some(0.0), 0);
    }

    let x = rho * rho;
    let z = std_normal_quantile(target);
    let (z2, df) = (z * z, d as f64);
    // u = x − d − λ solves u² + 4z²u − z²(4x − 2d) = 0; keep sign(u) = sign(z).
    let u = -2.0 * z2 + z.signum() * (4.0 * z2 * z2 + z2 * (4.0 * x - 2.0 * df)).sqrt();
    let start = (x - df - u).max(0.0);
    let ln_target = target.ln();
    let (lambda, sweeps) = newton_decreasing(start, LAMBDA_CAP, |lambda| {
        let (f, f_next) = cdf_pair(d, lambda, x);
        // d ln F/dλ = ½(F_{d+2} − F_d)/F_d.
        (f.ln() - ln_target, 0.5 * (f_next / f - 1.0))
    });
    (Some(lambda.sqrt()), sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfun::std_normal_cdf;
    use proptest::prelude::*;

    #[test]
    fn zero_noncentrality_matches_central() {
        for d in [1usize, 2, 5, 9] {
            for &x in &[0.5, 1.0, 4.0, 10.0] {
                let nc = noncentral_chi_squared_cdf(d, 0.0, x);
                let c = chi_squared_cdf(d, x);
                assert!((nc - c).abs() < 1e-13, "d = {d}, x = {x}");
            }
        }
    }

    #[test]
    fn isotropic_qualification_reduces_to_standardized_ball() {
        for &sigma in &[2.0, 5.0] {
            for &dist in &[0.0, 5.0, 12.0] {
                for &delta in &[5.0, 15.0] {
                    let got = isotropic_qualification_probability(2, sigma, dist, delta);
                    let expect = ball_probability(2, dist / sigma, delta / sigma);
                    assert!(
                        (got - expect).abs() < 1e-15,
                        "σ = {sigma}, dist = {dist}, δ = {delta}"
                    );
                }
            }
        }
        // Degenerate inputs degrade to 0 instead of panicking.
        assert_eq!(isotropic_qualification_probability(2, 0.0, 1.0, 1.0), 0.0);
        assert_eq!(
            isotropic_qualification_probability(2, f64::NAN, 1.0, 1.0),
            0.0
        );
        assert_eq!(
            isotropic_qualification_probability(2, 1.0, f64::NAN, 1.0),
            0.0
        );
        assert_eq!(isotropic_qualification_probability(2, 1.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn one_dimensional_closed_form() {
        // In 1-D the ball is an interval: F₁(β, ρ) = Φ(β+ρ) − Φ(β−ρ)
        // (mass of N(0,1) in [β−ρ, β+ρ], by symmetry of the Gaussian).
        for &beta in &[0.0, 0.5, 1.0, 2.5, 6.0] {
            for &rho in &[0.25, 1.0, 3.0] {
                let expect = std_normal_cdf(beta + rho) - std_normal_cdf(beta - rho);
                let got = ball_probability(1, beta, rho);
                assert!(
                    (got - expect).abs() < 1e-11,
                    "β = {beta}, ρ = {rho}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn two_dimensional_against_numeric_reference() {
        // Direct 2-D polar quadrature of the standard Gaussian over an
        // off-center disc, as an independent oracle.
        fn reference(beta: f64, rho: f64) -> f64 {
            let n = 2_000;
            let mut acc = 0.0;
            for i in 0..n {
                let r = (i as f64 + 0.5) / n as f64 * rho;
                for j in 0..n / 4 {
                    let phi = (j as f64 + 0.5) / (n / 4) as f64 * std::f64::consts::TAU;
                    let x = beta + r * phi.cos();
                    let y = r * phi.sin();
                    acc += (-0.5 * (x * x + y * y)).exp() * r;
                }
            }
            acc * (rho / n as f64) * (std::f64::consts::TAU / (n / 4) as f64)
                / std::f64::consts::TAU
                * std::f64::consts::TAU
                / (2.0 * std::f64::consts::PI)
        }
        for &(beta, rho) in &[(0.5, 1.0), (2.0, 1.5), (3.0, 0.5)] {
            let got = ball_probability(2, beta, rho);
            let expect = reference(beta, rho);
            assert!(
                (got - expect).abs() < 1e-4,
                "β = {beta}, ρ = {rho}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn large_noncentrality_terminates_quickly() {
        // Regression test for the upward-sweep termination bound: at
        // β = 106, ρ = 100 (a far-corner U-catalog entry) the old
        // `(1 − weight_used)·c` bound never fired because `weight_used`
        // omits the below-mode Poisson mass, so the loop ran to
        // MAX_TERMS. With the geometric tail bound the evaluation takes
        // microseconds; this asserts both the value and a time budget
        // generous enough for any CI machine.
        let t = std::time::Instant::now();
        let p = ball_probability(2, 106.0, 100.0);
        assert!(
            (p - 9.575e-10).abs() < 1e-12,
            "value changed: {p:e} (expected ≈ 9.575e-10)"
        );
        assert!(
            t.elapsed() < std::time::Duration::from_millis(50),
            "far-corner evaluation too slow: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn large_noncentrality_is_stable() {
        // λ/2 far past where naive j=0 series weights underflow.
        let p = noncentral_chi_squared_cdf(5, 3000.0, 3100.0);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        assert!(p > 0.5, "median of χ'² is near d + λ, got {p}");
        let far = noncentral_chi_squared_cdf(5, 3000.0, 100.0);
        assert!(far < 1e-10);
    }

    #[test]
    fn inverse_round_trips() {
        for d in [1usize, 2, 3, 9] {
            for &rho in &[0.5, 1.0, 2.5] {
                for &target in &[0.01, 0.1, 0.3] {
                    if let Some(beta) = inverse_center_distance(d, rho, target) {
                        let back = ball_probability(d, beta, rho);
                        assert!(
                            (back - target).abs() < 1e-9,
                            "d = {d}, ρ = {rho}, θ = {target}: β = {beta}, back = {back}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_none_when_ball_too_small() {
        // A tiny ball in 9-D cannot hold 40% mass anywhere (paper Eq. 37
        // regime: no internal hole → α⊥ undefined).
        assert!(inverse_center_distance(9, 0.5, 0.4).is_none());
        // But a huge ball can, even well off-center.
        assert!(inverse_center_distance(9, 10.0, 0.4).is_some());
    }

    #[test]
    fn inverse_boundary_exact_center() {
        let d = 2;
        let rho = 1.0;
        let at_center = chi_ball_probability(d, rho);
        let beta = inverse_center_distance(d, rho, at_center * 0.999_999).unwrap();
        assert!(beta < 0.01, "target just under center mass → β ≈ 0");
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn inverse_rejects_bad_target() {
        inverse_center_distance(2, 1.0, 0.0);
    }

    /// At λ ≳ 2·10⁴ a subnormal `x` overflows the kernel's deviance, and
    /// an `x` whose half rounds to 0 would be divided by; the CDF there
    /// is 0, not NaN.
    #[test]
    fn subnormal_argument_at_large_noncentrality_is_zero() {
        for (d, lambda, x) in [(2, 1e5, 1e-304), (9, 3e4, 1e-310), (1, 1e8, 5e-324)] {
            assert_eq!(
                noncentral_chi_squared_cdf(d, lambda, x),
                0.0,
                "({d}, {lambda}, {x})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ball radius must be positive")]
    fn inverse_rejects_bad_radius() {
        inverse_center_distance(2, 0.0, 0.5);
    }

    /// `(d, λ, x)` points across both tails and the bulk of the pair.
    fn pair_grid() -> impl Iterator<Item = (usize, f64, f64)> {
        [1usize, 2, 5, 9, 12].into_iter().flat_map(|d| {
            [0.3, 2.5, 12.0, 55.0, 400.0]
                .into_iter()
                .flat_map(move |lambda| {
                    [0.5, 4.0, 20.0, 80.0, 450.0]
                        .into_iter()
                        .map(move |x| (d, lambda, x))
                })
        })
    }

    #[test]
    fn fused_sweep_second_value_is_the_next_dimension() {
        for (d, lambda, x) in pair_grid() {
            let (f, f_next) = cdf_pair(d, lambda, x);
            assert_eq!(
                f.to_bits(),
                noncentral_chi_squared_cdf(d, lambda, x).to_bits()
            );
            let direct = noncentral_chi_squared_cdf(d + 2, lambda, x);
            assert!(
                (f_next - direct).abs() <= 1e-13,
                "d = {d}, λ = {lambda}, x = {x}: {f_next:e} vs {direct:e}"
            );
        }
        // The central branch pairs P(a, y) with P(a + 1, y).
        assert_eq!(
            cdf_pair(3, 0.0, 2.0),
            (chi_squared_cdf(3, 2.0), chi_squared_cdf(5, 2.0))
        );
    }

    #[test]
    fn fused_sweep_gives_the_noncentrality_derivative() {
        // ∂F_d/∂λ = ½(F_{d+2} − F_d) against a central difference in λ.
        let mut checked = 0;
        for (d, lambda, x) in pair_grid() {
            let (f, f_next) = cdf_pair(d, lambda, x);
            let slope = 0.5 * (f_next - f);
            if slope.abs() < 1e-6 {
                continue; // a saturated tail: the difference is all rounding
            }
            let h = 1e-4 * lambda;
            let fd = (noncentral_chi_squared_cdf(d, lambda + h, x)
                - noncentral_chi_squared_cdf(d, lambda - h, x))
                / (2.0 * h);
            assert!(
                (fd - slope).abs() <= 1e-6 * slope.abs(),
                "d = {d}, λ = {lambda}, x = {x}: {fd:e} vs {slope:e}"
            );
            checked += 1;
        }
        assert!(checked >= 40, "grid too saturated: {checked} points");
    }

    #[test]
    fn cdf_bits_are_pinned() {
        // `isotropic_qualification_probability` is the conformance
        // oracle, so the series' value may not move by a single bit.
        let pinned: [(usize, f64, f64, u64); 11] = [
            (2, 0.0, 3.0, 0x3fe8_dc1e_236d_28fd),
            (1, 1e-5, 0.2, 0x3fd6_1906_f733_d2b3),
            (1, 0.5, 1.0, 0x3fe2_4810_aafd_3c9d),
            (2, 2.5, 6.9, 0x3fe9_260e_05bc_f648),
            (2, 54.7, 6.944, 0x3ea2_b3bf_516f_b857),
            (9, 0.3, 4.9, 0x3fc2_6430_77b1_3f81),
            (9, 12.0, 20.0, 0x3fdf_b954_7a96_cc24),
            (12, 100.0, 50.0, 0x3f26_5c0a_c8cb_48f7),
            (3, 40.0, 0.01, 0x3d64_027b_1923_444b),
            (5, 3000.0, 3100.0, 0x3fe9_d80b_caea_4cbf),
            (2, 11236.0, 10000.0, 0x3e10_732c_6fdd_19b4),
        ];
        for (d, lambda, x, bits) in pinned {
            let got = noncentral_chi_squared_cdf(d, lambda, x);
            assert_eq!(
                got.to_bits(),
                bits,
                "d = {d}, λ = {lambda}, x = {x}: {got:e}"
            );
        }
    }

    /// BF's `(d, ρ, target)` problems for a Σ given by its eigenvalues:
    /// the reject radius from `λ∥ = 1/max`, the accept radius from
    /// `λ⊥ = 1/min` when its target is below 1 (paper Eqs. 28–31).
    fn bf_problems(eigenvalues: &[f64], delta: f64, theta: f64) -> Vec<(usize, f64, f64)> {
        let d = eigenvalues.len();
        let half_d = 0.5 * d as f64;
        let ln_det: f64 = eigenvalues.iter().map(|e| e.ln()).sum();
        let max = eigenvalues.iter().copied().fold(f64::MIN, f64::max);
        let min = eigenvalues.iter().copied().fold(f64::MAX, f64::min);
        [1.0 / max, 1.0 / min]
            .into_iter()
            .map(|lambda| {
                let target = (half_d * lambda.ln() + 0.5 * ln_det + theta.ln()).exp();
                (d, lambda.sqrt() * delta, target)
            })
            .filter(|&(_, _, target)| target < 1.0)
            .collect()
    }

    #[test]
    fn sweeps_per_solve_on_the_workload_families() {
        let check = |family: &str, sigmas: &[Vec<f64>], delta: f64, theta: f64| {
            let sweeps: Vec<u32> = sigmas
                .iter()
                .flat_map(|eig| bf_problems(eig, delta, theta))
                .map(|(d, rho, target)| {
                    let (beta, sweeps) = solve_center_distance(d, rho, target);
                    assert!(beta.is_some(), "{family}: ρ = {rho}, target = {target}");
                    sweeps
                })
                .collect();
            let mean = f64::from(sweeps.iter().sum::<u32>()) / sweeps.len() as f64;
            let max = sweeps.iter().copied().max().unwrap_or(0);
            assert!(
                mean <= 10.0 && max <= 16,
                "{family}: {mean} sweeps per solve on average, {max} at most ({sweeps:?})"
            );
        };
        // Eq. 34 at γ = 10 has eigenvalues 90 and 10.
        check("road", &[vec![90.0, 10.0]], 25.0, 0.01);
        check("churn", &[vec![10.0, 10.0]], 25.0, 0.01);
        let feedback_like: Vec<Vec<f64>> = [1.0f64, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
            .into_iter()
            .map(|kappa| {
                (0..9)
                    .map(|i| 0.01 * kappa.powf(f64::from(i) / 8.0))
                    .collect()
            })
            .collect();
        check("9-D feedback-like", &feedback_like, 0.7, 0.4);
    }

    proptest! {
        #[test]
        fn prop_cdf_in_unit_interval(d in 1usize..12, lambda in 0.0..200.0f64, x in 0.0..400.0f64) {
            let p = noncentral_chi_squared_cdf(d, lambda, x);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_monotone_in_x(d in 1usize..10, lambda in 0.0..50.0f64, x in 0.0..50.0f64, dx in 0.01..10.0f64) {
            let a = noncentral_chi_squared_cdf(d, lambda, x);
            let b = noncentral_chi_squared_cdf(d, lambda, x + dx);
            prop_assert!(b >= a - 1e-12);
        }

        #[test]
        fn prop_decreasing_in_noncentrality(d in 1usize..10, lambda in 0.0..50.0f64, dl in 0.01..10.0f64, x in 0.1..50.0f64) {
            // Moving the ball away from the mode can only lose mass.
            let a = noncentral_chi_squared_cdf(d, lambda, x);
            let b = noncentral_chi_squared_cdf(d, lambda + dl, x);
            prop_assert!(b <= a + 1e-10);
        }

        #[test]
        fn prop_ball_prob_decreasing_in_beta(d in 1usize..10, beta in 0.0..8.0f64, db in 0.01..4.0f64, rho in 0.1..5.0f64) {
            let a = ball_probability(d, beta, rho);
            let b = ball_probability(d, beta + db, rho);
            prop_assert!(b <= a + 1e-10);
        }
    }
}
