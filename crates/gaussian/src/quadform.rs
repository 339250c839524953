//! Exact ball probabilities under any covariance: Ruben's (1962) series
//! for `P = Pr(‖x − o‖ ≤ δ)`, `x ~ N(q, Σ)`, as a certified bracket that
//! tightens term by term (DESIGN.md §9).
//!
//! With `Σ = E·diag(λ)·Eᵀ`, `bᵢ = (Eᵀ(q − o))ᵢ/√λᵢ`, `β = min λᵢ` and
//! `γᵢ = 1 − β/λᵢ`, `P = Σₖ aₖ·F_{D+2k}(δ²/β)` over central χ² CDFs, with
//! `a₀ = exp(−½Σbᵢ²)·Πᵢ(β/λᵢ)^½`, `aₖ = (1/2k)·Σ_{r<k} g_{k−r}·a_r`,
//! `g_j = Σᵢγᵢʲ + j·β·Σᵢ(bᵢ²/λᵢ)·γᵢ^{j−1}`, all `aₖ ≥ 0` and `Σaₖ = 1`.
//! `F_m` falls as `m` grows, so after `K` terms
//! `P ∈ [S_K, S_K + (1 − Σ_{k<K} aₖ)·F_{D+2K}]`, `S_K = Σ_{k<K} aₖ·F_{D+2k}`.
//! Where `a₀` underflows (`Σbᵢ² ≳ 1 400`) the series cannot start, and
//! the eigenvalue sandwich `λmin·W ≤ ‖x − o‖² ≤ λmax·W`,
//! `W ~ χ'²_D(Σbᵢ²)`, bounds `P` instead; it also tightens a series
//! stopped at its term cap.

use crate::mvn::Gaussian;
use crate::noncentral::noncentral_chi_squared_cdf;
use crate::specfun::{ln_poisson_kernel, regularized_gamma_p};
use gprq_linalg::{Matrix, Vector};

/// Relative rounding allowance every certified bound is widened by. The
/// bracket is built from positive sums and products only; their
/// rounding (`ln a₀` sums terms up to ~700, each coefficient level and
/// each central CDF adds a few ulps) stays near 10⁻¹³.
const ROUNDING: f64 = 1e-11;

/// `ln a₀` below which the series does not start (`a₀` would underflow).
const LN_A0_FLOOR: f64 = -700.0;

/// Series terms summed before a bracket is returned as it stands,
/// intersected with the sandwich. Every candidate of the road and Corel
/// workloads (κ ≤ 61) is decided within 64 terms; κ ≳ 10³ can need more.
const MAX_TERMS: usize = 500;

/// A certified two-sided bound on `Pr(‖x − o‖ ≤ δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
    /// The middle of the truncated series' bracket, kept in the bounds.
    pub estimate: f64,
    /// What further series terms can still remove from the bracket.
    pub truncation: f64,
    /// Series terms summed (0 when the sandwich alone bounds `P`).
    pub terms: usize,
}

impl Bracket {
    /// Keeps the bounds in `[0, 1]` and the estimate in the bounds; a NaN
    /// bound widens to 0 or 1 (`f64::max`/`min` drop NaN).
    fn new(lower: f64, upper: f64, estimate: f64, truncation: f64, terms: usize) -> Self {
        let lower = if lower > 0.0 { lower.min(1.0) } else { 0.0 };
        let upper = upper.min(1.0).max(lower);
        let estimate = estimate.max(lower).min(upper);
        let truncation = truncation.max(0.0);
        Bracket {
            lower,
            upper,
            estimate,
            truncation,
            terms,
        }
    }

    /// The bound that says nothing.
    fn unknown() -> Self {
        Bracket::new(0.0, 1.0, 0.5, 1.0, 0)
    }
}

/// Ruben's series for one covariance: the Σ tables, the central CDF
/// table for the last δ, and coefficient buffers reused across calls.
/// A bracket sums at most `MAX_TERMS` (500) terms.
#[derive(Debug, Clone)]
pub struct RubenSeries<const D: usize> {
    covariance: Matrix<D>,
    /// Eigenvectors `E` (columns), eigenvalues `λ` and `γᵢ = 1 − β/λᵢ`.
    rotation: Matrix<D>,
    lambda: [f64; D],
    gamma: [f64; D],
    /// `β = min λᵢ`; every bracket is `[0, 1]` unless it is positive.
    beta: f64,
    /// `½·Σᵢ ln(β/λᵢ)`, the Σ part of `ln a₀`.
    half_ln_ratio: f64,
    /// `F_{D+2k}(δ²/β)`, `k ≤ MAX_TERMS`, for `delta` (NaN: none yet).
    central: Vec<f64>,
    delta: f64,
    /// `[0, g₁, g₂, …]` and `[a₀, a₁, …]` of the current candidate.
    g: Vec<f64>,
    a: Vec<f64>,
}

impl<const D: usize> RubenSeries<D> {
    /// The tables for `gaussian`'s covariance.
    pub fn new(gaussian: &Gaussian<D>) -> Self {
        let eigen = gaussian.eigen();
        let lambda = eigen.eigenvalues.0;
        let beta = lambda.iter().copied().fold(f64::INFINITY, f64::min);
        RubenSeries {
            covariance: *gaussian.covariance(),
            rotation: eigen.eigenvectors,
            lambda,
            gamma: lambda.map(|l| 1.0 - beta / l),
            beta,
            half_ln_ratio: 0.5 * lambda.iter().map(|l| (beta / l).ln()).sum::<f64>(),
            central: Vec::new(),
            delta: f64::NAN,
            g: Vec::with_capacity(MAX_TERMS + 1),
            a: Vec::with_capacity(MAX_TERMS),
        }
    }

    /// The covariance the tables were built for.
    pub fn covariance(&self) -> &Matrix<D> {
        &self.covariance
    }

    /// Bounds `Pr(‖x − center‖ ≤ delta)` for `x ~ N(mean, Σ)`: adds
    /// terms until `done` accepts the bracket, or returns it at
    /// `MAX_TERMS` terms intersected with the sandwich. Never panics;
    /// non-finite or degenerate input yields `[0, 1]`.
    pub fn bracket(
        &mut self,
        mean: &Vector<D>,
        center: &Vector<D>,
        delta: f64,
        mut done: impl FnMut(&Bracket) -> bool,
    ) -> Bracket {
        if !(self.beta > 0.0 && delta >= 0.0) {
            return Bracket::unknown();
        }
        self.set_radius(delta);
        // m² = Σbᵢ², then the weights wᵢ = β·bᵢ²/λᵢ.
        let mut w = self.rotation.transpose_mul_vec(&(*mean - *center)).0;
        let mut m2 = 0.0;
        for (wi, l) in w.iter_mut().zip(&self.lambda) {
            m2 += *wi * *wi / l;
            *wi = self.beta * (*wi * *wi / l) / l;
        }
        let ln_a0 = self.half_ln_ratio - 0.5 * m2;
        if ln_a0.is_nan() || ln_a0 < LN_A0_FLOOR {
            return self.sandwich(m2, delta);
        }
        let (mut powers, mut sum, mut mass, mut next) = ([1.0f64; D], 0.0, 0.0, ln_a0.exp());
        self.g.clear();
        self.a.clear();
        self.g.push(0.0);
        for (k, pair) in (1..).zip(self.central.windows(2)) {
            let &[f_k, f_next] = pair else { break };
            sum += next * f_k;
            mass += next;
            self.a.push(next);
            let rest = (1.0 - mass).max(0.0);
            let bracket = Bracket::new(
                sum * (1.0 - ROUNDING),
                sum * (1.0 + ROUNDING) + (rest + ROUNDING) * f_next * (1.0 + ROUNDING),
                sum + 0.5 * rest * f_next,
                rest * f_next,
                k,
            );
            if done(&bracket) {
                return bracket;
            }
            if k == MAX_TERMS {
                let sandwich = self.sandwich(m2, delta);
                let lower = bracket.lower.max(sandwich.lower);
                let upper = bracket.upper.min(sandwich.upper);
                return Bracket::new(lower, upper, bracket.estimate, bracket.truncation, k);
            }
            // g_k = Σγᵢᵏ + k·Σwᵢγᵢ^{k−1}, then a_k = (1/2k)·Σ_{r<k} g_{k−r}·a_r.
            let (mut power_sum, mut weighted) = (0.0, 0.0);
            for ((p, &gi), &wi) in powers.iter_mut().zip(&self.gamma).zip(&w) {
                weighted += wi * *p;
                *p *= gi;
                power_sum += *p;
            }
            self.g.push(power_sum + k as f64 * weighted);
            let conv: f64 = self.g.iter().rev().zip(&self.a).map(|(g, a)| g * a).sum();
            next = conv / (2 * k) as f64;
        }
        Bracket::unknown()
    }

    /// The eigenvalue sandwich `P ∈ [F_D(m²; δ²/λmax), F_D(m²; δ²/λmin)]`.
    /// Its noncentral CDF sweeps ~16·√m² Poisson terms: ~0.1 s at
    /// `m² = 10¹²`, an object 10⁶·σmin off the mean.
    fn sandwich(&self, m2: f64, delta: f64) -> Bracket {
        if D == 0 || !m2.is_finite() {
            return Bracket::unknown();
        }
        let max = self.lambda.iter().copied().fold(self.beta, f64::max);
        let cdf = |scale: f64| {
            let x = (delta / scale.sqrt()).powi(2);
            if x.is_finite() {
                noncentral_chi_squared_cdf(D, m2, x)
            } else {
                1.0
            }
        };
        let (lower, upper) = (cdf(max), cdf(self.beta));
        let (lo, hi) = (lower * (1.0 - ROUNDING), upper * (1.0 + ROUNDING));
        Bracket::new(lo, hi, 0.5 * (lower + upper), upper - lower, 0)
    }

    /// Builds `F_{D+2k}(δ²/β) = P(D/2 + k, y)`, `y = δ²/2β`, unless the
    /// table is already for `delta`: the top value plus downward sums of
    /// the positive `t(a) = y^a e^{−y}/Γ(a + 1) = P(a, y) − P(a + 1, y)`.
    /// The `t` are anchored once in log space where they peak
    /// (`a + 1 ≥ y`, or at the table's end) and reached from there by the
    /// ratios `t(a + 1)/t(a) = y/(a + 1)`, so no entry loses relative
    /// accuracy to cancellation or to an underflowed start.
    fn set_radius(&mut self, delta: f64) {
        if delta.to_bits() == self.delta.to_bits() {
            return;
        }
        self.delta = delta;
        let (half_d, top) = (0.5 * D as f64, MAX_TERMS);
        let y = 0.5 * (delta / self.beta.sqrt()).powi(2);
        self.central.clear();
        if !(y > 0.0 && y.is_finite()) {
            // δ = 0 holds no mass; a radius whose square overflows, all.
            self.central
                .resize(top + 1, if y > 0.0 { 1.0 } else { 0.0 });
            return;
        }
        self.central.resize(top + 1, 0.0);
        let peak = (0..top)
            .find(|&j| half_d + j as f64 + 1.0 >= y)
            .unwrap_or(top - 1);
        let a = half_d + peak as f64;
        let t_peak = ln_poisson_kernel(a, y).exp();
        let mut t = t_peak;
        for (j, slot) in self.central.iter_mut().enumerate().take(top).skip(peak) {
            *slot = t;
            t *= y / (half_d + j as f64 + 1.0);
        }
        t = t_peak;
        for (j, slot) in self.central.iter_mut().enumerate().take(peak + 1).rev() {
            *slot = t;
            t *= (half_d + j as f64) / y;
        }
        let mut f = regularized_gamma_p(half_d + top as f64, y);
        for (j, slot) in self.central.iter_mut().enumerate().rev() {
            if j < top {
                f = (f + *slot).min(1.0);
            }
            *slot = f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noncentral::isotropic_qualification_probability;

    #[test]
    fn isotropic_series_is_the_noncentral_mixture() {
        let g = Gaussian::new(Vector::from([1.0, -2.0]), Matrix::identity().scale(4.0)).unwrap();
        let mut series = RubenSeries::new(&g);
        for (dx, delta) in [(0.0, 1.0), (3.0, 2.5), (7.0, 1.5)] {
            let o = *g.mean() + Vector::from([dx, 0.0]);
            let b = series.bracket(g.mean(), &o, delta, |b| b.truncation <= 1e-13);
            let exact = isotropic_qualification_probability(2, 2.0, dx, delta);
            assert!(
                (b.estimate - exact).abs() <= 0.5 * b.truncation + 1e-15,
                "{dx}, {delta}: {b:?} vs {exact}"
            );
            assert!(b.lower <= exact && exact <= b.upper, "{b:?} vs {exact}");
        }
    }

    #[test]
    fn degenerate_inputs_give_the_empty_bound() {
        let g = Gaussian::<2>::standard();
        let mut series = RubenSeries::new(&g);
        let far = Vector::from([1e300, 0.0]);
        for (o, delta) in [(far, 1.0), (Vector::ZERO, f64::NAN), (Vector::ZERO, -1.0)] {
            let b = series.bracket(g.mean(), &o, delta, |_| false);
            assert!(
                b.lower >= 0.0 && b.upper <= 1.0 && !b.estimate.is_nan(),
                "{b:?}"
            );
        }
        let zero = series.bracket(g.mean(), &Vector::ZERO, 0.0, |_| false);
        assert_eq!(zero.upper, 0.0, "{zero:?}");
    }
}
