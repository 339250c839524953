//! The plan-stage inverses against a reference bisection: the BF center
//! distance (`inverse_center_distance`, a noncentral-χ² inverse in the
//! noncentrality) and the chi quantiles (`chi_inverse`,
//! `chi_tail_inverse`).
//!
//! The oracles below are the monotone bisections the library used before
//! its safeguarded Newton solves. The randomized checks live here rather
//! than in the library's unit tests, which the Miri lane interprets.

use gprq_gaussian::chi::{chi_ball_probability, chi_inverse, chi_tail_inverse};
use gprq_gaussian::noncentral::{ball_probability, inverse_center_distance};
use gprq_gaussian::specfun::regularized_gamma_q;
use proptest::prelude::*;

/// Reference: bisection in β on `ball_probability`, bracketed by
/// doubling from `ρ + 1`.
fn bisect_center_distance(d: usize, rho: f64, target: f64) -> Option<f64> {
    let at_center = chi_ball_probability(d, rho);
    if at_center < target {
        return None;
    }
    if at_center == target {
        return Some(0.0);
    }
    let mut lo = 0.0f64;
    let mut hi = rho + 1.0;
    while ball_probability(d, hi, rho) > target {
        lo = hi;
        hi *= 2.0;
        if hi > 1e8 {
            return Some(hi);
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ball_probability(d, mid, rho) > target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-13 * hi.max(1.0) {
            break;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Reference: bisection in `r` on `chi_ball_probability`.
fn bisect_chi_inverse(d: usize, p: f64) -> f64 {
    let mut hi = (d as f64).sqrt() + 1.0;
    while chi_ball_probability(d, hi) < p {
        hi *= 2.0;
        if hi > 1e6 {
            break;
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if chi_ball_probability(d, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// BF's standardized ball problems `(d, ρ, target)` for a Σ given by its
/// eigenvalues: the reject problem from `λ∥ = 1/max`, and the accept
/// problem from `λ⊥ = 1/min` when it has a target below 1 (Eqs. 28–31).
fn bf_problems(eigenvalues: &[f64], delta: f64, theta: f64) -> Vec<(usize, f64, f64)> {
    let d = eigenvalues.len();
    let half_d = 0.5 * d as f64;
    let ln_det: f64 = eigenvalues.iter().map(|e| e.ln()).sum();
    let max = eigenvalues.iter().copied().fold(f64::MIN, f64::max);
    let min = eigenvalues.iter().copied().fold(f64::MAX, f64::min);
    let mut problems = Vec::new();
    for lambda in [1.0 / max, 1.0 / min] {
        let target = (half_d * lambda.ln() + 0.5 * ln_det + theta.ln()).exp();
        if target < 1.0 {
            problems.push((d, lambda.sqrt() * delta, target));
        }
    }
    problems
}

/// The end-to-end workloads' Σ families: road (Eq. 34 at γ = 10, with
/// eigenvalues 90 and 10; δ = 25, θ = 0.01), churn (10·I, same δ and θ)
/// and 9-D feedback-like diagonals with κ ∈ [1, 100] (δ = 0.7, θ = 0.4).
fn workload_problems() -> Vec<(usize, f64, f64)> {
    let mut problems = bf_problems(&[90.0, 10.0], 25.0, 0.01);
    problems.extend(bf_problems(&[10.0, 10.0], 25.0, 0.01));
    for kappa in [
        1.0f64, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0, 70.0, 100.0,
    ] {
        let eig: Vec<f64> = (0..9)
            .map(|i| 0.01 * kappa.powf(f64::from(i) / 8.0))
            .collect();
        problems.extend(bf_problems(&eig, 0.7, 0.4));
    }
    problems
}

#[test]
fn workload_roots_match_bisection() {
    let problems = workload_problems();
    assert!(problems.len() >= 16);
    for (d, rho, target) in problems {
        let newton = inverse_center_distance(d, rho, target);
        let oracle = bisect_center_distance(d, rho, target);
        let (Some(newton), Some(oracle)) = (newton, oracle) else {
            panic!("d = {d}, ρ = {rho}, target = {target}: {newton:?} vs {oracle:?}");
        };
        assert!(
            (newton - oracle).abs() <= 1e-12 * oracle,
            "d = {d}, ρ = {rho}, target = {target}: β {newton} vs bisection {oracle}"
        );
    }
}

#[test]
fn chi_inverse_resolves_the_upper_tail() {
    // Near p = 1 the bisection decides on P ≈ 1, whose rounding (~10⁻¹⁶)
    // moves r by ~10⁻⁸ here; the solve on the exact 1 − p still
    // round-trips the tail mass.
    for d in [1usize, 2, 9] {
        let p = 1.0 - 1e-9;
        let r = chi_inverse(d, p);
        let q = regularized_gamma_q(0.5 * d as f64, 0.5 * r * r);
        assert!(
            (q - (1.0 - p)).abs() <= 1e-10 * (1.0 - p),
            "d = {d}: Q = {q:e}"
        );
    }
}

proptest! {
    #[test]
    fn center_distance_round_trips(
        d in 1usize..13,
        rho in 0.05..60.0f64,
        ln_frac in (1e-12f64).ln()..(1.0f64 - 1e-6).ln(),
    ) {
        let at_center = chi_ball_probability(d, rho);
        let target = at_center * ln_frac.exp();
        if !(target > 0.0 && target < 1.0) {
            return;
        }
        let beta = inverse_center_distance(d, rho, target);
        prop_assert!(beta.is_some(), "target below the centered mass has a root");
        let beta = beta.unwrap_or(f64::NAN);
        let back = ball_probability(d, beta, rho);
        prop_assert!(
            (back - target).abs() <= 1e-11 * target,
            "β = {beta}: F = {back:e} vs target {target:e}"
        );
    }

    #[test]
    fn center_distance_edges_match_bisection(
        d in 1usize..13,
        rho in 0.05..60.0f64,
        excess in 1e-9..1.0f64,
    ) {
        let at_center = chi_ball_probability(d, rho);
        if at_center >= 1.0 {
            return;
        }
        // Exactly the centered mass: β = 0 on both.
        prop_assert_eq!(inverse_center_distance(d, rho, at_center), Some(0.0));
        prop_assert_eq!(bisect_center_distance(d, rho, at_center), Some(0.0));
        // Above it: no center distance reaches the target.
        let target = at_center + excess * (1.0 - at_center);
        if target > at_center && target < 1.0 {
            prop_assert_eq!(inverse_center_distance(d, rho, target), None);
            prop_assert_eq!(bisect_center_distance(d, rho, target), None);
        }
    }

    #[test]
    fn chi_inverse_agrees_with_bisection(d in 1usize..17, ln_p in (1e-6f64).ln()..(0.999f64).ln()) {
        // Up to p = 0.999: closer to 1 the bisection, deciding on P ≈ 1,
        // loses digits (see `chi_inverse_resolves_the_upper_tail`).
        let p = ln_p.exp();
        let newton = chi_inverse(d, p);
        let oracle = bisect_chi_inverse(d, p);
        // The bisection stops at an absolute width of 1e-14 below r = 1.
        prop_assert!(
            (newton - oracle).abs() <= 1e-12 * oracle + 1e-14,
            "p = {p}: {newton} vs {oracle}"
        );
    }

    #[test]
    fn chi_tail_inverse_round_trips(d in 1usize..17, ln_tail in -740.0..(0.9f64).ln()) {
        let tail = ln_tail.exp();
        let r = chi_tail_inverse(d, tail);
        prop_assert!(r.is_finite() && r > 0.0);
        // Normal-range tails round-trip on Q itself; below that range Q
        // is subnormal, so only the radius's finiteness is checked.
        let q = regularized_gamma_q(0.5 * d as f64, 0.5 * r * r);
        if tail > 1e-300 {
            prop_assert!((q - tail).abs() <= 1e-10 * tail, "Q = {q:e} vs {tail:e}");
        }
    }
}
