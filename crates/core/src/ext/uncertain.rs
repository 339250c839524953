//! Uncertain *target* objects (paper §VII, future work 2).
//!
//! The paper assumes exact targets and an imprecise query object. When a
//! target is itself Gaussian, `o ~ N(µ_o, Σ_o)` independent of the query
//! location `x ~ N(q, Σ)`, the difference is again Gaussian:
//!
//! ```text
//! x − o  ~  N(q − µ_o, Σ + Σ_o)
//! ```
//!
//! so `Pr(‖x − o‖ ≤ δ)` is **exactly** a centered-ball probability under
//! the convolved distribution — the entire PRQ machinery (bounding
//! functions included) applies unchanged with `Σ ← Σ + Σ_o`. No new
//! approximation is introduced.

use crate::error::PrqError;
use crate::evaluator::{ProbabilityEvaluator, Verdict};
use crate::query::PrqQuery;
use crate::strategy::bf::{BfBounds, BfClass};
use gprq_linalg::{Matrix, Vector};

/// A target object whose own location is Gaussian.
#[derive(Debug, Clone, Copy)]
pub struct UncertainTarget<const D: usize> {
    /// Mean location `µ_o`.
    pub mean: Vector<D>,
    /// Location covariance `Σ_o`.
    pub covariance: Matrix<D>,
}

/// Qualification probability of an uncertain target against a query:
/// `Pr(‖x − o‖ ≤ δ)` with both sides Gaussian.
///
/// # Errors
///
/// Propagates covariance validation failure for `Σ + Σ_o`.
pub fn qualification_probability<const D: usize, E>(
    query: &PrqQuery<D>,
    target: &UncertainTarget<D>,
    evaluator: &mut E,
) -> Result<f64, PrqError>
where
    E: ProbabilityEvaluator<D>,
{
    let combined = query
        .gaussian()
        .convolve(&target.mean, &target.covariance)?;
    evaluator.begin_query(&combined);
    let p = evaluator.probability(&combined, &Vector::ZERO, query.delta());
    // Only the probability is returned: drain the draw so it does not
    // leak into the evaluator's next query.
    evaluator.take_cloud_stats();
    Ok(p)
}

/// Outcome of a range query over uncertain targets.
#[derive(Debug, Clone, Default)]
pub struct UncertainOutcome {
    /// Indices (into the input slice) of qualifying targets.
    pub answers: Vec<usize>,
    /// Indices of the targets the evaluator left
    /// [`Verdict::Uncertain`]: neither answered nor rejected.
    pub uncertain: Vec<usize>,
    /// Targets decided by the BF bounds without integration.
    pub decided_by_bounds: usize,
    /// Numerical integrations performed.
    pub integrations: usize,
}

/// Evaluates `PRQ(q, δ, θ)` over a collection of uncertain targets.
///
/// Each target gets its own convolved distribution, so the BF bounds are
/// recomputed per target — still far cheaper than an integration, and
/// they decide most targets outright (the `decided_by_bounds` counter).
/// The rest are decided by [`ProbabilityEvaluator::evaluate`], which may
/// leave a target uncertain.
///
/// # Errors
///
/// Propagates covariance validation failure for any `Σ + Σ_o`.
pub fn prq_uncertain_targets<const D: usize, E>(
    query: &PrqQuery<D>,
    targets: &[UncertainTarget<D>],
    evaluator: &mut E,
) -> Result<UncertainOutcome, PrqError>
where
    E: ProbabilityEvaluator<D>,
{
    let mut out = UncertainOutcome::default();
    for (idx, target) in targets.iter().enumerate() {
        let combined = query
            .gaussian()
            .convolve(&target.mean, &target.covariance)?;
        // Build a PRQ against the combined distribution; the "object" is
        // the origin of the difference space.
        let sub_query = PrqQuery::from_gaussian(combined, query.delta(), query.theta())?;
        let bounds = BfBounds::exact(&sub_query);
        match bounds.classify(&Vector::ZERO) {
            BfClass::Accept => {
                out.decided_by_bounds += 1;
                out.answers.push(idx);
            }
            BfClass::Reject => {
                out.decided_by_bounds += 1;
            }
            BfClass::NeedsIntegration => {
                out.integrations += 1;
                let (gaussian, delta, theta) = (sub_query.gaussian(), query.delta(), query.theta());
                evaluator.begin_query(gaussian);
                let report = evaluator.evaluate(gaussian, &Vector::ZERO, delta, theta);
                // `UncertainOutcome` has no cloud fields: drain the draw
                // so it does not leak into the evaluator's next query.
                evaluator.take_cloud_stats();
                match report.verdict {
                    Verdict::Accept => out.answers.push(idx),
                    Verdict::Reject => {}
                    Verdict::Uncertain => out.uncertain.push(idx),
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use gprq_linalg::Matrix;

    fn query() -> PrqQuery<2> {
        PrqQuery::new(
            Vector::from([0.0, 0.0]),
            Matrix::identity().scale(4.0),
            3.0,
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn zero_uncertainty_target_matches_exact_prq() {
        // A target with (near-)zero covariance behaves like an exact
        // point: the probability matches the direct integral.
        let q = query();
        let target = UncertainTarget {
            mean: Vector::from([2.0, 1.0]),
            covariance: Matrix::identity().scale(1e-9),
        };
        let mut eval = Quadrature2dEvaluator::default();
        let p_uncertain = qualification_probability(&q, &target, &mut eval).unwrap();
        let p_exact = eval.probability(q.gaussian(), &target.mean, q.delta());
        assert!(
            (p_uncertain - p_exact).abs() < 1e-6,
            "{p_uncertain} vs {p_exact}"
        );
    }

    #[test]
    fn target_uncertainty_spreads_probability() {
        // For a target near the query center, adding uncertainty can only
        // lower the probability mass inside the ball (the difference
        // distribution gets wider).
        let q = query();
        let mut eval = Quadrature2dEvaluator::default();
        let near = Vector::from([0.5, 0.5]);
        let mut prev = 1.0;
        for spread in [1e-9, 1.0, 4.0, 16.0] {
            let t = UncertainTarget {
                mean: near,
                covariance: Matrix::identity().scale(spread),
            };
            let p = qualification_probability(&q, &t, &mut eval).unwrap();
            assert!(p <= prev + 1e-9, "spread {spread}: {p} > {prev}");
            prev = p;
        }
    }

    #[test]
    fn far_target_gains_from_uncertainty() {
        // Conversely a far target can only reach the ball thanks to its
        // own spread.
        let q = query();
        let mut eval = Quadrature2dEvaluator::default();
        let far = Vector::from([20.0, 0.0]);
        let tight = UncertainTarget {
            mean: far,
            covariance: Matrix::identity().scale(1e-9),
        };
        let loose = UncertainTarget {
            mean: far,
            covariance: Matrix::identity().scale(100.0),
        };
        let p_tight = qualification_probability(&q, &tight, &mut eval).unwrap();
        let p_loose = qualification_probability(&q, &loose, &mut eval).unwrap();
        assert!(p_tight < 1e-9);
        assert!(p_loose > p_tight);
    }

    #[test]
    fn batch_query_classifies_and_matches_direct() {
        let q = query();
        let targets: Vec<UncertainTarget<2>> = (0..40)
            .map(|i| UncertainTarget {
                mean: Vector::from([i as f64 * 0.5 - 10.0, (i % 7) as f64 - 3.0]),
                covariance: Matrix::identity().scale(0.5 + (i % 3) as f64),
            })
            .collect();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = prq_uncertain_targets(&q, &targets, &mut eval).unwrap();
        // Cross-check every target against the direct probability.
        let mut expect = Vec::new();
        for (i, t) in targets.iter().enumerate() {
            let p = qualification_probability(&q, t, &mut eval).unwrap();
            if p >= q.theta() {
                expect.push(i);
            }
        }
        assert_eq!(outcome.answers, expect);
        assert_eq!(
            outcome.decided_by_bounds + outcome.integrations,
            targets.len()
        );
        assert!(outcome.decided_by_bounds > 0, "bounds should decide some");
    }

    #[test]
    fn undecided_targets_are_reported_not_thresholded() {
        // At κ(Σ) = 10⁴ the exact series' term cap leaves these brackets
        // straddling θ with midpoints ≈ 0.5, although four of the five
        // lie below θ (400 000-sample Monte Carlo: 0.418, 0.336, 0.522,
        // 0.245, 0.402).
        let sigma = Matrix::from_rows([[1e4, 0.0], [0.0, 1.0]]);
        let q = PrqQuery::new(Vector::ZERO, sigma, 100.0, 0.45).unwrap();
        let targets = [
            [36.0, -81.0],
            [10.0, -90.0],
            [50.0, 60.0],
            [0.0, 95.0],
            [80.0, -70.0],
        ]
        .map(|mean| UncertainTarget {
            mean: Vector::from(mean),
            covariance: Matrix::identity().scale(1e-6),
        });
        let mut eval = crate::evaluator::ExactEvaluator::default();
        let outcome = prq_uncertain_targets(&q, &targets, &mut eval).unwrap();
        for below in [0, 1, 3, 4] {
            assert!(!outcome.answers.contains(&below), "{outcome:?}");
        }
        assert!(!outcome.uncertain.is_empty(), "{outcome:?}");
        assert!(outcome
            .uncertain
            .iter()
            .all(|i| !outcome.answers.contains(i)));
        assert_eq!(outcome.decided_by_bounds + outcome.integrations, 5);
    }
}
