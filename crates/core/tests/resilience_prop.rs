//! Property-based admission hardening: arbitrary — including non-finite
//! and degenerate — query parameters pushed through
//! [`admit`] must never panic, and every accepted query
//! must either match the raw inputs exactly or carry a
//! [`DegradationReport`] entry for each repair (no silent repairs).
//!
//! Run with `cargo test -p gprq-core resilience_prop`.

use gprq_core::resilience::admit;
use gprq_core::{DegradationReason, DegradationReport, PrqQuery};
use gprq_linalg::{Matrix, Vector};
use proptest::prelude::*;

/// Replaces a finite base value by a pathological one according to a
/// corruption code; code 0 (and most codes) keep the value intact so
/// clean queries stay common in the mix.
fn corrupted(v: f64, code: u8) -> f64 {
    match code % 16 {
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -v,
        6 => v * 1e300,
        7 => v * 1e-300,
        8 => f64::MAX,
        _ => v,
    }
}

/// Random (possibly corrupted) covariance built from std-devs, a
/// rotation, and per-entry corruption codes. The clean version is SPD;
/// corruption can make it asymmetric, indefinite, or non-finite.
fn covariance(sx: f64, sy: f64, angle: f64, codes: &[u8]) -> Matrix<2> {
    let (s, c) = angle.sin_cos();
    let (l1, l2) = (sx * sx, sy * sy);
    let clean = [
        [c * c * l1 + s * s * l2, s * c * (l1 - l2)],
        [s * c * (l1 - l2), s * s * l1 + c * c * l2],
    ];
    Matrix::from_fn(|i, j| corrupted(clean[i][j], codes[2 * i + j]))
}

// Named module so `cargo test -p gprq-core resilience_prop` selects
// exactly this suite by test-name prefix.
mod resilience_prop {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Admission is total: any input either admits or rejects with an
        /// error — and an admitted query that differs from the raw input in
        /// any way has a report entry naming the repair.
        #[test]
        fn admission_never_panics_and_never_repairs_silently(
            (smaj, smin, angle) in (0.1..30.0f64, 0.1..10.0f64, -3.2..3.2f64),
            (cx, cy, delta, theta) in (-500.0..500.0f64, -500.0..500.0f64, 0.01..60.0f64, -0.5..1.5f64),
            codes in proptest::collection::vec(0u8..255, 8),
        ) {
            let sigma = covariance(smaj, smin, angle, &codes[0..4]);
            let center = Vector::from([corrupted(cx, codes[4]), corrupted(cy, codes[5])]);
            let delta = corrupted(delta, codes[6]);
            let theta = corrupted(theta, codes[7]);

            let mut report = DegradationReport::new();
            // The property under test is simply that this call returns.
            let admitted = admit(center, sigma, delta, theta, &mut report);

            let query = match admitted {
                Err(_) => return, // rejection is always a legal outcome
                Ok(q) => q,
            };

            // Whatever came out is a well-formed query: finite, PD, θ in
            // range — downstream phases can rely on it unconditionally.
            prop_assert!(query.theta() > 0.0 && query.theta() < 1.0);
            prop_assert!(query.delta() > 0.0 && query.delta().is_finite());
            prop_assert!(query.gaussian().covariance().is_finite());
            prop_assert!(query.gaussian().covariance().cholesky().is_ok());
            for d in 0..2 {
                prop_assert!(query.center()[d].is_finite());
            }

            // No silent repair: every difference between input and admitted
            // parameters must be named in the report.
            let theta_changed = query.theta().to_bits() != theta.to_bits();
            prop_assert_eq!(
                theta_changed,
                report.iter().any(|r| matches!(r, DegradationReason::ThetaClamped { .. })),
                "θ {} → {} vs report {}", theta, query.theta(), report
            );

            let cov = query.gaussian().covariance();
            let symmetrized = report
                .iter()
                .any(|r| matches!(r, DegradationReason::CovarianceSymmetrized { .. }));
            let regularized = report
                .iter()
                .any(|r| matches!(r, DegradationReason::CovarianceRegularized { .. }));
            let cov_changed = (0..2).any(|i| {
                (0..2).any(|j| cov[(i, j)].to_bits() != sigma[(i, j)].to_bits())
            });
            prop_assert_eq!(
                cov_changed,
                symmetrized || regularized,
                "Σ changed without (or report without) a repair entry: {}", report
            );

            // δ and the center are never repaired — only accepted verbatim
            // or rejected.
            prop_assert_eq!(query.delta().to_bits(), delta.to_bits());
            for d in 0..2 {
                prop_assert_eq!(query.center()[d].to_bits(), center[d].to_bits());
            }

            // A clean admission (empty report) must behave identically to
            // constructing the query directly.
            if !report.is_degraded() {
                let direct = PrqQuery::new(center, sigma, delta, theta);
                prop_assert!(direct.is_ok(), "clean admission but direct construction fails");
            }
        }

        /// Admitted queries survive a full (tiny) pipeline run: admission's
        /// output is always executable, not merely constructible.
        #[test]
        fn admitted_queries_always_execute(
            (smaj, smin, angle) in (0.1..20.0f64, 0.1..8.0f64, -3.2..3.2f64),
            (theta, code) in (-0.5..1.5f64, 0u8..255),
        ) {
            use gprq_core::{Quadrature2dEvaluator, ResilientExecutor, StrategySet};
            use gprq_rtree::{RStarParams, RTree};

            let sigma = covariance(smaj, smin, angle, &[code, code.wrapping_add(3), code.wrapping_add(3), 0]);
            let points: Vec<(Vector<2>, u32)> = (0..64)
                .map(|i| (Vector::from([(i % 8) as f64 * 12.0, (i / 8) as f64 * 12.0]), i))
                .collect();
            let tree = RTree::bulk_load(points, RStarParams::paper_default(2));

            let exec = ResilientExecutor::new(StrategySet::ALL);
            let mut eval = Quadrature2dEvaluator::default();
            let outcome = exec.execute(&tree, Vector::from([40.0, 40.0]), sigma, 15.0, theta, &mut eval);
            if let Ok(outcome) = outcome {
                // Status partition is sound even for repaired queries.
                prop_assert_eq!(outcome.stats.answers, outcome.answers.len());
                prop_assert_eq!(outcome.stats.uncertain, outcome.uncertain.len());
            }
        }
    }
}
