//! Exhaustive fallback-chain coverage: every combination of
//! (θ range × strategy set) must reach a
//! terminal strategy with no error, and the [`DegradationReport`] must
//! name every hop the chain took to get there.

use gprq_core::{
    DegradationReason, Quadrature2dEvaluator, ResilientExecutor, ResilientOutcome, StrategySet,
    TerminalStrategy,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree};

/// θ probes spanning every admission/fallback regime: valid-low,
/// near-half, above-half, clamped-high, clamped-low.
const THETAS: [f64; 5] = [0.01, 0.45, 0.6, 1.3, -0.2];

fn all_strategy_sets() -> [StrategySet; 8] {
    let mut sets = [StrategySet::ALL; 8];
    let mut i = 0;
    for rr in [false, true] {
        for or in [false, true] {
            for bf in [false, true] {
                sets[i] = StrategySet { rr, or, bf };
                i += 1;
            }
        }
    }
    sets
}

fn small_tree() -> RTree<2, u32> {
    let points: Vec<(Vector<2>, u32)> = (0..200)
        .map(|i| {
            (
                Vector::from([(i % 20) as f64 * 30.0, (i / 20) as f64 * 30.0]),
                i,
            )
        })
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(2))
}

#[test]
fn every_combination_reaches_a_terminal_strategy() {
    let tree = small_tree();
    let sigma = Matrix::identity().scale(400.0);
    let center = Vector::from([300.0, 150.0]);
    let policy_floor = 1e-9;
    let policy_ceiling = 1.0 - 1e-9;

    for theta in THETAS {
        for set in all_strategy_sets() {
            let label = format!("θ={theta} {}", set.name());
            let exec = ResilientExecutor::new(set);
            let mut eval = Quadrature2dEvaluator::default();
            let outcome = exec
                .execute(&tree, center, sigma, 50.0, theta, &mut eval)
                .unwrap_or_else(|e| panic!("{label}: chain must not error, got {e}"));

            // --- Replay the chain's contract step by step. -------------
            let mut expected_hops = 0;

            // 1. θ clamping (admission) happens before strategy hops.
            let effective_theta = if theta <= 0.0 {
                policy_floor
            } else if theta >= 1.0 {
                policy_ceiling
            } else {
                theta
            };
            let clamped = (effective_theta - theta).abs() > 0.0;
            assert_eq!(
                clamped,
                outcome
                    .report
                    .iter()
                    .any(|r| matches!(r, DegradationReason::ThetaClamped { .. })),
                "{label}"
            );
            expected_hops += usize::from(clamped);

            // 2. θ ≥ 1/2 forces any RR/OR user down to BF-only.
            let mut effective_set = set;
            if effective_theta >= 0.5 && (set.rr || set.or) {
                effective_set = StrategySet::BF;
                assert!(
                    outcome.report.iter().any(|r| matches!(
                        r,
                        DegradationReason::StrategySwitched { from, to, .. }
                            if *from == set && *to == StrategySet::BF
                    )),
                    "{label}: missing θ≥1/2 hop in {}",
                    outcome.report
                );
                expected_hops += 1;
            }

            // 3. Still-invalid sets either pair OR with RR or give up
            //    and scan.
            let expected_terminal = if effective_set.validate().is_ok() {
                TerminalStrategy::Filtered(effective_set)
            } else if effective_set.or {
                expected_hops += 1;
                TerminalStrategy::Filtered(StrategySet::RR_OR)
            } else {
                expected_hops += 1;
                TerminalStrategy::NaiveScan
            };
            assert_eq!(
                outcome.terminal, expected_terminal,
                "{label}: {}",
                outcome.report
            );

            // A filtered terminal is always a *valid* strategy set.
            if let TerminalStrategy::Filtered(s) = outcome.terminal {
                assert!(
                    s.validate().is_ok(),
                    "{label}: invalid terminal {}",
                    s.name()
                );
            }

            // 4. Every hop is named: no extra entries, none missing.
            assert_eq!(
                outcome.report.len(),
                expected_hops,
                "{label}: {}",
                outcome.report
            );

            // The run is internally consistent regardless of route.
            assert_eq!(outcome.stats.answers, outcome.answers.len(), "{label}");
            assert_eq!(outcome.stats.uncertain, outcome.uncertain.len(), "{label}");
            if outcome.terminal == TerminalStrategy::NaiveScan {
                assert_eq!(outcome.stats.phase1_candidates, tree.len(), "{label}");
            }
        }
    }
}

/// A covariance the exact evaluator's term cap cannot settle: at
/// κ(Σ) = 10⁴ the series bracket of a candidate near the center (p ≈
/// 0.85–0.94) is still ~0.7 wide after the cap, so with θ = 0.45 inside
/// it the object comes back `Uncertain` — reported with the bracket's
/// midpoint, never dropped — through both executors.
#[test]
fn capped_bracket_is_reported_uncertain() {
    use gprq_core::{
        ExactEvaluator, PrqExecutor, PrqQuery, QueryStats, UncertainCause, UncertainObject,
    };
    let points: Vec<(Vector<2>, u32)> = (0..21 * 11)
        .map(|i| {
            let (dx, dy) = (f64::from(i % 21) - 10.0, f64::from(i / 21) - 5.0);
            (Vector::from([500.0 + 30.0 * dx, 500.0 + dy]), i)
        })
        .collect();
    let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
    let center = Vector::from([500.0, 500.0]);
    let sigma = Matrix::from_rows([[1e4, 0.0], [0.0, 1.0]]);
    let (delta, theta) = (100.0, 0.45);

    let check = |label: &str, stats: &QueryStats, uncertain: &[UncertainObject<'_, 2, u32>]| {
        assert_eq!(stats.uncertain, uncertain.len(), "{label}");
        let straddling: Vec<f64> = uncertain
            .iter()
            .filter(|u| u.cause == UncertainCause::IntervalStraddlesTheta)
            .filter_map(|u| u.estimate)
            .collect();
        assert!(!straddling.is_empty(), "{label}: {stats:?}");
        assert_eq!(straddling.len(), uncertain.len(), "{label}");
        assert!(
            straddling.iter().all(|p| *p > 0.0 && *p < 1.0),
            "{label}: {straddling:?}"
        );
        // Phase-1 accounting: a straddling object was integrated.
        assert_eq!(
            stats.phase1_candidates,
            stats.pruned_by_fringe
                + stats.pruned_by_or
                + stats.pruned_by_bf
                + stats.accepted_without_integration
                + stats.integrations,
            "{label}"
        );
        assert!(stats.uncertain <= stats.integrations, "{label}");
        assert_eq!(stats.phase3_samples, 0, "{label}");
    };

    let query = PrqQuery::new(center, sigma, delta, theta).unwrap();
    let plain = PrqExecutor::new(StrategySet::RR)
        .execute(&tree, &query, &mut ExactEvaluator::default())
        .unwrap();
    check("plain", &plain.stats, &plain.uncertain);

    let exec = ResilientExecutor::new(StrategySet::RR);
    let resilient = exec
        .execute(
            &tree,
            center,
            sigma,
            delta,
            theta,
            &mut ExactEvaluator::default(),
        )
        .unwrap();
    assert!(!resilient.report.is_degraded(), "{}", resilient.report);
    check("resilient", &resilient.stats, &resilient.uncertain);
}

/// The answer set is route-independent: whatever chain a combination
/// takes, an exact evaluator must produce the same answers the plain
/// naive scan does (θ low enough that no admission repair applies).
#[test]
fn degraded_routes_agree_with_each_other() {
    use gprq_core::{execute_naive, PrqQuery};
    let tree = small_tree();
    let sigma = Matrix::identity().scale(400.0);
    let center = Vector::from([300.0, 150.0]);
    let theta = 0.05;

    let query = PrqQuery::new(center, sigma, 25.0, theta).unwrap();
    let mut quad = Quadrature2dEvaluator::default();
    let mut oracle: Vec<u32> = execute_naive(&tree, &query, &mut quad)
        .answers
        .iter()
        .map(|(_, d)| **d)
        .collect();
    oracle.sort_unstable();
    assert!(!oracle.is_empty());

    // The same routes over every Phase-1 backend.
    let flat = FlatRTree::freeze(small_tree());
    for set in all_strategy_sets() {
        let routes = [
            ("rtree", route(&tree, set, center, sigma, theta)),
            ("flat", route(&flat, set, center, sigma, theta)),
        ];
        for (backend, outcome) in routes {
            let mut got: Vec<u32> = outcome.answers.iter().map(|(_, d)| **d).collect();
            got.sort_unstable();
            assert_eq!(
                got,
                oracle,
                "{backend}: set {} (terminal {:?})",
                set.name(),
                outcome.terminal
            );
            assert!(
                outcome.uncertain.is_empty(),
                "{backend}: set {}",
                set.name()
            );
        }
    }
}

/// One resilient run with the exact evaluator over any backend.
fn route<I: Phase1Index<2, u32>>(
    index: &I,
    set: StrategySet,
    center: Vector<2>,
    sigma: Matrix<2>,
    theta: f64,
) -> ResilientOutcome<'_, 2, u32> {
    let exec = ResilientExecutor::new(set);
    let mut eval = Quadrature2dEvaluator::default();
    exec.execute(index, center, sigma, 25.0, theta, &mut eval)
        .unwrap()
}
