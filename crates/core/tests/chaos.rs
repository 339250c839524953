//! Chaos suite: deterministic fault injection over seeded [`FaultPlan`]s.
//!
//! The resilience contract under test: whatever faults fire, execution
//! returns `Ok`, never panics, and every returned object is either
//! *correct* against the naive full-scan oracle or *explicitly
//! surfaced* — in `uncertain` or via a parameter-repair entry in the
//! [`DegradationReport`].
//!
//! Runs only with `--features fault-inject`.

#![cfg(feature = "fault-inject")]

use std::collections::BTreeSet;

use gprq_core::{
    execute_naive, DegradationReason, FaultPlan, FaultSchedule, FaultSite, MonteCarloEvaluator,
    PrqQuery, Quadrature2dEvaluator, ResilientExecutor, ResilientOutcome, StrategySet,
    UncertainCause,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DELTA: f64 = 25.0;
const THETA: f64 = 0.01;

fn sigma_paper() -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
}

fn chaos_tree(n: usize, seed: u64) -> RTree<2, usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                i,
            )
        })
        .collect();
    RTree::bulk_load(points, RStarParams::paper_default(2))
}

fn oracle_ids(tree: &RTree<2, usize>) -> BTreeSet<usize> {
    let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma_paper(), DELTA, THETA).unwrap();
    let mut quad = Quadrature2dEvaluator::default();
    execute_naive(tree, &query, &mut quad)
        .answers
        .iter()
        .map(|(_, d)| **d)
        .collect()
}

fn exact_oracle() -> Quadrature2dEvaluator {
    Quadrature2dEvaluator::default()
}

fn run_with_plan(tree: &RTree<2, usize>, plan: FaultPlan) -> ResilientOutcome<'_, 2, usize> {
    let mut exec = ResilientExecutor::new(StrategySet::ALL).with_fault_plan(plan);
    exec.execute(
        tree,
        Vector::from([500.0, 500.0]),
        sigma_paper(),
        DELTA,
        THETA,
        &mut exact_oracle(),
    )
    .expect("faults must degrade, not error")
}

/// Does the report contain a repair that *changed the effective query
/// parameters*? If so the clean-parameter oracle no longer applies and
/// the degradation entry itself is the required disclosure.
fn params_repaired(outcome: &ResilientOutcome<'_, 2, usize>) -> bool {
    outcome.report.iter().any(|r| {
        matches!(
            r,
            DegradationReason::ThetaClamped { .. }
                | DegradationReason::CovarianceSymmetrized { .. }
                | DegradationReason::CovarianceRegularized { .. }
        )
    })
}

/// The core contract check shared by every seeded run.
fn assert_contract(
    outcome: &ResilientOutcome<'_, 2, usize>,
    oracle: &BTreeSet<usize>,
    label: &str,
) {
    let answers: BTreeSet<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
    let uncertain: BTreeSet<usize> = outcome.uncertain.iter().map(|u| *u.data).collect();

    // Answered and uncertain sets never overlap: an object's status is
    // unambiguous.
    assert!(
        answers.is_disjoint(&uncertain),
        "{label}: object both answered and uncertain"
    );

    if params_repaired(outcome) {
        // Σ (or θ) was repaired: the effective query differs from the
        // oracle's, so set equality is not required — the repair entry
        // in the report is the disclosure the contract demands.
        assert!(outcome.report.is_degraded(), "{label}: repair unreported");
        return;
    }

    // Exact evaluator + unchanged parameters: every answer is truly in
    // range, and every true answer is either returned or explicitly
    // uncertain.
    for id in &answers {
        assert!(
            oracle.contains(id),
            "{label}: object {id} returned but not in oracle"
        );
    }
    for id in oracle {
        assert!(
            answers.contains(id) || uncertain.contains(id),
            "{label}: oracle object {id} silently dropped (report: {})",
            outcome.report
        );
    }
    // Any deviation from the oracle must be accompanied by a report.
    if answers != *oracle {
        assert!(
            outcome.report.is_degraded() || !uncertain.is_empty(),
            "{label}: deviation without disclosure"
        );
    }
}

/// Accounting invariants that hold on every run, faulted or not.
fn assert_accounting(outcome: &ResilientOutcome<'_, 2, usize>, label: &str) {
    let s = &outcome.stats;
    assert_eq!(s.answers, outcome.answers.len(), "{label}");
    assert_eq!(s.uncertain, outcome.uncertain.len(), "{label}");
    let resolved = s.pruned_by_fringe
        + s.pruned_by_or
        + s.pruned_by_bf
        + s.accepted_without_integration
        + s.integrations
        + s.uncertain;
    // Straddle-verdict objects count under both `integrations` and
    // `uncertain`, so the sum may exceed the candidate count by at most
    // the number of integrations.
    assert!(resolved >= s.phase1_candidates, "{label}: lost objects");
    assert!(
        resolved <= s.phase1_candidates + s.integrations,
        "{label}: double-counted objects"
    );
}

#[test]
fn seeded_fault_plans_never_panic_and_stay_correct() {
    let tree = chaos_tree(2_000, 7);
    let oracle = oracle_ids(&tree);
    assert!(!oracle.is_empty(), "oracle must be non-trivial");
    for seed in 0..32u64 {
        let outcome = run_with_plan(&tree, FaultPlan::from_seed(seed));
        let label = format!("seed {seed}");
        assert_contract(&outcome, &oracle, &label);
        assert_accounting(&outcome, &label);
    }
}

#[test]
fn fault_free_plan_matches_oracle_exactly() {
    let tree = chaos_tree(2_000, 7);
    let oracle = oracle_ids(&tree);
    let outcome = run_with_plan(&tree, FaultPlan::quiet());
    let answers: BTreeSet<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
    assert_eq!(answers, oracle);
    assert!(outcome.uncertain.is_empty());
    assert!(!outcome.report.is_degraded(), "{}", outcome.report);
}

#[test]
fn every_site_firing_always_is_survivable() {
    let tree = chaos_tree(2_000, 7);
    let oracle = oracle_ids(&tree);
    for site in FaultSite::ALL {
        let plan = FaultPlan::quiet().with_schedule(site, FaultSchedule::Always);
        let outcome = run_with_plan(&tree, plan);
        let label = format!("site {site}");
        assert_contract(&outcome, &oracle, &label);
        assert_accounting(&outcome, &label);

        match site {
            FaultSite::Phase1Traversal => {
                // Index loss falls back to a naive scan — with the
                // exact evaluator the answer set is still perfect.
                assert!(outcome
                    .report
                    .iter()
                    .any(|r| matches!(r, DegradationReason::NaiveFallback { .. })));
                let answers: BTreeSet<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
                assert_eq!(answers, oracle, "naive fallback must stay exact");
            }
            FaultSite::Evaluator => {
                // Every integration attempt fails: all work-list
                // objects surface as uncertain, none are invented.
                assert!(outcome
                    .report
                    .iter()
                    .any(|r| matches!(r, DegradationReason::EvaluatorFaults { .. })));
                assert!(outcome
                    .uncertain
                    .iter()
                    .all(|u| u.cause == UncertainCause::EvaluatorFault));
                assert!(!outcome.uncertain.is_empty());
            }
            FaultSite::SigmaDegeneracy => {
                // The degenerate Σ is repaired at admission and the
                // repair is on the record.
                assert!(outcome
                    .report
                    .iter()
                    .any(|r| matches!(r, DegradationReason::CovarianceRegularized { .. })));
            }
            // BatchAbort outside a batch executor is a no-op — surviving
            // it is the whole assertion. (Its real behavior is pinned by
            // `batch_abort_degrades_only_affected_queries` below.)
            FaultSite::BatchAbort => {}
        }
    }
}

#[test]
fn seeded_fault_plans_with_monte_carlo_never_panic() {
    let tree = chaos_tree(1_000, 23);
    for seed in 100..116u64 {
        let plan = FaultPlan::from_seed(seed);
        let mut exec = ResilientExecutor::new(StrategySet::ALL).with_fault_plan(plan);
        let mut eval = MonteCarloEvaluator::new(20_000, seed);
        let outcome = exec
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                DELTA,
                THETA,
                &mut eval,
            )
            .expect("MC chaos run must degrade, not error");
        let label = format!("mc seed {seed}");
        assert_accounting(&outcome, &label);
        // Report entries and uncertain causes must agree.
        let faulted = outcome
            .uncertain
            .iter()
            .filter(|u| u.cause == UncertainCause::EvaluatorFault)
            .count();
        let reported_faults = outcome
            .report
            .iter()
            .find_map(|r| match r {
                DegradationReason::EvaluatorFaults { objects } => Some(*objects),
                _ => None,
            })
            .unwrap_or(0);
        assert_eq!(faulted, reported_faults, "{label}");
    }
}

/// ISSUE-9 chaos headline: a fault tripping **mid-batch** must degrade
/// only the affected queries. Tripped queries skip their Σ-group's
/// shared offset table and run with a fresh evaluator on the same
/// derived cloud seed, so *every* query — tripped or not —
/// still answers bitwise identically to the fault-free batch; the only
/// observable differences are the `recovered` flags and the
/// `prq_batch_aborts_total` counter (every hop reported).
#[test]
fn batch_abort_degrades_only_affected_queries() {
    use gprq_core::ext::parallel::ParallelIntegrator;
    use gprq_core::metrics::names;
    use gprq_core::{PipelineMetrics, PrqExecutor, QueryBatch};

    let tree = chaos_tree(2_000, 7);
    let queries: Vec<PrqQuery<2>> = (0..6)
        .map(|i| {
            PrqQuery::new(
                Vector::from([350.0 + 60.0 * i as f64, 480.0]),
                sigma_paper(),
                DELTA,
                THETA,
            )
            .unwrap()
        })
        .collect();
    let integrator = ParallelIntegrator::new(20_000, 404, 1).unwrap();

    // Fault-free baseline batch.
    let mut clean_batch = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);
    let clean: Vec<_> = clean_batch.execute(&tree, &queries).unwrap();

    // Every second query trips the BatchAbort site.
    let metrics = PipelineMetrics::new();
    let mut batch = QueryBatch::new(
        PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics),
        integrator,
    );
    let mut plan =
        FaultPlan::quiet().with_schedule(FaultSite::BatchAbort, FaultSchedule::EveryNth(2));
    let faulted: Vec<_> = batch
        .execute_with_faults(&tree, &queries, &mut plan)
        .expect("a mid-batch fault must degrade, not error");

    assert_eq!(faulted.len(), clean.len());
    let recovered: Vec<bool> = faulted.iter().map(|o| o.recovered).collect();
    assert!(recovered.iter().any(|&r| r), "some queries must trip");
    assert!(recovered.iter().any(|&r| !r), "some queries must survive");
    for (q, (c, f)) in clean.iter().zip(&faulted).enumerate() {
        assert!(!c.recovered, "fault-free batch must not recover anything");
        let c_ids: Vec<usize> = c.answers.iter().map(|(_, d)| **d).collect();
        let f_ids: Vec<usize> = f.answers.iter().map(|(_, d)| **d).collect();
        assert_eq!(c_ids, f_ids, "query {q}: abort changed the answer set");
        assert_eq!(
            c.probabilities.len(),
            f.probabilities.len(),
            "query {q}: abort changed the work list"
        );
        let same = c
            .probabilities
            .iter()
            .zip(&f.probabilities)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "query {q}: recovery diverged from the shared table");
        assert_eq!(f.stats.integrations, c.stats.integrations, "query {q}");
        assert_eq!(f.stats.cloud_builds, c.stats.cloud_builds, "query {q}");
    }
    assert!(
        !faulted.iter().all(|o| o.integrated.is_empty()),
        "the batch must actually integrate something"
    );

    // Every hop reported: one abort tick per recovered query, one
    // record_query flush per query, one batch record.
    let aborts = u64::try_from(recovered.iter().filter(|&&r| r).count()).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.counter(names::BATCH_ABORTS), Some(aborts));
    assert_eq!(
        snap.counter(names::BATCH_QUERIES),
        Some(u64::try_from(queries.len()).unwrap())
    );
    assert_eq!(snap.counter(names::BATCHES), Some(1));
}
