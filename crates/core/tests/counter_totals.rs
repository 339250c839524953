//! Counter totals: on every driver (`PrqExecutor`, `ResilientExecutor`,
//! `QueryBatch`), every Phase-1 backend (`RTree`, `FlatRTree`), and
//! every evaluator kind (fixed cloud, exact, quadrature), each
//! registry counter must equal the sum of its
//! [`QueryStats`] field over the queries it recorded — and a run that
//! built a sample cloud must report the samples it drew. Each executor
//! plans every query once, so the plan histogram holds one span per
//! query.
//!
//! Clouds are drawn at a query's first integration, so every cloud
//! driver builds exactly one cloud per query with at least one
//! integration and none for a query whose work list is empty (the
//! BF-decided isotropic query below): `prq_cloud_builds_total` counts
//! integrating queries.
//!
//! `QueryBatch` has no evaluator parameter: its Phase 3 is always the
//! shared Monte-Carlo cloud, so it is checked once per backend.
//!
//! The naive scan and the `ext` queries (PNN, uncertain targets) do
//! not record metrics, but they share evaluators with the executors that
//! do: they must not leave their draws behind for the next query.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::ext::pnn::probabilistic_knn;
use gprq_core::ext::uncertain::{
    prq_uncertain_targets, qualification_probability, UncertainTarget,
};
use gprq_core::metrics::names;
use gprq_core::{
    execute_naive, ExactEvaluator, MonteCarloEvaluator, PipelineMetrics, ProbabilityEvaluator,
    PrqExecutor, PrqQuery, Quadrature2dEvaluator, QueryBatch, QueryStats, ResilientExecutor,
    StrategySet,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES: usize = 20_000;

fn random_points(n: usize, seed: u64) -> Vec<(Vector<2>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                i,
            )
        })
        .collect()
}

fn sigma(gamma: f64) -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
}

/// Two queries sharing Σ (a Σ-cache hit in a batch), one with its own,
/// and an isotropic one whose candidates BF decides without integrating.
fn queries() -> Vec<PrqQuery<2>> {
    let mut queries: Vec<PrqQuery<2>> = [
        ([500.0, 500.0], 40.0, 25.0),
        ([520.0, 480.0], 40.0, 25.0),
        ([250.0, 700.0], 10.0, 30.0),
    ]
    .into_iter()
    .map(|(c, gamma, delta)| PrqQuery::new(Vector::from(c), sigma(gamma), delta, 0.01).unwrap())
    .collect();
    let isotropic = Matrix::identity().scale(10.0);
    queries.push(PrqQuery::new(Vector::from([400.0, 300.0]), isotropic, 25.0, 0.01).unwrap());
    queries
}

/// Queries in `queries()` with at least one integration.
const INTEGRATING_QUERIES: usize = 3;

/// The lazy-draw contract per query: a query that integrates nothing
/// builds no cloud and draws no samples; one that integrates builds
/// `builds_if_integrating` clouds. Returns whether `stats` integrated.
fn assert_draws_only_when_integrating(
    stats: &QueryStats,
    builds_if_integrating: usize,
    label: &str,
) -> bool {
    if stats.integrations == 0 {
        assert!(
            stats.phase1_candidates > 0,
            "{label}: BF had nothing to decide"
        );
        assert_eq!(
            stats.cloud_builds, 0,
            "{label}: empty work list built a cloud"
        );
        assert_eq!(
            stats.phase3_samples, 0,
            "{label}: empty work list drew samples"
        );
        false
    } else {
        assert_eq!(stats.cloud_builds, builds_if_integrating, "{label}");
        true
    }
}

/// Every registry counter against the summed per-query stats.
fn assert_totals(metrics: &PipelineMetrics, total: &QueryStats, queries: usize, label: &str) {
    let snap = metrics.snapshot();
    let expected = [
        (names::QUERIES, queries),
        (names::ANSWERS, total.answers),
        (names::PHASE1_NODE_VISITS, total.node_accesses),
        (names::PHASE1_LEAF_HITS, total.leaf_hits),
        (names::PHASE1_CANDIDATES, total.phase1_candidates),
        (names::PHASE2_FRINGE_PRUNES, total.pruned_by_fringe),
        (names::PHASE2_OR_ROTATIONS, total.or_rotations),
        (names::PHASE2_OR_PRUNES, total.pruned_by_or),
        (names::PHASE2_BF_REJECTS, total.pruned_by_bf),
        (names::PHASE2_BF_ACCEPTS, total.accepted_without_integration),
        (names::PHASE3_INTEGRATIONS, total.integrations),
        (names::PHASE3_UNCERTAIN, total.uncertain),
        (names::PHASE3_SAMPLES, total.phase3_samples),
        (names::CLOUD_BUILDS, total.cloud_builds),
        (names::CLOUD_CELLS_SCANNED, total.cloud_cells_scanned),
        (names::CLOUD_CELLS_INSIDE, total.cloud_cells_inside),
        (names::CLOUD_SAMPLES_TESTED, total.cloud_samples_tested),
    ];
    for (name, want) in expected {
        assert_eq!(
            snap.counter(name),
            Some(u64::try_from(want).unwrap()),
            "{label}: {name}"
        );
    }
    // One plan span per query: every executor here plans each query once
    // (no resilient run below falls back to the naive scan, which skips
    // planning).
    assert_eq!(
        snap.histogram(names::PLAN_DURATION_NS).map(|h| h.count),
        Some(u64::try_from(queries).unwrap()),
        "{label}: plan spans"
    );
    assert!(total.integrations > 0, "{label}: nothing was integrated");
    if total.cloud_builds > 0 {
        assert!(
            snap.counter(names::PHASE3_SAMPLES) > Some(0),
            "{label}: a cloud was built but no samples were counted"
        );
    }
}

/// Plain and resilient runs of every query with fresh evaluators from
/// `make`, whose integrating queries each build `builds` clouds.
fn check_solo<I, E>(index: &I, label: &str, builds: usize, make: impl Fn() -> E)
where
    I: Phase1Index<2, usize>,
    E: ProbabilityEvaluator<2>,
{
    let queries = queries();

    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let mut total = QueryStats::default();
    let mut integrating = 0;
    for (q, query) in queries.iter().enumerate() {
        let outcome = executor.execute(index, query, &mut make()).unwrap();
        let query_label = format!("plain, {label}, query {q}");
        integrating += usize::from(assert_draws_only_when_integrating(
            &outcome.stats,
            builds,
            &query_label,
        ));
        total.merge(&outcome.stats);
    }
    assert_eq!(integrating, INTEGRATING_QUERIES, "plain, {label}");
    assert_eq!(total.cloud_builds, builds * integrating, "plain, {label}");
    assert_totals(&metrics, &total, queries.len(), &format!("plain, {label}"));

    let metrics = PipelineMetrics::new();
    let mut resilient = ResilientExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let mut total = QueryStats::default();
    let mut integrating = 0;
    for (q, query) in queries.iter().enumerate() {
        let (center, cov) = (*query.center(), *query.gaussian().covariance());
        let outcome = resilient
            .execute(
                index,
                center,
                cov,
                query.delta(),
                query.theta(),
                &mut make(),
            )
            .unwrap();
        assert!(!outcome.report.is_degraded(), "{label}: {}", outcome.report);
        let query_label = format!("resilient, {label}, query {q}");
        integrating += usize::from(assert_draws_only_when_integrating(
            &outcome.stats,
            builds,
            &query_label,
        ));
        total.merge(&outcome.stats);
    }
    assert_eq!(integrating, INTEGRATING_QUERIES, "resilient, {label}");
    assert_eq!(
        total.cloud_builds,
        builds * integrating,
        "resilient, {label}"
    );
    assert_totals(
        &metrics,
        &total,
        queries.len(),
        &format!("resilient, {label}"),
    );
}

fn check_batch<I: Phase1Index<2, usize>>(index: &I, label: &str) {
    let queries = queries();
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let integrator = ParallelIntegrator::new(SAMPLES, 7, 1).unwrap();
    let mut batch = QueryBatch::new(executor, integrator);
    let mut total = QueryStats::default();
    let mut integrating = 0;
    for (q, outcome) in batch.execute(index, &queries).unwrap().iter().enumerate() {
        let query_label = format!("batch, {label}, query {q}");
        integrating += usize::from(assert_draws_only_when_integrating(
            &outcome.stats,
            1,
            &query_label,
        ));
        total.merge(&outcome.stats);
    }
    assert_eq!(integrating, INTEGRATING_QUERIES, "batch, {label}");
    assert_eq!(batch.cache().hits(), 1, "{label}: shared Σ must hit");
    assert_eq!(batch.cache().misses(), 2, "{label}: one miss per drawn Σ");
    assert_eq!(total.cloud_builds, integrating, "batch, {label}");
    assert_totals(&metrics, &total, queries.len(), &format!("batch, {label}"));
}

/// The two Phase-1 backends over the same points.
fn backends() -> (RTree<2, usize>, FlatRTree<2, usize>) {
    let tree = RTree::bulk_load(random_points(3_000, 11), RStarParams::paper_default(2));
    let flat = FlatRTree::freeze(tree.clone());
    (tree, flat)
}

#[test]
fn fixed_cloud_evaluator_counters_match_stats() {
    let make = || MonteCarloEvaluator::new(SAMPLES, 7);
    let (tree, flat) = backends();
    check_solo(&tree, "rtree, mc", 1, make);
    check_solo(&flat, "flat, mc", 1, make);
}

#[test]
fn exact_evaluator_counters_match_stats() {
    let make = ExactEvaluator::<2>::default;
    let (tree, flat) = backends();
    check_solo(&tree, "rtree, exact", 0, make);
    check_solo(&flat, "flat, exact", 0, make);
}

#[test]
fn deterministic_evaluator_counters_match_stats() {
    let make = Quadrature2dEvaluator::default;
    let (tree, flat) = backends();
    check_solo(&tree, "rtree, quadrature", 0, make);
    check_solo(&flat, "flat, quadrature", 0, make);
}

#[test]
fn batch_counters_match_stats() {
    let (tree, flat) = backends();
    check_batch(&tree, "rtree");
    check_batch(&flat, "flat");
}

/// An evaluator reused after a naive scan, a PNN ranking or an
/// uncertain-target query starts the next executor query clean: each of
/// those calls drains the cloud statistics of its own draws, and the
/// naive scan reports the cloud it drew in its own stats.
#[test]
fn side_queries_leave_no_cloud_stats_behind() {
    let (tree, _) = backends();
    let query = &queries()[0];
    let executor = PrqExecutor::new(StrategySet::ALL);
    let mut eval = MonteCarloEvaluator::new(SAMPLES, 7);
    let next_query_is_clean = |eval: &mut MonteCarloEvaluator<2>, after: &str| {
        let stats = executor.execute(&tree, query, eval).unwrap().stats;
        assert_eq!(
            (stats.cloud_builds, stats.phase3_samples),
            (1, SAMPLES),
            "executor query after {after}"
        );
    };

    let naive = execute_naive(&tree, query, &mut eval);
    assert_eq!(
        (naive.stats.cloud_builds, naive.stats.phase3_samples),
        (1, SAMPLES),
        "execute_naive reports its own cloud"
    );
    next_query_is_clean(&mut eval, "execute_naive");

    let (top, pnn) = probabilistic_knn(&tree, query, 5, &mut eval);
    assert!(top.len() == 5 && pnn.integrations > 0);
    next_query_is_clean(&mut eval, "probabilistic_knn");

    let targets: Vec<UncertainTarget<2>> = [10.0, 40.0, 70.0, 100.0]
        .into_iter()
        .map(|offset| UncertainTarget {
            mean: *query.center() + Vector::from([offset, 0.0]),
            covariance: Matrix::identity().scale(20.0),
        })
        .collect();
    qualification_probability(query, &targets[0], &mut eval).unwrap();
    next_query_is_clean(&mut eval, "qualification_probability");

    let outcome = prq_uncertain_targets(query, &targets, &mut eval).unwrap();
    assert!(outcome.integrations > 0, "BF decided every target");
    next_query_is_clean(&mut eval, "prq_uncertain_targets");
}

/// Recovered batch members run the Phase-3 stage solo and still flush
/// exactly once, with the samples their fresh cloud drew.
#[cfg(feature = "fault-inject")]
#[test]
fn recovered_batch_counters_match_stats() {
    use gprq_core::{FaultPlan, FaultSchedule, FaultSite};
    let (tree, _) = backends();
    let queries = queries();
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let integrator = ParallelIntegrator::new(SAMPLES, 7, 1).unwrap();
    let mut batch = QueryBatch::new(executor, integrator);
    let mut plan = FaultPlan::quiet().with_schedule(FaultSite::BatchAbort, FaultSchedule::Always);
    let mut total = QueryStats::default();
    let mut integrating = 0;
    for (q, outcome) in batch
        .execute_with_faults(&tree, &queries, &mut plan)
        .unwrap()
        .iter()
        .enumerate()
    {
        assert!(outcome.recovered);
        let label = format!("recovered batch, query {q}");
        integrating += usize::from(assert_draws_only_when_integrating(
            &outcome.stats,
            1,
            &label,
        ));
        total.merge(&outcome.stats);
    }
    assert_eq!(integrating, INTEGRATING_QUERIES);
    assert_eq!(total.phase3_samples, integrating * SAMPLES);
    // Recovered queries make no table lookup.
    assert_eq!((batch.cache().hits(), batch.cache().misses()), (0, 0));
    assert_totals(&metrics, &total, queries.len(), "recovered batch");
}
