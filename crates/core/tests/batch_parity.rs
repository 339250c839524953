//! ISSUE-9 parity suite: for every query in a batch — over random
//! catalogs, mixed shared-Σ/distinct-Σ batches, θ extremes, and
//! admission-repaired degenerate Σ — the batched answer set, the
//! qualification probabilities, and the integer execution counters must
//! be **bitwise identical** to the sequential [`PrqExecutor`] run with
//! the same derived cloud seed, across both [`Phase1Index`] backends
//! (`RTree`, `FlatRTree`) and all [`ParallelIntegrator`] thread
//! counts.
//!
//! The sequential baseline for query `q` is
//! `executor.execute(tree, q, &mut MonteCarloEvaluator::new(SAMPLES,
//! cloud_seed(BASE_SEED, q.gaussian())))` — exactly the contract
//! documented in `gprq_core::batch`.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::resilience::admit;
use gprq_core::{
    DegradationReport, MonteCarloEvaluator, PrqExecutor, PrqQuery, QueryBatch, QueryStats,
    StrategySet,
};
use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;

const SAMPLES: usize = 2_000;
const BASE_SEED: u64 = 9_001;
/// 0 = "all available cores" — the layout-independence extreme.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 0];

/// A small Σ pool so generated batches mix shared-Σ groups (cache hits)
/// with distinct-Σ queries (cache misses).
fn sigma_pool(slot: u8) -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    let base = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]);
    match slot % 3 {
        0 => base.scale(10.0),
        1 => base.scale(4.0),
        _ => Matrix::identity().scale(25.0),
    }
}

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

/// Integer-counter equality — [`QueryStats`] as a whole includes phase
/// `Duration`s, which legitimately differ (the batch divides fused
/// wall-clock), so parity is asserted field by field.
fn assert_counters_equal(batch: &QueryStats, solo: &QueryStats, label: &str) {
    assert_eq!(batch.phase1_candidates, solo.phase1_candidates, "{label}");
    assert_eq!(batch.node_accesses, solo.node_accesses, "{label}");
    assert_eq!(batch.leaf_hits, solo.leaf_hits, "{label}");
    assert_eq!(batch.pruned_by_fringe, solo.pruned_by_fringe, "{label}");
    assert_eq!(batch.or_rotations, solo.or_rotations, "{label}");
    assert_eq!(batch.pruned_by_or, solo.pruned_by_or, "{label}");
    assert_eq!(batch.pruned_by_bf, solo.pruned_by_bf, "{label}");
    assert_eq!(
        batch.accepted_without_integration, solo.accepted_without_integration,
        "{label}"
    );
    assert_eq!(batch.integrations, solo.integrations, "{label}");
    assert_eq!(batch.answers, solo.answers, "{label}");
    assert_eq!(batch.cloud_builds, solo.cloud_builds, "{label}");
    assert_eq!(
        batch.cloud_cells_scanned, solo.cloud_cells_scanned,
        "{label}"
    );
    assert_eq!(batch.cloud_cells_inside, solo.cloud_cells_inside, "{label}");
    assert_eq!(
        batch.cloud_samples_tested, solo.cloud_samples_tested,
        "{label}"
    );
}

/// Runs `queries` as one batch on `tree` and checks every query against
/// its sequential baseline: answers (ids, in order), probabilities
/// (bitwise, against a grid replayed from the derived seed), and
/// counters.
fn assert_batch_matches_solo<I>(
    tree: &I,
    queries: &[PrqQuery<2>],
    strategies: StrategySet,
    threads: usize,
    label: &str,
) where
    I: Phase1Index<2, usize>,
{
    let executor = PrqExecutor::new(strategies);
    let integrator =
        ParallelIntegrator::new(SAMPLES, BASE_SEED, threads).expect("non-zero sample budget");
    let mut batch = QueryBatch::new(executor, integrator);
    let outcomes = batch.execute(tree, queries).expect("batch execution");
    assert_eq!(outcomes.len(), queries.len());

    for (q, (query, outcome)) in queries.iter().zip(&outcomes).enumerate() {
        let label = format!("{label}, query {q}");
        let seed = batch.cloud_seed_for(query);
        let mut eval = MonteCarloEvaluator::new(SAMPLES, seed);
        let solo = executor
            .execute(tree, query, &mut eval)
            .expect("solo execution");

        let batch_ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        let solo_ids: Vec<usize> = solo.answers.iter().map(|(_, d)| **d).collect();
        assert_eq!(batch_ids, solo_ids, "{label}: answer sets diverge");
        assert_counters_equal(&outcome.stats, &solo.stats, &label);
        assert!(!outcome.recovered, "{label}: no faults were injected");
        // A query that integrates nothing draws nothing, either way.
        if outcome.integrated.is_empty() {
            for stats in [&outcome.stats, &solo.stats] {
                assert_eq!(stats.cloud_builds, 0, "{label}: idle query built a cloud");
                assert_eq!(stats.phase3_samples, 0, "{label}: idle query drew samples");
            }
        }

        // Probabilities: replay the solo evaluator's grid (same seed,
        // fresh draw) and probe the batch's work list — every float
        // must match to the last bit.
        let budget = NonZeroUsize::new(SAMPLES).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = CloudGrid::build(SampleCloud::draw(query.gaussian(), budget, &mut rng));
        assert_eq!(
            outcome.probabilities.len(),
            outcome.integrated.len(),
            "{label}"
        );
        for (i, (&(point, _), &p)) in outcome
            .integrated
            .iter()
            .zip(&outcome.probabilities)
            .enumerate()
        {
            let expected = grid.probability(point, query.delta());
            assert_eq!(
                p.to_bits(),
                expected.to_bits(),
                "{label}: probability {i} diverges from the seeded replay"
            );
        }
    }
}

/// Full backend × thread-count sweep for one batch.
fn sweep(points: &[(Vector<2>, usize)], queries: &[PrqQuery<2>], strategies: StrategySet) {
    let tree = RTree::bulk_load(points.to_vec(), RStarParams::paper_default(2));
    let flat = FlatRTree::freeze(tree.clone());
    for threads in THREAD_COUNTS {
        assert_batch_matches_solo(
            &tree,
            queries,
            strategies,
            threads,
            &format!("rtree, threads={threads}"),
        );
        assert_batch_matches_solo(
            &flat,
            queries,
            strategies,
            threads,
            &format!("flat, threads={threads}"),
        );
    }
}

mod batch_parity {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The headline property: random catalog, random mixed batch
        /// (shared and distinct Σ, θ spanning the RR-valid range, some
        /// queries far off-catalog with empty work lists), bitwise
        /// parity on both backends at every thread count.
        #[test]
        fn random_mixed_batches_match_solo_bitwise(
            tree_seed in 0..u64::MAX / 2,
            tree_size in 400..1_400usize,
            specs in proptest::collection::vec(
                (
                    -200.0..1_200.0f64,  // center x (sometimes off-catalog)
                    -200.0..1_200.0f64,  // center y
                    0u8..6,              // Σ pool slot (forces sharing)
                    8.0..45.0f64,        // δ
                    1e-6..0.49f64,       // θ, up to the RR validity edge
                ),
                1..7,
            ),
        ) {
            let points = random_points(tree_size, tree_seed);
            let queries: Vec<PrqQuery<2>> = specs
                .iter()
                .map(|&(x, y, slot, delta, theta)| {
                    PrqQuery::new(Vector::from([x, y]), sigma_pool(slot), delta, theta)
                        .expect("pool Σ is SPD")
                })
                .collect();
            sweep(&points, &queries, StrategySet::ALL);
        }
    }

    /// θ beyond 1/2 invalidates the θ-region, so RR/OR cannot run — the
    /// BF-only strategy set must still hold batch/solo parity at the
    /// high-θ extreme.
    #[test]
    fn bf_only_high_theta_extremes_match_solo() {
        let points = random_points(1_000, 123);
        let sigma = sigma_pool(0);
        let queries: Vec<PrqQuery<2>> = [0.55, 0.9, 0.999]
            .into_iter()
            .enumerate()
            .map(|(i, theta)| {
                PrqQuery::new(
                    Vector::from([450.0 + 40.0 * i as f64, 500.0]),
                    sigma,
                    30.0,
                    theta,
                )
                .unwrap()
            })
            .collect();
        sweep(&points, &queries, StrategySet::BF);
    }

    /// Degenerate (singular / ill-conditioned) Σ repaired by
    /// admission: the repaired queries run through the batch and
    /// must match their solo baselines bitwise — the cache keys on the
    /// *repaired* covariance bits.
    #[test]
    fn admission_repaired_degenerate_sigma_matches_solo() {
        let points = random_points(1_000, 321);
        let mut report = DegradationReport::new();
        // Rank-1 (singular) and nearly-singular matrices admission
        // must ridge-repair before they are admissible.
        let degenerate = [
            Matrix::from_rows([[50.0, 50.0], [50.0, 50.0]]),
            Matrix::from_rows([[40.0, 39.999_999_999], [39.999_999_999, 40.0]]),
        ];
        let mut queries = Vec::new();
        for (i, sigma) in degenerate.into_iter().enumerate() {
            let q = admit(
                Vector::from([480.0 + 30.0 * i as f64, 510.0]),
                sigma,
                25.0,
                0.05,
                &mut report,
            )
            .expect("degenerate Σ is repairable");
            queries.push(q);
            // Same degenerate input again: repairs are deterministic,
            // so this query shares the repaired Σ (a cache hit in the
            // batch).
            let twin = admit(Vector::from([520.0, 470.0]), sigma, 25.0, 0.05, &mut report)
                .expect("repair is deterministic");
            queries.push(twin);
        }
        assert!(report.is_degraded(), "the repairs must be on the record");
        sweep(&points, &queries, StrategySet::ALL);
    }

    /// A batch against an empty catalog: every query answers empty,
    /// draws nothing, and still matches solo exactly.
    #[test]
    fn empty_catalog_batches_match_solo() {
        let queries: Vec<PrqQuery<2>> = (0..3)
            .map(|i| {
                PrqQuery::new(
                    Vector::from([i as f64 * 100.0, 50.0]),
                    sigma_pool(i as u8),
                    20.0,
                    0.1,
                )
                .unwrap()
            })
            .collect();
        sweep(&[], &queries, StrategySet::ALL);
    }

    /// An isotropic Σ lets BF decide every candidate (the `road2d_churn`
    /// query shape): that query integrates nothing and draws nothing,
    /// beside a same-catalog query that does integrate.
    #[test]
    fn bf_decided_isotropic_query_matches_solo() {
        let points = random_points(2_000, 77);
        let isotropic = Matrix::identity().scale(10.0);
        let queries = vec![
            PrqQuery::new(Vector::from([500.0, 500.0]), isotropic, 25.0, 0.01).unwrap(),
            PrqQuery::new(Vector::from([520.0, 480.0]), sigma_pool(0), 25.0, 0.01).unwrap(),
        ];
        let tree = RTree::bulk_load(points.clone(), RStarParams::paper_default(2));
        let executor = PrqExecutor::new(StrategySet::ALL);
        let integrator = ParallelIntegrator::new(SAMPLES, BASE_SEED, 1).unwrap();
        let mut batch = QueryBatch::new(executor, integrator);
        let outcomes = batch.execute(&tree, &queries).unwrap();
        let decided = &outcomes[0].stats;
        assert!(
            decided.phase1_candidates > 0,
            "BF must have candidates to decide"
        );
        assert_eq!(decided.integrations, 0, "isotropic Σ: BF decides all");
        assert!(outcomes[1].stats.integrations > 0);
        assert_eq!((batch.cache().misses(), batch.cache().hits()), (1, 0));
        sweep(&points, &queries, StrategySet::ALL);
    }
}
