//! Σ-cache correctness: the offset cache is a pure amortization. Cold
//! path (miss, fresh ziggurat draw of the offsets) and hit path (cached
//! offsets, re-centered) must produce bitwise-identical answers;
//! eviction and capacity are deterministic; and the cache counters flow
//! into `PipelineMetrics` under their wire names.

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::metrics::names;
use gprq_core::{PipelineMetrics, PrqExecutor, PrqQuery, QueryBatch, StrategySet};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES: usize = 5_000;
const SEED: u64 = 77;

fn tree(n: usize, seed: u64) -> RTree<2, usize> {
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

fn sigma(gamma: f64) -> Matrix<2> {
    let s3 = 3.0f64.sqrt();
    Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
}

fn queries() -> Vec<PrqQuery<2>> {
    // Two Σ-groups: γ=10 (three queries) and γ=3 (one query).
    vec![
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma(10.0), 25.0, 0.01).unwrap(),
        PrqQuery::new(Vector::from([530.0, 470.0]), sigma(10.0), 25.0, 0.05).unwrap(),
        PrqQuery::new(Vector::from([300.0, 650.0]), sigma(3.0), 30.0, 0.02).unwrap(),
        PrqQuery::new(Vector::from([470.0, 520.0]), sigma(10.0), 20.0, 0.10).unwrap(),
    ]
}

/// Flattens a batch result into a bitwise-comparable form.
fn fingerprint(
    outcomes: &[gprq_core::BatchOutcome<'_, 2, usize>],
) -> Vec<(Vec<usize>, Vec<u64>, usize)> {
    outcomes
        .iter()
        .map(|o| {
            (
                o.answers.iter().map(|(_, d)| **d).collect(),
                o.probabilities.iter().map(|p| p.to_bits()).collect(),
                o.stats.integrations,
            )
        })
        .collect()
}

#[test]
fn cold_and_hit_paths_are_bitwise_equal() {
    let tree = tree(3_000, 5);
    let integrator = ParallelIntegrator::new(SAMPLES, SEED, 1).unwrap();
    let mut batch = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);

    // First run: both Σ-groups are cold (2 misses, 2 hits within the
    // batch). Second run of the identical batch: every lookup hits.
    let first = fingerprint(&batch.execute(&tree, &queries()).unwrap());
    assert_eq!((batch.cache().misses(), batch.cache().hits()), (2, 2));
    let second = fingerprint(&batch.execute(&tree, &queries()).unwrap());
    assert_eq!(batch.cache().misses(), 2, "second run must be all hits");
    assert_eq!(batch.cache().hits(), 6);
    assert_eq!(
        first, second,
        "hit path must reproduce the cold path bitwise"
    );
}

#[test]
fn capacity_one_evicts_deterministically_and_keeps_answers_identical() {
    let tree = tree(3_000, 5);
    let integrator = ParallelIntegrator::new(SAMPLES, SEED, 1).unwrap();
    let roomy = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator)
        .execute(&tree, &queries())
        .unwrap();

    // Capacity 1: the γ=10 table is evicted when γ=3 arrives and must
    // be re-drawn for the last query — more misses, same bits.
    let mut tight =
        QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator).with_cache_capacity(1);
    let tight_outcomes = tight.execute(&tree, &queries()).unwrap();
    assert_eq!(tight.cache().len(), 1);
    assert_eq!(tight.cache().evictions(), 2, "γ10 → γ3 → γ10 churn");
    assert_eq!(
        (tight.cache().misses(), tight.cache().hits()),
        (3, 1),
        "re-draw after eviction is a miss"
    );
    assert_eq!(
        fingerprint(&roomy),
        fingerprint(&tight_outcomes),
        "capacity must never change an answer"
    );

    // Re-running the identical batch churns the same way — eviction is
    // a pure function of the lookup sequence (the retained γ10 table
    // serves the first two lookups before the γ3 arrival evicts it).
    tight.execute(&tree, &queries()).unwrap();
    assert_eq!(tight.cache().evictions(), 4);
    assert_eq!((tight.cache().misses(), tight.cache().hits()), (5, 3));
}

#[test]
fn cache_counters_flow_into_pipeline_metrics() {
    let tree = tree(3_000, 5);
    let metrics = PipelineMetrics::new();
    let integrator = ParallelIntegrator::new(SAMPLES, SEED, 1).unwrap();
    let mut batch = QueryBatch::new(
        PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics),
        integrator,
    );
    batch.execute(&tree, &queries()).unwrap();
    batch.execute(&tree, &queries()).unwrap();

    let snap = metrics.snapshot();
    assert_eq!(snap.counter(names::BATCHES), Some(2));
    assert_eq!(snap.counter(names::BATCH_QUERIES), Some(8));
    // Batch 1: 2 misses + 2 hits; batch 2: 4 hits.
    assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_HITS), Some(6));
    assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_MISSES), Some(2));
    assert_eq!(snap.counter(names::BATCH_ABORTS), Some(0));
    // The per-query flush path ran once per query: 8 queries total.
    assert_eq!(snap.counter(names::QUERIES), Some(8));
    // And the fused Phase 3 built one cloud per query per batch.
    assert_eq!(snap.counter(names::CLOUD_BUILDS), Some(8));
}
