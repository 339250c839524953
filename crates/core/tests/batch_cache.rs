//! Σ-group table correctness: the shared offset table is a pure
//! amortization. Each `execute` call draws its own tables, so every call
//! on one engine reports the same misses (fresh ziggurat draw of the
//! offsets) and hits (the table re-centered) and the same bits; and the
//! counters flow into `PipelineMetrics` under their wire names.

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

    // Each run draws one table per Σ-group (2 misses) and re-centers it
    // for the other members (2 hits); tables do not outlive a call.
    let first = fingerprint(&batch.execute(&tree, &queries()).unwrap());
    assert_eq!((batch.cache().misses(), batch.cache().hits()), (2, 2));
    let second = fingerprint(&batch.execute(&tree, &queries()).unwrap());
    assert_eq!((batch.cache().misses(), batch.cache().hits()), (4, 4));
    assert_eq!(first, second, "every call must reproduce the same bits");
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
    // Each batch: 2 misses + 2 hits.
    assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_HITS), Some(4));
    assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_MISSES), Some(4));
    // The per-query flush path ran once per query: 8 queries total.
    assert_eq!(snap.counter(names::QUERIES), Some(8));
    // And Phase 3 built one grid per query per batch.
    assert_eq!(snap.counter(names::CLOUD_BUILDS), Some(8));
}
