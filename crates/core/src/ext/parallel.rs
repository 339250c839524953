//! The configuration of [`QueryBatch`](crate::QueryBatch): cloud size
//! and base seed.
//!
//! The batch runs every query through the solo executor's pipeline, in
//! index order on the calling thread. The queries whose covariances are
//! bitwise equal form a Σ-group and share one offset table drawn from
//! [`cloud_seed`](crate::cloud_seed), so every query's result depends on
//! the query alone.
//!
//! Estimator caveat: the shared cloud correlates errors *across*
//! candidates of one query, and the shared table across the queries of
//! one Σ-group. Each per-candidate estimate is still unbiased with
//! unchanged variance (see `gprq_gaussian::cloud`).

use crate::error::PrqError;
use std::num::NonZeroUsize;

/// The batch engine's Phase-3 configuration: the size of each query's
/// shared cloud and the base seed the clouds derive from.
/// [`ParallelIntegrator::new`] is its only constructor; hand the result
/// to [`QueryBatch::new`](crate::QueryBatch::new).
///
/// The fields are private, so a validated integrator stays valid:
///
/// ```compile_fail,E0616
/// use gprq_core::ext::parallel::ParallelIntegrator;
/// use std::num::NonZeroUsize;
///
/// let mut integrator = ParallelIntegrator::new(1_000, 7, 1).unwrap();
/// integrator.samples = NonZeroUsize::MIN;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelIntegrator {
    /// Monte-Carlo samples in each query's shared cloud.
    pub(crate) samples: NonZeroUsize,
    /// Base RNG seed; each query's cloud seed mixes it with the query's
    /// covariance ([`cloud_seed`](crate::cloud_seed)).
    pub(crate) seed: u64,
}

impl ParallelIntegrator {
    /// Creates an integrator. `_threads` is unused: the batch runs on
    /// the calling thread. The argument stays for source compatibility.
    ///
    /// # Errors
    ///
    /// [`PrqError::InvalidSampleBudget`] if `samples == 0` — a
    /// zero-sample estimate would be an unfounded hard rejection.
    pub fn new(samples: usize, seed: u64, _threads: usize) -> Result<Self, PrqError> {
        let samples = NonZeroUsize::new(samples).ok_or(PrqError::InvalidSampleBudget)?;
        Ok(ParallelIntegrator { samples, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategySet;
    use crate::{BatchOutcome, PipelineMetrics, PrqExecutor, PrqQuery, QueryBatch, QueryStats};
    use gprq_linalg::{Matrix, Vector};
    use gprq_rtree::{RStarParams, RTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    #[test]
    fn new_rejects_zero_samples() {
        assert!(matches!(
            ParallelIntegrator::new(0, 1, 1),
            Err(PrqError::InvalidSampleBudget)
        ));
    }

    /// Each query's answer ids, probability bits and integer counters.
    type Fingerprint = Vec<(Vec<usize>, Vec<u64>, QueryStats)>;

    fn fingerprint(outcomes: &[BatchOutcome<'_, 2, usize>]) -> Fingerprint {
        outcomes
            .iter()
            .map(|o| {
                let counters = QueryStats {
                    phase1_time: Duration::ZERO,
                    phase2_time: Duration::ZERO,
                    phase3_time: Duration::ZERO,
                    ..o.stats
                };
                (
                    o.answers.iter().map(|(_, d)| **d).collect(),
                    o.probabilities.iter().map(|p| p.to_bits()).collect(),
                    counters,
                )
            })
            .collect()
    }

    #[test]
    fn parity_across_thread_counts_probabilities_and_metric_counters() {
        // The determinism guarantee extended to observability: the
        // unused `threads` argument must change no answer, probability,
        // integer query counter OR metric counter value — only the span
        // durations may differ — and metering must not change a bit.
        // Three interleaved Σ-groups, one of which opens with a query
        // whose work list is empty, so its table is drawn by its second
        // member.
        let mut rng = StdRng::seed_from_u64(5);
        let points = (0..3_000)
            .map(|i| {
                let p = Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]);
                (p, i)
            })
            .collect();
        let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
        let s3 = 3.0f64.sqrt();
        let sigma = |gamma: f64| Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        let query = |x: f64, y: f64, gamma: f64| {
            PrqQuery::new(Vector::from([x, y]), sigma(gamma), 25.0, 0.05).unwrap()
        };
        let queries = [
            query(500.0, 500.0, 10.0),
            query(-5_000.0, -5_000.0, 4.0),
            query(300.0, 700.0, 2.0),
            query(250.0, 400.0, 4.0),
            query(520.0, 470.0, 10.0),
            query(700.0, 300.0, 2.0),
        ];
        let mut reference: Option<(Fingerprint, Vec<(&'static str, u64)>)> = None;
        for threads in [1usize, 2, 4, 7, 16, 0] {
            let integrator = ParallelIntegrator::new(5_000, 42, threads).unwrap();
            let executor = PrqExecutor::new(StrategySet::ALL);
            let mut batch = QueryBatch::new(executor, integrator);
            let plain = fingerprint(&batch.execute(&tree, &queries).unwrap());
            let metrics = PipelineMetrics::new();
            let mut batch = QueryBatch::new(executor.with_metrics(&metrics), integrator);
            let metered = fingerprint(&batch.execute(&tree, &queries).unwrap());
            assert_eq!(plain, metered, "threads = {threads}: metering changed bits");
            assert_eq!((batch.cache().misses(), batch.cache().hits()), (3, 2));
            let counters = metrics.snapshot().counters();
            match &reference {
                None => reference = Some((plain, counters)),
                Some((out0, c0)) => {
                    assert_eq!(&plain, out0, "threads = {threads}: outcomes drifted");
                    assert_eq!(&counters, c0, "threads = {threads}: counters drifted");
                }
            }
        }
        let (outcomes, _) = reference.unwrap();
        let idle = &outcomes[1];
        assert!(idle.1.is_empty(), "the far-off query integrates nothing");
        assert_eq!((idle.2.cloud_builds, idle.2.phase3_samples), (0, 0));
        for (q, (_, probabilities, stats)) in outcomes.iter().enumerate() {
            assert_eq!(probabilities.len(), stats.integrations, "query {q}");
            if q != 1 {
                assert!(stats.integrations > 0, "query {q} must integrate");
                assert_eq!(stats.cloud_builds, 1, "query {q}");
            }
        }
        // The first integrating member of each group draws the table.
        let drawn: Vec<bool> = outcomes.iter().map(|o| o.2.phase3_samples > 0).collect();
        assert_eq!(drawn, [true, false, true, true, false, false]);
    }
}
