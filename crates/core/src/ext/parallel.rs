//! Parallel Phase 3 for [`QueryBatch`](crate::QueryBatch).
//!
//! Phase 3 — the ≥97 %-of-runtime phase — parallelizes embarrassingly:
//! every `(query, candidate)` probe is a pure function of the query's
//! immutable grid-indexed sample cloud. The batch engine draws each
//! query's cloud from [`cloud_seed`](crate::cloud_seed) and hands the
//! fused work list to [`ParallelIntegrator`], whose workers partition
//! *candidates* — never samples — so results are bit-identical across
//! thread counts by construction.
//!
//! A one-query parallel Phase 3 is `QueryBatch::execute(index,
//! &[query])` on an integrator with `threads > 1`; its answers are
//! bitwise equal to the solo executor's.
//!
//! Estimator caveat: the shared cloud correlates errors *across*
//! candidates of one query. Each per-candidate estimate is still
//! unbiased with unchanged variance (see `gprq_gaussian::cloud`).

use crate::error::PrqError;
use crate::metrics::PipelineMetrics;
use gprq_gaussian::cloud::{CloudGrid, CloudStats};
use gprq_linalg::Vector;

/// One query's share of a fused batch Phase 3: its immutable grid, the
/// candidate block to probe, and the query's `δ`. Built by the batch
/// executor (`crate::batch`), consumed by
/// [`ParallelIntegrator::batch_probabilities`].
#[derive(Debug)]
pub(crate) struct BatchPhase3Item<'a, const D: usize> {
    /// The query's grid-indexed sample cloud.
    pub grid: &'a CloudGrid<D>,
    /// Candidate centers surviving Phases 1–2, in work-list order.
    pub candidates: &'a [Vector<D>],
    /// The query's range radius `δ`.
    pub delta: f64,
}

/// The batch engine's Phase-3 configuration: the size of each query's
/// shared cloud, the base seed the clouds derive from, and the worker
/// count. Build it with [`ParallelIntegrator::new`] and hand it to
/// [`QueryBatch::new`](crate::QueryBatch::new).
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ParallelIntegrator {
    /// Monte-Carlo samples in each query's shared cloud.
    pub samples: usize,
    /// Base RNG seed; each query's cloud seed mixes it with the query's
    /// covariance ([`cloud_seed`](crate::cloud_seed)).
    pub seed: u64,
    /// Worker threads (`0` = number of available CPUs).
    pub threads: usize,
}

impl ParallelIntegrator {
    /// Creates an integrator.
    ///
    /// # Errors
    ///
    /// [`PrqError::InvalidSampleBudget`] if `samples == 0` — a
    /// zero-sample estimate would be an unfounded hard rejection.
    pub fn new(samples: usize, seed: u64, threads: usize) -> Result<Self, PrqError> {
        if samples == 0 {
            return Err(PrqError::InvalidSampleBudget);
        }
        Ok(ParallelIntegrator {
            samples,
            seed,
            threads,
        })
    }

    fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Fused Phase 3 over a whole batch: workers partition the
    /// **flattened** `(query, candidate)` space, so a batch with many
    /// small candidate lists still keeps every worker busy. Returns
    /// per-query probability vectors (same order as
    /// `items[q].candidates`) and per-query [`CloudStats`] accumulated
    /// from that query's probes.
    ///
    /// Parity: each probe is a pure function of the query's immutable
    /// grid, the candidate, and `delta`, and the per-query stats are
    /// commutative integer sums over that query's candidates — so both
    /// outputs are bit-identical across thread counts and worker
    /// layouts.
    pub(crate) fn batch_probabilities<const D: usize>(
        &self,
        items: &[BatchPhase3Item<'_, D>],
        metrics: Option<&PipelineMetrics>,
    ) -> (Vec<Vec<f64>>, Vec<CloudStats>) {
        let n_queries = items.len();
        let mut prefix = Vec::with_capacity(n_queries + 1);
        prefix.push(0usize);
        for item in items {
            let last = *prefix.last().unwrap_or(&0);
            prefix.push(last + item.candidates.len());
        }
        let total = *prefix.last().unwrap_or(&0);
        let mut query_stats = vec![CloudStats::default(); n_queries];
        if total == 0 {
            return (vec![Vec::new(); n_queries], query_stats);
        }
        if let Some(m) = metrics {
            m.record_parallel_objects(total);
        }
        let mut flat = vec![0.0f64; total];
        let workers = self.worker_count().min(total);
        let chunk = total.div_ceil(workers);
        let mut worker_stats = vec![vec![CloudStats::default(); n_queries]; workers];
        let prefix = &prefix;
        std::thread::scope(|scope| {
            for ((w, out_chunk), locals) in flat
                .chunks_mut(chunk)
                .enumerate()
                .zip(worker_stats.iter_mut())
            {
                let start = w * chunk;
                scope.spawn(move || {
                    // INVARIANT: the flat index → (query, candidate)
                    // mapping depends only on the batch's candidate
                    // counts, never on the worker layout, and every
                    // worker reads immutable per-query grids — so the
                    // probability written to each slot is layout-free.
                    let mut qi = 0usize;
                    for (offset, slot) in out_chunk.iter_mut().enumerate() {
                        let f = start + offset;
                        while f >= prefix[qi + 1] {
                            qi += 1;
                        }
                        let item = &items[qi];
                        *slot = item.grid.probability_with_stats(
                            &item.candidates[f - prefix[qi]],
                            item.delta,
                            &mut locals[qi],
                        );
                    }
                    // One histogram write per worker, after its loop.
                    // "Worker samples" are distance-tested samples; the
                    // total is layout-independent (a sum over
                    // candidates), only the split varies.
                    if let Some(m) = metrics {
                        let tested = locals.iter().map(|s| s.samples_tested).sum();
                        m.record_worker_samples(tested);
                    }
                });
            }
        });
        // Fold per-worker tallies per query. The fields are commutative
        // integer sums, so the fold order cannot affect the result.
        for locals in &worker_stats {
            for (dst, src) in query_stats.iter_mut().zip(locals.iter()) {
                dst.merge(src);
            }
        }
        let per_query = items
            .iter()
            .enumerate()
            .map(|(q, _)| flat[prefix[q]..prefix[q + 1]].to_vec())
            .collect();
        (per_query, query_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;
    use gprq_gaussian::cloud::SampleCloud;
    use gprq_gaussian::Gaussian;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::num::NonZeroUsize;

    fn grid(gamma: f64, seed: u64) -> CloudGrid<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        let gaussian = Gaussian::new(Vector::from([500.0, 500.0]), sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        CloudGrid::build(SampleCloud::draw(
            &gaussian,
            NonZeroUsize::new(5_000).unwrap(),
            &mut rng,
        ))
    }

    fn candidates(n: usize) -> Vec<Vector<2>> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 0.37;
                let radius = (i % 60) as f64;
                Vector::from([500.0 + radius * angle.cos(), 500.0 + radius * angle.sin()])
            })
            .collect()
    }

    #[test]
    fn new_rejects_zero_samples() {
        assert!(matches!(
            ParallelIntegrator::new(0, 1, 1),
            Err(PrqError::InvalidSampleBudget)
        ));
    }

    #[test]
    fn parity_across_thread_counts_probabilities_and_metric_counters() {
        // The determinism guarantee extended to observability: every
        // worker layout must report bit-identical probabilities, per-query
        // cloud stats AND metric *counter* values — only the span-duration
        // and per-worker histograms may legitimately differ — and
        // metering must not change a bit. The batch mixes a 64-candidate
        // query, an empty work list, and a query with fewer candidates
        // than most layouts have workers; its tail alone has fewer
        // candidates in total than most layouts have workers.
        type Output = (Vec<Vec<u64>>, Vec<CloudStats>);
        let bits = |(probs, stats): (Vec<Vec<f64>>, Vec<CloudStats>)| -> Output {
            let probs = probs
                .iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect();
            (probs, stats)
        };
        let (wide, narrow) = (grid(10.0, 42), grid(4.0, 43));
        let (many, few) = (candidates(64), candidates(3));
        let items = [
            BatchPhase3Item {
                grid: &wide,
                candidates: &many,
                delta: 25.0,
            },
            BatchPhase3Item {
                grid: &wide,
                candidates: &[],
                delta: 25.0,
            },
            BatchPhase3Item {
                grid: &narrow,
                candidates: &few,
                delta: 10.0,
            },
        ];
        for batch in [&items[..], &items[1..]] {
            let mut reference: Option<(Output, Vec<(&'static str, u64)>)> = None;
            for threads in [1usize, 2, 4, 7, 16, 0] {
                let integrator = ParallelIntegrator::new(5_000, 42, threads).unwrap();
                let plain = bits(integrator.batch_probabilities(batch, None));
                let metrics = PipelineMetrics::new();
                let metered = bits(integrator.batch_probabilities(batch, Some(&metrics)));
                assert_eq!(plain, metered, "threads = {threads}: metering changed bits");
                let counters = metrics.snapshot().counters();
                match &reference {
                    None => reference = Some((plain, counters)),
                    Some((out0, c0)) => {
                        assert_eq!(&plain, out0, "threads = {threads}: output drifted");
                        assert_eq!(&counters, c0, "threads = {threads}: counters drifted");
                    }
                }
            }
            let ((probs, stats), counters) = reference.unwrap();
            let find = |name: &str| {
                counters
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            let lens: Vec<usize> = batch.iter().map(|item| item.candidates.len()).collect();
            assert_eq!(probs.iter().map(Vec::len).collect::<Vec<_>>(), lens);
            let total: usize = lens.iter().sum();
            assert_eq!(find(names::PARALLEL_OBJECTS), total as u64);
            // Worker samples are the distance-tested samples, and the
            // grid must save work against full scans of every probe.
            let tested: usize = stats.iter().map(|s| s.samples_tested).sum();
            assert_eq!(find(names::PARALLEL_SAMPLES), tested as u64);
            assert!(tested < total * 5_000);
            for (item, s) in batch.iter().zip(&stats) {
                if item.candidates.is_empty() {
                    assert_eq!(*s, CloudStats::default(), "an idle query probes nothing");
                } else {
                    assert!(s.cells_scanned > 0);
                }
                // Probes never draw: the batch engine owns the clouds.
                assert_eq!((s.builds, s.samples_drawn), (0, 0));
            }
        }
    }
}
