//! Parallel Phase-3 integration.
//!
//! Phase 3 — the ≥97 %-of-runtime phase — parallelizes embarrassingly.
//! The default [`Phase3Mode::SharedCloud`] engine draws **one** sample
//! cloud per query from the base seed (the proposal distribution never
//! depends on the candidate, §V-A), indexes it with a
//! [`CloudGrid`], and partitions
//! *candidates* — not samples — across workers. Every worker reads the
//! same immutable grid, so results are bit-identical across thread
//! counts by construction.
//!
//! [`Phase3Mode::PerCandidate`] keeps the paper-faithful baseline: a
//! fresh importance-sampling batch per candidate, with a deterministic
//! per-object RNG stream derived from the base seed and the candidate
//! index. The two modes legitimately differ bitwise (different sample
//! streams); both are gated against the closed-form `mc_conformance`
//! oracle, and the `phase3` bench records their wall-clock gap.
//!
//! Estimator caveat: the shared cloud correlates errors *across*
//! candidates of one query. Each per-candidate estimate is still
//! unbiased with unchanged variance (see `gprq_gaussian::cloud`).

use crate::error::PrqError;
use crate::metrics::PipelineMetrics;
use crate::query::PrqQuery;
use gprq_gaussian::cloud::{CloudGrid, CloudStats, SampleCloud};
use gprq_gaussian::integrate::importance_sampling_probability;
use gprq_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

/// How the integrator spends its per-object sample budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase3Mode {
    /// One shared, grid-indexed sample cloud per query; candidates are
    /// partitioned across workers. The default.
    SharedCloud,
    /// The paper's baseline: a fresh per-candidate sample batch from a
    /// per-object RNG stream. Kept for the `phase3` bench comparison and
    /// for workloads that require independent per-candidate errors.
    PerCandidate,
}

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

/// Configuration for parallel qualification evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ParallelIntegrator {
    /// Monte-Carlo samples per object (`PerCandidate`) or in the shared
    /// per-query cloud (`SharedCloud`).
    pub samples: usize,
    /// Base RNG seed; the cloud (or object `i`'s stream) derives from it.
    pub seed: u64,
    /// Worker threads (`0` = number of available CPUs).
    pub threads: usize,
    mode: Phase3Mode,
}

impl ParallelIntegrator {
    /// Creates an integrator in the default [`Phase3Mode::SharedCloud`].
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
            mode: Phase3Mode::SharedCloud,
        })
    }

    /// Selects the Phase-3 engine (see [`Phase3Mode`]).
    pub fn with_mode(mut self, mode: Phase3Mode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured Phase-3 engine.
    pub fn mode(&self) -> Phase3Mode {
        self.mode
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

    /// Per-object seed: a splitmix-style mix of base seed and index so
    /// adjacent objects get decorrelated streams.
    fn object_seed(&self, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Computes the qualification probability of every candidate,
    /// fanning the work across threads. `probabilities[i]` corresponds to
    /// `candidates[i]`.
    pub fn probabilities<const D: usize>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[Vector<D>],
    ) -> Vec<f64> {
        self.run(query, candidates, None)
    }

    /// [`ParallelIntegrator::probabilities`] recording per-worker sample
    /// totals and fan-out counters into `metrics`. The probabilities are
    /// bit-identical to the unmetered variant: instrumentation happens
    /// once per worker, outside the sampling loops.
    pub fn probabilities_with_metrics<const D: usize>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[Vector<D>],
        metrics: &PipelineMetrics,
    ) -> Vec<f64> {
        self.run(query, candidates, Some(metrics))
    }

    fn run<const D: usize>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[Vector<D>],
        metrics: Option<&PipelineMetrics>,
    ) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        if let Some(m) = metrics {
            for _ in candidates {
                m.record_phase3_object(self.samples);
            }
        }
        // `new` rejects samples == 0, so the floor never engages.
        let budget = NonZeroUsize::new(self.samples).unwrap_or(NonZeroUsize::MIN);
        match self.mode {
            Phase3Mode::SharedCloud => {
                // A one-query fused pass over the cloud drawn from the base
                // seed: candidates — never samples — are partitioned, so
                // results are bit-identical across thread counts.
                let mut rng = StdRng::seed_from_u64(self.seed);
                let grid = CloudGrid::build(&SampleCloud::draw(query.gaussian(), budget, &mut rng));
                let item = BatchPhase3Item {
                    grid: &grid,
                    candidates,
                    delta: query.delta(),
                };
                let (mut probs, cloud) =
                    self.batch_probabilities(std::slice::from_ref(&item), metrics);
                if let Some(m) = metrics {
                    let mut total = CloudStats {
                        builds: 1,
                        samples_drawn: budget.get(),
                        ..CloudStats::default()
                    };
                    cloud.iter().for_each(|s| total.merge(s));
                    m.record_cloud(&total);
                }
                probs.pop().unwrap_or_default()
            }
            Phase3Mode::PerCandidate => {
                if let Some(m) = metrics {
                    m.record_parallel_objects(candidates.len());
                    m.record_cloud(&CloudStats {
                        samples_drawn: candidates.len().saturating_mul(budget.get()),
                        ..CloudStats::default()
                    });
                }
                self.run_per_candidate(query, candidates, metrics)
            }
        }
    }

    fn run_per_candidate<const D: usize>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[Vector<D>],
        metrics: Option<&PipelineMetrics>,
    ) -> Vec<f64> {
        let n = candidates.len();
        let mut out = vec![0.0f64; n];
        let workers = self.worker_count().min(n);
        let chunk = n.div_ceil(workers);
        // std scoped threads (Rust ≥ 1.63) propagate worker panics on
        // scope exit, so no explicit join-error handling is needed.
        std::thread::scope(|scope| {
            for (w, out_chunk) in out.chunks_mut(chunk).enumerate() {
                let start = w * chunk;
                scope.spawn(move || {
                    for (offset, slot) in out_chunk.iter_mut().enumerate() {
                        let i = start + offset;
                        // INVARIANT: the per-object stream depends only on
                        // (base seed, candidate index) — never on thread
                        // count or ambient entropy — so answer sets are
                        // bit-identical across runs and worker layouts.
                        let mut rng = StdRng::seed_from_u64(self.object_seed(i));
                        // `new` rejects samples == 0, so the budget error
                        // cannot occur; 0.0 is the defensive fallback.
                        *slot = importance_sampling_probability(
                            query.gaussian(),
                            &candidates[i],
                            query.delta(),
                            self.samples,
                            &mut rng,
                        )
                        .unwrap_or(0.0);
                    }
                    // One histogram write per worker, after its loop: the
                    // sample *total* is layout-independent (Σ = n·samples),
                    // only the per-worker distribution varies.
                    if let Some(m) = metrics {
                        m.record_worker_samples(out_chunk.len().saturating_mul(self.samples));
                    }
                });
            }
        });
        out
    }

    /// Fused Phase 3 — the shared-cloud engine for one query or a whole
    /// batch: workers partition the **flattened** `(query, candidate)`
    /// space, so a batch with many small candidate lists still keeps
    /// every worker busy. Returns per-query probability vectors (same
    /// order as `items[q].candidates`) and per-query [`CloudStats`]
    /// accumulated from that query's probes.
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
                    // One histogram write per worker, after its loop. In
                    // this mode "worker samples" means distance-tested
                    // samples; the total is layout-independent (a sum
                    // over candidates), only the split varies.
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

    /// Convenience: returns which candidates qualify (`p ≥ θ`).
    pub fn qualify<const D: usize>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[Vector<D>],
    ) -> Vec<bool> {
        self.probabilities(query, candidates)
            .into_iter()
            .map(|p| p >= query.theta())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;

    fn query() -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap()
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
    fn defaults_to_shared_cloud() {
        let int = ParallelIntegrator::new(100, 1, 1).unwrap();
        assert_eq!(int.mode(), Phase3Mode::SharedCloud);
        let baseline = int.with_mode(Phase3Mode::PerCandidate);
        assert_eq!(baseline.mode(), Phase3Mode::PerCandidate);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let q = query();
        let cands = candidates(64);
        for mode in [Phase3Mode::SharedCloud, Phase3Mode::PerCandidate] {
            let run = |threads| {
                ParallelIntegrator::new(5_000, 7, threads)
                    .unwrap()
                    .with_mode(mode)
                    .probabilities(&q, &cands)
            };
            let p1 = run(1);
            assert_eq!(p1, run(4), "{mode:?}");
            assert_eq!(p1, run(7), "{mode:?}");
        }
    }

    #[test]
    fn same_seed_runs_produce_identical_answer_sets() {
        let q = query();
        let cands = candidates(48);
        // Two runs with the same base seed must agree bit-for-bit, both
        // in the qualifying answer set and in the raw probabilities —
        // thread count deliberately left at `0` (machine-dependent) to
        // show the guarantee does not hinge on a fixed worker layout.
        let int42 = ParallelIntegrator::new(5_000, 42, 0).unwrap();
        let a = int42.qualify(&q, &cands);
        let b = int42.qualify(&q, &cands);
        assert_eq!(a, b);
        let p1 = int42.probabilities(&q, &cands);
        let p2 = int42.probabilities(&q, &cands);
        assert_eq!(p1, p2);
        // A different base seed must actually perturb the estimates.
        let p3 = ParallelIntegrator::new(5_000, 43, 0)
            .unwrap()
            .probabilities(&q, &cands);
        assert_ne!(p1, p3);
    }

    #[test]
    fn parity_across_thread_counts_probabilities_and_metric_counters() {
        use crate::metrics::{names, PipelineMetrics};
        // The determinism guarantee extended to observability: for each
        // mode, every worker layout must report bit-identical
        // probabilities AND identical metric *counter* values — only the
        // span-duration and per-worker histograms may legitimately
        // differ. The cloud counters are sums over candidates, so they
        // are layout-independent too.
        type NamedCounters = Vec<(&'static str, u64)>;
        let q = query();
        let cands = candidates(64);
        for mode in [Phase3Mode::SharedCloud, Phase3Mode::PerCandidate] {
            let mut reference: Option<(Vec<f64>, NamedCounters)> = None;
            for threads in [1usize, 2, 4, 0] {
                let metrics = PipelineMetrics::new();
                let probs = ParallelIntegrator::new(5_000, 42, threads)
                    .unwrap()
                    .with_mode(mode)
                    .probabilities_with_metrics(&q, &cands, &metrics);
                let counters = metrics.snapshot().counters();
                match &reference {
                    None => reference = Some((probs, counters)),
                    Some((p0, c0)) => {
                        assert_eq!(
                            &probs, p0,
                            "{mode:?}, threads = {threads}: probabilities drifted"
                        );
                        assert_eq!(
                            &counters, c0,
                            "{mode:?}, threads = {threads}: counters drifted"
                        );
                    }
                }
            }
            let (_, counters) = reference.unwrap();
            let find = |name: &str| {
                counters
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert_eq!(find(names::PARALLEL_OBJECTS), 64);
            match mode {
                Phase3Mode::PerCandidate => {
                    assert_eq!(find(names::PARALLEL_SAMPLES), 64 * 5_000);
                    assert_eq!(find(names::CLOUD_BUILDS), 0);
                }
                Phase3Mode::SharedCloud => {
                    assert_eq!(find(names::CLOUD_BUILDS), 1);
                    // Distance-tested samples = PARALLEL_SAMPLES in this
                    // mode, and the grid must save work vs. 64 full scans.
                    assert_eq!(
                        find(names::PARALLEL_SAMPLES),
                        find(names::CLOUD_SAMPLES_TESTED)
                    );
                    assert!(find(names::CLOUD_SAMPLES_TESTED) < 64 * 5_000);
                    assert!(find(names::CLOUD_CELLS_SCANNED) > 0);
                }
            }
        }
    }

    #[test]
    fn shared_cloud_agrees_with_per_candidate_within_mc_error() {
        let q = query();
        let cands = candidates(16);
        let shared = ParallelIntegrator::new(100_000, 11, 2)
            .unwrap()
            .probabilities(&q, &cands);
        let baseline = ParallelIntegrator::new(100_000, 11, 2)
            .unwrap()
            .with_mode(Phase3Mode::PerCandidate)
            .probabilities(&q, &cands);
        for (s, b) in shared.iter().zip(&baseline) {
            assert!((s - b).abs() < 0.01, "shared {s} vs per-candidate {b}");
        }
    }

    #[test]
    fn metered_probabilities_match_unmetered() {
        use crate::metrics::PipelineMetrics;
        let q = query();
        let cands = candidates(16);
        for mode in [Phase3Mode::SharedCloud, Phase3Mode::PerCandidate] {
            let integrator = ParallelIntegrator::new(2_000, 9, 3)
                .unwrap()
                .with_mode(mode);
            let plain = integrator.probabilities(&q, &cands);
            let metrics = PipelineMetrics::new();
            let metered = integrator.probabilities_with_metrics(&q, &cands, &metrics);
            assert_eq!(plain, metered, "{mode:?}");
        }
    }

    #[test]
    fn matches_quadrature_oracle() {
        use crate::evaluator::{ProbabilityEvaluator, Quadrature2dEvaluator};
        let q = query();
        let cands = candidates(16);
        let mut oracle = Quadrature2dEvaluator::default();
        for mode in [Phase3Mode::SharedCloud, Phase3Mode::PerCandidate] {
            let probs = ParallelIntegrator::new(100_000, 3, 0)
                .unwrap()
                .with_mode(mode)
                .probabilities(&q, &cands);
            for (c, p) in cands.iter().zip(&probs) {
                let truth = oracle.probability(q.gaussian(), c, q.delta());
                assert!((p - truth).abs() < 0.01, "{mode:?}: {p} vs {truth}");
            }
        }
    }

    #[test]
    fn qualify_thresholds() {
        let q = query();
        let near = Vector::from([500.0, 500.0]);
        let far = Vector::from([900.0, 900.0]);
        let flags = ParallelIntegrator::new(10_000, 1, 2)
            .unwrap()
            .qualify(&q, &[near, far]);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn empty_candidates() {
        let q = query();
        let probs = ParallelIntegrator::new(1_000, 1, 4)
            .unwrap()
            .probabilities(&q, &[]);
        assert!(probs.is_empty());
    }

    #[test]
    fn more_threads_than_candidates() {
        let q = query();
        let cands = candidates(3);
        let probs = ParallelIntegrator::new(1_000, 1, 16)
            .unwrap()
            .probabilities(&q, &cands);
        assert_eq!(probs.len(), 3);
    }
}
