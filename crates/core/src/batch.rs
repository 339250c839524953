//! Batched query execution: N queries planned together, each run
//! through the solo pipeline, sharing one offset table per Σ-group.
//!
//! [`QueryBatch::execute`] plans every query (a planning error fails the
//! batch), then runs each through the pipeline of
//! [`PrqExecutor::execute`]. The proposal `N(q, Σ)` of the paper's
//! Phase 3 depends on `Σ` alone (§V-A), so queries whose covariance
//! matrices are bitwise equal form a **Σ-group** and share one mean-free
//! offset table `w_j = L·z_j`: drawn at the group's first integration,
//! kept for one `execute` call, re-centered on each member's mean. The
//! queries run in index order on the calling thread.
//!
//! # The parity contract
//!
//! For every query `q` in the batch, the answer set, the qualification
//! probabilities, and the integer counters of [`QueryStats`] are
//! **bitwise identical** to the sequential
//!
//! ```ignore
//! PrqExecutor::execute(tree, q, &mut MonteCarloEvaluator::new(
//!     samples,
//!     cloud_seed(seed, q.gaussian()),
//! ))
//! ```
//!
//! run — every counter except `phase3_samples`, which counts samples
//! *drawn*: only the group's first integrating query draws the table. A
//! query whose work list is empty touches no table, as the solo
//! evaluator draws only at its first integration. This holds by
//! construction: both runs are one pipeline with different evaluators;
//! the per-query cloud seed ([`cloud_seed`]) mixes the base seed with the
//! covariance bits only, so same-Σ queries share one `z`-stream; and
//! [`GaussianSampler::sample`] materializes `L·z` *before* the single
//! component-wise mean add, as a cloud's column-wise draw does, so
//! re-centering a table is the same float operation sequence as a fresh
//! draw (`SampleCloud::from_offsets` parity tests).
//!
//! Estimator caveat (same as the PR-5 shared cloud, one level up):
//! same-Σ queries share one sample cloud, so their Monte-Carlo errors
//! are *correlated across queries*. Each per-candidate estimate is still
//! unbiased with unchanged variance.
//!
//! # Fault degradation
//!
//! Under the `fault-inject` feature, `QueryBatch::execute_with_faults`
//! consults `FaultSite::BatchAbort` once per query, in index order, just
//! before that query runs. A tripped query runs the same pipeline with a
//! fresh `MonteCarloEvaluator` on the same seed — bitwise-identical
//! answers, no table lookup — and is reported with
//! [`BatchOutcome::recovered`] set plus a `prq_batch_aborts_total` tick.
//! Unaffected queries never see the fault.
//!
//! [`GaussianSampler::sample`]: gprq_gaussian::sampler::GaussianSampler::sample

use crate::error::PrqError;
use crate::evaluator::{MonteCarloEvaluator, ProbabilityEvaluator};
use crate::executor::{Phase3, PrqExecutor, QueryScratch, QueryStats};
use crate::ext::parallel::ParallelIntegrator;
use crate::query::PrqQuery;
use gprq_gaussian::cloud::{CloudGrid, CloudStats, SampleCloud};
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::Phase1Index;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

/// Splitmix64 finalizer — the same mixer the fault planner uses, so
/// seed streams stay decorrelated.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-query cloud seed: `base_seed` mixed with the bit patterns of
/// the covariance matrix — and **only** the covariance. The mean must
/// not enter: two queries sharing Σ must map to the same seed so the
/// shared offset table reproduces, bitwise, the cloud a solo
/// `MonteCarloEvaluator` seeded with this value would draw.
///
/// Consequence (documented, deliberate): same-Σ queries share one
/// `z`-stream, so their Monte-Carlo errors are correlated *across
/// queries* — the batch-level analogue of the PR-5 shared-cloud caveat.
pub fn cloud_seed<const D: usize>(base_seed: u64, gaussian: &Gaussian<D>) -> u64 {
    let start = base_seed ^ 0x9E37_79B9_7F4A_7C15;
    sigma_bits(gaussian)
        .into_iter()
        .fold(start, |state, bits| splitmix(state ^ bits))
}

/// The covariance's bit patterns, row-major: what [`cloud_seed`] mixes
/// and what Σ-groups compare.
fn sigma_bits<const D: usize>(gaussian: &Gaussian<D>) -> Vec<u64> {
    let cov = gaussian.covariance();
    let mut bits = Vec::with_capacity(D * D);
    for r in 0..D {
        for c in 0..D {
            bits.push(cov[(r, c)].to_bits());
        }
    }
    bits
}

/// A [`QueryBatch`]'s Σ-group table counters over all its `execute`
/// calls: how many integrating queries re-centered their group's offset
/// table (hits) and how many drew it (misses, one per group that
/// integrates). The tables themselves live for one call.
#[derive(Debug)]
pub struct SigmaFactorCache {
    hits: u64,
    misses: u64,
}

impl SigmaFactorCache {
    /// Integrating queries that re-centered their group's table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Integrating queries that drew their group's table.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Result of one query inside a batch — the batch analogue of
/// [`PrqOutcome`](crate::PrqOutcome), extended with the Phase-3 work
/// list and its probabilities so callers (and the parity suite) can see
/// exactly what was integrated.
#[derive(Debug)]
pub struct BatchOutcome<'t, const D: usize, T> {
    /// Objects satisfying `Pr(‖x − o‖ ≤ δ) ≥ θ` — BF sure-accepts first
    /// (candidate order), then Phase-3 qualifiers (work-list order),
    /// exactly as the solo executor emits them.
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// The Phase-3 work list (candidates that needed integration), in
    /// the order they were integrated.
    pub integrated: Vec<(&'t Vector<D>, &'t T)>,
    /// `probabilities[i]` is the qualification probability of
    /// `integrated[i]`.
    pub probabilities: Vec<f64>,
    /// Execution statistics. Integer counters match the solo run
    /// bitwise; phase times are measured for this query.
    pub stats: QueryStats,
    /// `true` when a `FaultSite::BatchAbort` fault (`fault-inject`) hit
    /// this query and it ran with a fresh evaluator instead of its
    /// group's table (same seed — same answers).
    pub recovered: bool,
}

/// A batch execution engine: plans N queries, then runs each through the
/// solo pipeline over a [`Phase1Index`], sharing one offset table per
/// Σ-group (see the module docs). Every query flushes its
/// [`QueryStats`] into the executor's
/// [`PipelineMetrics`](crate::PipelineMetrics) exactly once, plus one
/// `record_batch` per call.
///
/// ```
/// use gprq_core::ext::parallel::ParallelIntegrator;
/// use gprq_core::{PrqExecutor, PrqQuery, QueryBatch, StrategySet};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RStarParams, RTree};
///
/// let points: Vec<(Vector<2>, u32)> = (0..400)
///     .map(|i| (Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// // An anisotropic Σ leaves BF an annulus it cannot decide, so every
/// // query has candidates to integrate.
/// let sigma = Matrix::from_rows([[20.0, 6.0], [6.0, 10.0]]);
/// let queries: Vec<PrqQuery<2>> = (0..4)
///     .map(|i| {
///         PrqQuery::new(Vector::from([30.0 + i as f64 * 8.0, 40.0]), sigma, 12.0, 0.05).unwrap()
///     })
///     .collect();
/// let mut batch = QueryBatch::new(
///     PrqExecutor::new(StrategySet::ALL),
///     ParallelIntegrator::new(4_000, 7, 1).unwrap(),
/// );
/// let outcomes = batch.execute(&tree, &queries).unwrap();
/// assert_eq!(outcomes.len(), 4);
/// // Queries 1..4 share Σ with query 0: one offset table serves all.
/// assert_eq!(batch.cache().misses(), 1);
/// assert_eq!(batch.cache().hits(), 3);
/// ```
#[derive(Debug)]
pub struct QueryBatch<'c, const D: usize> {
    executor: PrqExecutor<'c>,
    integrator: ParallelIntegrator,
    cache: SigmaFactorCache,
}

impl<'c, const D: usize> QueryBatch<'c, D> {
    /// Creates a batch engine.
    ///
    /// The integrator's samples and seed define the sequential baseline
    /// the batch is parity-checked against (see the module docs).
    pub fn new(executor: PrqExecutor<'c>, integrator: ParallelIntegrator) -> Self {
        QueryBatch {
            executor,
            integrator,
            cache: SigmaFactorCache { hits: 0, misses: 0 },
        }
    }

    /// The Σ-group table counters (hits and misses).
    pub fn cache(&self) -> &SigmaFactorCache {
        &self.cache
    }

    /// The cloud seed this batch derives for `query` — the seed a solo
    /// `MonteCarloEvaluator` must use to reproduce the batched answer
    /// bitwise.
    pub fn cloud_seed_for(&self, query: &PrqQuery<D>) -> u64 {
        cloud_seed(self.integrator.seed, query.gaussian())
    }

    /// Executes `queries` as one batch. `outcomes[i]` answers
    /// `queries[i]`.
    ///
    /// # Errors
    ///
    /// Planning any query fails the whole batch (a misconfigured
    /// strategy set or θ-region is a caller bug, not a data condition):
    /// [`PrqError::NoPrimaryStrategy`] or
    /// [`PrqError::ThetaRegionUndefined`] — the same preconditions as
    /// [`PrqExecutor::execute`].
    pub fn execute<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        self.run(tree, queries, &mut || false)
    }

    /// [`QueryBatch::execute`] consulting `plan` at the
    /// [`FaultSite::BatchAbort`](crate::fault::FaultSite::BatchAbort)
    /// site once per query, in index order, just before the query runs:
    /// tripped queries run with a fresh evaluator on the same seed
    /// (bitwise-identical answers, [`BatchOutcome::recovered`] set).
    /// Untripped queries are unaffected.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`QueryBatch::execute`] — faults degrade
    /// individual queries, they never fail the batch.
    #[cfg(feature = "fault-inject")]
    pub fn execute_with_faults<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
        plan: &mut crate::fault::FaultPlan,
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        self.run(tree, queries, &mut || {
            plan.trip(crate::fault::FaultSite::BatchAbort)
        })
    }

    /// The batch: plan every query, then run them in index order on the
    /// calling thread, polling `should_abort` once just before each — the
    /// single fault-injection point, so fault scheduling never perturbs
    /// any seed stream — and count hits and misses from the outcomes.
    fn run<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let plans = queries
            .iter()
            .map(|q| self.executor.plan(q))
            .collect::<Result<Vec<_>, _>>()?;
        let (ex, samples) = (&self.executor, self.integrator.samples);
        let metrics = ex.metrics();
        let scratch = &mut QueryScratch::new();
        let stage = &mut Phase3::new(usize::MAX, metrics);
        let mut groups = Vec::new();
        let mut outcomes = Vec::with_capacity(queries.len());
        for (query, plan) in queries.iter().zip(&plans) {
            let seed = cloud_seed(self.integrator.seed, query.gaussian());
            let recovered = should_abort();
            let mut probabilities = Vec::new();
            let estimates = Some(&mut probabilities);
            let out = if recovered {
                if let Some(m) = metrics {
                    m.record_batch_abort();
                }
                let mut solo = MonteCarloEvaluator::new(samples.get(), seed);
                ex.run(tree, query, plan, &mut solo, scratch, stage, estimates)
            } else {
                let mut shared = TableEvaluator {
                    table: group_table(&mut groups, query.gaussian()),
                    seed,
                    samples,
                    grid: None,
                    stats: CloudStats::default(),
                };
                ex.run(tree, query, plan, &mut shared, scratch, stage, estimates)
            };
            outcomes.push(BatchOutcome {
                answers: out.answers,
                integrated: std::mem::take(&mut scratch.to_integrate),
                probabilities,
                stats: out.stats,
                recovered,
            });
        }

        // A query that used its group's table built one grid; it drew
        // the table (a miss) or found it drawn (a hit).
        let used_table = outcomes
            .iter()
            .filter(|o| !o.recovered && o.stats.cloud_builds == 1);
        let misses = used_table
            .clone()
            .filter(|o| o.stats.phase3_samples > 0)
            .count();
        let hits = used_table.count() - misses;
        let as_u64 = |v: usize| u64::try_from(v).unwrap_or(u64::MAX);
        self.cache.hits = self.cache.hits.saturating_add(as_u64(hits));
        self.cache.misses = self.cache.misses.saturating_add(as_u64(misses));
        if let Some(m) = metrics {
            m.record_batch(queries.len(), hits, misses);
        }
        Ok(outcomes)
    }
}

/// One Σ-group of an `execute` call: the covariance bits its members
/// share and, once one of them integrates, the group's offset table.
struct SigmaGroup<const D: usize> {
    sigma: Vec<u64>,
    table: Option<[Vec<f64>; D]>,
}

/// The offset-table slot of `gaussian`'s Σ-group, opened empty at the
/// group's first query. Bits, not `==`: matrices that compare equal as
/// floats (`0.0` and `-0.0`) derive different cloud seeds.
fn group_table<'a, const D: usize>(
    groups: &'a mut Vec<SigmaGroup<D>>,
    gaussian: &Gaussian<D>,
) -> &'a mut Option<[Vec<f64>; D]> {
    let sigma = sigma_bits(gaussian);
    let group = match groups.iter().position(|g| g.sigma == sigma) {
        Some(group) => group,
        None => {
            groups.push(SigmaGroup { sigma, table: None });
            groups.len() - 1
        }
    };
    &mut groups[group].table
}

/// One Σ-group member's Phase-3 evaluator: on its first integration it
/// draws the group's offset table if no member has yet (counting the
/// samples drawn), then builds its grid by re-centering the table on the
/// query's mean. Decides every object by its estimate over the whole
/// cloud, like [`MonteCarloEvaluator`].
struct TableEvaluator<'g, const D: usize> {
    table: &'g mut Option<[Vec<f64>; D]>,
    seed: u64,
    samples: NonZeroUsize,
    grid: Option<CloudGrid<D>>,
    stats: CloudStats,
}

impl<const D: usize> ProbabilityEvaluator<D> for TableEvaluator<'_, D> {
    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        let TableEvaluator {
            table,
            seed,
            samples,
            grid,
            stats,
        } = self;
        let grid = grid.get_or_insert_with(|| {
            let offsets = table.get_or_insert_with(|| {
                stats.samples_drawn = samples.get();
                let mut rng = StdRng::seed_from_u64(*seed);
                SampleCloud::draw_offsets(gaussian.cholesky(), *samples, &mut rng)
            });
            stats.builds = 1;
            CloudGrid::build_recentered(gaussian.mean(), offsets)
        });
        grid.probability_with_stats(center, delta, stats)
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::MonteCarloEvaluator;
    use crate::strategy::StrategySet;
    use gprq_linalg::Matrix;
    use gprq_rtree::{RStarParams, RTree};
    use rand::Rng;

    fn random_tree(n: usize, seed: u64) -> RTree<2, usize> {
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

    #[test]
    fn cloud_seed_depends_on_covariance_only() {
        let a = Gaussian::new(Vector::from([1.0, 2.0]), sigma(5.0)).unwrap();
        let b = Gaussian::new(Vector::from([-900.0, 431.5]), sigma(5.0)).unwrap();
        let c = Gaussian::new(Vector::from([1.0, 2.0]), sigma(5.000001)).unwrap();
        assert_eq!(
            cloud_seed(42, &a),
            cloud_seed(42, &b),
            "mean must not enter"
        );
        assert_ne!(cloud_seed(42, &a), cloud_seed(42, &c), "Σ must enter");
        assert_ne!(
            cloud_seed(42, &a),
            cloud_seed(43, &a),
            "base seed must enter"
        );
    }

    #[test]
    fn batch_matches_solo_executor_bitwise() {
        let tree = random_tree(5_000, 21);
        let shared = sigma(10.0);
        let queries: Vec<PrqQuery<2>> = vec![
            PrqQuery::new(Vector::from([500.0, 500.0]), shared, 25.0, 0.01).unwrap(),
            PrqQuery::new(Vector::from([480.0, 510.0]), shared, 25.0, 0.05).unwrap(),
            PrqQuery::new(Vector::from([200.0, 800.0]), sigma(4.0), 30.0, 0.10).unwrap(),
            // Far-off-grid query: empty work list, draws nothing.
            PrqQuery::new(Vector::from([-5_000.0, -5_000.0]), shared, 10.0, 0.20).unwrap(),
        ];
        let executor = PrqExecutor::new(StrategySet::ALL);
        let integrator = ParallelIntegrator::new(10_000, 99, 2).unwrap();
        let mut batch = QueryBatch::new(executor, integrator);
        let outcomes = batch.execute(&tree, &queries).unwrap();

        for (q, (query, outcome)) in queries.iter().zip(&outcomes).enumerate() {
            let seed = batch.cloud_seed_for(query);
            let mut eval = MonteCarloEvaluator::new(10_000, seed);
            let solo = executor.execute(&tree, query, &mut eval).unwrap();
            let batch_ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
            let solo_ids: Vec<usize> = solo.answers.iter().map(|(_, d)| **d).collect();
            assert_eq!(batch_ids, solo_ids, "answer sets diverge for query {q}");
            assert_eq!(outcome.stats.integrations, solo.stats.integrations);
            assert_eq!(outcome.stats.cloud_builds, solo.stats.cloud_builds);
            assert_eq!(
                outcome.stats.cloud_samples_tested,
                solo.stats.cloud_samples_tested
            );
            assert_eq!(outcome.stats.node_accesses, solo.stats.node_accesses);
            assert_eq!(outcome.stats.answers, solo.stats.answers);
            assert!(!outcome.recovered);
        }
        let idle = &outcomes[3].stats;
        assert!(outcomes[3].integrated.is_empty());
        assert_eq!((idle.cloud_builds, idle.phase3_samples), (0, 0));
        let mut eval = MonteCarloEvaluator::new(10_000, batch.cloud_seed_for(&queries[3]));
        let solo = executor.execute(&tree, &queries[3], &mut eval).unwrap();
        assert_eq!((solo.stats.cloud_builds, solo.stats.phase3_samples), (0, 0));
        // Queries 0, 1, 3 share Σ, but query 3 has no work and touches
        // no table: one miss serves two lookups.
        assert_eq!(batch.cache().misses(), 2);
        assert_eq!(batch.cache().hits(), 1);
    }

    #[test]
    fn signed_zero_covariances_form_separate_groups() {
        // `0.0 == -0.0`, but the two Σ derive different cloud seeds: each
        // draws its own table and matches its own solo run.
        let tree = random_tree(2_000, 41);
        let sigma = |zero: f64| Matrix::from_rows([[60.0, zero], [zero, 20.0]]);
        let queries = [
            PrqQuery::new(Vector::from([500.0, 500.0]), sigma(0.0), 25.0, 0.05).unwrap(),
            PrqQuery::new(Vector::from([520.0, 480.0]), sigma(-0.0), 25.0, 0.05).unwrap(),
        ];
        let executor = PrqExecutor::new(StrategySet::ALL);
        let integrator = ParallelIntegrator::new(5_000, 3, 1).unwrap();
        let mut batch = QueryBatch::new(executor, integrator);
        let seeds: Vec<u64> = queries.iter().map(|q| batch.cloud_seed_for(q)).collect();
        assert_ne!(seeds[0], seeds[1]);
        let outcomes = batch.execute(&tree, &queries).unwrap();
        assert_eq!((batch.cache().misses(), batch.cache().hits()), (2, 0));
        for ((query, outcome), seed) in queries.iter().zip(&outcomes).zip(seeds) {
            let mut eval = MonteCarloEvaluator::new(5_000, seed);
            let solo = executor.execute(&tree, query, &mut eval).unwrap();
            let ids = |a: &[(&Vector<2>, &usize)]| a.iter().map(|(_, d)| **d).collect::<Vec<_>>();
            assert_eq!(ids(&outcome.answers), ids(&solo.answers));
            assert!(outcome.stats.integrations > 0);
            assert_eq!(
                outcome.stats.cloud_samples_tested,
                solo.stats.cloud_samples_tested
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let tree = random_tree(100, 31);
        let mut batch: QueryBatch<'_, 2> = QueryBatch::new(
            PrqExecutor::new(StrategySet::ALL),
            ParallelIntegrator::new(100, 1, 1).unwrap(),
        );
        let outcomes: Vec<BatchOutcome<'_, 2, usize>> = batch.execute(&tree, &[]).unwrap();
        assert!(outcomes.is_empty());
        assert_eq!((batch.cache().hits(), batch.cache().misses()), (0, 0));
    }
}
