//! Batched query execution: N queries planned and run as **one unit**.
//!
//! The batch engine amortizes the three pipeline phases across queries
//! without changing a single answer bit:
//!
//! 1. **Fused Phase 1** — all Phase-1 rectangles descend the R\*-tree in
//!    one multi-rectangle traversal ([`Phase1Index::search_rects_into`]),
//!    probes sorted by rectangle origin so near-identical queries share
//!    node visits. Per-query candidates *and* [`SearchStats`] are
//!    bitwise identical to N solo descents (pinned by the rtree parity
//!    suite).
//! 2. **Fused Phase 2** — each query's candidates run through the same
//!    `PreparedQuery::filter_candidates` loop the solo executor uses.
//! 3. **Fused Phase 3** — queries sharing a covariance Σ share one
//!    mean-free offset table `w_j = L·z_j` from the [`SigmaFactorCache`]
//!    (the normal draws and the Cholesky map happen once per Σ-group),
//!    and the whole batch's `(query, candidate)` work is flattened
//!    across the [`ParallelIntegrator`] worker pool.
//!
//! # The parity contract
//!
//! For every query `q` in the batch, the answer set, the qualification
//! probabilities, and the integer counters of [`QueryStats`] are
//! **bitwise identical** to the sequential
//!
//! ```ignore
//! PrqExecutor::execute(tree, q, &mut MonteCarloEvaluator::new(
//!     integrator.samples,
//!     cloud_seed(integrator.seed, q.gaussian()),
//! ))
//! ```
//!
//! run — every counter except `phase3_samples`, which counts samples
//! *drawn*: a Σ-cache hit re-centers a cached table and draws nothing.
//! A query whose work list is empty consults no cache and builds no
//! grid, just as the solo evaluator draws only at its first
//! integration: on such a query `cloud_builds` and `phase3_samples` are
//! 0 in both runs. This holds by construction, not by accident:
//!
//! * the per-query cloud seed ([`cloud_seed`]) mixes the base seed with
//!   the covariance bits only — so two same-Σ queries map to the same
//!   seed, hence the same `z`-stream, whether drawn fresh (solo) or once
//!   (cached offsets);
//! * [`GaussianSampler::sample`] materializes `L·z` *before* the single
//!   component-wise mean add, and a cloud's column-wise draw sums each
//!   coordinate in that same order, so re-centering a cached offset
//!   column is the same float operation sequence as a fresh draw
//!   (`SampleCloud::from_offsets` parity tests);
//! * grid probes are pure functions of (grid, candidate, δ), and the
//!   flattened worker partition never splits a sample stream;
//! * each query's fused probabilities are then replayed through the
//!   executor's one Phase-3 stage, which classifies and flushes them
//!   exactly as it does a solo query's.
//!
//! Estimator caveat (same as the PR-5 shared cloud, one level up):
//! same-Σ queries share one sample cloud, so their Monte-Carlo errors
//! are *correlated across queries*. Each per-candidate estimate is still
//! unbiased with unchanged variance.
//!
//! # Fault degradation
//!
//! Under the `fault-inject` feature, `QueryBatch::execute_with_faults`
//! consults `FaultSite::BatchAbort` once per query: a tripped query is
//! dropped from the fused Phase-3 pass and recovered by running the
//! Phase-3 stage with a `MonteCarloEvaluator` on the same derived cloud
//! seed — its answers are
//! bitwise identical, only its wall-clock differs — and is reported with
//! [`BatchOutcome::recovered`] set plus a `prq_batch_aborts_total` tick.
//! Unaffected queries never see the fault.
//!
//! [`GaussianSampler::sample`]: gprq_gaussian::sampler::GaussianSampler::sample
//! [`SearchStats`]: gprq_rtree::SearchStats

use crate::error::PrqError;
use crate::evaluator::{EvalFailure, EvalReport, MonteCarloEvaluator, ProbabilityEvaluator};
use crate::executor::{EvalBudget, Phase3, PrqExecutor, PrqOutcome, QueryStats};
use crate::ext::parallel::{BatchPhase3Item, ParallelIntegrator};
use crate::metrics::Phase;
use crate::query::PrqQuery;
use gprq_gaussian::cloud::{CloudGrid, CloudStats, SampleCloud};
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Default Σ-group cache capacity (offset tables retained across
/// batches). A table holds `integrator.samples × D` doubles
/// (samples × D × 8 B); at the 100 000 samples every bench and e2e path
/// uses, a full cache of 32 tables is ≈ 51 MB at D = 2 and ≈ 230 MB at
/// D = 9. Realistic workloads (a handful of sensor models) never evict.
const DEFAULT_CACHE_CAPACITY: usize = 32;

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
/// cached offset table reproduces, bitwise, the cloud a solo
/// `MonteCarloEvaluator` seeded with this value would draw.
///
/// Consequence (documented, deliberate): same-Σ queries share one
/// `z`-stream, so their Monte-Carlo errors are correlated *across
/// queries* — the batch-level analogue of the PR-5 shared-cloud caveat.
pub fn cloud_seed<const D: usize>(base_seed: u64, gaussian: &Gaussian<D>) -> u64 {
    let cov = gaussian.covariance();
    let mut state = base_seed ^ 0x9E37_79B9_7F4A_7C15;
    for r in 0..D {
        for c in 0..D {
            state = splitmix(state ^ cov[(r, c)].to_bits());
        }
    }
    state
}

/// One cached Σ-group: the key (covariance bits, sample count, seed)
/// and the mean-free offset table drawn from it.
#[derive(Debug)]
struct CacheEntry<const D: usize> {
    sigma_bits: Vec<u64>,
    samples: usize,
    seed: u64,
    offsets: [Vec<f64>; D],
}

/// A keyed cache of mean-free sample-offset tables (`w_j = L·z_j`),
/// shared by every query whose covariance matches bitwise.
///
/// Keying on the covariance *bits* (plus sample budget and seed) is
/// exact: identical Σ bits give an identical Cholesky factor (the
/// factorization is deterministic), hence an identical offset table.
/// Eviction is FIFO and fully deterministic; a re-draw after eviction
/// reproduces the evicted table bitwise (same seed, same ziggurat
/// stream: the generator keeps no state between draws), so cache
/// capacity can never change an answer — only how often the draw is
/// repeated.
#[derive(Debug)]
pub struct SigmaFactorCache<const D: usize> {
    capacity: usize,
    entries: Vec<CacheEntry<D>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<const D: usize> SigmaFactorCache<D> {
    /// Creates a cache holding at most `capacity` offset tables
    /// (floored to 1 — a zero-capacity cache would still need one live
    /// table to serve the current query).
    pub fn new(capacity: usize) -> Self {
        SigmaFactorCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cached tables currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no table is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from a cached table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to draw a fresh table.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Tables evicted by the FIFO policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Returns the index of the offset table for `(Σ, samples, seed)`,
    /// drawing (and possibly evicting, FIFO) on a miss. The `bool` is
    /// `true` on a hit. The index is only valid until the next
    /// `get_or_draw` call — use it immediately via
    /// [`SigmaFactorCache::offsets`].
    fn get_or_draw(
        &mut self,
        gaussian: &Gaussian<D>,
        samples: NonZeroUsize,
        seed: u64,
    ) -> (usize, bool) {
        let cov = gaussian.covariance();
        let mut sigma_bits = Vec::with_capacity(D * D);
        for r in 0..D {
            for c in 0..D {
                sigma_bits.push(cov[(r, c)].to_bits());
            }
        }
        let n = samples.get();
        if let Some(idx) = self
            .entries
            .iter()
            .position(|e| e.sigma_bits == sigma_bits && e.samples == n && e.seed == seed)
        {
            self.hits += 1;
            return (idx, true);
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets = SampleCloud::draw_offsets(gaussian.cholesky(), samples, &mut rng);
        self.entries.push(CacheEntry {
            sigma_bits,
            samples: n,
            seed,
            offsets,
        });
        (self.entries.len() - 1, false)
    }

    /// The offset table at `idx` (an index just returned by
    /// `get_or_draw`).
    fn offsets(&self, idx: usize) -> &[Vec<f64>; D] {
        &self.entries[idx].offsets
    }
}

/// Result of one query inside a batch — the batch analogue of
/// [`PrqOutcome`], extended with the Phase-3 work
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
    /// bitwise; phase times are the fused phase's wall-clock divided
    /// evenly across the batch (per-query attribution of shared work).
    pub stats: QueryStats,
    /// `true` when this query was dropped from the fused Phase-3 pass
    /// by a `FaultSite::BatchAbort` fault (`fault-inject`) and recovered
    /// through the solo re-run path (same seed — same answers).
    pub recovered: bool,
}

/// A batch execution engine: plans N queries and runs them as one unit
/// over a [`Phase1Index`], a [`ParallelIntegrator`], and a
/// [`SigmaFactorCache`], flushing per-query [`QueryStats`] into the
/// executor's [`PipelineMetrics`](crate::PipelineMetrics) exactly once
/// each (plus one `record_batch` per call).
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
    cache: SigmaFactorCache<D>,
}

impl<'c, const D: usize> QueryBatch<'c, D> {
    /// Creates a batch engine with the default Σ-cache capacity.
    ///
    /// The integrator's `samples`/`seed` define the sequential baseline
    /// the batch is parity-checked against (see the module docs); its
    /// `threads` only changes wall-clock, never bits.
    pub fn new(executor: PrqExecutor<'c>, integrator: ParallelIntegrator) -> Self {
        QueryBatch {
            executor,
            integrator,
            cache: SigmaFactorCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Overrides the Σ-cache capacity (floored to 1). Capacity affects
    /// only how often offset tables are re-drawn — never any answer.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SigmaFactorCache::new(capacity);
        self
    }

    /// The Σ-group cache (hit/miss/eviction observability).
    pub fn cache(&self) -> &SigmaFactorCache<D> {
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
    /// [`PrqError::NoPrimaryStrategy`],
    /// [`PrqError::ThetaRegionUndefined`], or
    /// [`PrqError::CatalogDimensionMismatch`] — the same preconditions
    /// as [`PrqExecutor::execute`].
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
    /// site once per query, in index order: tripped queries are dropped
    /// from the fused Phase-3 pass and recovered through the solo
    /// re-run path (same seed, bitwise-identical answers,
    /// [`BatchOutcome::recovered`] set). Untripped queries are
    /// unaffected.
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

    /// The batch pipeline. `should_abort` is polled once per query, in
    /// index order, between Phase 2 and Phase 3 — the single
    /// fault-injection point — so fault scheduling never perturbs any
    /// seed stream.
    fn run<'t, T, I>(
        &mut self,
        tree: &'t I,
        queries: &[PrqQuery<D>],
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Vec<BatchOutcome<'t, D, T>>, PrqError>
    where
        I: Phase1Index<D, T>,
    {
        let n = queries.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let metrics = self.executor.metrics();
        let share = |total: Duration| total / u32::try_from(n).unwrap_or(u32::MAX);

        let plans = queries
            .iter()
            .map(|q| self.executor.plan(q))
            .collect::<Result<Vec<_>, _>>()?;

        // --- Fused Phase 1: one multi-rectangle descent. ---------------
        let span1 = metrics.map(|m| m.phase_span(Phase::Search));
        let t0 = Instant::now();
        let mut probes: Vec<(usize, Rect<D>)> = Vec::with_capacity(n);
        for (q, plan) in plans.iter().enumerate() {
            if let Some(rect) = plan.search_rect(&queries[q]) {
                probes.push((q, rect));
            }
        }
        // Sort probes by rectangle origin (lexicographic, total order)
        // so overlapping queries sit adjacently in the active set during
        // the shared descent; index tie-break keeps the order total and
        // deterministic. Per-query results are order-independent.
        probes.sort_by(|(qa, ra), (qb, rb)| {
            for d in 0..D {
                match ra.lo[d].total_cmp(&rb.lo[d]) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            qa.cmp(qb)
        });
        let probe_rects: Vec<Rect<D>> = probes.iter().map(|&(_, r)| r).collect();
        let mut probe_stats = vec![SearchStats::default(); probes.len()];
        let mut probe_out: Vec<Vec<(&'t Vector<D>, &'t T)>> = vec![Vec::new(); probes.len()];
        tree.search_rects_into(&probe_rects, &mut probe_stats, &mut probe_out);

        let mut stats = vec![QueryStats::default(); n];
        let mut candidates: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        for (slot, &(q, _)) in probes.iter().enumerate() {
            stats[q].absorb_search(&probe_stats[slot]);
            candidates[q] = std::mem::take(&mut probe_out[slot]);
        }
        let phase1_each = share(t0.elapsed());
        for (st, cand) in stats.iter_mut().zip(&candidates) {
            st.phase1_candidates = cand.len();
            st.phase1_time = phase1_each;
        }
        if let Some(span) = span1 {
            span.finish();
        }

        // --- Fused Phase 2: the solo filter loop, per query. -----------
        let span2 = metrics.map(|m| m.phase_span(Phase::Filter));
        let t1 = Instant::now();
        let mut answers: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        let mut work: Vec<Vec<(&'t Vector<D>, &'t T)>> = (0..n).map(|_| Vec::new()).collect();
        for q in 0..n {
            plans[q].filter_candidates(
                &queries[q],
                &candidates[q],
                &mut stats[q],
                &mut answers[q],
                &mut work[q],
            );
        }
        let phase2_each = share(t1.elapsed());
        for st in &mut stats {
            st.phase2_time = phase2_each;
        }
        if let Some(span) = span2 {
            span.finish();
        }

        // --- Fault gate: one poll per query, in index order. -----------
        let aborted: Vec<bool> = (0..n).map(|_| should_abort()).collect();

        // --- Fused Phase 3: Σ-grouped clouds, flattened fan-out. -------
        let span3 = metrics.map(|m| m.phase_span(Phase::Integrate));
        let t2 = Instant::now();
        let budget = NonZeroUsize::new(self.integrator.samples).unwrap_or(NonZeroUsize::MIN);
        // Only queries with work consult the cache and build a grid: the
        // solo evaluator draws on its first integration, so a query with
        // an empty work list draws nothing there either.
        let live: Vec<usize> = (0..n)
            .filter(|&q| !aborted[q] && !work[q].is_empty())
            .collect();
        let mut batch_hits = 0usize;
        let mut batch_misses = 0usize;
        let mut grids: Vec<CloudGrid<D>> = Vec::with_capacity(live.len());
        let mut drawn: Vec<usize> = Vec::with_capacity(live.len());
        for &q in &live {
            let gaussian = queries[q].gaussian();
            let seed = cloud_seed(self.integrator.seed, gaussian);
            let (idx, hit) = self.cache.get_or_draw(gaussian, budget, seed);
            if hit {
                batch_hits += 1;
                drawn.push(0);
            } else {
                batch_misses += 1;
                drawn.push(budget.get());
            }
            grids.push(CloudGrid::build_recentered(
                gaussian.mean(),
                self.cache.offsets(idx),
            ));
        }
        let centers: Vec<Vec<Vector<D>>> = live
            .iter()
            .map(|&q| work[q].iter().map(|&(p, _)| *p).collect())
            .collect();
        let items: Vec<BatchPhase3Item<'_, D>> = live
            .iter()
            .enumerate()
            .map(|(slot, &q)| BatchPhase3Item {
                grid: &grids[slot],
                candidates: &centers[slot],
                delta: queries[q].delta(),
            })
            .collect();
        let (probs, cloud_stats) = self.integrator.batch_probabilities(&items, metrics);
        drop(items);
        // Queries without work replay nothing and draw nothing.
        let mut fused: Vec<Option<Replay>> = aborted
            .iter()
            .map(|&abort| {
                (!abort).then(|| Replay {
                    probabilities: Vec::new().into_iter(),
                    samples: budget.get(),
                    cloud: CloudStats::default(),
                })
            })
            .collect();
        for ((&q, samples_drawn), (probabilities, cloud)) in live
            .iter()
            .zip(drawn)
            .zip(probs.into_iter().zip(cloud_stats))
        {
            fused[q] = Some(Replay {
                probabilities: probabilities.into_iter(),
                samples: budget.get(),
                // The solo evaluator counts one grid build (and its
                // draw) at its first integration; attribute the
                // possibly cached build here.
                cloud: CloudStats {
                    builds: 1,
                    samples_drawn,
                    ..cloud
                },
            });
        }

        // --- Classify and flush: once per query, in index order. -------
        // Fused queries replay their probabilities through the Phase-3
        // stage; aborted ones run it solo on the same derived seed.
        let mut stage = Phase3::new(EvalBudget::paper_default(), metrics);
        let mut outcomes = Vec::with_capacity(n);
        for (q, ((st, ans), intg)) in stats.into_iter().zip(answers).zip(work).enumerate() {
            let mut out = PrqOutcome::new(st);
            out.answers = ans;
            let mut probabilities = Vec::with_capacity(intg.len());
            let query = &queries[q];
            match fused[q].take() {
                Some(mut replay) => {
                    stage.run(
                        query,
                        &intg,
                        &mut replay,
                        &mut out,
                        Some(&mut probabilities),
                    );
                }
                None => {
                    if let Some(m) = metrics {
                        m.record_batch_abort();
                    }
                    let seed = cloud_seed(self.integrator.seed, query.gaussian());
                    let mut solo = MonteCarloEvaluator::new(budget.get(), seed);
                    stage.run(query, &intg, &mut solo, &mut out, Some(&mut probabilities));
                }
            }
            outcomes.push(BatchOutcome {
                answers: out.answers,
                integrated: intg,
                probabilities,
                stats: out.stats,
                recovered: aborted[q],
            });
        }
        let phase3_each = share(t2.elapsed());
        for o in &mut outcomes {
            o.stats.phase3_time = phase3_each;
        }
        if let Some(span) = span3 {
            span.finish();
        }
        if let Some(m) = metrics {
            m.record_batch(n, batch_hits, batch_misses);
        }
        Ok(outcomes)
    }
}

/// One fused query's Phase-3 result, replayed in work-list order so the
/// query classifies and flushes through the same stage as a solo query.
/// It decides every object, measured over the whole cloud.
#[derive(Debug)]
struct Replay {
    probabilities: std::vec::IntoIter<f64>,
    samples: usize,
    cloud: CloudStats,
}

impl<const D: usize> ProbabilityEvaluator<D> for Replay {
    fn probability(&mut self, _gaussian: &Gaussian<D>, _center: &Vector<D>, _delta: f64) -> f64 {
        // One probability per work-list entry, by construction.
        self.probabilities.next().unwrap_or(0.0)
    }

    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
        _max_samples: usize,
    ) -> Result<EvalReport, EvalFailure> {
        let estimate = self.probability(gaussian, center, delta);
        Ok(EvalReport::decided(estimate, theta, self.samples))
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        std::mem::take(&mut self.cloud)
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
    fn cache_fifo_eviction_is_deterministic_and_redraws_bitwise() {
        let mut cache: SigmaFactorCache<2> = SigmaFactorCache::new(2);
        let n = NonZeroUsize::new(64).unwrap();
        let gauss = |g: f64| Gaussian::new(Vector::from([0.0, 0.0]), sigma(g)).unwrap();
        let (i0, hit0) = cache.get_or_draw(&gauss(1.0), n, 7);
        let first = cache.offsets(i0).clone();
        assert!(!hit0);
        assert!(cache.get_or_draw(&gauss(1.0), n, 7).1, "second lookup hits");
        cache.get_or_draw(&gauss(2.0), n, 8);
        cache.get_or_draw(&gauss(3.0), n, 9); // evicts γ=1.0 (FIFO)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let (i1, hit1) = cache.get_or_draw(&gauss(1.0), n, 7);
        assert!(!hit1, "evicted entry must miss");
        let redraw = cache.offsets(i1).clone();
        for d in 0..2 {
            let same = first[d]
                .iter()
                .zip(&redraw[d])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "re-draw after eviction must be bitwise identical");
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 4));
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
        // Queries 0, 1, 3 share Σ, but query 3 has no work and skips the
        // cache: one miss serves two lookups.
        assert_eq!(batch.cache().misses(), 2);
        assert_eq!(batch.cache().hits(), 1);
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
        assert!(batch.cache().is_empty());
    }
}
