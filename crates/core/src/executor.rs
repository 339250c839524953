//! The three-phase query executor (paper §III-B, Algorithms 1 & 2).
//!
//! 1. **Index-based search** — an R\*-tree rectangle query over the
//!    Phase-1 region (RR's Minkowski box, or BF's `α∥` box when RR is not
//!    in the strategy set);
//! 2. **Filtering** — the RR fringe test, the OR oblique-box test, and
//!    the BF distance classification (reject beyond `α∥`, *accept without
//!    integration* within `α⊥`), in that order (cheapest first);
//! 3. **Probability computation** — numerical integration for the
//!    survivors, keeping those with probability `≥ θ`.
//!
//! [`QueryStats`] records everything the paper's tables report: per-phase
//! wall-clock times, candidate counts, and the number of numerical
//! integrations (the dominant cost, "at least 97% of the total processing
//! time", §V-B).

use crate::error::PrqError;
use crate::evaluator::{ProbabilityEvaluator, Verdict};
use crate::metrics::{Phase, PipelineMetrics};
use crate::query::PrqQuery;
use crate::strategy::bf::{BfBounds, BfClass};
use crate::strategy::or::OrFilter;
use crate::strategy::rr::{FringeMode, RrFilter};
use crate::strategy::StrategySet;
use crate::theta_region::ThetaRegion;
use gprq_gaussian::cloud::CloudStats;
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats};
use std::time::{Duration, Instant};

/// Statistics for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Candidates returned by the Phase-1 index search.
    pub phase1_candidates: usize,
    /// R-tree nodes visited in Phase 1.
    pub node_accesses: usize,
    /// Leaf records tested against the Phase-1 rectangle
    /// (`SearchStats::entries_checked`) — the index's read amplification.
    pub leaf_hits: usize,
    /// Candidates pruned by the RR fringe filter.
    pub pruned_by_fringe: usize,
    /// Candidates the OR filter rotated into the covariance eigenbasis
    /// (every OR test costs one rotation, pass or prune).
    pub or_rotations: usize,
    /// Candidates pruned by the OR oblique-box filter.
    pub pruned_by_or: usize,
    /// Candidates pruned by the BF reject radius `α∥`.
    pub pruned_by_bf: usize,
    /// Candidates accepted by the BF accept radius `α⊥` **without**
    /// numerical integration.
    pub accepted_without_integration: usize,
    /// Numerical integrations performed (the paper's "number of
    /// candidates", Tables II–III).
    pub integrations: usize,
    /// Final answer-set size (the ANS column).
    pub answers: usize,
    /// Monte-Carlo samples drawn in Phase 3 (`CloudStats::samples_drawn`):
    /// the query's cloud, or a freshly drawn batch offset table. Zero for
    /// deterministic evaluators, for a batch query that re-centers its
    /// Σ-group's table, and for a query that integrates nothing. Every
    /// integrated object is measured against the whole cloud.
    pub phase3_samples: usize,
    /// Objects Phase 3 could not classify: a bracket still straddling
    /// `θ` or the candidate cap (reported as explicit
    /// [`Verdict::Uncertain`], never silently guessed).
    pub uncertain: usize,
    /// Shared sample clouds built for Phase 3: one per query that
    /// integrates at least one object on the cloud path, drawn at its
    /// first integration; zero for a query whose work list is empty
    /// and for deterministic evaluators.
    pub cloud_builds: usize,
    /// Grid cells visited while answering cloud probabilities.
    pub cloud_cells_scanned: usize,
    /// Visited cells classified fully inside `B(center, δ)` — their
    /// samples counted without a distance test.
    pub cloud_cells_inside: usize,
    /// Cloud samples that ran the SoA distance kernel (boundary cells).
    pub cloud_samples_tested: usize,
    /// Phase-1 wall-clock time.
    pub phase1_time: Duration,
    /// Phase-2 wall-clock time.
    pub phase2_time: Duration,
    /// Phase-3 wall-clock time.
    pub phase3_time: Duration,
}

impl QueryStats {
    /// Total wall-clock time across the three phases.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time + self.phase3_time
    }

    /// Accumulates `other` into `self`, field by field — the single
    /// aggregation point for batch drivers and monitoring sessions.
    pub fn merge(&mut self, other: &QueryStats) {
        self.phase1_candidates += other.phase1_candidates;
        self.node_accesses += other.node_accesses;
        self.leaf_hits += other.leaf_hits;
        self.pruned_by_fringe += other.pruned_by_fringe;
        self.or_rotations += other.or_rotations;
        self.pruned_by_or += other.pruned_by_or;
        self.pruned_by_bf += other.pruned_by_bf;
        self.accepted_without_integration += other.accepted_without_integration;
        self.integrations += other.integrations;
        self.answers += other.answers;
        self.phase3_samples += other.phase3_samples;
        self.uncertain += other.uncertain;
        self.cloud_builds += other.cloud_builds;
        self.cloud_cells_scanned += other.cloud_cells_scanned;
        self.cloud_cells_inside += other.cloud_cells_inside;
        self.cloud_samples_tested += other.cloud_samples_tested;
        self.phase1_time += other.phase1_time;
        self.phase2_time += other.phase2_time;
        self.phase3_time += other.phase3_time;
    }

    /// Flushes a Phase-1 [`SearchStats`] into the index-side fields
    /// (overwriting, not accumulating — the executor calls this once
    /// per query on freshly zeroed stats).
    pub(crate) fn absorb_search(&mut self, search: &SearchStats) {
        self.node_accesses = search.nodes_visited;
        self.leaf_hits = search.entries_checked;
    }

    /// Absorbs a drained [`CloudStats`] block into the cloud fields —
    /// the single bridge between the evaluator-side statistics and the
    /// per-query record.
    pub fn absorb_cloud(&mut self, cloud: &CloudStats) {
        self.cloud_builds += cloud.builds;
        self.phase3_samples += cloud.samples_drawn;
        self.cloud_cells_scanned += cloud.cells_scanned;
        self.cloud_cells_inside += cloud.cells_inside;
        self.cloud_samples_tested += cloud.samples_tested;
    }
}

/// Result of a query: answer records (borrowed from the tree), the
/// objects Phase 3 could not classify, and stats.
#[derive(Debug)]
pub struct PrqOutcome<'t, const D: usize, T> {
    /// Objects satisfying `Pr(‖x − o‖ ≤ δ) ≥ θ`.
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// Objects Phase 3 left unclassified, each with its cause — reported,
    /// never silently dropped. Empty for evaluators that decide every
    /// object (the fixed-cloud and deterministic ones) when no candidate
    /// cap applies.
    pub uncertain: Vec<UncertainObject<'t, D, T>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl<'t, const D: usize, T> PrqOutcome<'t, D, T> {
    /// An empty outcome carrying `stats`.
    pub(crate) fn new(stats: QueryStats) -> Self {
        PrqOutcome {
            answers: Vec::new(),
            uncertain: Vec::new(),
            stats,
        }
    }
}

/// The executor's reusable intermediate buffers: the Phase-1 candidate
/// set and the Phase-3 work list, the only per-query allocations besides
/// the returned answer vector. `QueryBatch` reuses one across its
/// queries.
#[derive(Debug)]
pub(crate) struct QueryScratch<'t, const D: usize, T> {
    candidates: Vec<(&'t Vector<D>, &'t T)>,
    pub(crate) to_integrate: Vec<(&'t Vector<D>, &'t T)>,
}

impl<'t, const D: usize, T> QueryScratch<'t, D, T> {
    /// Creates empty scratch buffers (no allocation until first use).
    pub(crate) fn new() -> Self {
        QueryScratch {
            candidates: Vec::new(),
            to_integrate: Vec::new(),
        }
    }
}

/// Configured query executor.
///
/// ```
/// use gprq_core::{PrqExecutor, PrqQuery, StrategySet, MonteCarloEvaluator};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RTree, RStarParams};
///
/// let points: Vec<(Vector<2>, u32)> = (0..500)
///     .map(|i| (Vector::from([(i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// let query = PrqQuery::new(
///     Vector::from([50.0, 50.0]),
///     Matrix::identity().scale(20.0),
///     10.0,
///     0.05,
/// ).unwrap();
/// let executor = PrqExecutor::new(StrategySet::ALL);
/// let mut eval = MonteCarloEvaluator::new(20_000, 42);
/// let outcome = executor.execute(&tree, &query, &mut eval).unwrap();
/// assert!(outcome.stats.integrations <= outcome.stats.phase1_candidates);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrqExecutor<'c> {
    strategies: StrategySet,
    fringe_mode: FringeMode,
    metrics: Option<&'c PipelineMetrics>,
}

impl<'c> PrqExecutor<'c> {
    /// An executor computing all radii exactly (as the paper's own
    /// experiments do, §V-A).
    pub fn new(strategies: StrategySet) -> Self {
        PrqExecutor {
            strategies,
            fringe_mode: FringeMode::PaperFaithful,
            metrics: None,
        }
    }

    /// Attaches a [`PipelineMetrics`] handle: phase spans and per-query
    /// counter flushes record into it. Without one, execution carries no
    /// instrumentation cost at all.
    pub fn with_metrics(mut self, metrics: &'c PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the fringe-filter mode (see [`FringeMode`]).
    pub fn with_fringe_mode(mut self, mode: FringeMode) -> Self {
        self.fringe_mode = mode;
        self
    }

    /// The configured strategy set.
    pub fn strategies(&self) -> StrategySet {
        self.strategies
    }

    /// The attached metrics handle, if any — shared with the batch
    /// executor, which records its batch counters into it.
    pub(crate) fn metrics(&self) -> Option<&'c PipelineMetrics> {
        self.metrics
    }

    /// Executes the query against a Phase-1 index of exact target
    /// objects — the pointer [`RTree`](gprq_rtree::RTree) or a frozen
    /// [`FlatRTree`](gprq_rtree::FlatRTree) snapshot (any
    /// [`Phase1Index`]).
    ///
    /// Phase 3 evaluates every candidate; the Monte-Carlo and quadrature
    /// evaluators decide each one, while
    /// [`ExactEvaluator`](crate::evaluator::ExactEvaluator) leaves an
    /// object its term cap cannot settle in [`PrqOutcome::uncertain`].
    ///
    /// # Errors
    ///
    /// * [`PrqError::NoPrimaryStrategy`] for an OR-only strategy set,
    /// * [`PrqError::ThetaRegionUndefined`] if RR or OR is enabled with
    ///   `θ ≥ 1/2` (BF-only sets still work there).
    pub fn execute<'t, const D: usize, T, I, E>(
        &self,
        tree: &'t I,
        query: &PrqQuery<D>,
        evaluator: &mut E,
    ) -> Result<PrqOutcome<'t, D, T>, PrqError>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let plan = self.plan(query)?;
        let stage = &Phase3::new(usize::MAX, self.metrics);
        let scratch = &mut QueryScratch::new();
        Ok(self.run(tree, query, &plan, evaluator, scratch, stage, None))
    }

    /// The three phases for one planned query — the one pipeline the
    /// plain executor, the resilient one, `QueryBatch` and the naive scan
    /// all run; they differ only in the plan, evaluator and Phase-3 stage
    /// they pass in.
    /// The work list is left in `scratch.to_integrate`; `estimates`, when
    /// given, receives its probabilities (see [`Phase3::run`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<'t, const D: usize, T, I, E>(
        &self,
        tree: &'t I,
        query: &PrqQuery<D>,
        plan: &PreparedQuery<D>,
        evaluator: &mut E,
        scratch: &mut QueryScratch<'t, D, T>,
        stage: &Phase3<'_>,
        estimates: Option<&mut Vec<f64>>,
    ) -> PrqOutcome<'t, D, T>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let mut out = PrqOutcome::new(QueryStats::default());
        let QueryScratch {
            candidates,
            to_integrate,
        } = scratch;

        // --- Phase 1: index-based search. ------------------------------
        let span1 = self.metrics.map(|m| m.phase_span(Phase::Search));
        let t0 = Instant::now();
        candidates.clear();
        to_integrate.clear();
        if let Some(rect) = plan.search_rect(query) {
            let mut search_stats = SearchStats::default();
            tree.search_rect_into(&rect, &mut search_stats, candidates);
            out.stats.absorb_search(&search_stats);
        }
        out.stats.phase1_candidates = candidates.len();
        out.stats.phase1_time = t0.elapsed();
        if let Some(span) = span1 {
            span.finish();
        }

        // --- Phase 2: filtering. ---------------------------------------
        let span2 = self.metrics.map(|m| m.phase_span(Phase::Filter));
        let t1 = Instant::now();
        plan.filter_candidates(
            query,
            candidates,
            &mut out.stats,
            &mut out.answers,
            to_integrate,
        );
        out.stats.phase2_time = t1.elapsed();
        if let Some(span) = span2 {
            span.finish();
        }

        // --- Phase 3: probability computation. -------------------------
        let span3 = self.metrics.map(|m| m.phase_span(Phase::Integrate));
        let t2 = Instant::now();
        stage.run(query, to_integrate, evaluator, &mut out, estimates);
        out.stats.phase3_time = t2.elapsed();
        if let Some(span) = span3 {
            span.finish();
        }
        out
    }

    /// Builds the per-query [`PreparedQuery`] — strategy validation plus the
    /// owned θ-region and BF bounds, both solved exactly — for the solo
    /// path above, the resilient executor, the batch executor
    /// (`crate::batch`), which plans every query before running any,
    /// `MonitoringSession::new`, which plans a probe query to reject a
    /// session no step could run, and [`explain`](crate::explain::explain),
    /// which renders the plan. Each call records one [`Phase::Plan`]
    /// span when metrics are attached.
    ///
    /// # Errors
    ///
    /// [`PrqError::NoPrimaryStrategy`] or
    /// [`PrqError::ThetaRegionUndefined`] — the same preconditions as
    /// [`PrqExecutor::execute`].
    pub(crate) fn plan<const D: usize>(
        &self,
        query: &PrqQuery<D>,
    ) -> Result<PreparedQuery<D>, PrqError> {
        let _span = self.metrics.map(|m| m.phase_span(Phase::Plan));
        self.strategies.validate()?;
        let region = if self.strategies.rr || self.strategies.or {
            Some(ThetaRegion::for_query(query)?)
        } else {
            None
        };
        let bf_bounds = self.strategies.bf.then(|| BfBounds::exact(query));
        Ok(PreparedQuery {
            strategies: self.strategies,
            fringe_mode: self.fringe_mode,
            region,
            bf_bounds,
        })
    }
}

/// The owned, query-specific part of Phases 1–2: the θ-region and BF
/// bounds an executor derived for one query, plus the strategy knobs
/// needed to rebuild the borrowing filters on demand.
///
/// [`RrFilter`]/[`OrFilter`] borrow the region, so the plan stores the
/// region and reconstructs the filters (cheap, deterministic) inside
/// each entry point instead of holding self-referential borrows.
#[derive(Debug)]
pub(crate) struct PreparedQuery<const D: usize> {
    strategies: StrategySet,
    fringe_mode: FringeMode,
    region: Option<ThetaRegion<D>>,
    bf_bounds: Option<BfBounds<D>>,
}

impl<const D: usize> PreparedQuery<D> {
    /// The filterless plan: Phase 1 returns every object and Phase 2
    /// passes them all to Phase 3 — [`execute_naive`] and the resilient
    /// executor's fallback.
    pub(crate) fn full_scan() -> Self {
        PreparedQuery {
            strategies: StrategySet::NONE,
            fringe_mode: FringeMode::PaperFaithful,
            region: None,
            bf_bounds: None,
        }
    }

    /// The θ-region, present exactly when RR or OR is enabled.
    pub(crate) fn region(&self) -> Option<&ThetaRegion<D>> {
        self.region.as_ref()
    }

    /// BF's radii, present exactly when BF is enabled.
    pub(crate) fn bf_bounds(&self) -> Option<&BfBounds<D>> {
        self.bf_bounds.as_ref()
    }

    /// The Phase-1 search rectangle: RR's Minkowski box when RR is
    /// enabled, else BF's `α∥` box (Algorithm 2, line 6), else — only in
    /// the [`PreparedQuery::full_scan`] plan, since planning rejects sets
    /// without a primary strategy — everything. `None` is the
    /// provably-empty case: skip Phase 1 entirely.
    pub(crate) fn search_rect(&self, query: &PrqQuery<D>) -> Option<Rect<D>> {
        if self.strategies.rr {
            if let Some(reg) = &self.region {
                return Some(RrFilter::new(query, reg, self.fringe_mode).search_rect());
            }
        }
        match &self.bf_bounds {
            Some(bf) => bf.search_rect(),
            None => Some(Rect::everything()),
        }
    }

    /// The Phase-2 loop: runs every candidate through the enabled
    /// filters in cheapest-first order (RR fringe, OR oblique box, BF
    /// classification), appending BF sure-accepts to `answers` and
    /// survivors to `to_integrate`, with pruning counters in `stats`.
    pub(crate) fn filter_candidates<'t, T>(
        &self,
        query: &PrqQuery<D>,
        candidates: &[(&'t Vector<D>, &'t T)],
        stats: &mut QueryStats,
        answers: &mut Vec<(&'t Vector<D>, &'t T)>,
        to_integrate: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        // Binding the filters under one `match` ties their construction
        // to the region's existence: `region` is `Some` exactly when
        // `rr || or`, so neither arm can observe a missing region.
        let (rr_filter, or_filter): (Option<RrFilter<'_, D>>, Option<OrFilter<D>>) =
            match &self.region {
                Some(reg) => (
                    self.strategies
                        .rr
                        .then(|| RrFilter::new(query, reg, self.fringe_mode)),
                    self.strategies.or.then(|| OrFilter::new(query, reg)),
                ),
                None => (None, None),
            };
        'candidates: for &(point, data) in candidates {
            if let Some(rr) = &rr_filter {
                if !rr.passes(point) {
                    stats.pruned_by_fringe += 1;
                    continue 'candidates;
                }
            }
            if let Some(or) = &or_filter {
                stats.or_rotations += 1;
                if !or.passes(point) {
                    stats.pruned_by_or += 1;
                    continue 'candidates;
                }
            }
            if let Some(bf) = &self.bf_bounds {
                match bf.classify(point) {
                    BfClass::Reject => {
                        stats.pruned_by_bf += 1;
                        continue 'candidates;
                    }
                    BfClass::Accept => {
                        stats.accepted_without_integration += 1;
                        answers.push((point, data));
                        continue 'candidates;
                    }
                    BfClass::NeedsIntegration => {}
                }
            }
            to_integrate.push((point, data));
        }
    }
}

/// The naive baseline: every object in `tree` is evaluated, with no
/// filtering — what the paper's strategies are measured against, and
/// the correctness tests' definition of the true answer set. It runs
/// the filterless plan through the one pipeline, as the resilient
/// executor's fallback does, so an object the evaluator cannot decide
/// comes back in [`PrqOutcome::uncertain`].
pub fn execute_naive<'t, const D: usize, T, I, E>(
    tree: &'t I,
    query: &PrqQuery<D>,
    evaluator: &mut E,
) -> PrqOutcome<'t, D, T>
where
    I: Phase1Index<D, T>,
    E: ProbabilityEvaluator<D>,
{
    let plan = PreparedQuery::full_scan();
    let stage = &Phase3::new(usize::MAX, None);
    let scratch = &mut QueryScratch::new();
    PrqExecutor::new(StrategySet::NONE).run(tree, query, &plan, evaluator, scratch, stage, None)
}

/// Why an object ended up in [`PrqOutcome::uncertain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncertainCause {
    /// The evaluator stopped with its interval or bracket still
    /// straddling `θ`.
    IntervalStraddlesTheta,
    /// The candidate cap was hit before this object was evaluated.
    NotEvaluated,
}

/// An object the pipeline could not classify, with the best estimate it
/// has (if any).
#[derive(Debug, Clone, Copy)]
pub struct UncertainObject<'t, const D: usize, T> {
    /// The object's location.
    pub point: &'t Vector<D>,
    /// The object's payload.
    pub data: &'t T,
    /// The running probability estimate when evaluation stopped, or
    /// `None` when the object was never evaluated.
    pub estimate: Option<f64>,
    /// Why the object is uncertain.
    pub cause: UncertainCause,
}

/// Phase 3 — the one per-candidate loop every executor runs: evaluate each
/// filter survivor against `θ`, at most `max_candidates` of them, and
/// close the query's record.
///
/// Neither the cap nor an undecided verdict drops an object silently: it
/// comes back as an [`UncertainObject`] with its [`UncertainCause`].
#[derive(Debug)]
pub(crate) struct Phase3<'a> {
    max_candidates: usize,
    metrics: Option<&'a PipelineMetrics>,
}

impl<'a> Phase3<'a> {
    /// A stage evaluating at most `max_candidates` objects per query,
    /// recording into `metrics`.
    pub(crate) fn new(max_candidates: usize, metrics: Option<&'a PipelineMetrics>) -> Self {
        Phase3 {
            max_candidates,
            metrics,
        }
    }

    /// Evaluates `work` (in order) for `query`, appending accepted and
    /// uncertain objects to `out`, then closes the query's record: sets
    /// `answers`, absorbs the evaluator's cloud statistics, and flushes
    /// the counters — the only place a query is recorded. `estimates`,
    /// when given, receives each evaluated object's probability estimate
    /// in work-list order.
    pub(crate) fn run<'t, const D: usize, T, E>(
        &self,
        query: &PrqQuery<D>,
        work: &[(&'t Vector<D>, &'t T)],
        evaluator: &mut E,
        out: &mut PrqOutcome<'t, D, T>,
        mut estimates: Option<&mut Vec<f64>>,
    ) where
        E: ProbabilityEvaluator<D>,
    {
        let (gaussian, delta, theta) = (query.gaussian(), query.delta(), query.theta());
        evaluator.begin_query(gaussian);
        for (i, &(point, data)) in work.iter().enumerate() {
            let (estimate, cause) = if i >= self.max_candidates {
                // Candidate cap: everything past it is reported, not dropped.
                (None, UncertainCause::NotEvaluated)
            } else {
                let report = evaluator.evaluate(gaussian, point, delta, theta);
                out.stats.integrations += 1;
                if let Some(estimates) = estimates.as_deref_mut() {
                    estimates.push(report.estimate);
                }
                match report.verdict {
                    Verdict::Accept => {
                        out.answers.push((point, data));
                        continue;
                    }
                    Verdict::Reject => continue,
                    Verdict::Uncertain => (
                        Some(report.estimate),
                        UncertainCause::IntervalStraddlesTheta,
                    ),
                }
            };
            out.uncertain.push(UncertainObject {
                point,
                data,
                estimate,
                cause,
            });
        }

        out.stats.uncertain = out.uncertain.len();
        out.stats.answers = out.answers.len();
        out.stats.absorb_cloud(&evaluator.take_cloud_stats());
        if let Some(metrics) = self.metrics {
            metrics.record_query(&out.stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{ExactEvaluator, Quadrature2dEvaluator};
    use gprq_linalg::Matrix;
    use gprq_rtree::{FlatRTree, RStarParams, RTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_tree() -> RTree<2, usize> {
        // A 60 × 60 grid over [0, 1000]².
        let mut points = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                points.push((
                    Vector::from([i as f64 * 1000.0 / 59.0, j as f64 * 1000.0 / 59.0]),
                    i * 60 + j,
                ));
            }
        }
        RTree::bulk_load(points, RStarParams::paper_default(2))
    }

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

    fn paper_query(gamma: f64) -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap()
    }

    fn answers_sorted(outcome: &PrqOutcome<'_, 2, usize>) -> Vec<usize> {
        let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn all_strategy_sets_agree() {
        // With a deterministic evaluator, all six combinations must
        // return the identical answer set — the *filter safety*
        // invariant.
        let tree = random_tree(4_000, 11);
        let query = paper_query(10.0);
        let mut reference: Option<Vec<usize>> = None;
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            let mut eval = Quadrature2dEvaluator::default();
            let outcome = PrqExecutor::new(set)
                .execute(&tree, &query, &mut eval)
                .unwrap();
            let ids = answers_sorted(&outcome);
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "strategy {name} disagrees"),
            }
        }
        assert!(!reference.unwrap().is_empty(), "query should match objects");
    }

    #[test]
    fn combinations_reduce_integrations() {
        // Table II's qualitative claim: ALL ≤ every pairwise combo ≤ the
        // better single strategy.
        let tree = random_tree(6_000, 3);
        let query = paper_query(10.0);
        let run = |set: StrategySet| {
            let mut eval = Quadrature2dEvaluator::default();
            PrqExecutor::new(set)
                .execute(&tree, &query, &mut eval)
                .unwrap()
                .stats
        };
        let rr = run(StrategySet::RR);
        let bf = run(StrategySet::BF);
        let rr_bf = run(StrategySet::RR_BF);
        let rr_or = run(StrategySet::RR_OR);
        let bf_or = run(StrategySet::BF_OR);
        let all = run(StrategySet::ALL);
        assert!(rr_bf.integrations <= rr.integrations.min(bf.integrations));
        assert!(rr_or.integrations <= rr.integrations);
        assert!(bf_or.integrations <= bf.integrations);
        assert!(all.integrations <= rr_bf.integrations);
        assert!(all.integrations <= rr_or.integrations);
        assert!(all.integrations <= bf_or.integrations);
        // Answers count is identical everywhere.
        for s in [&rr, &bf, &rr_bf, &rr_or, &bf_or, &all] {
            assert_eq!(s.answers, rr.answers);
        }
    }

    #[test]
    fn bf_accepts_without_integration() {
        // Dense grid near the query center: some objects sit within α⊥.
        let tree = grid_tree();
        let query = paper_query(1.0);
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert!(
            outcome.stats.accepted_without_integration > 0,
            "expected sure-accepts inside α⊥: {:?}",
            outcome.stats
        );
        // Sure-accepts + integrations cover all non-pruned candidates.
        assert_eq!(
            outcome.stats.phase1_candidates,
            outcome.stats.pruned_by_bf
                + outcome.stats.accepted_without_integration
                + outcome.stats.integrations
        );
    }

    #[test]
    fn or_only_is_rejected() {
        let tree = grid_tree();
        let query = paper_query(10.0);
        let mut eval = Quadrature2dEvaluator::default();
        let set = StrategySet {
            rr: false,
            or: true,
            bf: false,
        };
        assert!(matches!(
            PrqExecutor::new(set).execute(&tree, &query, &mut eval),
            Err(PrqError::NoPrimaryStrategy)
        ));
    }

    #[test]
    fn rr_with_large_theta_is_rejected_bf_still_works() {
        let tree = grid_tree();
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 50.0, 0.6).unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        assert!(matches!(
            PrqExecutor::new(StrategySet::RR).execute(&tree, &query, &mut eval),
            Err(PrqError::ThetaRegionUndefined(_))
        ));
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        // Objects very close to the center qualify with θ = 0.6 and
        // δ = 50 for the small covariance.
        assert!(outcome.stats.answers > 0);
    }

    #[test]
    fn provably_empty_query_short_circuits() {
        let tree = grid_tree();
        // δ far too small for θ: BF proves emptiness with zero work.
        let query = PrqQuery::new(
            Vector::from([500.0, 500.0]),
            Matrix::identity().scale(100.0),
            0.5,
            0.9,
        )
        .unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::BF)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(outcome.stats.answers, 0);
        assert_eq!(outcome.stats.phase1_candidates, 0);
        assert_eq!(outcome.stats.integrations, 0);
        assert_eq!(outcome.stats.node_accesses, 0);
    }

    #[test]
    fn stats_are_consistent() {
        let tree = random_tree(5_000, 8);
        let query = paper_query(100.0);
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        let s = outcome.stats;
        assert_eq!(
            s.phase1_candidates,
            s.pruned_by_fringe
                + s.pruned_by_or
                + s.pruned_by_bf
                + s.accepted_without_integration
                + s.integrations
        );
        assert!(s.answers >= s.accepted_without_integration);
        assert!(s.answers <= s.accepted_without_integration + s.integrations);
        assert!(s.node_accesses > 0);
        assert_eq!(s.answers, outcome.answers.len());
        assert!(s.total_time() >= s.phase3_time);
    }

    #[test]
    fn naive_matches_filtered_execution() {
        let tree = random_tree(2_000, 77);
        let query = paper_query(10.0);
        let mut eval = Quadrature2dEvaluator::default();
        let naive = execute_naive(&tree, &query, &mut eval);
        let filtered = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(answers_sorted(&naive), answers_sorted(&filtered));
        // The whole point of the paper: filtering integrates far less.
        assert_eq!(naive.stats.integrations, 2_000);
        assert!(filtered.stats.integrations < naive.stats.integrations / 10);
        // The scan is a whole-index search, so it runs on any backend.
        let frozen = FlatRTree::freeze(tree.clone());
        let flat = execute_naive(&frozen, &query, &mut eval);
        assert_eq!(answers_sorted(&flat), answers_sorted(&naive));
        assert_eq!(flat.stats.integrations, 2_000);
    }

    #[test]
    fn naive_on_empty_tree() {
        let tree: RTree<2, usize> = RTree::new();
        let query = PrqQuery::new(Vector::ZERO, Matrix::identity(), 1.0, 0.1).unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = execute_naive(&tree, &query, &mut eval);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.integrations, 0);
    }

    #[test]
    fn naive_reports_undecided_brackets_as_uncertain() {
        // At κ(Σ) = 10⁴ the exact series' term cap leaves the brackets
        // of objects near the center straddling θ: the scan lists them,
        // with their midpoints, instead of thresholding the midpoint.
        let tree = grid_tree();
        let sigma = Matrix::from_rows([[1e4, 0.0], [0.0, 1.0]]);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 100.0, 0.45).unwrap();
        let mut eval = ExactEvaluator::default();
        let outcome = execute_naive(&tree, &query, &mut eval);
        let mut undecided: Vec<usize> = tree
            .iter()
            .filter(|(p, _)| {
                let report = eval.evaluate(query.gaussian(), p, query.delta(), query.theta());
                report.verdict == Verdict::Uncertain
            })
            .map(|(_, d)| *d)
            .collect();
        assert!(!undecided.is_empty());
        undecided.sort_unstable();
        let mut listed: Vec<usize> = outcome.uncertain.iter().map(|u| *u.data).collect();
        listed.sort_unstable();
        assert_eq!(listed, undecided);
        assert!(outcome.uncertain.iter().all(|u| {
            u.cause == UncertainCause::IntervalStraddlesTheta
                && u.estimate.is_some_and(|p| p > 0.0 && p < 1.0)
        }));
        assert_eq!(outcome.stats.uncertain, undecided.len());
        assert!(answers_sorted(&outcome)
            .iter()
            .all(|id| listed.binary_search(id).is_err()));
    }

    #[test]
    fn matches_brute_force_oracle() {
        // Ground truth: quadrature over every object in the database.
        let tree = random_tree(1_500, 30);
        let query = paper_query(10.0);
        let mut oracle = Quadrature2dEvaluator::default();
        let mut expect: Vec<usize> = tree
            .iter()
            .filter(|(p, _)| {
                oracle.probability(query.gaussian(), p, query.delta()) >= query.theta()
            })
            .map(|(_, d)| *d)
            .collect();
        expect.sort_unstable();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(answers_sorted(&outcome), expect);
    }
}
