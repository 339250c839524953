//! Phase-3 qualification-probability evaluators.
//!
//! The executor is generic over *how* `Pr(‖x − o‖ ≤ δ)` is computed so a
//! caller can swap the shared-sample default for the sequential
//! early-stopping variant or the deterministic 2-D oracle. (The paper's
//! fresh per-candidate batches live only in the `ablation` bench, which
//! measures what sharing saves.)
//!
//! The default engine is the shared-sample cloud from
//! [`gprq_gaussian::cloud`]: the proposal distribution `N(q, Σ)` never
//! depends on the candidate (§V-A), so one sample batch per query answers
//! every candidate. Sharing samples correlates the *errors* across
//! candidates of one query — each per-candidate estimate stays unbiased
//! with unchanged variance — which is why the `mc_conformance` closed-form
//! oracle, not bit-parity with the old per-candidate path, gates
//! correctness.

use gprq_gaussian::cloud::{CloudGrid, CloudStats, SampleCloud};
use gprq_gaussian::integrate::{quadrature_probability_2d, RunningEstimate, PAPER_MC_SAMPLES};
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::num::NonZeroUsize;

/// Computes qualification probabilities for Phase 3.
///
/// Implementations may be stateful (RNG streams, cached sample clouds);
/// the executor calls [`ProbabilityEvaluator::begin_query`] once per query
/// so a cache built for the previous query's distribution is dropped.
/// Phase 3 itself calls [`ProbabilityEvaluator::evaluate`], which
/// classifies against `θ` under a per-object sample budget; its default
/// compares [`ProbabilityEvaluator::probability`] with `θ` exactly, so an
/// evaluator only has to implement `probability`. An unbudgeted run is
/// one under
/// [`EvalBudget::UNLIMITED`](crate::executor::EvalBudget::UNLIMITED).
pub trait ProbabilityEvaluator<const D: usize> {
    /// Called once before a query's Phase 3 with the query distribution.
    fn begin_query(&mut self, _gaussian: &Gaussian<D>) {}

    /// Estimates `Pr(‖x − center‖ ≤ delta)` for `x ~ gaussian`.
    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64;

    /// Classifies `Pr(‖x − center‖ ≤ delta)` against `θ` using at most
    /// `max_samples` draws, with the verdict explicit about confidence —
    /// [`Verdict::Uncertain`] when the budget ran out with the answer
    /// still unsettled.
    ///
    /// The default computes [`ProbabilityEvaluator::probability`]
    /// (ignoring the budget), compares it with `θ` exactly, and reports
    /// zero samples — right for deterministic evaluators.
    ///
    /// # Errors
    ///
    /// * [`EvalFailure::NoBudget`] when a sampling evaluator gets
    ///   `max_samples == 0`,
    /// * [`EvalFailure::Injected`] when a fault plan aborts the call.
    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
        _max_samples: usize,
    ) -> Result<EvalReport, EvalFailure> {
        let estimate = self.probability(gaussian, center, delta);
        Ok(EvalReport::decided(estimate, theta, 0))
    }

    /// Drains the accumulated shared-cloud statistics (grid builds,
    /// samples drawn, cells scanned/inside, samples distance-tested),
    /// resetting them to zero. Evaluators without a cloud return the zero
    /// default.
    fn take_cloud_stats(&mut self) -> CloudStats {
        CloudStats::default()
    }
}

/// Sample budgets are validated at construction; this conversion is for
/// the type system, with a defensive floor of one sample.
fn nonzero(samples: usize) -> NonZeroUsize {
    NonZeroUsize::new(samples).unwrap_or(NonZeroUsize::MIN)
}

/// The default Phase-3 evaluator: one shared, grid-indexed sample cloud
/// per query that integrates (see [`gprq_gaussian::cloud`]).
///
/// The cloud is drawn on the first [`ProbabilityEvaluator::probability`]
/// or [`ProbabilityEvaluator::evaluate`] call and *reused* until
/// [`ProbabilityEvaluator::begin_query`] drops it, so direct use across
/// different distributions must call `begin_query` between them. A
/// query that integrates nothing draws nothing: its Phase 3 costs no
/// samples and reports `cloud_builds == 0`.
///
/// One consequence for an evaluator reused across queries: the RNG
/// stream advances only for queries that draw, so a query that
/// integrates nothing does not shift the clouds of the queries after
/// it. A fresh evaluator per query (what the executors' parity
/// contracts use) sees no difference.
#[derive(Debug, Clone)]
pub struct MonteCarloEvaluator<const D: usize> {
    samples: usize,
    rng: StdRng,
    grid: Option<CloudGrid<D>>,
    stats: CloudStats,
}

impl<const D: usize> MonteCarloEvaluator<D> {
    /// Creates an evaluator with an explicit sample count and seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0);
        MonteCarloEvaluator {
            samples,
            rng: StdRng::seed_from_u64(seed),
            grid: None,
            stats: CloudStats::default(),
        }
    }

    /// The paper's configuration: 100 000 samples per query cloud.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(PAPER_MC_SAMPLES, seed)
    }

    /// Number of samples in the per-query cloud.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

impl<const D: usize> ProbabilityEvaluator<D> for MonteCarloEvaluator<D> {
    /// Drops the previous query's cloud; the next integration draws the
    /// new one.
    fn begin_query(&mut self, _gaussian: &Gaussian<D>) {
        self.grid = None;
    }

    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        // The query's first integration draws its cloud.
        let (samples, rng, stats) = (self.samples, &mut self.rng, &mut self.stats);
        let grid = self.grid.get_or_insert_with(|| {
            let cloud = SampleCloud::draw(gaussian, nonzero(samples), rng);
            stats.builds += 1;
            stats.samples_drawn += cloud.len();
            CloudGrid::build(cloud)
        });
        grid.probability_with_stats(center, delta, stats)
    }

    /// The fixed cloud ignores the per-object cap: every object is
    /// measured against all of its samples, so the verdict is the exact
    /// comparison of that estimate with `θ`. Only an exhausted budget
    /// (`max_samples == 0`) stops it.
    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
        max_samples: usize,
    ) -> Result<EvalReport, EvalFailure> {
        if max_samples == 0 {
            return Err(EvalFailure::NoBudget);
        }
        let estimate = self.probability(gaussian, center, delta);
        Ok(EvalReport::decided(estimate, theta, self.samples))
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        std::mem::take(&mut self.stats)
    }
}

/// Deterministic 2-D evaluator using polar Gauss–Legendre quadrature
/// over 64 radial × 128 angular nodes — the test oracle (exact to
/// ~10⁻¹⁰).
#[derive(Debug, Clone, Copy, Default)]
pub struct Quadrature2dEvaluator {
    /// Nothing to set: the node counts are fixed, and this private
    /// field leaves `default()` the only constructor.
    _fixed: (),
}

impl Quadrature2dEvaluator {
    /// Radial node count.
    const N_RADIAL: usize = 64;
    /// Angular node count.
    const N_ANGULAR: usize = 128;
}

impl ProbabilityEvaluator<2> for Quadrature2dEvaluator {
    fn probability(&mut self, gaussian: &Gaussian<2>, center: &Vector<2>, delta: f64) -> f64 {
        quadrature_probability_2d(gaussian, center, delta, Self::N_RADIAL, Self::N_ANGULAR)
    }
}

/// Classification of one object against `θ`, with uncertainty explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Pr ≥ θ` holds (exactly, or with the configured confidence).
    Accept,
    /// `Pr < θ` holds (exactly, or with the configured confidence).
    Reject,
    /// The sample budget ran out with the confidence interval still
    /// straddling `θ` — the honest "don't know".
    Uncertain,
}

/// Outcome of one budgeted per-object evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// The probability estimate at the point evaluation stopped.
    pub estimate: f64,
    /// Samples the estimate was measured over (0 for deterministic
    /// evaluators, the whole cloud for fixed-cloud ones).
    pub samples: usize,
    /// The classification against `θ` — explicit, never a bare number,
    /// so budget exhaustion is visible as [`Verdict::Uncertain`].
    pub verdict: Verdict,
    /// Whether the evaluation stopped before its full sample budget
    /// because the confidence interval already cleared `θ`.
    pub early: bool,
}

impl EvalReport {
    /// The report of an evaluator that always decides: the verdict is
    /// the exact comparison of `estimate` with `θ`.
    pub(crate) fn decided(estimate: f64, theta: f64, samples: usize) -> Self {
        EvalReport {
            estimate,
            samples,
            verdict: if estimate >= theta {
                Verdict::Accept
            } else {
                Verdict::Reject
            },
            early: false,
        }
    }
}

/// Why a budgeted evaluation produced no usable estimate at all (as
/// opposed to an [`Verdict::Uncertain`] estimate, which is a *result*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFailure {
    /// The per-object sample budget was zero — the total-sample budget
    /// was already exhausted before this object was reached.
    NoBudget,
    /// An injected fault aborted the evaluation (chaos testing, or a
    /// wrapped evaluator that can genuinely fail).
    Injected,
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalFailure::NoBudget => write!(f, "no sample budget left for this object"),
            EvalFailure::Injected => write!(f, "evaluation aborted by injected fault"),
        }
    }
}

impl std::error::Error for EvalFailure {}

/// Sequential Monte Carlo with Wilson-interval early termination over the
/// query's shared sample cloud: hit counts accumulate over *prefixes* of
/// the cloud in blocks, and evaluation stops as soon as the confidence
/// interval for the running estimate lies entirely on one side of `θ`.
///
/// Most candidates are far from the threshold, so a few hundred samples
/// decide them instead of the paper's fixed 100 000 — the `resilience`
/// bench records the saving. With early termination disabled (the
/// baseline), the full budget is always spent and the interval is
/// checked once at the end, so the *verdicts* are comparable and only
/// the sample counts differ.
///
/// The cloud grows lazily: a candidate that terminates after 512 samples
/// never forces the remaining 99 488 to be drawn, and a later candidate
/// that needs more reuses the existing prefix bitwise (see
/// `SampleCloud::extend`). [`ProbabilityEvaluator::probability`] is the
/// point estimate over the first [`PAPER_MC_SAMPLES`] samples. As with
/// [`MonteCarloEvaluator`], call [`ProbabilityEvaluator::begin_query`]
/// between distributions.
#[derive(Debug, Clone)]
pub struct SequentialMonteCarloEvaluator<const D: usize> {
    rng: StdRng,
    early_termination: bool,
    cloud: Option<SampleCloud<D>>,
    stats: CloudStats,
}

impl<const D: usize> SequentialMonteCarloEvaluator<D> {
    /// Samples per block between interval checks.
    const BLOCK: usize = 512;
    /// Confidence width: ±3σ two-sided (≈ 99.7 %).
    const Z: f64 = 3.0;

    /// Creates an evaluator with block size 512 and confidence width
    /// z = 3, early termination enabled.
    pub fn with_defaults(seed: u64) -> Self {
        SequentialMonteCarloEvaluator {
            rng: StdRng::seed_from_u64(seed),
            early_termination: true,
            cloud: None,
            stats: CloudStats::default(),
        }
    }

    /// Enables or disables early termination (disabled = fixed-budget
    /// baseline for the resilience bench).
    pub fn with_early_termination(mut self, on: bool) -> Self {
        self.early_termination = on;
        self
    }

    /// Whether early termination is enabled.
    pub fn early_termination(&self) -> bool {
        self.early_termination
    }

    /// The query's cloud, drawn on first use and extended to at least
    /// `need` samples, with every draw counted.
    fn grow(&mut self, gaussian: &Gaussian<D>, need: usize) -> &SampleCloud<D> {
        let (rng, stats) = (&mut self.rng, &mut self.stats);
        let cloud = self.cloud.get_or_insert_with(|| {
            let cloud = SampleCloud::draw(gaussian, nonzero(need), rng);
            stats.builds += 1;
            stats.samples_drawn += cloud.len();
            cloud
        });
        if cloud.len() < need {
            let extra = need - cloud.len();
            cloud.extend(gaussian, extra, rng);
            stats.samples_drawn += extra;
        }
        cloud
    }
}

impl<const D: usize> ProbabilityEvaluator<D> for SequentialMonteCarloEvaluator<D> {
    fn begin_query(&mut self, _gaussian: &Gaussian<D>) {
        self.cloud = None;
    }

    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        let n = PAPER_MC_SAMPLES;
        let hits = self.grow(gaussian, n).count_in_range(center, delta, 0, n);
        self.stats.samples_tested += n;
        hits as f64 / n as f64
    }

    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
        max_samples: usize,
    ) -> Result<EvalReport, EvalFailure> {
        if max_samples == 0 {
            return Err(EvalFailure::NoBudget);
        }
        let mut est = RunningEstimate::default();
        loop {
            let need = est.n + Self::BLOCK.min(max_samples - est.n);
            est.hits += self
                .grow(gaussian, need)
                .count_in_range(center, delta, est.n, need);
            self.stats.samples_tested += need - est.n;
            est.n = need;
            // Without early termination the interval is checked once, at
            // the end of the budget, and labels the verdict honestly.
            let (lo, hi) = est.wilson_bounds(Self::Z);
            let verdict = if lo >= theta {
                Verdict::Accept
            } else if hi < theta {
                Verdict::Reject
            } else {
                Verdict::Uncertain
            };
            let settled = self.early_termination && verdict != Verdict::Uncertain;
            if settled || est.n == max_samples {
                return Ok(EvalReport {
                    estimate: est.estimate(),
                    samples: est.n,
                    verdict,
                    early: est.n < max_samples,
                });
            }
        }
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;

    fn gaussian() -> Gaussian<2> {
        let s3 = 3.0f64.sqrt();
        Gaussian::new(
            Vector::from([10.0, 10.0]),
            Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0),
        )
        .unwrap()
    }

    #[test]
    fn evaluators_agree() {
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let delta = 25.0;
        let mut quad = Quadrature2dEvaluator::default();
        let oracle = quad.probability(&g, &center, delta);

        let mut mc = MonteCarloEvaluator::new(200_000, 7);
        ProbabilityEvaluator::<2>::begin_query(&mut mc, &g);
        assert!((mc.probability(&g, &center, delta) - oracle).abs() < 0.006);

        let mut shared = MonteCarloEvaluator::<2>::new(200_000, 9);
        shared.begin_query(&g);
        assert!((shared.probability(&g, &center, delta) - oracle).abs() < 0.006);
    }

    #[test]
    fn shared_samples_work_without_begin_query() {
        let g = gaussian();
        let mut shared = MonteCarloEvaluator::<2>::new(50_000, 3);
        let p = shared.probability(&g, g.mean(), 10.0);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn shared_samples_rebuild_per_query() {
        let g1 = gaussian();
        let g2 = Gaussian::<2>::standard();
        let mut shared = MonteCarloEvaluator::<2>::new(100_000, 3);
        shared.begin_query(&g1);
        let _ = shared.probability(&g1, g1.mean(), 10.0);
        // New query with a completely different distribution.
        shared.begin_query(&g2);
        let p = shared.probability(&g2, g2.mean(), 1.0);
        // P(‖x‖ ≤ 1) for the 2-D standard normal is 0.3935.
        assert!((p - 0.3935).abs() < 0.01, "got {p}");
    }

    #[test]
    fn cloud_stats_count_builds_and_drain() {
        let g = gaussian();
        let mut mc = MonteCarloEvaluator::<2>::new(10_000, 5);
        ProbabilityEvaluator::<2>::begin_query(&mut mc, &g);
        let _ = mc.probability(&g, g.mean(), 10.0);
        ProbabilityEvaluator::<2>::begin_query(&mut mc, &g);
        let _ = mc.probability(&g, g.mean(), 10.0);
        let stats = ProbabilityEvaluator::<2>::take_cloud_stats(&mut mc);
        assert_eq!(stats.builds, 2, "one build per query that integrates");
        assert_eq!(
            stats.samples_drawn, 20_000,
            "each build draws the whole cloud"
        );
        assert!(stats.cells_scanned > 0);
        // Drained: a second take returns zeros.
        let again = ProbabilityEvaluator::<2>::take_cloud_stats(&mut mc);
        assert_eq!(again, CloudStats::default());
    }

    #[test]
    fn a_query_without_integrations_draws_nothing() {
        let g1 = gaussian();
        let g2 = Gaussian::<2>::standard();
        let mut reused = MonteCarloEvaluator::<2>::new(10_000, 5);
        ProbabilityEvaluator::<2>::begin_query(&mut reused, &g1);
        let idle = ProbabilityEvaluator::<2>::take_cloud_stats(&mut reused);
        assert_eq!(
            idle,
            CloudStats::default(),
            "begin_query alone draws nothing"
        );
        // The skipped query leaves the RNG stream where it was: the next
        // query's cloud is the one a fresh evaluator draws.
        ProbabilityEvaluator::<2>::begin_query(&mut reused, &g2);
        let p = reused.probability(&g2, g2.mean(), 1.0);
        let mut fresh = MonteCarloEvaluator::<2>::new(10_000, 5);
        ProbabilityEvaluator::<2>::begin_query(&mut fresh, &g2);
        assert_eq!(
            p.to_bits(),
            fresh.probability(&g2, g2.mean(), 1.0).to_bits()
        );
        let stats = ProbabilityEvaluator::<2>::take_cloud_stats(&mut reused);
        assert_eq!((stats.builds, stats.samples_drawn), (1, 10_000));
    }

    #[test]
    fn paper_default_sample_count() {
        let mc = MonteCarloEvaluator::<2>::paper_default(1);
        assert_eq!(mc.samples(), 100_000);
    }

    #[test]
    fn sequential_mc_terminates_early_on_clear_cases() {
        let g = gaussian();
        let mut eval = SequentialMonteCarloEvaluator::with_defaults(17);
        // Ball around the mean with generous radius: p ≈ 1 ≫ θ = 0.01.
        let accept =
            ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, g.mean(), 60.0, 0.01, 100_000)
                .unwrap();
        assert_eq!(accept.verdict, Verdict::Accept);
        assert!(accept.early, "clear accept should stop early");
        assert!(accept.samples < 10_000, "spent {}", accept.samples);
        // Far-away center: p ≈ 0 ≪ θ.
        let far = Vector::from([10_000.0, 10_000.0]);
        let reject =
            ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, &far, 1.0, 0.01, 100_000).unwrap();
        assert_eq!(reject.verdict, Verdict::Reject);
        assert!(reject.early);
        assert!(reject.samples < 10_000);
    }

    #[test]
    fn sequential_mc_baseline_spends_full_budget() {
        let g = gaussian();
        let mut eval =
            SequentialMonteCarloEvaluator::with_defaults(17).with_early_termination(false);
        assert!(!eval.early_termination());
        let r = ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, g.mean(), 60.0, 0.01, 20_000)
            .unwrap();
        assert_eq!(r.samples, 20_000);
        assert!(!r.early);
        assert_eq!(r.verdict, Verdict::Accept);
    }

    #[test]
    fn sequential_mc_borderline_decides_at_most_the_bonferroni_rate() {
        // θ exactly at the true probability. A 4 096-sample budget gives
        // 8 looks (one per 512-sample block), and each z = 3 Wilson
        // interval misses the truth with probability ≈ 2Φ(−3), so by the
        // union bound a run decides with probability at most
        // 8 · 2Φ(−3) ≈ 2.2 %. Over independent seeds the decided count is
        // binomial: allow that rate plus 3 binomial standard deviations.
        type Seq = SequentialMonteCarloEvaluator<2>;
        const SEEDS: u64 = 1_000;
        const BUDGET: usize = 4_096;
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let mut quad = Quadrature2dEvaluator::default();
        let truth = quad.probability(&g, &center, 25.0);
        let looks = (BUDGET / Seq::BLOCK) as f64;
        let rate = looks * 2.0 * gprq_gaussian::specfun::std_normal_cdf(-Seq::Z);
        let runs = SEEDS as f64;
        let bound = rate + 3.0 * (rate * (1.0 - rate) / runs).sqrt();
        let mut decided = 0usize;
        for seed in 0..SEEDS {
            let mut eval = Seq::with_defaults(seed);
            let r =
                ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, &center, 25.0, truth, BUDGET)
                    .unwrap();
            if r.verdict == Verdict::Uncertain {
                assert_eq!(r.samples, BUDGET, "seed {seed}");
                assert!(!r.early, "seed {seed}");
                assert!((r.estimate - truth).abs() < 0.05, "seed {seed}");
            } else {
                decided += 1;
            }
        }
        let share = decided as f64 / runs;
        assert!(
            share <= bound,
            "{decided} of {SEEDS} borderline runs decided: {share} > {bound}"
        );
    }

    #[test]
    fn sequential_mc_shares_the_cloud_prefix_across_candidates() {
        // Two evaluations of the *same* candidate on one evaluator reuse
        // the same cloud prefix, so with early termination off and equal
        // budgets the estimates are bitwise identical.
        let g = gaussian();
        let mut eval =
            SequentialMonteCarloEvaluator::with_defaults(31).with_early_termination(false);
        let a =
            ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, g.mean(), 20.0, 0.5, 8_192).unwrap();
        let b =
            ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, g.mean(), 20.0, 0.5, 8_192).unwrap();
        assert_eq!(a.estimate, b.estimate);
        let stats = ProbabilityEvaluator::<2>::take_cloud_stats(&mut eval);
        assert_eq!(stats.builds, 1, "one cloud serves both candidates");
        assert_eq!(stats.samples_drawn, 8_192, "the second pass draws nothing");
        assert_eq!(stats.samples_tested, 2 * 8_192);
    }

    #[test]
    fn sequential_mc_rejects_zero_budget() {
        let g = gaussian();
        let mut eval = SequentialMonteCarloEvaluator::with_defaults(1);
        let e =
            ProbabilityEvaluator::<2>::evaluate(&mut eval, &g, g.mean(), 1.0, 0.5, 0).unwrap_err();
        assert_eq!(e, EvalFailure::NoBudget);
        assert!(e.to_string().contains("budget"));
    }

    #[test]
    fn default_evaluate_is_the_exact_verdict() {
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let mut quad = Quadrature2dEvaluator::default();
        let truth = quad.probability(&g, &center, 25.0);
        // The default ignores the budget, even a zero one.
        let r = quad.evaluate(&g, &center, 25.0, truth / 2.0, 0).unwrap();
        assert_eq!(r.verdict, Verdict::Accept);
        assert_eq!(r.samples, 0);
        assert_eq!(r.estimate, truth);
        let r2 = quad.evaluate(&g, &center, 25.0, truth * 1.5, 0).unwrap();
        assert_eq!(r2.verdict, Verdict::Reject);
    }

    #[test]
    fn fixed_cloud_evaluate_ignores_the_per_object_cap() {
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let mut mc = MonteCarloEvaluator::<2>::new(10_000, 4);
        mc.begin_query(&g);
        let p = mc.probability(&g, &center, 25.0);
        let r = mc.evaluate(&g, &center, 25.0, p, 1).unwrap();
        assert_eq!(r.estimate, p, "same cloud, same estimate");
        assert_eq!(r.samples, 10_000, "measured over the whole cloud");
        assert_eq!(r.verdict, Verdict::Accept);
        assert_eq!(
            mc.evaluate(&g, &center, 25.0, p, 0),
            Err(EvalFailure::NoBudget)
        );
    }

    #[test]
    fn sequential_mc_probability_uses_the_paper_prefix() {
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let mut quad = Quadrature2dEvaluator::default();
        let truth = quad.probability(&g, &center, 25.0);
        let mut eval = SequentialMonteCarloEvaluator::<2>::with_defaults(5);
        let p = eval.probability(&g, &center, 25.0);
        assert!((p - truth).abs() < 0.01, "{p} vs {truth}");
        let stats = ProbabilityEvaluator::<2>::take_cloud_stats(&mut eval);
        assert_eq!(stats.samples_drawn, PAPER_MC_SAMPLES);
        assert_eq!(stats.samples_tested, PAPER_MC_SAMPLES);
    }

    #[test]
    fn mc_deterministic_under_seed() {
        let g = gaussian();
        let run = |seed| {
            let mut mc = MonteCarloEvaluator::new(10_000, seed);
            mc.probability(&g, &Vector::from([12.0, 12.0]), 20.0)
        };
        assert_eq!(run(5), run(5));
    }
}
