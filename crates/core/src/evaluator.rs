//! Phase-3 qualification-probability evaluators.
//!
//! The executor is generic over *how* `Pr(‖x − o‖ ≤ δ)` is computed. The
//! menu has three entries: the paper's shared-sample Monte Carlo
//! ([`MonteCarloEvaluator`]), the deterministic 2-D oracle
//! ([`Quadrature2dEvaluator`]) and the exact evaluator
//! ([`ExactEvaluator`]), which decides each candidate from a certified
//! bracket and draws no samples. (The paper's fresh per-candidate
//! batches live only in the `ablation` bench, which measures what
//! sharing saves.)
//!
//! The Monte-Carlo engine is the shared-sample cloud from
//! [`gprq_gaussian::cloud`]: the proposal distribution `N(q, Σ)` never
//! depends on the candidate (§V-A), so one sample batch per query answers
//! every candidate. Sharing samples correlates the *errors* across
//! candidates of one query — each per-candidate estimate stays unbiased
//! with unchanged variance — which is why the `mc_conformance` closed-form
//! oracle and the `verdict_error` gate against [`ExactEvaluator`], not
//! bit-parity with the old per-candidate path, gate correctness.

use gprq_gaussian::cloud::{CloudGrid, CloudStats, SampleCloud};
use gprq_gaussian::integrate::{quadrature_probability_2d, PAPER_MC_SAMPLES};
use gprq_gaussian::quadform::RubenSeries;
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

/// Computes qualification probabilities for Phase 3.
///
/// Implementations may be stateful (RNG streams, cached sample clouds);
/// the executor calls [`ProbabilityEvaluator::begin_query`] once per query
/// so a cache built for the previous query's distribution is dropped.
/// Phase 3 itself calls [`ProbabilityEvaluator::evaluate`], which
/// classifies against `θ`; its default compares
/// [`ProbabilityEvaluator::probability`] with `θ` exactly, so an
/// evaluator only has to implement `probability`.
pub trait ProbabilityEvaluator<const D: usize> {
    /// Called once before a query's Phase 3 with the query distribution.
    fn begin_query(&mut self, _gaussian: &Gaussian<D>) {}

    /// Estimates `Pr(‖x − center‖ ≤ delta)` for `x ~ gaussian`.
    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64;

    /// Classifies `Pr(‖x − center‖ ≤ delta)` against `θ`, with the
    /// verdict explicit about confidence — [`Verdict::Uncertain`] when
    /// the evaluator stopped with the answer still unsettled.
    ///
    /// The default computes [`ProbabilityEvaluator::probability`] and
    /// compares it with `θ` exactly — right for evaluators whose
    /// estimate is their answer (Monte Carlo, quadrature).
    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
    ) -> EvalReport {
        let estimate = self.probability(gaussian, center, delta);
        let verdict = if estimate >= theta {
            Verdict::Accept
        } else {
            Verdict::Reject
        };
        EvalReport { estimate, verdict }
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
/// The cloud is drawn on the query's first integration and *reused* until
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

/// The exact Phase-3 evaluator: decides each candidate from a certified
/// bracket on `Pr(‖x − o‖ ≤ δ)` (Ruben's series,
/// [`gprq_gaussian::quadform`]) and draws no samples.
///
/// `evaluate` adds terms until the bracket excludes `θ`; only a
/// candidate still undecided at the term cap (a covariance with
/// condition number ≳ 10⁴ can leave some) is [`Verdict::Uncertain`],
/// with the bracket's midpoint as its estimate.
/// `probability` converges to a 10⁻¹² bracket and returns its midpoint.
/// The Σ and δ tables are cached and rebuilt whenever a call brings
/// another Σ or δ, so no call reads a stale table.
#[derive(Debug, Clone, Default)]
pub struct ExactEvaluator<const D: usize> {
    series: Option<RubenSeries<D>>,
}

impl<const D: usize> ExactEvaluator<D> {
    /// Bracket width [`ProbabilityEvaluator::probability`] converges to.
    const WIDTH: f64 = 1e-12;

    /// The series tables for `gaussian`'s covariance, rebuilt when it
    /// differs from the cached one.
    fn series(&mut self, gaussian: &Gaussian<D>) -> &mut RubenSeries<D> {
        if self
            .series
            .as_ref()
            .is_some_and(|s| s.covariance() != gaussian.covariance())
        {
            self.series = None;
        }
        self.series
            .get_or_insert_with(|| RubenSeries::new(gaussian))
    }
}

impl<const D: usize> ProbabilityEvaluator<D> for ExactEvaluator<D> {
    /// Builds the Σ tables for the query (kept when Σ is unchanged).
    fn begin_query(&mut self, gaussian: &Gaussian<D>) {
        self.series(gaussian);
    }

    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        self.series(gaussian)
            .bracket(gaussian.mean(), center, delta, |b| {
                b.truncation <= Self::WIDTH
            })
            .estimate
    }

    fn evaluate(
        &mut self,
        gaussian: &Gaussian<D>,
        center: &Vector<D>,
        delta: f64,
        theta: f64,
    ) -> EvalReport {
        let bracket = self
            .series(gaussian)
            .bracket(gaussian.mean(), center, delta, |b| {
                b.lower >= theta || b.upper < theta
            });
        let verdict = if bracket.lower >= theta {
            Verdict::Accept
        } else if bracket.upper < theta {
            Verdict::Reject
        } else {
            Verdict::Uncertain
        };
        EvalReport {
            estimate: bracket.estimate,
            verdict,
        }
    }
}

/// Classification of one object against `θ`, with uncertainty explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Pr ≥ θ` holds (certified, or as the evaluator's estimate).
    Accept,
    /// `Pr < θ` holds (certified, or as the evaluator's estimate).
    Reject,
    /// The evaluator stopped with its bracket still straddling `θ` —
    /// the honest "don't know".
    Uncertain,
}

/// Outcome of one per-object evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// The probability estimate at the point evaluation stopped.
    pub estimate: f64,
    /// The classification against `θ` — explicit, never a bare number,
    /// so an unsettled comparison is visible as [`Verdict::Uncertain`].
    pub verdict: Verdict,
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
    fn default_evaluate_is_the_exact_verdict() {
        // The quadrature oracle and the fixed cloud decide by comparing
        // their estimate with θ; on a drawn cloud, `evaluate` reads the
        // estimate `probability` read (same cloud, same estimate).
        let g = gaussian();
        let center = Vector::from([15.0, 8.0]);
        let mut quad = Quadrature2dEvaluator::default();
        let mut mc = MonteCarloEvaluator::<2>::new(10_000, 4);
        mc.begin_query(&g);
        let estimates = [
            quad.probability(&g, &center, 25.0),
            mc.probability(&g, &center, 25.0),
        ];
        let evaluators: [&mut dyn ProbabilityEvaluator<2>; 2] = [&mut quad, &mut mc];
        for (eval, p) in evaluators.into_iter().zip(estimates) {
            for (theta, verdict) in [
                (p / 2.0, Verdict::Accept),
                (p, Verdict::Accept),
                (p * 1.5, Verdict::Reject),
            ] {
                let report = eval.evaluate(&g, &center, 25.0, theta);
                assert_eq!(
                    report,
                    EvalReport {
                        estimate: p,
                        verdict
                    },
                    "θ = {theta}"
                );
            }
        }
    }

    #[test]
    fn exact_evaluator_matches_the_quadrature_oracle() {
        let g = gaussian();
        let mut quad = Quadrature2dEvaluator::default();
        let mut exact = ExactEvaluator::<2>::default();
        for offset in [[0.0, 0.0], [5.0, -2.0], [20.0, 12.0], [-30.0, 4.0]] {
            let center = *g.mean() + Vector::from(offset);
            let oracle = quad.probability(&g, &center, 25.0);
            let p = exact.probability(&g, &center, 25.0);
            assert!((p - oracle).abs() < 1e-9, "{offset:?}: {p} vs {oracle}");
            // Decisions on either side of the probability.
            for (theta, verdict) in [(0.999 * p, Verdict::Accept), (1.001 * p, Verdict::Reject)] {
                let r = exact.evaluate(&g, &center, 25.0, theta);
                assert_eq!(r.verdict, verdict, "{offset:?}");
            }
        }
    }

    #[test]
    fn exact_evaluator_rebuilds_for_a_new_distribution() {
        // No begin_query between the two: the cached Σ tables must not
        // leak into the second distribution's value, nor δ's into a new δ.
        let g1 = gaussian();
        let g2 = Gaussian::<2>::standard();
        let mut exact = ExactEvaluator::<2>::default();
        let p1 = exact.probability(&g1, g1.mean(), 10.0);
        let p2 = exact.probability(&g2, g2.mean(), 1.0);
        let p3 = exact.probability(&g2, g2.mean(), 2.0);
        let fresh =
            |g: &Gaussian<2>, delta| ExactEvaluator::<2>::default().probability(g, g.mean(), delta);
        assert_eq!(p1, fresh(&g1, 10.0));
        assert_eq!(p2, fresh(&g2, 1.0));
        assert_eq!(p3, fresh(&g2, 2.0));
        // P(‖x‖ ≤ r) = 1 − e^{−r²/2} for the 2-D standard normal.
        assert!((p2 - (1.0 - (-0.5f64).exp())).abs() < 1e-13, "{p2}");
        assert!((p3 - (1.0 - (-2.0f64).exp())).abs() < 1e-13, "{p3}");
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
