//! The resilient query pipeline: admission/sanitization, a capped
//! Phase 3 with graceful degradation, and strategy fallback.
//!
//! The plain [`PrqExecutor`] is faithful to the paper and therefore
//! brittle by design: its strategies have hard preconditions (the
//! θ-region needs `θ < 1/2`, Σ must be well-conditioned SPD) and its
//! Phase 3 evaluates every candidate. A serving path cannot afford either property — one
//! degenerate query must neither error out nor hog the integrator.
//!
//! [`ResilientExecutor`] wraps the same three-phase pipeline with:
//!
//! 1. **Admission** ([`admit`]) — rejects what cannot
//!    be repaired (NaN/∞ centers and thresholds), repairs what can
//!    (θ clamping, covariance symmetrization, Tikhonov regularization
//!    of near-singular Σ), and records every repair in a
//!    [`DegradationReport`].
//! 2. **Strategy fallback** — `θ ≥ 1/2` or a set without a primary
//!    strategy degrades the strategy set toward one that can run
//!    ([`StrategySet::BF`] works at any θ), and execution failure
//!    degrades to the naive full scan; each hop is a
//!    [`DegradationReason::StrategySwitched`] or
//!    [`DegradationReason::NaiveFallback`] entry.
//! 3. **Capped Phase 3** ([`ResilientExecutor::with_max_candidates`]) —
//!    the executor's one Phase-3 stage, evaluating at most the configured
//!    number of candidates; objects it cannot settle (a bracket still
//!    straddling `θ` at [`ExactEvaluator`]'s term cap, a fault, the cap)
//!    come back as explicit [`Verdict::Uncertain`] entries, never as
//!    unlabeled guesses.
//!
//! The result always carries the full report, so a caller can
//! distinguish "exact answer" from "best effort under degradation" and
//! decide per application whether uncertain objects count.
//!
//! [`ExactEvaluator`]: crate::evaluator::ExactEvaluator

use crate::error::PrqError;
use crate::evaluator::ProbabilityEvaluator;
use crate::executor::{Phase3, PreparedQuery, PrqExecutor, QueryScratch, QueryStats};
use crate::metrics::PipelineMetrics;
use crate::query::PrqQuery;
use crate::strategy::rr::FringeMode;
use crate::strategy::StrategySet;
use gprq_linalg::{LinalgError, Matrix, Vector};
use gprq_rtree::Phase1Index;
use std::fmt;

#[cfg(feature = "fault-inject")]
use crate::fault::{FaultPlan, FaultSite};

pub use crate::evaluator::Verdict;
pub use crate::executor::{UncertainCause, UncertainObject};

/// Why the executor switched away from the requested strategy set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchCause {
    /// The θ-region is undefined for `θ ≥ 1/2` (paper Definition 3), so
    /// RR and OR cannot run; BF still can.
    ThetaAboveHalf(f64),
    /// The requested set had no region-producing strategy.
    NoPrimaryStrategy,
    /// The filtered pipeline returned an error at execution time.
    ExecutionFailed,
    /// The index could not complete a Phase-1 traversal.
    IndexUnavailable,
}

impl fmt::Display for SwitchCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchCause::ThetaAboveHalf(t) => write!(f, "θ = {t} ≥ 1/2"),
            SwitchCause::NoPrimaryStrategy => write!(f, "no primary strategy"),
            SwitchCause::ExecutionFailed => write!(f, "filtered execution failed"),
            SwitchCause::IndexUnavailable => write!(f, "index unavailable"),
        }
    }
}

/// One repair or fallback applied by the resilient pipeline.
///
/// Every variant is informational, not an error: the query still
/// produced an answer, and the report says exactly how its semantics
/// were weakened to get there.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationReason {
    /// `θ` was outside `(0, 1)` and was clamped into range.
    ThetaClamped {
        /// The requested threshold.
        from: f64,
        /// The clamped value actually used.
        to: f64,
    },
    /// Σ was asymmetric beyond tolerance and was replaced by its
    /// symmetric part `(Σ + Σᵗ)/2`.
    CovarianceSymmetrized {
        /// Largest `|σ_ij − σ_ji|` observed before the repair.
        asymmetry: f64,
    },
    /// Σ was singular, indefinite, or ill-conditioned and received a
    /// Tikhonov ridge `Σ + ε·I`.
    CovarianceRegularized {
        /// Spectral condition number before the repair (∞ when the
        /// eigensolve itself failed).
        condition: f64,
        /// The ridge `ε` actually added to the diagonal.
        ridge: f64,
    },
    /// The strategy set was replaced by a runnable one.
    StrategySwitched {
        /// The requested set.
        from: StrategySet,
        /// The set actually executed.
        to: StrategySet,
        /// Why the switch happened.
        cause: SwitchCause,
    },
    /// The filtered pipeline was abandoned for the naive full scan —
    /// the terminal fallback that always works.
    NaiveFallback {
        /// Why filtering was abandoned.
        cause: SwitchCause,
    },
    /// Some Phase-3 evaluations failed outright; the affected objects
    /// are reported as uncertain.
    EvaluatorFaults {
        /// How many objects were affected.
        objects: usize,
    },
    /// The candidate cap was hit before every candidate was classified.
    BudgetExhausted {
        /// Objects left unclassified because of it.
        unresolved: usize,
    },
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::ThetaClamped { from, to } => {
                write!(f, "θ clamped from {from} to {to}")
            }
            DegradationReason::CovarianceSymmetrized { asymmetry } => {
                write!(f, "Σ symmetrized (max asymmetry {asymmetry:.3e})")
            }
            DegradationReason::CovarianceRegularized { condition, ridge } => {
                write!(
                    f,
                    "Σ regularized with ridge {ridge:.3e} (condition {condition:.3e})"
                )
            }
            DegradationReason::StrategySwitched { from, to, cause } => {
                write!(f, "strategy {} → {}: {cause}", from.name(), to.name())
            }
            DegradationReason::NaiveFallback { cause } => {
                write!(f, "fell back to naive full scan: {cause}")
            }
            DegradationReason::EvaluatorFaults { objects } => {
                write!(f, "evaluator failed on {objects} object(s)")
            }
            DegradationReason::BudgetExhausted { unresolved } => {
                write!(f, "candidate cap hit, {unresolved} object(s) unresolved")
            }
        }
    }
}

/// Ordered log of every repair and fallback one execution applied.
///
/// Empty means the query ran exactly as requested; a non-empty report
/// is the contract that *no repair is ever silent*.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    events: Vec<DegradationReason>,
}

impl DegradationReport {
    /// A fresh, empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any repair or fallback was applied.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the report is empty (the query ran as requested).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in the order they were applied.
    pub fn iter(&self) -> impl Iterator<Item = &DegradationReason> {
        self.events.iter()
    }

    pub(crate) fn record(&mut self, reason: DegradationReason) {
        self.events.push(reason);
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no degradation");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Smallest θ a clamp may produce (repairs `θ ≤ 0`).
const THETA_FLOOR: f64 = 1e-9;

/// Largest θ a clamp may produce (repairs `θ ≥ 1`).
const THETA_CEILING: f64 = 1.0 - 1e-9;

/// Spectral condition number above which Σ is ridge-regularized.
const MAX_CONDITION: f64 = 1e12;

/// Initial ridge as a fraction of the mean diagonal entry; escalated
/// ×10 per attempt until Σ is acceptable.
const RIDGE_SCALE: f64 = 1e-12;

/// Upper bound on ridge-escalation attempts. The ridge grows ×10 per
/// attempt from `RIDGE_SCALE × scale`, where `scale` bounds `|λ_min|`
/// via Gershgorin, so any finite symmetric Σ is repaired well before
/// this limit; it exists to make the loop obviously terminating.
const MAX_RIDGE_ATTEMPTS: usize = 24;

/// The admission/sanitization stage: validates and repairs raw query
/// parameters into a well-formed [`PrqQuery`], recording every repair
/// in `report`.
///
/// Repairs (recorded, never silent): finite `θ` outside `(0, 1)` is
/// clamped into `[10⁻⁹, 1 − 10⁻⁹]`; asymmetric Σ is symmetrized;
/// singular / indefinite / ill-conditioned Σ (condition number above
/// 10¹²) receives an escalating Tikhonov ridge. Rejections (no
/// principled repair exists): non-finite or non-positive `δ`,
/// non-finite `θ`, non-finite centers, non-finite Σ entries.
///
/// # Errors
///
/// * [`PrqError::InvalidDelta`] unless `δ > 0` and finite,
/// * [`PrqError::InvalidTheta`] for NaN or infinite `θ`,
/// * [`PrqError::InvalidCenter`] for a NaN/∞ center coordinate,
/// * [`PrqError::BadCovariance`] for non-finite Σ entries, or when
///   ridge escalation cannot produce an acceptable matrix.
pub fn admit<const D: usize>(
    center: Vector<D>,
    covariance: Matrix<D>,
    delta: f64,
    theta: f64,
    report: &mut DegradationReport,
) -> Result<PrqQuery<D>, PrqError> {
    // δ: reject. A non-positive or non-finite radius has no
    // repairable intent.
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(PrqError::InvalidDelta(delta));
    }
    // θ: NaN/∞ is garbage (reject); finite out-of-range is a
    // plausible "always"/"never" intent (clamp and record).
    if !theta.is_finite() {
        return Err(PrqError::InvalidTheta(theta));
    }
    let theta = if theta < THETA_FLOOR {
        report.record(DegradationReason::ThetaClamped {
            from: theta,
            to: THETA_FLOOR,
        });
        THETA_FLOOR
    } else if theta > THETA_CEILING {
        report.record(DegradationReason::ThetaClamped {
            from: theta,
            to: THETA_CEILING,
        });
        THETA_CEILING
    } else {
        theta
    };
    // Center: reject on the first non-finite coordinate.
    for (axis, &value) in center.as_slice().iter().enumerate() {
        if !value.is_finite() {
            return Err(PrqError::InvalidCenter { axis, value });
        }
    }
    // Σ: non-finite entries are unrepairable.
    if !covariance.is_finite() {
        return Err(PrqError::BadCovariance(LinalgError::NonFinite));
    }
    // Asymmetry is repairable: replace by the symmetric part.
    let sigma = match covariance.check_symmetric(1e-9) {
        Ok(()) => covariance,
        Err(_) => {
            report.record(DegradationReason::CovarianceSymmetrized {
                asymmetry: covariance.max_asymmetry(),
            });
            Matrix::from_fn(|i, j| 0.5 * (covariance[(i, j)] + covariance[(j, i)]))
        }
    };
    // Conditioning gate: accept Σ as-is only when the spectral
    // condition number is positive (so Σ ≻ 0) and below the bound, and
    // the Gaussian actually constructs.
    let condition = sigma.condition_number().unwrap_or(f64::INFINITY);
    if condition > 0.0 && condition <= MAX_CONDITION {
        if let Ok(query) = PrqQuery::new(center, sigma, delta, theta) {
            return Ok(query);
        }
    }
    // Tikhonov repair: Σ + ε·I with ε escalating ×10. `scale`
    // dominates |λ_min| (Gershgorin: |λ| ≤ D · max |σ_ij|), so some
    // attempt is guaranteed to reach positive definiteness and a
    // condition number ≤ (λ_max + ε)/ε well under the bound.
    let mut max_abs = 0.0f64;
    for i in 0..D {
        for j in 0..D {
            max_abs = max_abs.max(sigma[(i, j)].abs());
        }
    }
    let scale = (sigma.trace().abs() / D.max(1) as f64)
        .max(max_abs * D as f64)
        .max(f64::MIN_POSITIVE);
    let mut ridge = scale * RIDGE_SCALE;
    for _ in 0..MAX_RIDGE_ATTEMPTS {
        let candidate = sigma.add_scaled_identity(ridge);
        let cond_ok = match candidate.condition_number() {
            Ok(c) => c > 0.0 && c <= MAX_CONDITION,
            Err(_) => false,
        };
        if cond_ok {
            if let Ok(query) = PrqQuery::new(center, candidate, delta, theta) {
                report.record(DegradationReason::CovarianceRegularized { condition, ridge });
                return Ok(query);
            }
        }
        ridge *= 10.0;
    }
    // Unrepairable within bounds: surface the underlying rejection.
    match PrqQuery::new(center, sigma, delta, theta) {
        Ok(_) => Err(PrqError::BadCovariance(LinalgError::EigenNoConvergence {
            off_diagonal: condition,
        })),
        Err(e) => Err(e),
    }
}

/// The pipeline stage that ultimately produced the answer set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TerminalStrategy {
    /// The three-phase filtered pipeline ran with this strategy set.
    Filtered(StrategySet),
    /// The naive full scan ran (the last-resort fallback).
    NaiveScan,
}

/// Result of a resilient execution: answers, explicitly-uncertain
/// objects, the degradation report, and statistics.
#[derive(Debug)]
pub struct ResilientOutcome<'t, const D: usize, T> {
    /// Objects classified `Pr ≥ θ` (certified, or as the evaluator's
    /// estimate).
    pub answers: Vec<(&'t Vector<D>, &'t T)>,
    /// Objects the pipeline could not classify, each with its cause.
    pub uncertain: Vec<UncertainObject<'t, D, T>>,
    /// Every repair and fallback applied, in order.
    pub report: DegradationReport,
    /// Execution statistics (including the `uncertain` counter).
    pub stats: QueryStats,
    /// Which pipeline ultimately produced the answers.
    pub terminal: TerminalStrategy,
}

/// The hardened executor: admission, strategy fallback, a capped
/// Phase 3, and (behind the `fault-inject` feature) deterministic
/// fault injection.
///
/// ```
/// use gprq_core::resilience::{ResilientExecutor, TerminalStrategy};
/// use gprq_core::{Quadrature2dEvaluator, StrategySet};
/// use gprq_linalg::{Matrix, Vector};
/// use gprq_rtree::{RStarParams, RTree};
///
/// let points: Vec<(Vector<2>, u32)> = (0..400)
///     .map(|i| (Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]), i))
///     .collect();
/// let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
/// let mut exec = ResilientExecutor::new(StrategySet::ALL);
/// let mut eval = Quadrature2dEvaluator::default();
/// // θ = 0.7 would be a hard error for RR/OR; here it degrades to BF.
/// let outcome = exec
///     .execute(&tree, Vector::from([50.0, 50.0]), Matrix::identity().scale(30.0), 20.0, 0.7, &mut eval)
///     .unwrap();
/// assert!(outcome.report.is_degraded());
/// assert_eq!(outcome.terminal, TerminalStrategy::Filtered(StrategySet::BF));
/// ```
#[derive(Debug, Clone)]
pub struct ResilientExecutor<'c> {
    strategies: StrategySet,
    fringe_mode: FringeMode,
    max_candidates: usize,
    metrics: Option<&'c PipelineMetrics>,
    #[cfg(feature = "fault-inject")]
    faults: Option<FaultPlan>,
}

impl<'c> ResilientExecutor<'c> {
    /// Creates a resilient executor with no candidate cap.
    pub fn new(strategies: StrategySet) -> Self {
        ResilientExecutor {
            strategies,
            fringe_mode: FringeMode::PaperFaithful,
            max_candidates: usize::MAX,
            metrics: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Attaches a [`PipelineMetrics`] handle: phase spans, per-query
    /// counters, and the repair/fallback counters all record into it.
    pub fn with_metrics(mut self, metrics: &'c PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the fringe-filter mode (see [`FringeMode`]).
    pub fn with_fringe_mode(mut self, mode: FringeMode) -> Self {
        self.fringe_mode = mode;
        self
    }

    /// Caps Phase 3 at `max_candidates` evaluations per query; the
    /// candidates past it come back [`UncertainCause::NotEvaluated`],
    /// with a [`DegradationReason::BudgetExhausted`] entry.
    ///
    /// A cap of 0 is an exact dry run: the plan and Phases 1–2 run on
    /// the real index, the evaluator is asked for nothing
    /// (`stats.integrations == 0`), and every object Phase 3 would
    /// integrate comes back `NotEvaluated`, so `stats.uncertain` is the
    /// integration count of the plan this executor runs. That is
    /// `PrqExecutor`'s plan for the same set only when the report holds
    /// no entry but `BudgetExhausted` (no strategy switch, no repair).
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = max_candidates;
        self
    }

    /// Arms a deterministic fault plan; every subsequent execution
    /// consults it at each fault site.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    #[cfg(feature = "fault-inject")]
    fn fault_trips(&mut self, site: FaultSite) -> bool {
        match &mut self.faults {
            Some(plan) => plan.trip(site),
            None => false,
        }
    }

    /// Runs the full resilient pipeline on raw query parameters.
    ///
    /// Unlike [`PrqExecutor::execute`], this takes the raw `(q, Σ, δ,
    /// θ)` because admission may repair them before a [`PrqQuery`] can
    /// exist. Strategy preconditions never surface as errors — they
    /// degrade with a report entry; the only errors are unrepairable
    /// inputs. Runs over any [`Phase1Index`]; the naive fallback is a
    /// search of the whole index.
    ///
    /// # Errors
    ///
    /// Admission rejections only: [`PrqError::InvalidDelta`],
    /// [`PrqError::InvalidTheta`] (non-finite θ),
    /// [`PrqError::InvalidCenter`], [`PrqError::BadCovariance`].
    pub fn execute<'t, const D: usize, T, I, E>(
        &mut self,
        tree: &'t I,
        center: Vector<D>,
        covariance: Matrix<D>,
        delta: f64,
        theta: f64,
        evaluator: &mut E,
    ) -> Result<ResilientOutcome<'t, D, T>, PrqError>
    where
        I: Phase1Index<D, T>,
        E: ProbabilityEvaluator<D>,
    {
        let mut report = DegradationReport::new();

        // Fault: degrade Σ to a rank-1 (singular) matrix before
        // admission, forcing the ridge-repair path.
        #[cfg(feature = "fault-inject")]
        let covariance = if self.fault_trips(FaultSite::SigmaDegeneracy) {
            let fill = covariance.trace().abs().max(1.0) / D.max(1) as f64;
            Matrix::from_fn(|_, _| fill)
        } else {
            covariance
        };

        let query = admit(center, covariance, delta, theta, &mut report)?;

        // --- Preflight strategy fallback chain. ------------------------
        let mut strategies = self.strategies;
        // θ ≥ 1/2: the θ-region does not exist, so any set using RR or
        // OR degrades to BF-only (which works at any θ).
        if query.theta() >= 0.5 && (strategies.rr || strategies.or) {
            let from = strategies;
            strategies = StrategySet::BF;
            report.record(DegradationReason::StrategySwitched {
                from,
                to: strategies,
                cause: SwitchCause::ThetaAboveHalf(query.theta()),
            });
        }
        // OR-only (θ < 1/2 here): OR cannot produce a Phase-1 region;
        // pair it with RR. A fully-empty set has nothing to salvage and
        // goes straight to the naive scan.
        let mut naive_cause: Option<SwitchCause> = None;
        if strategies.validate().is_err() {
            if strategies.or {
                let from = strategies;
                strategies = StrategySet::RR_OR;
                report.record(DegradationReason::StrategySwitched {
                    from,
                    to: strategies,
                    cause: SwitchCause::NoPrimaryStrategy,
                });
            } else {
                naive_cause = Some(SwitchCause::NoPrimaryStrategy);
            }
        }

        // Fault: the index cannot complete a traversal — fall back to
        // the scan.
        #[cfg(feature = "fault-inject")]
        if naive_cause.is_none() && self.fault_trips(FaultSite::Phase1Traversal) {
            naive_cause = Some(SwitchCause::IndexUnavailable);
        }

        let mut exec = PrqExecutor::new(strategies).with_fringe_mode(self.fringe_mode);
        if let Some(metrics) = self.metrics {
            exec = exec.with_metrics(metrics);
        }
        let plan = match naive_cause {
            // Unreachable after preflight for today's strategies, but
            // resilience means catching tomorrow's failure modes too.
            None => exec.plan(&query).map_err(|_| SwitchCause::ExecutionFailed),
            Some(cause) => Err(cause),
        };
        let (plan, terminal) = match plan {
            Ok(plan) => (plan, TerminalStrategy::Filtered(strategies)),
            Err(cause) => {
                report.record(DegradationReason::NaiveFallback { cause });
                (PreparedQuery::full_scan(), TerminalStrategy::NaiveScan)
            }
        };

        let mut stage = Phase3::new(self.max_candidates, self.metrics);
        #[cfg(feature = "fault-inject")]
        {
            stage.faults = self.faults.as_mut();
        }
        let scratch = &mut QueryScratch::new();
        let outcome = exec.run(tree, &query, &plan, evaluator, scratch, &mut stage, None);
        let (mut capped, mut faulted) = (0, 0);
        for object in &outcome.uncertain {
            match object.cause {
                UncertainCause::NotEvaluated => capped += 1,
                UncertainCause::EvaluatorFault => faulted += 1,
                UncertainCause::IntervalStraddlesTheta => {}
            }
        }
        if capped > 0 {
            report.record(DegradationReason::BudgetExhausted { unresolved: capped });
        }
        if faulted > 0 {
            report.record(DegradationReason::EvaluatorFaults { objects: faulted });
        }
        if let Some(metrics) = self.metrics {
            metrics.record_report(&report);
        }

        Ok(ResilientOutcome {
            answers: outcome.answers,
            uncertain: outcome.uncertain,
            report,
            stats: outcome.stats,
            terminal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use gprq_gaussian::Gaussian;
    use gprq_rtree::{FlatRTree, RStarParams, RTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sigma_paper() -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
    }

    fn admit2(
        center: [f64; 2],
        sigma: Matrix<2>,
        delta: f64,
        theta: f64,
    ) -> (Result<PrqQuery<2>, PrqError>, DegradationReport) {
        let mut report = DegradationReport::new();
        let q = admit(Vector::from(center), sigma, delta, theta, &mut report);
        (q, report)
    }

    #[test]
    fn clean_query_admits_with_empty_report() {
        let (q, report) = admit2([500.0, 500.0], sigma_paper(), 25.0, 0.01);
        let q = q.unwrap();
        assert!(!report.is_degraded());
        assert_eq!(report.len(), 0);
        assert_eq!(q.theta(), 0.01);
        assert_eq!(q.gaussian().covariance(), &sigma_paper());
    }

    #[test]
    fn unrepairable_inputs_are_rejected() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let (q, report) = admit2([0.0, 0.0], sigma_paper(), bad, 0.1);
            assert!(matches!(q, Err(PrqError::InvalidDelta(_))), "δ = {bad}");
            assert!(report.is_empty());
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (q, _) = admit2([0.0, 0.0], sigma_paper(), 1.0, bad);
            assert!(matches!(q, Err(PrqError::InvalidTheta(_))), "θ = {bad}");
        }
        let (q, _) = admit2([1.0, f64::NAN], sigma_paper(), 1.0, 0.1);
        assert!(
            matches!(q, Err(PrqError::InvalidCenter { axis: 1, .. })),
            "{q:?}"
        );
        let nonfinite = Matrix::from_rows([[1.0, 0.0], [0.0, f64::INFINITY]]);
        let (q, _) = admit2([0.0, 0.0], nonfinite, 1.0, 0.1);
        assert!(matches!(
            q,
            Err(PrqError::BadCovariance(LinalgError::NonFinite))
        ));
    }

    #[test]
    fn theta_extremes_are_clamped_and_reported() {
        for (raw, expect) in [
            (0.0, THETA_FLOOR),
            (-5.0, THETA_FLOOR),
            (1.0, THETA_CEILING),
            (7.5, THETA_CEILING),
        ] {
            let (q, report) = admit2([0.0, 0.0], sigma_paper(), 1.0, raw);
            let q = q.unwrap();
            assert_eq!(q.theta(), expect, "θ = {raw}");
            assert_eq!(report.len(), 1);
            assert!(matches!(
                report.iter().next(),
                Some(DegradationReason::ThetaClamped { from, .. }) if *from == raw
            ));
        }
    }

    #[test]
    fn asymmetric_covariance_is_symmetrized() {
        // Asymmetry large enough to fail the 1e-9 relative check.
        let lopsided = Matrix::from_rows([[70.0, 40.0], [30.0, 30.0]]);
        let (q, report) = admit2([0.0, 0.0], lopsided, 1.0, 0.1);
        let q = q.unwrap();
        assert!(report
            .iter()
            .any(|r| matches!(r, DegradationReason::CovarianceSymmetrized { asymmetry } if (asymmetry - 10.0).abs() < 1e-12)));
        // The admitted covariance is the symmetric part.
        assert!((q.gaussian().covariance()[(0, 1)] - 35.0).abs() < 1e-12);
        assert!((q.gaussian().covariance()[(1, 0)] - 35.0).abs() < 1e-12);
    }

    #[test]
    fn singular_covariance_gets_a_ridge() {
        // Rank 1: [[4, 2], [2, 1]] has eigenvalues {5, 0}.
        let singular = Matrix::from_rows([[4.0, 2.0], [2.0, 1.0]]);
        let (q, report) = admit2([0.0, 0.0], singular, 1.0, 0.1);
        let q = q.unwrap();
        let ridge = report.iter().find_map(|r| match r {
            DegradationReason::CovarianceRegularized { ridge, .. } => Some(*ridge),
            _ => None,
        });
        let ridge = ridge.expect("ridge repair must be reported");
        assert!(ridge > 0.0);
        // The repaired matrix is the original plus the reported ridge.
        let cov = q.gaussian().covariance();
        assert!((cov[(0, 0)] - (4.0 + ridge)).abs() < 1e-9 * (4.0 + ridge));
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        // And it is genuinely well-conditioned now.
        let cond = cov.condition_number().unwrap();
        assert!(cond <= MAX_CONDITION);
    }

    #[test]
    fn indefinite_covariance_is_repaired_or_rejected_never_panics() {
        // λ = {3, −1}: needs a ridge > 1 to become PD.
        let indefinite = Matrix::from_rows([[1.0, 2.0], [2.0, 1.0]]);
        let (q, report) = admit2([0.0, 0.0], indefinite, 1.0, 0.1);
        let q = q.unwrap();
        assert!(report
            .iter()
            .any(|r| matches!(r, DegradationReason::CovarianceRegularized { .. })));
        assert!(q.gaussian().covariance().cholesky().is_ok());
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

    fn oracle() -> Quadrature2dEvaluator {
        Quadrature2dEvaluator::default()
    }

    #[test]
    fn resilient_matches_plain_executor_on_clean_input() {
        let tree = random_tree(3_000, 5);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma_paper(), 25.0, 0.01).unwrap();
        let mut plain_eval = Quadrature2dEvaluator::default();
        let plain = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut plain_eval)
            .unwrap();
        let mut res = ResilientExecutor::new(StrategySet::ALL);
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        assert!(!outcome.report.is_degraded(), "{}", outcome.report);
        assert!(outcome.uncertain.is_empty());
        assert_eq!(
            outcome.terminal,
            TerminalStrategy::Filtered(StrategySet::ALL)
        );
        let mut a: Vec<usize> = plain.answers.iter().map(|(_, d)| **d).collect();
        let mut b: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(
            outcome.stats.phase1_candidates,
            plain.stats.phase1_candidates
        );
    }

    #[test]
    fn empty_strategy_set_falls_back_to_naive_scan() {
        let tree = random_tree(400, 9);
        let none = StrategySet {
            rr: false,
            or: false,
            bf: false,
        };
        let mut res = ResilientExecutor::new(none);
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut oracle(),
            )
            .unwrap();
        assert_eq!(outcome.terminal, TerminalStrategy::NaiveScan);
        assert!(outcome.report.iter().any(|r| matches!(
            r,
            DegradationReason::NaiveFallback {
                cause: SwitchCause::NoPrimaryStrategy
            }
        )));
        // The scan still produces the true answer set.
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma_paper(), 25.0, 0.01).unwrap();
        let mut quad = Quadrature2dEvaluator::default();
        let naive = crate::executor::execute_naive(&tree, &query, &mut quad);
        let mut a: Vec<usize> = naive.answers.iter().map(|(_, d)| **d).collect();
        let mut b: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(outcome.stats.phase1_candidates, tree.len());
    }

    /// Runs the paper query on `index` with Phase 3 capped at `cap`, and
    /// counts the probabilities the evaluator is asked for.
    fn run_capped<I: Phase1Index<2, usize>>(
        index: &I,
        cap: usize,
    ) -> (ResilientOutcome<'_, 2, usize>, usize) {
        struct Counting(usize);
        impl ProbabilityEvaluator<2> for Counting {
            fn probability(&mut self, g: &Gaussian<2>, o: &Vector<2>, delta: f64) -> f64 {
                self.0 += 1;
                oracle().probability(g, o, delta)
            }
        }
        let mut eval = Counting(0);
        let outcome = ResilientExecutor::new(StrategySet::ALL)
            .with_max_candidates(cap)
            .execute(
                index,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut eval,
            )
            .unwrap();
        (outcome, eval.0)
    }

    /// Caps 3 and 0 against the uncapped run. Cap 0 is the exact dry
    /// run: nothing is evaluated and every object Phase 3 would
    /// integrate is reported.
    fn assert_cap_reports_the_tail<I: Phase1Index<2, usize>>(index: &I) {
        let full = run_capped(index, usize::MAX).0.stats.integrations;
        assert!(full > 3);
        for cap in [3, 0] {
            let (outcome, asked) = run_capped(index, cap);
            let s = outcome.stats;
            assert_eq!((s.integrations, asked, s.uncertain), (cap, cap, full - cap));
            let capped: Vec<usize> = outcome
                .report
                .iter()
                .filter_map(|r| match r {
                    DegradationReason::BudgetExhausted { unresolved } => Some(*unresolved),
                    _ => None,
                })
                .collect();
            assert_eq!(capped, [s.uncertain]);
            assert!(outcome
                .uncertain
                .iter()
                .all(|u| u.cause == UncertainCause::NotEvaluated));
            // Accounting: every Phase-1 survivor is answered, rejected, or
            // explicitly uncertain.
            assert_eq!(
                s.phase1_candidates,
                s.pruned_by_fringe
                    + s.pruned_by_or
                    + s.pruned_by_bf
                    + s.accepted_without_integration
                    + s.integrations
                    + s.uncertain
            );
        }
    }

    #[test]
    fn candidate_cap_reports_the_tail_as_uncertain() {
        let tree = random_tree(3_000, 17);
        assert_cap_reports_the_tail(&tree);
        assert_cap_reports_the_tail(&FlatRTree::freeze(tree));
    }

    #[test]
    fn fixed_cloud_evaluator_runs_under_a_candidate_cap() {
        use crate::evaluator::MonteCarloEvaluator;
        let tree = random_tree(3_000, 19);
        // RR alone never sure-accepts, so every Phase-2 survivor needs
        // integration: the first draws the cloud, the rest are cut off.
        let mut res = ResilientExecutor::new(StrategySet::RR).with_max_candidates(1);
        let mut eval = MonteCarloEvaluator::new(20_000, 8);
        let outcome = res
            .execute(
                &tree,
                Vector::from([500.0, 500.0]),
                sigma_paper(),
                25.0,
                0.01,
                &mut eval,
            )
            .unwrap();
        assert_eq!(outcome.stats.integrations, 1);
        assert_eq!(
            (outcome.stats.cloud_builds, outcome.stats.phase3_samples),
            (1, 20_000),
            "one cloud drawn"
        );
        let tail = outcome.uncertain.len();
        assert!(tail > 0, "{:?}", outcome.stats);
        assert!(outcome
            .uncertain
            .iter()
            .all(|u| u.cause == UncertainCause::NotEvaluated && u.estimate.is_none()));
        assert!(outcome.report.iter().any(|r| matches!(
            r,
            DegradationReason::BudgetExhausted { unresolved } if *unresolved == tail
        )));
    }

    #[test]
    fn report_display_is_readable() {
        let mut report = DegradationReport::new();
        assert_eq!(report.to_string(), "no degradation");
        report.record(DegradationReason::ThetaClamped {
            from: 0.0,
            to: 1e-9,
        });
        report.record(DegradationReason::StrategySwitched {
            from: StrategySet::ALL,
            to: StrategySet::BF,
            cause: SwitchCause::ThetaAboveHalf(0.6),
        });
        let s = report.to_string();
        assert!(s.contains("θ clamped"), "{s}");
        assert!(s.contains("ALL → BF"), "{s}");
    }
}
