//! Query explanation — an `EXPLAIN` for probabilistic range queries.
//!
//! [`explain`] renders the plan [`PrqExecutor`] runs for a query and a
//! strategy set — θ-region radius and box, oblique half-widths, BF
//! radii — without touching an index. It reads them from the
//! executor's own planning step, so it fails exactly where execution
//! fails, and it records no metrics span. Intended for interactive
//! debugging.
//!
//! A plan's cost is the number of candidates Phase 3 integrates, and
//! the pipeline counts it exactly on the real index: a
//! [`ResilientExecutor`](crate::resilience::ResilientExecutor) capped
//! with [`with_max_candidates(0)`] runs its plan and Phases 1–2 only,
//! and reports every object Phase 3 would integrate as uncertain, so
//! its `stats.uncertain` is that plan's integration count. It is the
//! count of the plan `explain` renders only when the dry run's report
//! holds no entry but `BudgetExhausted`: the resilient executor runs a
//! different plan after a `StrategySwitched` fallback (RR or OR at
//! θ ≥ ½ becomes BF, OR alone becomes RR+OR) or an admission repair
//! of Σ.
//!
//! [`with_max_candidates(0)`]: crate::resilience::ResilientExecutor::with_max_candidates

use crate::error::PrqError;
use crate::executor::PrqExecutor;
use crate::metrics::PipelineMetrics;
use crate::query::PrqQuery;
use crate::strategy::bf::RejectBound;
use crate::strategy::or::OrFilter;
use crate::strategy::StrategySet;
use gprq_obs::MetricsSnapshot;
use std::fmt;

/// The execution plan of a query, as the executor derives it.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Which strategies the plan composes.
    pub strategies: StrategySet,
    /// `r_θ` (normalized θ-region radius); `None` when RR/OR are absent.
    pub r_theta: Option<f64>,
    /// θ-region bounding-box half-widths per axis.
    pub theta_box_half_widths: Option<Vec<f64>>,
    /// Oblique-box half-widths in the eigenbasis (OR).
    pub oblique_half_widths: Option<Vec<f64>>,
    /// BF reject radius `α∥`; `None` when BF is absent, `Some(None)`
    /// flattened to `RejectAll` via [`QueryPlan::provably_empty`].
    pub alpha_reject: Option<f64>,
    /// BF accept radius `α⊥` (absent in the no-hole regime).
    pub alpha_accept: Option<f64>,
    /// `true` when BF proves the whole answer set empty.
    pub provably_empty: bool,
    /// Observed runtime metrics, when the plan was derived from a live
    /// [`PipelineMetrics`] via [`explain_with_metrics`]. Lets the plan
    /// printout show its radii beside the *measured* counters.
    pub metrics: Option<MetricsSnapshot>,
}

/// Renders the plan that `PrqExecutor::new(strategies)` runs for `query`.
///
/// # Errors
///
/// Exactly those of [`PrqExecutor::execute`]:
/// [`PrqError::NoPrimaryStrategy`] for an OR-only set, and
/// [`PrqError::ThetaRegionUndefined`] when RR or OR is enabled with
/// `θ ≥ 1/2`.
pub fn explain<const D: usize>(
    query: &PrqQuery<D>,
    strategies: StrategySet,
) -> Result<QueryPlan, PrqError> {
    let plan = PrqExecutor::new(strategies).plan(query)?;
    let region = plan.region();
    let (alpha_reject, alpha_accept, provably_empty) = match plan.bf_bounds() {
        Some(bounds) => match bounds.reject {
            RejectBound::Radius(r) => (Some(r), bounds.accept, false),
            RejectBound::RejectAll => (None, None, true),
        },
        None => (None, None, false),
    };
    Ok(QueryPlan {
        strategies,
        r_theta: region.map(|r| r.r_theta()),
        theta_box_half_widths: region.map(|r| r.box_half_widths().as_slice().to_vec()),
        oblique_half_widths: region
            .filter(|_| strategies.or)
            .map(|r| OrFilter::new(query, r).half_widths().as_slice().to_vec()),
        alpha_reject,
        alpha_accept,
        provably_empty,
        metrics: None,
    })
}

/// [`explain`] augmented with a snapshot of observed pipeline metrics,
/// so the rendered plan shows its radii beside measured counters.
/// Explaining records nothing into `metrics`.
///
/// # Errors
///
/// Exactly those of [`explain`].
pub fn explain_with_metrics<const D: usize>(
    query: &PrqQuery<D>,
    strategies: StrategySet,
    metrics: &PipelineMetrics,
) -> Result<QueryPlan, PrqError> {
    let mut plan = explain(query, strategies)?;
    plan.metrics = Some(metrics.snapshot());
    Ok(plan)
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: strategies = {}", self.strategies.name())?;
        if self.provably_empty {
            writeln!(f, "  answer set is provably empty (BF reject-all)")?;
        }
        if let Some(r) = self.r_theta {
            writeln!(f, "  θ-region radius r_θ = {r:.4}")?;
        }
        if let Some(w) = &self.theta_box_half_widths {
            writeln!(f, "  θ-box half-widths  = {w:.2?}")?;
        }
        if let Some(w) = &self.oblique_half_widths {
            writeln!(f, "  oblique half-widths = {w:.2?}")?;
        }
        if let Some(a) = self.alpha_reject {
            match self.alpha_accept {
                Some(b) => writeln!(f, "  BF radii: reject α∥ = {a:.2}, accept α⊥ = {b:.2}")?,
                None => writeln!(f, "  BF radii: reject α∥ = {a:.2}, no accept hole")?,
            }
        }
        if let Some(snap) = &self.metrics {
            writeln!(f, "  observed metrics:")?;
            for line in snap.to_string().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::bf::BfBounds;
    use crate::theta_region::ThetaRegion;
    use gprq_linalg::{Matrix, Vector};
    use gprq_workloads::eq34_covariance;

    fn query(gamma: f64, delta: f64, theta: f64) -> PrqQuery<2> {
        PrqQuery::new(Vector::ZERO, eq34_covariance(gamma), delta, theta).unwrap()
    }

    #[test]
    fn full_plan_has_all_components() {
        let plan = explain(&query(10.0, 25.0, 0.01), StrategySet::ALL).unwrap();
        assert!(plan.r_theta.is_some());
        assert!(plan.theta_box_half_widths.is_some());
        assert!(plan.oblique_half_widths.is_some());
        assert!(plan.alpha_reject.is_some());
        assert!(plan.alpha_accept.is_some());
        assert!(!plan.provably_empty);
        // Display renders every section.
        let text = plan.to_string();
        assert!(text.contains("r_θ"));
        assert!(text.contains("BF radii"));
    }

    #[test]
    fn bf_only_plan_omits_regions() {
        // The executor runs BF alone past θ = ½ as well.
        for theta in [0.01, 0.6] {
            let q = query(10.0, 25.0, theta);
            let plan = explain(&q, StrategySet::BF).unwrap();
            assert!(plan.r_theta.is_none());
            assert!(plan.theta_box_half_widths.is_none());
            assert!(plan.oblique_half_widths.is_none());
            assert!(plan.alpha_reject.is_some());
            let bounds = BfBounds::exact(&q);
            let reject = plan.alpha_reject.map(RejectBound::Radius);
            assert_eq!(
                (reject, plan.alpha_accept),
                (Some(bounds.reject), bounds.accept)
            );
        }
    }

    #[test]
    fn provably_empty_plan() {
        // δ far too small for θ = 0.49.
        let q = query(10.0, 0.5, 0.49);
        let plan = explain(&q, StrategySet::BF).unwrap();
        assert!(plan.provably_empty);
        assert!(plan.to_string().contains("provably empty"));
        // An empty plan still renders the observed section.
        let plan = explain_with_metrics(&q, StrategySet::BF, &PipelineMetrics::new()).unwrap();
        assert!(plan.to_string().contains("observed metrics"));
    }

    #[test]
    fn plan_with_metrics_renders_observed_section() {
        use crate::metrics::names;
        let metrics = PipelineMetrics::new();
        metrics.registry().counter(names::QUERIES).add(7);
        let plan =
            explain_with_metrics(&query(10.0, 25.0, 0.01), StrategySet::ALL, &metrics).unwrap();
        let snap = plan.metrics.as_ref().unwrap();
        assert_eq!(snap.counter(names::QUERIES), Some(7));
        // Explaining plans without recording a span.
        for snap in [snap, &metrics.snapshot()] {
            assert_eq!(
                snap.histogram(names::PLAN_DURATION_NS).map(|h| h.count),
                Some(0)
            );
        }
        let text = plan.to_string();
        assert!(text.contains("observed metrics"), "{text}");
        assert!(text.contains("prq_queries_total = 7"), "{text}");
        // The plain `explain` path carries no snapshot and no section.
        let bare = explain(&query(10.0, 25.0, 0.01), StrategySet::ALL).unwrap();
        assert!(bare.metrics.is_none());
        assert!(!bare.to_string().contains("observed metrics"));
    }

    #[test]
    fn invalid_strategy_set_rejected() {
        let or_only = StrategySet {
            rr: false,
            or: true,
            bf: false,
        };
        assert!(explain(&query(10.0, 25.0, 0.01), or_only).is_err());
        // Past θ = ½ every set with RR or OR fails, as its execution does.
        let q = query(10.0, 25.0, 0.6);
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            if set.rr || set.or {
                let err = explain(&q, set).unwrap_err();
                assert_eq!(err, PrqError::ThetaRegionUndefined(0.6), "{name}");
            }
        }
    }

    /// `explain`'s plan for every paper combination equals the one built
    /// from the derivations themselves. `{:?}` prints each `f64` as the
    /// shortest string that parses back to it, so equal text is equal bits.
    fn assert_one_derivation<const D: usize>(q: &PrqQuery<D>) {
        let region = ThetaRegion::for_query(q).unwrap();
        let oblique = OrFilter::new(q, &region).half_widths().as_slice().to_vec();
        let bounds = BfBounds::exact(q);
        let reject = match bounds.reject {
            RejectBound::Radius(r) => Some(r),
            RejectBound::RejectAll => None,
        };
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            let uses_region = set.rr || set.or;
            let expected = QueryPlan {
                strategies: set,
                r_theta: uses_region.then(|| region.r_theta()),
                theta_box_half_widths: uses_region
                    .then(|| region.box_half_widths().as_slice().to_vec()),
                oblique_half_widths: set.or.then(|| oblique.clone()),
                alpha_reject: reject.filter(|_| set.bf),
                alpha_accept: reject.and(bounds.accept).filter(|_| set.bf),
                provably_empty: set.bf && reject.is_none(),
                metrics: None,
            };
            let plan = explain(q, set).unwrap();
            assert_eq!(format!("{plan:?}"), format!("{expected:?}"), "{name}");
        }
    }

    #[test]
    fn plan_radii_are_the_executors_derivations() {
        for gamma in [1.0, 10.0, 100.0] {
            assert_one_derivation(&query(gamma, 25.0, 0.01));
        }
        // A tilted, non-isotropic 9-D Σ: OR's box differs from RR's.
        let sigma = Matrix::<9>::from_fn(|i, j| if i == j { 0.01 * (1 + i) as f64 } else { 0.003 });
        assert_one_derivation(&PrqQuery::new(Vector::splat(0.5), sigma, 0.7, 0.4).unwrap());
    }
}
