//! Error types for query construction and execution.

use gprq_linalg::LinalgError;
use std::fmt;

/// Errors surfaced while building or running a probabilistic range query.
#[derive(Debug, Clone, PartialEq)]
pub enum PrqError {
    /// The probability threshold must satisfy `0 < θ < 1` (paper
    /// Definition 2: with `θ = 0` every object qualifies because the
    /// Gaussian has infinite spread; with `θ = 1` none can).
    InvalidTheta(f64),
    /// The distance threshold must satisfy `δ > 0` and be finite.
    InvalidDelta(f64),
    /// The query center contained a NaN or infinite coordinate. No
    /// repair is possible: there is no principled finite location to
    /// substitute, so admission rejects instead of degrading.
    InvalidCenter {
        /// Index of the first non-finite coordinate.
        axis: usize,
        /// The offending coordinate value.
        value: f64,
    },
    /// The θ-region (paper Definition 3) is only defined for `θ < 1/2`;
    /// the RR and OR strategies cannot run above that. (BF still can.)
    ThetaRegionUndefined(f64),
    /// A strategy set must include at least one region-producing strategy
    /// (RR or BF); OR is a pure Phase-2 filter (paper §V-A: "OR is only
    /// useful as a filtering method").
    NoPrimaryStrategy,
    /// A Monte-Carlo sample budget of zero was requested: no estimator
    /// can produce a probability from zero draws, and silently returning
    /// 0.0 would masquerade as a confident rejection.
    InvalidSampleBudget,
    /// The covariance matrix was rejected by the linear-algebra layer.
    BadCovariance(LinalgError),
}

impl fmt::Display for PrqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrqError::InvalidTheta(t) => {
                write!(f, "probability threshold must satisfy 0 < θ < 1, got {t}")
            }
            PrqError::InvalidDelta(d) => {
                write!(f, "distance threshold must be positive and finite, got {d}")
            }
            PrqError::InvalidCenter { axis, value } => write!(
                f,
                "query center must be finite, got {value} at coordinate {axis}"
            ),
            PrqError::ThetaRegionUndefined(t) => write!(
                f,
                "θ-region requires θ < 1/2 (got θ = {t}); use a BF-only strategy set"
            ),
            PrqError::NoPrimaryStrategy => {
                write!(
                    f,
                    "strategy set needs RR or BF; OR alone cannot produce a search region"
                )
            }
            PrqError::InvalidSampleBudget => {
                write!(f, "Monte-Carlo sample budget must be positive")
            }
            PrqError::BadCovariance(e) => write!(f, "invalid covariance matrix: {e}"),
        }
    }
}

impl std::error::Error for PrqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrqError::BadCovariance(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for PrqError {
    fn from(e: LinalgError) -> Self {
        PrqError::BadCovariance(e)
    }
}

impl From<gprq_gaussian::InvalidSampleBudget> for PrqError {
    fn from(_: gprq_gaussian::InvalidSampleBudget) -> Self {
        PrqError::InvalidSampleBudget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PrqError::InvalidTheta(1.5)
            .to_string()
            .contains("0 < θ < 1"));
        assert!(PrqError::InvalidDelta(-2.0)
            .to_string()
            .contains("positive"));
        assert!(PrqError::ThetaRegionUndefined(0.6)
            .to_string()
            .contains("1/2"));
        assert!(PrqError::NoPrimaryStrategy.to_string().contains("RR or BF"));
        assert!(PrqError::InvalidSampleBudget
            .to_string()
            .contains("positive"));
    }

    #[test]
    fn wraps_gaussian_budget_errors() {
        let e: PrqError = gprq_gaussian::InvalidSampleBudget.into();
        assert_eq!(e, PrqError::InvalidSampleBudget);
    }

    #[test]
    fn wraps_linalg_errors() {
        let e: PrqError = LinalgError::NonFinite.into();
        assert!(matches!(e, PrqError::BadCovariance(_)));
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_some());
    }
}
