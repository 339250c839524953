//! The probabilistic range query type.

use crate::error::PrqError;
use gprq_gaussian::Gaussian;
use gprq_linalg::{Matrix, Vector};

/// A probabilistic range query `PRQ(q, δ, θ)` (paper Definition 2).
///
/// The query object's location is the Gaussian random vector
/// `x ~ N(q, Σ)`; the query returns every database object `o` with
///
/// ```text
/// Pr(‖x − o‖² ≤ δ²) ≥ θ
/// ```
///
/// ```
/// use gprq_core::PrqQuery;
/// use gprq_linalg::{Matrix, Vector};
///
/// let q = PrqQuery::<2>::new(
///     Vector::from([500.0, 500.0]),
///     Matrix::identity().scale(10.0),
///     25.0,
///     0.01,
/// ).unwrap();
/// assert_eq!(q.delta(), 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct PrqQuery<const D: usize> {
    gaussian: Gaussian<D>,
    delta: f64,
    theta: f64,
}

/// The single authoritative `(δ, θ)` validation, shared by both query
/// constructors (monitoring sessions and the resilient admission stage
/// build through them) so NaN/∞ inputs cannot slip through one path
/// while being rejected by another.
///
/// # Errors
///
/// * [`PrqError::InvalidDelta`] unless `δ > 0` and finite (NaN and ±∞
///   both fail the comparison chain and are rejected),
/// * [`PrqError::InvalidTheta`] unless `0 < θ < 1` (NaN fails both
///   comparisons and is rejected).
fn validate_thresholds(delta: f64, theta: f64) -> Result<(), PrqError> {
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(PrqError::InvalidDelta(delta));
    }
    if !(theta > 0.0 && theta < 1.0) {
        return Err(PrqError::InvalidTheta(theta));
    }
    Ok(())
}

impl<const D: usize> PrqQuery<D> {
    /// Builds a query, validating all parameters.
    ///
    /// # Errors
    ///
    /// * [`PrqError::InvalidDelta`] unless `δ > 0` and finite,
    /// * [`PrqError::InvalidTheta`] unless `0 < θ < 1`,
    /// * [`PrqError::BadCovariance`] if `Σ` is not symmetric
    ///   positive-definite.
    pub fn new(
        center: Vector<D>,
        covariance: Matrix<D>,
        delta: f64,
        theta: f64,
    ) -> Result<Self, PrqError> {
        validate_thresholds(delta, theta)?;
        let gaussian = Gaussian::new(center, covariance)?;
        Ok(PrqQuery {
            gaussian,
            delta,
            theta,
        })
    }

    /// Builds a query from an existing [`Gaussian`].
    ///
    /// # Errors
    ///
    /// Returns [`PrqError::InvalidDelta`] when `δ` is not positive and
    /// finite, and [`PrqError::InvalidTheta`] when `θ ∉ (0, 1)`.
    pub fn from_gaussian(gaussian: Gaussian<D>, delta: f64, theta: f64) -> Result<Self, PrqError> {
        validate_thresholds(delta, theta)?;
        Ok(PrqQuery {
            gaussian,
            delta,
            theta,
        })
    }

    /// The query object's location distribution.
    pub fn gaussian(&self) -> &Gaussian<D> {
        &self.gaussian
    }

    /// The query center `q` (mean of the distribution).
    pub fn center(&self) -> &Vector<D> {
        self.gaussian.mean()
    }

    /// The distance threshold `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The probability threshold `θ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Dimensionality of the query space.
    pub const fn dim(&self) -> usize {
        D
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
    }

    #[test]
    fn valid_query_builds() {
        let q = PrqQuery::new(Vector::from([1.0, 2.0]), sigma(), 25.0, 0.01).unwrap();
        assert_eq!(q.center().as_slice(), &[1.0, 2.0]);
        assert_eq!(q.delta(), 25.0);
        assert_eq!(q.theta(), 0.01);
        assert_eq!(q.dim(), 2);
    }

    #[test]
    fn rejects_bad_delta() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = PrqQuery::new(Vector::<2>::ZERO, sigma(), bad, 0.1).unwrap_err();
            assert!(matches!(e, PrqError::InvalidDelta(_)), "delta = {bad}");
        }
    }

    #[test]
    fn rejects_bad_theta() {
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let e = PrqQuery::new(Vector::<2>::ZERO, sigma(), 1.0, bad).unwrap_err();
            assert!(matches!(e, PrqError::InvalidTheta(_)), "theta = {bad}");
        }
    }

    #[test]
    fn rejects_bad_covariance() {
        let not_spd = Matrix::from_rows([[1.0, 2.0], [2.0, 1.0]]);
        let e = PrqQuery::new(Vector::<2>::ZERO, not_spd, 1.0, 0.1).unwrap_err();
        assert!(matches!(e, PrqError::BadCovariance(_)));
    }

    #[test]
    fn from_gaussian_validates_thresholds() {
        let g = Gaussian::<2>::standard();
        assert!(PrqQuery::from_gaussian(g.clone(), 1.0, 0.5).is_ok());
        assert!(PrqQuery::from_gaussian(g.clone(), -1.0, 0.5).is_err());
        assert!(PrqQuery::from_gaussian(g, 1.0, 0.0).is_err());
    }

    #[test]
    fn from_gaussian_rejects_non_finite_thresholds() {
        // Regression: NaN θ and NaN/∞ δ must be rejected on *every*
        // construction path, not only `PrqQuery::new`.
        let g = Gaussian::<2>::standard();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = PrqQuery::from_gaussian(g.clone(), bad, 0.1).unwrap_err();
            assert!(matches!(e, PrqError::InvalidDelta(_)), "delta = {bad}");
        }
        let e = PrqQuery::from_gaussian(g.clone(), 1.0, f64::NAN).unwrap_err();
        assert!(matches!(e, PrqError::InvalidTheta(_)));
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let e = PrqQuery::from_gaussian(g.clone(), 1.0, bad).unwrap_err();
            assert!(matches!(e, PrqError::InvalidTheta(_)), "theta = {bad}");
        }
    }
}
