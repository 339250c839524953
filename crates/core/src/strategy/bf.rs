//! Bounding-Function-Based strategy (paper §IV-C, Algorithm 2).
//!
//! The density `p_q` is sandwiched between two spherically symmetric
//! functions built from the extreme eigenvalues of `Σ⁻¹` (Definition 6,
//! Property 4):
//!
//! ```text
//! p⊥(x) ≤ p_q(x) ≤ p∥(x),   p∥ from λ∥ = min λᵢ(Σ⁻¹),  p⊥ from λ⊥ = max.
//! ```
//!
//! Integrating the bounds over the query ball yields two radii
//! (Property 5, Fig. 11):
//!
//! * `α∥` — **reject** radius: an object farther than `α∥` from `q`
//!   cannot reach probability `θ` even under the upper bound;
//! * `α⊥` — **accept** radius: an object closer than `α⊥` reaches `θ`
//!   even under the lower bound, so it joins the answer set *without
//!   numerical integration*.
//!
//! Each radius reduces (Eqs. 28–31) to the off-center ball probability of
//! the standard Gaussian, which `gprq_gaussian::noncentral` inverts
//! exactly per query (the paper tabulates it instead, with the
//! conservative lookup rules of Eqs. 32–33).
//!
//! In medium dimensions the accept radius often does not exist: when
//! `(λ⊥)^{d/2}|Σ|^{1/2}·θ ≥ 1` (paper Eq. 37) the lower bound cannot
//! reach `θ` anywhere — the "no internal hole" regime of Fig. 9 that the
//! 9-D experiment (§VI-B) discusses. Symmetrically, when even a centered
//! ball cannot reach `θ` under the *upper* bound, **no object can
//! qualify** and the query answer is provably empty.

use crate::query::PrqQuery;
use gprq_gaussian::noncentral::inverse_center_distance;
use gprq_linalg::Vector;
use gprq_rtree::Rect;

/// The BF reject bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectBound {
    /// Objects farther than this from `q` are pruned.
    Radius(f64),
    /// Even the upper bounding function cannot reach `θ` anywhere: the
    /// query answer is empty, no search needed.
    RejectAll,
}

/// The BF bounds for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfBounds<const D: usize> {
    center: Vector<D>,
    /// `α∥` (paper Eq. 28).
    pub reject: RejectBound,
    /// `α⊥` (paper Eq. 31); `None` in the no-hole regime of Eq. 37.
    pub accept: Option<f64>,
}

impl<const D: usize> BfBounds<D> {
    /// Computes the bounds exactly (the paper's own experiments do this:
    /// §V-A "we computed accurate β∥ and β⊥ values for BF … instead of
    /// approximate values").
    ///
    /// Each radius is `β/√λ` for the `β` that solves
    /// `ball_probability(D, β, √λ·δ) = λ^{d/2}|Σ|^{1/2}·θ` (Eqs. 28–31),
    /// with the target formed in log space:
    ///
    /// * Reject (upper bound `p∥`, `λ∥ = min λᵢ(Σ⁻¹)`): the target is at
    ///   most `θ < 1` (Eq. 29). When it underflows to 0, no finite radius
    ///   keeps the upper bound below θ, so BF rejects nothing
    ///   (`RejectBound::Radius(∞)`), and Phase 1 searches the
    ///   everything-rectangle. When even `β = 0` misses it, nothing
    ///   qualifies (`RejectBound::RejectAll`).
    /// * Accept (lower bound `p⊥`, `λ⊥ = max λᵢ(Σ⁻¹)`): `None` when the
    ///   target is `≥ 1`, the no-hole regime of Eq. 37, or when even
    ///   `β = 0` misses it. This target is at least θ, so it never
    ///   underflows.
    pub fn exact(query: &PrqQuery<D>) -> Self {
        let g = query.gaussian();
        let d = D as f64;
        let delta = query.delta();
        let ln_theta = query.theta().ln();
        let ln_det = g.log_det_covariance();
        let radius = |lambda: f64, target: f64| {
            let sqrt_lambda = lambda.sqrt();
            inverse_center_distance(D, sqrt_lambda * delta, target).map(|beta| beta / sqrt_lambda)
        };

        let lambda_par = g.lambda_parallel();
        let scaled_par = (0.5 * d * lambda_par.ln() + 0.5 * ln_det + ln_theta).exp();
        let reject = if scaled_par > 0.0 {
            radius(lambda_par, scaled_par.min(1.0 - 1e-15))
                .map_or(RejectBound::RejectAll, RejectBound::Radius)
        } else {
            RejectBound::Radius(f64::INFINITY)
        };

        let lambda_perp = g.lambda_perp();
        let ln_scaled_perp = 0.5 * d * lambda_perp.ln() + 0.5 * ln_det + ln_theta;
        let accept = if ln_scaled_perp < 0.0 {
            radius(lambda_perp, ln_scaled_perp.exp())
        } else {
            None
        };
        BfBounds {
            center: *query.center(),
            reject,
            accept,
        }
    }

    /// The Phase-1 search rectangle of Algorithm 2 (line 6): the box
    /// `[qᵢ − α∥, qᵢ + α∥]` per axis. `None` when the answer is provably
    /// empty.
    pub fn search_rect(&self) -> Option<Rect<D>> {
        match self.reject {
            RejectBound::Radius(alpha) => Some(Rect::centered(&self.center, &Vector::splat(alpha))),
            RejectBound::RejectAll => None,
        }
    }

    /// Phase-2 classification of a candidate by its distance to `q`.
    // HOT-PATH: BF annulus classification (Phase 2 inner loop)
    pub fn classify(&self, p: &Vector<D>) -> BfClass {
        let dist = p.distance(&self.center);
        match self.reject {
            RejectBound::RejectAll => BfClass::Reject,
            RejectBound::Radius(alpha_par) => {
                if dist > alpha_par {
                    BfClass::Reject
                } else if let Some(alpha_perp) = self.accept {
                    if dist <= alpha_perp {
                        BfClass::Accept
                    } else {
                        BfClass::NeedsIntegration
                    }
                } else {
                    BfClass::NeedsIntegration
                }
            }
        }
    }
}

/// What BF decides about one candidate (paper Fig. 12: object `a` is
/// accepted outright, `b`/`c` need integration, everything outside `α∥`
/// is rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfClass {
    /// Surely qualifies (within `α⊥`) — added to the answer set with no
    /// integration.
    Accept,
    /// Surely does not qualify (beyond `α∥`).
    Reject,
    /// In the annulus: numerical integration required.
    NeedsIntegration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_gaussian::integrate::quadrature_probability_2d;
    use gprq_gaussian::noncentral::isotropic_qualification_probability;
    use gprq_linalg::Matrix;

    fn paper_query(gamma: f64, delta: f64, theta: f64) -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, delta, theta).unwrap()
    }

    #[test]
    fn reject_radius_is_safe_and_tight() {
        // Numerically verify Fig. 11's semantics against the 2-D
        // quadrature oracle: just beyond α∥ the true probability is < θ;
        // α∥ is tight for the *bounding function*, not the true density,
        // so we only check safety plus rough scale.
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha) = b.reject else {
            panic!("expected a radius")
        };
        assert!(alpha > q.delta(), "α∥ = {alpha} should exceed δ");
        let g = q.gaussian();
        for k in 0..8 {
            let angle = k as f64 / 8.0 * std::f64::consts::TAU;
            let p = *q.center() + Vector::from([angle.cos(), angle.sin()]) * (alpha * 1.001);
            let prob = quadrature_probability_2d(g, &p, q.delta(), 48, 96);
            assert!(prob < q.theta(), "beyond α∥ at {angle}: prob {prob}");
        }
    }

    #[test]
    fn accept_radius_is_safe() {
        // Within α⊥ every object truly qualifies.
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let alpha = b.accept.expect("2-D paper setup has a hole");
        assert!(alpha > 0.0);
        let g = q.gaussian();
        for k in 0..8 {
            let angle = k as f64 / 8.0 * std::f64::consts::TAU;
            let p = *q.center() + Vector::from([angle.cos(), angle.sin()]) * (alpha * 0.999);
            let prob = quadrature_probability_2d(g, &p, q.delta(), 48, 96);
            assert!(prob >= q.theta(), "inside α⊥ at {angle}: prob {prob} < θ");
        }
    }

    #[test]
    fn annulus_ordering() {
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha_par) = b.reject else {
            panic!()
        };
        let alpha_perp = b.accept.unwrap();
        assert!(
            alpha_perp < alpha_par,
            "accept radius {alpha_perp} must sit inside reject radius {alpha_par}"
        );
    }

    #[test]
    fn classification_matches_radii() {
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha_par) = b.reject else {
            panic!()
        };
        let alpha_perp = b.accept.unwrap();
        let dir = Vector::from([1.0, 0.0]);
        assert_eq!(b.classify(q.center()), BfClass::Accept);
        assert_eq!(
            b.classify(&(*q.center() + dir * (alpha_perp * 0.9))),
            BfClass::Accept
        );
        assert_eq!(
            b.classify(&(*q.center() + dir * (0.5 * (alpha_perp + alpha_par)))),
            BfClass::NeedsIntegration
        );
        assert_eq!(
            b.classify(&(*q.center() + dir * (alpha_par * 1.01))),
            BfClass::Reject
        );
    }

    #[test]
    fn spherical_covariance_needs_no_integration_annulus_shrinks() {
        // Paper §VI-B: "if λ∥ = λ⊥ … BF is the best method since it can
        // directly select answer objects and does not require numerical
        // integration". With Σ = s²I the annulus [α⊥, α∥] collapses.
        let q = PrqQuery::<2>::new(Vector::ZERO, Matrix::identity().scale(9.0), 5.0, 0.05).unwrap();
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha_par) = b.reject else {
            panic!()
        };
        let alpha_perp = b.accept.unwrap();
        assert!(
            (alpha_par - alpha_perp).abs() < 1e-6,
            "annulus width {} should collapse for isotropic Σ",
            alpha_par - alpha_perp
        );
    }

    #[test]
    fn no_hole_in_narrow_high_dim() {
        // A narrow 9-D Gaussian with a strict threshold: Eq. 37 regime.
        let mut cov = Matrix::<9>::identity().scale(0.01);
        cov[(0, 0)] = 25.0; // one long axis → λ⊥/λ∥ = 2500
        let q = PrqQuery::<9>::new(Vector::ZERO, cov, 0.7, 0.4).unwrap();
        let b = BfBounds::exact(&q);
        assert_eq!(b.accept, None, "no internal hole expected");
    }

    #[test]
    fn reject_all_when_theta_unreachable() {
        // Tiny δ, huge θ: even at the center the ball cannot hold 90%.
        let q = paper_query(10.0, 0.5, 0.9);
        let b = BfBounds::exact(&q);
        assert_eq!(b.reject, RejectBound::RejectAll);
        assert!(b.search_rect().is_none());
        assert_eq!(b.classify(q.center()), BfClass::Reject);
    }

    #[test]
    fn search_rect_is_square_of_alpha() {
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha) = b.reject else {
            panic!()
        };
        let rect = b.search_rect().unwrap();
        assert!((rect.extent(0) - 2.0 * alpha).abs() < 1e-9);
        assert!((rect.extent(1) - 2.0 * alpha).abs() < 1e-9);
    }

    #[test]
    fn nine_dim_isotropic_radius_is_the_exact_root() {
        // For Σ = σ²I both bounding functions are the density itself, so
        // α∥ = α⊥ is the exact qualification boundary.
        let (variance, delta, theta) = (0.04, 0.7, 0.4);
        let q = PrqQuery::<9>::new(
            Vector::ZERO,
            Matrix::identity().scale(variance),
            delta,
            theta,
        )
        .unwrap();
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha) = b.reject else {
            panic!("expected a radius")
        };
        let accept = b.accept.expect("isotropic Σ has a hole");
        assert!(
            (alpha - accept).abs() <= 1e-12 * alpha,
            "{alpha} vs {accept}"
        );
        let sigma = variance.sqrt();
        let inside = isotropic_qualification_probability(9, sigma, 0.999 * alpha, delta);
        let outside = isotropic_qualification_probability(9, sigma, 1.001 * alpha, delta);
        assert!(
            inside >= theta && outside < theta,
            "α = {alpha}: Pr {inside} inside, {outside} outside, θ = {theta}"
        );
    }

    #[test]
    fn underflowing_reject_target_rejects_nothing() {
        // (λ∥)^{d/2}|Σ|^{1/2}·θ = θ/3 underflows to 0: no finite radius
        // keeps the upper bound below θ.
        let q = paper_query(10.0, 5.0, 5e-324);
        let b = BfBounds::exact(&q);
        assert_eq!(b.reject, RejectBound::Radius(f64::INFINITY));
        let rect = b.search_rect().expect("nothing is rejected");
        assert_eq!(rect.extent(0), f64::INFINITY);
        let far = *q.center() + Vector::from([1e9, 0.0]);
        assert_ne!(b.classify(&far), BfClass::Reject);
    }

    #[test]
    fn fig13_alpha_par_scale() {
        // Fig. 13 draws the BF disc for γ = 10 with radius ≈ 46.9; our
        // exact α∥ should land in that neighbourhood (the paper's value
        // comes from its own MC-built catalog).
        let q = paper_query(10.0, 25.0, 0.01);
        let b = BfBounds::exact(&q);
        let RejectBound::Radius(alpha) = b.reject else {
            panic!()
        };
        assert!(
            (40.0..55.0).contains(&alpha),
            "α∥ = {alpha}, expected near Fig. 13's 46.9"
        );
    }
}
