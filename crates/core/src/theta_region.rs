//! The θ-region (paper §IV-A.1, Definitions 3–5, Property 1).
//!
//! For a query with threshold `θ < 1/2`, the θ-region is the ellipsoid
//!
//! ```text
//! (x − q)ᵗ Σ⁻¹ (x − q) ≤ r_θ²
//! ```
//!
//! chosen so the query object lies inside it with probability `1 − 2θ`.
//! Property 1 reduces finding `r_θ` to the *normalized* Gaussian: `r_θ`
//! is the radius of the centered ball holding mass `1 − 2θ` under
//! `N(0, I)` — i.e. the chi-distribution quantile
//! `chi_inverse(d, 1 − 2θ)`, which [`r_theta_exact`] solves from the
//! upper-tail mass `2θ` (`chi_tail_inverse(d, 2θ)`).
//!
//! Why `1 − 2θ` and not `1 − θ`: the pruning argument of paper Fig. 3
//! spends probability `2θ` outside the region and uses the point symmetry
//! of the Gaussian to show each of an excluded object `a` and its
//! reflection `a′` captures *less than half* of that, i.e. `< θ`.

use crate::error::PrqError;
use crate::query::PrqQuery;
use gprq_gaussian::chi::chi_tail_inverse;
use gprq_linalg::Vector;
use gprq_rtree::Rect;

/// The θ-region of a query, with its derived bounding geometry.
#[derive(Debug, Clone)]
pub struct ThetaRegion<const D: usize> {
    center: Vector<D>,
    r_theta: f64,
    /// `wᵢ = σᵢ·r_θ` — half-widths of the tight bounding box
    /// (paper Property 2 / Fig. 2).
    box_half_widths: Vector<D>,
    /// Precision matrix for the ellipsoid membership test.
    precision: gprq_linalg::Matrix<D>,
}

impl<const D: usize> ThetaRegion<D> {
    /// Derives the θ-region for a query, computing `r_θ` exactly from the
    /// chi distribution with [`r_theta_exact`] (the paper tabulates this
    /// inverse in a U-catalog, §IV-A.3, because it could not solve it per
    /// query).
    ///
    /// # Errors
    ///
    /// [`PrqError::ThetaRegionUndefined`] when `θ ≥ 1/2` (or θ is NaN):
    /// Definition 3 only defines the region for `θ < 1/2`.
    pub fn for_query(query: &PrqQuery<D>) -> Result<Self, PrqError> {
        let r_theta = r_theta_exact::<D>(query.theta())?;
        let g = query.gaussian();
        let sigmas = g.axis_std_devs();
        Ok(ThetaRegion {
            center: *g.mean(),
            r_theta,
            box_half_widths: Vector::from_fn(|i| sigmas[i] * r_theta),
            precision: *g.precision(),
        })
    }

    /// The radius `r_θ` in normalized (whitened) space.
    pub fn r_theta(&self) -> f64 {
        self.r_theta
    }

    /// Half-widths `wᵢ = σᵢ·r_θ` of the tight bounding box (Property 2).
    pub fn box_half_widths(&self) -> &Vector<D> {
        &self.box_half_widths
    }

    /// The tight axis-aligned bounding box of the ellipsoid.
    pub fn bounding_box(&self) -> Rect<D> {
        Rect::centered(&self.center, &self.box_half_widths)
    }

    /// `true` if `p` lies inside the ellipsoid
    /// `(p − q)ᵗ Σ⁻¹ (p − q) ≤ r_θ²`.
    // HOT-PATH: θ-region ellipsoid membership (Phase 2 predicate)
    pub fn contains(&self, p: &Vector<D>) -> bool {
        let diff = *p - self.center;
        self.precision.quadratic_form(&diff) <= self.r_theta * self.r_theta
    }

    /// Euclidean distance from `p` to the *bounding box* (0 inside) —
    /// the geometric kernel of the RR fringe filter (paper Fig. 4: a
    /// candidate survives iff it lies within `δ` of the box).
    pub fn distance_to_box(&self, p: &Vector<D>) -> f64 {
        self.bounding_box().min_dist_squared(p).sqrt()
    }
}

/// Exact `r_θ = chi_inverse(d, 1 − 2θ)` (Definition 5 + Property 1),
/// solved from the upper-tail mass `2θ`: finite for every `θ ∈ (0, ½)`,
/// including those for which `1 − 2θ` rounds to 1.
///
/// # Errors
///
/// [`PrqError::ThetaRegionUndefined`] when `θ ≥ 1/2`.
// INVARIANT: the solve matches the upper-tail mass to exactly 2θ (doubling
// is exact in floating point, unlike 1 − 2θ), so the radius is the
// tightest value for which the θ-region argument (Definition 5) holds and
// leaves at most 2θ outside, up to the CDF's own error — any smaller
// radius would under-cover.
pub fn r_theta_exact<const D: usize>(theta: f64) -> Result<f64, PrqError> {
    if !(theta > 0.0 && theta < 0.5) {
        return Err(PrqError::ThetaRegionUndefined(theta));
    }
    Ok(chi_tail_inverse(D, 2.0 * theta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_gaussian::integrate::quadrature_probability_2d;
    use gprq_gaussian::Gaussian;
    use gprq_linalg::Matrix;

    fn paper_query(gamma: f64, theta: f64) -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, theta).unwrap()
    }

    #[test]
    fn r_theta_paper_anchor() {
        // d = 2, θ = 0.01 → r_θ ≈ 2.797 (paper §VI-B).
        let r = r_theta_exact::<2>(0.01).unwrap();
        assert!((r - 2.797).abs() < 1e-3, "got {r}");
    }

    #[test]
    fn r_theta_is_finite_where_one_minus_two_theta_rounds_to_one() {
        // 1 − 2θ == 1.0 for these θ; the tail solve still separates them.
        let mut previous = 0.0;
        for theta in [0.01, 1e-17, 1e-300, 5e-324] {
            let r = r_theta_exact::<2>(theta).unwrap();
            assert!(r.is_finite() && r > previous, "θ = {theta}: r_θ = {r}");
            previous = r;
        }
    }

    #[test]
    fn r_theta_rejects_half_and_above() {
        assert!(r_theta_exact::<2>(0.5).is_err());
        assert!(r_theta_exact::<2>(0.7).is_err());
        assert!(r_theta_exact::<2>(0.499).is_ok());
    }

    #[test]
    fn region_holds_one_minus_two_theta_mass() {
        // Verify Definition 3 directly: Monte-Carlo the ellipsoid mass.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let theta = 0.05;
        let query = paper_query(10.0, theta);
        let region = ThetaRegion::for_query(&query).unwrap();
        let g = query.gaussian();
        let mut rng = StdRng::seed_from_u64(42);
        let mut sampler = gprq_gaussian::GaussianSampler::new(g);
        let n = 200_000;
        let inside = (0..n)
            .filter(|_| region.contains(&sampler.sample(&mut rng)))
            .count() as f64
            / n as f64;
        assert!(
            (inside - (1.0 - 2.0 * theta)).abs() < 0.005,
            "ellipsoid mass {inside}, want {}",
            1.0 - 2.0 * theta
        );
    }

    #[test]
    fn box_half_widths_follow_property_2() {
        let query = paper_query(10.0, 0.01);
        let region = ThetaRegion::for_query(&query).unwrap();
        let r = region.r_theta();
        let w = region.box_half_widths();
        assert!((w[0] - (70.0f64).sqrt() * r).abs() < 1e-10);
        assert!((w[1] - (30.0f64).sqrt() * r).abs() < 1e-10);
    }

    #[test]
    fn bounding_box_contains_ellipsoid() {
        // Sample ellipsoid boundary points; all must be inside the box,
        // and the box must be tight (touched along each axis direction).
        let query = paper_query(10.0, 0.05);
        let region = ThetaRegion::for_query(&query).unwrap();
        let bbox = region.bounding_box();
        let g = query.gaussian();
        let eig = g.eigen();
        let r = region.r_theta();
        for k in 0..64 {
            let angle = k as f64 / 64.0 * std::f64::consts::TAU;
            // Boundary point: q + r·(√λ₁ cos·v₁ + √λ₂ sin·v₂) in Σ eigen terms.
            let dir = eig.eigenvector(0) * (eig.eigenvalues[0].sqrt() * angle.cos())
                + eig.eigenvector(1) * (eig.eigenvalues[1].sqrt() * angle.sin());
            let p = *g.mean() + dir * r;
            let diff = p - *g.mean();
            // Confirm it is on the ellipsoid boundary.
            assert!((g.precision().quadratic_form(&diff) - r * r).abs() < 1e-8);
            assert!(bbox.contains_point(&p), "boundary point escapes box");
        }
    }

    #[test]
    fn pruning_safety_of_fringe_rule() {
        // Paper Fig. 3's claim, checked numerically: any object farther
        // than δ from the θ-region *bounding box* has qualification
        // probability < θ.
        let theta = 0.05;
        let query = paper_query(10.0, theta);
        let region = ThetaRegion::for_query(&query).unwrap();
        let g = query.gaussian();
        let delta = query.delta();
        // Probe points just outside the pruning boundary in several
        // directions.
        for k in 0..16 {
            let angle = k as f64 / 16.0 * std::f64::consts::TAU;
            let dir = Vector::from([angle.cos(), angle.sin()]);
            // Walk outward until distance to box exceeds δ by a hair.
            let mut t = delta;
            let bbox = region.bounding_box();
            loop {
                let p = *g.mean() + dir * t;
                if bbox.min_dist_squared(&p).sqrt() > delta * 1.001 {
                    let prob = quadrature_probability_2d(g, &p, delta, 48, 96);
                    assert!(
                        prob < theta,
                        "object at angle {angle:.2} dist-to-box {:.2} has prob {prob} ≥ θ",
                        bbox.min_dist_squared(&p).sqrt()
                    );
                    break;
                }
                t += delta * 0.1;
            }
        }
    }

    #[test]
    fn contains_and_distance_to_box() {
        let query = paper_query(1.0, 0.1);
        let region = ThetaRegion::for_query(&query).unwrap();
        assert!(region.contains(query.center()));
        assert_eq!(region.distance_to_box(query.center()), 0.0);
        let far = *query.center() + Vector::from([1000.0, 0.0]);
        assert!(!region.contains(&far));
        assert!(region.distance_to_box(&far) > 900.0);
    }

    #[test]
    fn isotropic_region_is_spherical_box() {
        let q = PrqQuery::from_gaussian(Gaussian::<2>::standard(), 1.0, 0.1).unwrap();
        let region = ThetaRegion::for_query(&q).unwrap();
        let w = region.box_half_widths();
        assert!((w[0] - w[1]).abs() < 1e-12);
        assert!((w[0] - region.r_theta()).abs() < 1e-12);
    }
}
