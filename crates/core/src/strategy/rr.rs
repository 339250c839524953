//! Rectilinear-Region-Based strategy (paper §IV-A, Algorithm 1).
//!
//! Phase 1 searches the R-tree with the Minkowski expansion of the
//! θ-region bounding box: a box with per-axis half-widths `σᵢ·r_θ + δ`
//! (Fig. 4). Phase 2 prunes the *fringe* — candidates inside that box but
//! farther than `δ` from the θ-region box itself (the four black corner
//! regions of Fig. 4 in 2-D).
//!
//! The paper applies the fringe filter only for `d = 2` ("computation of
//! fringe part is not easy for d ≥ 3"). Describing the fringe *region*
//! is indeed awkward in high dimension, but testing membership is not:
//! a candidate is outside the fringe iff its distance to the box is at
//! most `δ`, a standard point-to-box computation in any dimension. We
//! default to the paper-faithful behaviour and expose the generalized
//! filter as [`FringeMode::AllDimensions`] (measured in the `ablation`
//! bench).

use crate::query::PrqQuery;
use crate::theta_region::ThetaRegion;
use gprq_linalg::Vector;
use gprq_rtree::Rect;

/// When the fringe (rounded-corner) filter applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FringeMode {
    /// Only in 2-D, exactly as the paper evaluates it.
    #[default]
    PaperFaithful,
    /// In every dimension (our generalization; strictly more pruning,
    /// identical answers).
    AllDimensions,
    /// Never (Phase 1 box only).
    Disabled,
}

/// The RR filter for one query.
///
/// Borrows the θ-region (like [`crate::strategy::or::OrFilter`] does)
/// so building the per-query filter set never copies the region.
#[derive(Debug, Clone)]
pub struct RrFilter<'r, const D: usize> {
    region: &'r ThetaRegion<D>,
    delta: f64,
    mode: FringeMode,
}

impl<'r, const D: usize> RrFilter<'r, D> {
    /// Builds the filter from a query and its θ-region.
    pub fn new(query: &PrqQuery<D>, region: &'r ThetaRegion<D>, mode: FringeMode) -> Self {
        RrFilter {
            region,
            delta: query.delta(),
            mode,
        }
    }

    /// The Phase-1 search region: the θ-region bounding box expanded by
    /// `δ` on every side (the bounding box of the Minkowski sum, Fig. 4).
    pub fn search_rect(&self) -> Rect<D> {
        let w = self.region.box_half_widths();
        let half = Vector::from_fn(|i| w[i] + self.delta);
        Rect::centered(&self.region.bounding_box().center(), &half)
    }

    /// `true` if the fringe filter is active for this query's dimension.
    pub fn fringe_active(&self) -> bool {
        match self.mode {
            FringeMode::PaperFaithful => D == 2,
            FringeMode::AllDimensions => true,
            FringeMode::Disabled => false,
        }
    }

    /// Phase-2 predicate: keep a candidate iff it lies within `δ` of the
    /// θ-region bounding box (i.e. inside the rounded Minkowski sum, not
    /// in a corner fringe). Always `true` when the fringe is inactive.
    // HOT-PATH: RR fringe predicate (Phase 2 inner loop)
    pub fn passes(&self, p: &Vector<D>) -> bool {
        if !self.fringe_active() {
            return true;
        }
        self.region.distance_to_box(p) <= self.delta
    }

    /// The underlying θ-region.
    pub fn region(&self) -> &'r ThetaRegion<D> {
        self.region
    }

    /// The per-axis half-widths of the search rectangle — the quantities
    /// annotated in the paper's Figs. 13–16 (e.g. 46.9 × 40.4 at γ = 10).
    pub fn search_half_widths(&self) -> Vector<D> {
        let w = self.region.box_half_widths();
        Vector::from_fn(|i| w[i] + self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;

    fn paper_query(gamma: f64) -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma);
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap()
    }

    fn setup(gamma: f64) -> (PrqQuery<2>, ThetaRegion<2>) {
        let q = paper_query(gamma);
        let region = ThetaRegion::for_query(&q).unwrap();
        (q, region)
    }

    #[test]
    fn theta_box_half_widths_match_fig13() {
        // Paper Fig. 13 (γ = 10, δ = 25, θ = 0.01) annotates the θ-box
        // half-widths 23.4 (x) and 15.3-ish (y): σₓ·r_θ = √70·2.797,
        // σ_y·r_θ = √30·2.797.
        let (q, region) = setup(10.0);
        let f = RrFilter::new(&q, &region, FringeMode::PaperFaithful);
        let w = f.region().box_half_widths();
        assert!((w[0] - 23.4).abs() < 0.1, "x θ-box half-width {w}");
        assert!((w[1] - 15.3).abs() < 0.1, "y θ-box half-width {w}");
        // The search rect adds δ = 25 per side.
        let hw = f.search_half_widths();
        assert!((hw[0] - 48.4).abs() < 0.1, "x search half-width {hw}");
        assert!((hw[1] - 40.3).abs() < 0.1, "y search half-width {hw}");
    }

    #[test]
    fn theta_box_half_widths_match_fig15_and_16() {
        // γ = 1 (Fig. 15 annotates 7.4 and 4.8): √7·2.797, √3·2.797.
        let (_, region) = setup(1.0);
        let w = *region.box_half_widths();
        assert!((w[0] - 7.4).abs() < 0.1, "γ=1 {w}");
        assert!((w[1] - 4.84).abs() < 0.1, "γ=1 {w}");
        // γ = 100 (Fig. 16 annotates 74.1 and 48.5): √700·2.797, √300·2.797.
        let (_, region) = setup(100.0);
        let w = *region.box_half_widths();
        assert!((w[0] - 74.0).abs() < 0.2, "γ=100 {w}");
        assert!((w[1] - 48.4).abs() < 0.2, "γ=100 {w}");
    }

    #[test]
    fn fringe_prunes_corners_only() {
        let (q, region) = setup(10.0);
        let f = RrFilter::new(&q, &region, FringeMode::PaperFaithful);
        assert!(f.fringe_active());
        let rect = f.search_rect();
        let center = Vector::from([500.0, 500.0]);
        // Center passes.
        assert!(f.passes(&center));
        // The extreme corner of the search rect is in the fringe: its
        // distance to the θ-box is δ·√2 > δ.
        let corner = rect.hi;
        assert!(!f.passes(&corner));
        // Mid-edge points are exactly at distance δ → pass.
        let mid_right = Vector::from([rect.hi[0], 500.0]);
        assert!(f.passes(&mid_right));
    }

    #[test]
    fn disabled_fringe_passes_everything() {
        let (q, region) = setup(10.0);
        let f = RrFilter::new(&q, &region, FringeMode::Disabled);
        assert!(!f.fringe_active());
        assert!(f.passes(&Vector::from([1e9, 1e9])));
    }

    #[test]
    fn paper_faithful_is_inactive_in_3d() {
        let q = PrqQuery::<3>::new(Vector::ZERO, Matrix::identity(), 1.0, 0.1).unwrap();
        let region = ThetaRegion::for_query(&q).unwrap();
        let f = RrFilter::new(&q, &region, FringeMode::PaperFaithful);
        assert!(!f.fringe_active());
        let f = RrFilter::new(&q, &region, FringeMode::AllDimensions);
        assert!(f.fringe_active());
        // 3-D corner of the search rect is pruned by the generalized mode.
        let corner = f.search_rect().hi;
        assert!(!f.passes(&corner));
    }

    #[test]
    fn search_rect_contains_minkowski_sum() {
        // Every point within δ of the θ-box must be inside the search
        // rect (the rect is the Minkowski sum's bounding box).
        let (q, region) = setup(10.0);
        let f = RrFilter::new(&q, &region, FringeMode::PaperFaithful);
        let rect = f.search_rect();
        let bbox = f.region().bounding_box();
        for k in 0..32 {
            let angle = k as f64 / 32.0 * std::f64::consts::TAU;
            // Points on the boundary of the Minkowski sum: box boundary +
            // δ in the outward direction.
            let boundary = Vector::from([
                bbox.hi[0] + 25.0 * angle.cos().max(0.0),
                bbox.hi[1] + 25.0 * angle.sin().max(0.0),
            ]);
            if f.region().distance_to_box(&boundary) <= 25.0 {
                assert!(rect.contains_point(&boundary));
            }
        }
    }
}
