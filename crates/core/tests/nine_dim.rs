//! Medium-dimensional (9-D) behaviour tests — the regimes §VI of the
//! paper identifies: no-hole BF bounds, narrow-Gaussian OR dominance,
//! and the curse-of-dimensionality blowup of candidate sets relative to
//! answers.

use gprq_core::{
    BfBounds, FringeMode, MonteCarloEvaluator, OrFilter, PrqExecutor, PrqQuery, RrFilter,
    StrategySet, ThetaRegion,
};
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A narrow anisotropic 9-D covariance like the pseudo-feedback ones of
/// §VI-A: one dominant axis, *tilted* relative to the coordinate axes by
/// a sequence of Givens rotations (an axis-aligned narrow Gaussian would
/// make OR's oblique box coincide with RR's rectilinear one).
fn narrow_sigma(scale: f64) -> Matrix<9> {
    let mut d = Matrix::<9>::identity().scale(0.05 * scale);
    d[(0, 0)] = 2.0 * scale;
    d[(1, 1)] = 0.5 * scale;
    // Rotation R as a product of Givens rotations mixing the dominant
    // axes into several coordinates.
    let mut r = Matrix::<9>::identity();
    for &(i, j, angle) in &[
        (0usize, 1usize, 0.6f64),
        (0, 2, 0.8),
        (1, 3, 0.5),
        (0, 4, 0.4),
        (2, 5, 0.7),
    ] {
        let mut g = Matrix::<9>::identity();
        let (s, c) = angle.sin_cos();
        g[(i, i)] = c;
        g[(j, j)] = c;
        g[(i, j)] = -s;
        g[(j, i)] = s;
        r = r.mul_mat(&g);
    }
    // Σ = R·D·Rᵗ (symmetrize to kill round-off drift).
    let sigma = r.mul_mat(&d).mul_mat(&r.transpose());
    Matrix::from_fn(|i, j| 0.5 * (sigma[(i, j)] + sigma[(j, i)]))
}

fn clustered_points(n: usize, seed: u64) -> Vec<(Vector<9>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let cluster = (i % 8) as f64;
            (
                Vector::from_fn(|_| cluster * 0.7 + (rng.gen::<f64>() - 0.5) * 2.0),
                i,
            )
        })
        .collect()
}

#[test]
fn narrow_gaussian_has_no_accept_hole() {
    // Eq. 37 regime: (λ⊥)^{d/2}|Σ|^{1/2}θ ≥ 1 for narrow Σ and large θ.
    let q = PrqQuery::new(Vector::<9>::splat(0.0), narrow_sigma(1.0), 0.7, 0.4).unwrap();
    let b = BfBounds::exact(&q);
    assert!(b.accept.is_none(), "narrow 9-D Gaussian must lack a hole");
    // But a generous δ with tiny θ restores the hole.
    let q2 = PrqQuery::new(Vector::<9>::splat(0.0), narrow_sigma(0.05), 5.0, 0.01).unwrap();
    let b2 = BfBounds::exact(&q2);
    assert!(
        b2.accept.is_some(),
        "wide ball + small θ should have a hole"
    );
}

#[test]
fn or_prunes_more_than_fringe_free_rr_on_narrow_gaussians() {
    // §VI-B: "the slanted shape of OR gives more tight regions" —
    // count grid points passing each filter.
    let q = PrqQuery::new(Vector::<9>::splat(0.0), narrow_sigma(1.0), 0.7, 0.4).unwrap();
    let region = ThetaRegion::for_query(&q).unwrap();
    let rr = RrFilter::new(&q, &region, FringeMode::PaperFaithful);
    let or = OrFilter::new(&q, &region);
    let rect = rr.search_rect();
    let mut rng = StdRng::seed_from_u64(3);
    let mut in_rr = 0usize;
    let mut in_or = 0usize;
    let n = 50_000;
    for _ in 0..n {
        // Sample uniformly inside the RR search rect.
        let p = Vector::<9>::from_fn(|d| rect.lo[d] + rng.gen::<f64>() * (rect.hi[d] - rect.lo[d]));
        in_rr += 1; // by construction inside the RR Phase-1 region
        if or.passes(&p) {
            in_or += 1;
        }
    }
    assert!(
        (in_or as f64) < 0.8 * in_rr as f64,
        "OR should prune well inside the RR box: {in_or}/{in_rr}"
    );
}

#[test]
fn candidates_dwarf_answers_in_nine_dims() {
    // The Table III phenomenon at reduced scale: thousands of candidates
    // for a handful of answers.
    let tree = RTree::bulk_load(clustered_points(20_000, 1), RStarParams::paper_default(9));
    let center = Vector::<9>::splat(2.1); // on cluster 3
    let q = PrqQuery::new(center, narrow_sigma(0.5), 0.7, 0.4).unwrap();
    let mut eval = MonteCarloEvaluator::<9>::new(40_000, 9);
    let outcome = PrqExecutor::new(StrategySet::ALL)
        .execute(&tree, &q, &mut eval)
        .unwrap();
    assert!(
        outcome.stats.integrations > outcome.stats.answers.max(1) * 5,
        "expected candidate blowup: {} integrations for {} answers",
        outcome.stats.integrations,
        outcome.stats.answers
    );
}

#[test]
fn all_strategies_agree_on_shared_batch_9d() {
    let tree = RTree::bulk_load(clustered_points(10_000, 2), RStarParams::paper_default(9));
    let q = PrqQuery::new(Vector::<9>::splat(1.4), narrow_sigma(0.5), 0.9, 0.3).unwrap();
    let mut reference: Option<Vec<usize>> = None;
    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut eval = MonteCarloEvaluator::<9>::new(40_000, 55);
        let outcome = PrqExecutor::new(set).execute(&tree, &q, &mut eval).unwrap();
        let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        ids.sort_unstable();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "set {name}"),
        }
    }
}

#[test]
fn generalized_fringe_only_tightens() {
    let tree = RTree::bulk_load(clustered_points(10_000, 4), RStarParams::paper_default(9));
    let q = PrqQuery::new(Vector::<9>::splat(1.4), narrow_sigma(0.5), 0.9, 0.3).unwrap();
    let run = |mode: FringeMode| {
        let mut eval = MonteCarloEvaluator::<9>::new(40_000, 55);
        PrqExecutor::new(StrategySet::RR)
            .with_fringe_mode(mode)
            .execute(&tree, &q, &mut eval)
            .unwrap()
    };
    let faithful = run(FringeMode::PaperFaithful); // fringe off in 9-D
    let general = run(FringeMode::AllDimensions);
    assert!(general.stats.integrations <= faithful.stats.integrations);
    let ids = |o: &gprq_core::PrqOutcome<'_, 9, usize>| {
        let mut v: Vec<usize> = o.answers.iter().map(|(_, d)| **d).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&faithful), ids(&general));
}

#[test]
fn bf_reject_radius_grows_with_uncertainty_9d() {
    let mut prev = 0.0;
    for scale in [0.1, 0.5, 1.0, 2.0] {
        let q = PrqQuery::new(Vector::<9>::splat(0.0), narrow_sigma(scale), 2.0, 0.05).unwrap();
        match BfBounds::exact(&q).reject {
            gprq_core::RejectBound::Radius(r) => {
                assert!(r > prev, "α∥ must grow with uncertainty (scale {scale})");
                prev = r;
            }
            gprq_core::RejectBound::RejectAll => {
                // Acceptable terminal state at very large uncertainty:
                // the mass spreads so thin that no object reaches θ.
                assert!(scale >= 1.0, "RejectAll too early at scale {scale}");
            }
        }
    }
}
