//! Generic synthetic point distributions — uniform and clustered — for
//! controlled experiments (the dimensionality sweep) where the
//! road-network/Corel generators' structure would be a confound.

use gprq_gaussian::StandardNormal;
use gprq_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` points uniform over `[0, extent]^D`.
pub fn uniform<const D: usize>(n: usize, extent: f64, seed: u64) -> Vec<Vector<D>> {
    assert!(extent > 0.0, "extent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::from_fn(|_| rng.gen::<f64>() * extent))
        .collect()
}

/// `n` points from `clusters` isotropic Gaussian blobs with centers
/// uniform in `[0, extent]^D` and the given per-axis spread. Points are
/// clamped into the domain.
pub fn clustered<const D: usize>(
    n: usize,
    extent: f64,
    clusters: usize,
    spread: f64,
    seed: u64,
) -> Vec<Vector<D>> {
    assert!(extent > 0.0 && spread > 0.0 && clusters > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sn = StandardNormal::new();
    let centers: Vec<Vector<D>> = (0..clusters)
        .map(|_| Vector::from_fn(|_| rng.gen::<f64>() * extent))
        .collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.gen_range(0..clusters)];
            Vector::from_fn(|i| (c[i] + sn.sample(&mut rng) * spread).clamp(0.0, extent))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_domain_evenly() {
        let pts = uniform::<2>(20_000, 100.0, 1);
        assert_eq!(pts.len(), 20_000);
        // Quadrant counts within 3% of 25%.
        let q = pts.iter().filter(|p| p[0] < 50.0 && p[1] < 50.0).count() as f64 / 20_000.0;
        assert!((q - 0.25).abs() < 0.03, "quadrant fraction {q}");
        assert!(pts.iter().all(|p| (0.0..=100.0).contains(&p[0])));
    }

    #[test]
    fn clustered_is_clumpy() {
        let pts = clustered::<2>(10_000, 1000.0, 5, 10.0, 2);
        // Mean nearest-neighbor distance far below the uniform
        // expectation (~0.5·√(A/n) ≈ 5 for uniform).
        let mut nn_sum = 0.0;
        for i in (0..200).map(|k| k * 50) {
            let mut best = f64::INFINITY;
            for (j, p) in pts.iter().enumerate() {
                if j != i {
                    best = best.min(pts[i].distance(p));
                }
            }
            nn_sum += best;
        }
        assert!(nn_sum / 200.0 < 2.0, "mean NN {}", nn_sum / 200.0);
    }

    #[test]
    fn deterministic_and_in_bounds() {
        let a = clustered::<3>(500, 50.0, 3, 5.0, 9);
        let b = clustered::<3>(500, 50.0, 3, 5.0, 9);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|p| (0..3).all(|i| (0.0..=50.0).contains(&p[i]))));
    }

    #[test]
    fn nine_dimensional_uniform() {
        let pts = uniform::<9>(1_000, 2.0, 4);
        assert_eq!(pts.len(), 1_000);
        let mean: f64 = pts
            .iter()
            .map(|p| p.as_slice().iter().sum::<f64>())
            .sum::<f64>()
            / (9_000.0);
        assert!((mean - 1.0).abs() < 0.05, "coordinate mean {mean}");
    }

    #[test]
    #[should_panic(expected = "extent")]
    fn rejects_bad_extent() {
        uniform::<2>(10, 0.0, 1);
    }
}
