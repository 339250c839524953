//! Exact-equality and round-trip guarantees of the shared-sample
//! Phase-3 engine: the grid index must count *precisely* the hits a
//! linear scan of the same cloud counts (the two paths share one SoA
//! kernel, so this is bitwise, not statistical), and the SoA layout must
//! store the `sample_batch` draws bitwise. High-dimensional clouds,
//! whose sizing rule gives at most two cells per axis, collapse to one
//! cell and must still count exactly what the linear scan counts.

use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
use gprq_gaussian::{Gaussian, GaussianSampler};
use gprq_linalg::{Matrix, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;

fn correlated_2d() -> Gaussian<2> {
    let s3 = 3.0f64.sqrt();
    Gaussian::new(
        Vector::from([100.0, -50.0]),
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0),
    )
    .unwrap()
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("positive sample count")
}

/// Grid and linear scan agree exactly for random (center, δ) pairs —
/// including δ = 0, δ spanning the whole cloud, and centers far outside
/// the grid's bounding box.
#[test]
fn grid_matches_linear_scan_exactly() {
    let g = correlated_2d();
    let mut rng = StdRng::seed_from_u64(0xC10D);
    let cloud = SampleCloud::draw(&g, nz(50_000), &mut rng);
    let grid = CloudGrid::build(cloud.clone());

    let mut probe = StdRng::seed_from_u64(7);
    for case in 0..400 {
        let (center, delta) = match case % 5 {
            // Random center near the distribution, random radius.
            0 | 1 => (
                Vector::from([
                    100.0 + (probe.gen::<f64>() - 0.5) * 60.0,
                    -50.0 + (probe.gen::<f64>() - 0.5) * 40.0,
                ]),
                probe.gen::<f64>() * 30.0,
            ),
            // δ = 0: only samples exactly at the center may count.
            2 => (
                Vector::from([100.0 + probe.gen::<f64>(), -50.0 + probe.gen::<f64>()]),
                0.0,
            ),
            // δ spanning the whole cloud: every sample must count.
            3 => (Vector::from([100.0, -50.0]), 1.0e6),
            // Center far outside the grid (all axis ranges empty).
            _ => (
                Vector::from([
                    100.0 + (probe.gen::<f64>() - 0.5) * 1.0e5,
                    -50.0 + (probe.gen::<f64>() - 0.5) * 1.0e5,
                ]),
                probe.gen::<f64>() * 20.0,
            ),
        };
        let linear = cloud.count_within(&center, delta);
        let via_grid = grid.count_within(&center, delta);
        assert_eq!(
            via_grid, linear,
            "case {case}: center {center:?}, delta {delta}"
        );
        if case % 5 == 3 {
            assert_eq!(linear, cloud.len(), "whole-cloud δ must count everything");
        }
    }
}

/// The same exact parity in 3-D, where the odometer walks a cube of
/// cells instead of a rectangle.
#[test]
fn grid_matches_linear_scan_exactly_3d() {
    let mut m = Matrix::<3>::identity();
    m[(0, 0)] = 4.0;
    m[(1, 1)] = 0.5;
    m[(2, 2)] = 2.5;
    let g = Gaussian::new(Vector::from([0.0, 5.0, -5.0]), m).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let cloud = SampleCloud::draw(&g, nz(20_000), &mut rng);
    let grid = CloudGrid::build(cloud.clone());
    let mut probe = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        let center = Vector::from([
            (probe.gen::<f64>() - 0.5) * 10.0,
            5.0 + (probe.gen::<f64>() - 0.5) * 4.0,
            -5.0 + (probe.gen::<f64>() - 0.5) * 8.0,
        ]);
        let delta = probe.gen::<f64>() * 5.0;
        assert_eq!(
            grid.count_within(&center, delta),
            cloud.count_within(&center, delta)
        );
    }
}

/// Degenerate cloud: every sample identical (zero covariance is not
/// representable, so collapse one axis numerically instead via a tiny
/// variance) — the grid must still agree with the linear scan.
#[test]
fn grid_handles_near_degenerate_axes() {
    let mut m = Matrix::<2>::identity();
    m[(0, 0)] = 1.0e-6;
    m[(1, 1)] = 9.0;
    let g = Gaussian::new(Vector::from([1.0, 2.0]), m).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let cloud = SampleCloud::draw(&g, nz(4_096), &mut rng);
    let grid = CloudGrid::build(cloud.clone());
    let mut probe = StdRng::seed_from_u64(11);
    for _ in 0..50 {
        let center = Vector::from([1.0, 2.0 + (probe.gen::<f64>() - 0.5) * 12.0]);
        let delta = probe.gen::<f64>() * 6.0;
        assert_eq!(
            grid.count_within(&center, delta),
            cloud.count_within(&center, delta)
        );
    }
}

proptest! {
    /// The SoA cloud stores exactly the vectors `sample_batch` produces
    /// from the same seed — bitwise, coordinate by coordinate.
    #[test]
    fn soa_roundtrips_sample_batch_bitwise(seed in 0u64..1_000, n in 1usize..300) {
        let g = correlated_2d();
        let mut rng = StdRng::seed_from_u64(seed);
        let cloud = SampleCloud::draw(&g, nz(n), &mut rng);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = vec![Vector::<2>::ZERO; n];
        GaussianSampler::new(&g).sample_batch(&mut rng, &mut batch);

        prop_assert_eq!(cloud.len(), n);
        for (i, expect) in batch.iter().enumerate() {
            let got = cloud.get(i).expect("index in range");
            for d in 0..2 {
                prop_assert_eq!(
                    got.as_slice()[d].to_bits(),
                    expect.as_slice()[d].to_bits(),
                    "sample {} coordinate {} drifted", i, d
                );
            }
        }
        prop_assert!(cloud.get(n).is_none());
    }
}

/// `CloudGrid::build_recentered` folds the mean-add into the build
/// passes; it must agree with materializing the re-centered cloud and
/// building from it — same structure, and bitwise-equal probabilities
/// at every probe.
#[test]
fn build_recentered_matches_materialized_cloud_bitwise() {
    let g = correlated_2d();
    let mut rng = StdRng::seed_from_u64(0x0FF5);
    let offsets = SampleCloud::draw_offsets(g.cholesky(), nz(20_000), &mut rng);

    for (mx, my) in [(100.0, -50.0), (0.0, 0.0), (-3.5e3, 1.0e-3)] {
        let mean = Vector::from([mx, my]);
        let materialized = CloudGrid::build(SampleCloud::from_offsets(&mean, &offsets));
        let fused = CloudGrid::build_recentered(&mean, &offsets);

        assert_eq!(fused.len(), materialized.len());
        assert_eq!(fused.cells(), materialized.cells());
        assert_eq!(fused.resolution(), materialized.resolution());

        let mut probe = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let center = Vector::from([
                mx + (probe.gen::<f64>() - 0.5) * 80.0,
                my + (probe.gen::<f64>() - 0.5) * 80.0,
            ]);
            let delta = probe.gen::<f64>() * 25.0;
            assert_eq!(
                fused.probability(&center, delta).to_bits(),
                materialized.probability(&center, delta).to_bits(),
                "re-centered build diverged at {center:?}, δ = {delta}"
            );
        }
    }
}

/// A `D`-dimensional Gaussian with a distinct variance per axis and one
/// correlated pair, centered at `mean`.
fn high_dim<const D: usize>(mean: f64) -> Gaussian<D> {
    let mut m = Matrix::<D>::identity();
    for d in 0..D {
        m[(d, d)] = 0.02 + 0.01 * d as f64;
    }
    m[(0, 1)] = 0.005;
    m[(1, 0)] = 0.005;
    Gaussian::new(Vector::from_fn(|d| mean + d as f64 * 0.1), m).unwrap()
}

/// Probes a one-cell grid against the linear scan of `cloud`: balls
/// around the mean, balls straddling the bounding box on one axis,
/// balls wholly outside it, δ = 0, and a ball holding the whole cloud.
fn assert_one_cell_matches_linear<const D: usize>(
    grid: &CloudGrid<D>,
    cloud: &SampleCloud<D>,
    label: &str,
) {
    assert_eq!(grid.resolution(), [1; D], "{label}");
    assert_eq!(grid.cells(), 1, "{label}");
    assert_eq!(grid.len(), cloud.len(), "{label}");
    let cols = cloud.columns();
    let lo: Vec<f64> = cols
        .iter()
        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let hi: Vec<f64> = cols
        .iter()
        .map(|c| c.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let mean = Vector::<D>::from_fn(|d| 0.5 * (lo[d] + hi[d]));
    let mut probe = StdRng::seed_from_u64(D as u64);
    let mut cases: Vec<(Vector<D>, f64)> = Vec::new();
    for _ in 0..24 {
        let center = Vector::from_fn(|d| mean[d] + (probe.gen::<f64>() - 0.5) * 0.6);
        cases.push((center, probe.gen::<f64>() * 0.9));
    }
    for axis in 0..D {
        // Straddling: the ball crosses the box face on one axis.
        let mut edge = mean;
        edge[axis] = hi[axis];
        cases.push((edge, 1.0));
        edge[axis] = lo[axis] - 0.1;
        cases.push((edge, 1.1));
        // Wholly outside on one axis, just beyond the face and far away.
        let mut out = mean;
        out[axis] = hi[axis] + 0.5;
        cases.push((out, 0.2));
        out[axis] = lo[axis] - 100.0;
        cases.push((out, 1.0));
    }
    cases.push((mean, 0.0));
    cases.push((mean, 1.0e3));
    let mut partial = 0;
    for (i, (center, delta)) in cases.iter().enumerate() {
        let linear = cloud.count_within(center, *delta);
        partial += usize::from(linear > 0 && linear < cloud.len());
        assert_eq!(
            grid.count_within(center, *delta),
            linear,
            "{label}: case {i}, center {center:?}, delta {delta}"
        );
        assert_eq!(
            grid.probability(center, *delta).to_bits(),
            cloud.probability(center, *delta).to_bits(),
            "{label}: case {i}"
        );
    }
    assert!(partial >= 2 * D, "{label}: only {partial} partial balls");
    assert_eq!(cloud.count_within(&mean, 1.0e3), cloud.len(), "{label}");
}

/// At 100 000 samples, `D = 8` and `D = 9` size to two cells per axis,
/// which cannot prune: both builds collapse to one cell and count
/// exactly what the linear scan counts. `build` keeps the cloud's
/// columns instead of copying them, and the result equals the copying
/// `build_recentered` over the same samples: columns, bounds and all.
fn one_cell_regime<const D: usize>() {
    let g = high_dim::<D>(0.5);
    let mut rng = StdRng::seed_from_u64(0x1CE11 + D as u64);
    let cloud = SampleCloud::draw(&g, nz(100_000), &mut rng);
    let built = CloudGrid::build(cloud.clone());
    assert_one_cell_matches_linear(&built, &cloud, &format!("build, D = {D}"));

    let mut rng = StdRng::seed_from_u64(0x0FF5 + D as u64);
    let offsets = SampleCloud::draw_offsets(g.cholesky(), nz(100_000), &mut rng);
    let recentered = CloudGrid::build_recentered(g.mean(), &offsets);
    let materialized = SampleCloud::from_offsets(g.mean(), &offsets);
    assert_one_cell_matches_linear(
        &recentered,
        &materialized,
        &format!("build_recentered, D = {D}"),
    );
    assert!(
        CloudGrid::build(materialized) == recentered,
        "build by value differs from the copying build, D = {D}"
    );
}

#[test]
fn eight_dimensional_grid_is_one_cell_and_exact() {
    one_cell_regime::<8>();
}

#[test]
fn nine_dimensional_grid_is_one_cell_and_exact() {
    one_cell_regime::<9>();
}

/// Seven dimensions still size to three cells per axis at 100 000
/// samples and keep the multi-cell grid.
#[test]
fn seven_dimensional_grid_keeps_three_cells_per_axis() {
    let g = high_dim::<7>(0.0);
    let mut rng = StdRng::seed_from_u64(7);
    let cloud = SampleCloud::draw(&g, nz(100_000), &mut rng);
    let grid = CloudGrid::build(cloud.clone());
    assert_eq!(grid.resolution(), [3; 7]);
    let mut probe = StdRng::seed_from_u64(17);
    for _ in 0..20 {
        let center = Vector::from_fn(|d| d as f64 * 0.1 + (probe.gen::<f64>() - 0.5) * 0.8);
        let delta = probe.gen::<f64>() * 0.8;
        assert_eq!(
            grid.count_within(&center, delta),
            cloud.count_within(&center, delta)
        );
    }
}
