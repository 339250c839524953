//! Parity tests for the buffer-reusing `*_into` query variants: on a
//! seeded workload they must return exactly the same results, in the
//! same order, as the allocating entry points they back — and reused
//! buffers must be cleared between calls, never accumulated into.

use gprq_linalg::Vector;
use gprq_rtree::{KnnScratch, RTree, Rect, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64, extent: f64) -> Vec<(Vector<2>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Vector::from([rng.gen::<f64>() * extent, rng.gen::<f64>() * extent]),
                i,
            )
        })
        .collect()
}

fn build_tree(points: &[(Vector<2>, usize)]) -> RTree<2, usize> {
    let mut tree = RTree::new();
    for (p, id) in points {
        tree.insert(*p, *id);
    }
    tree.validate().expect("tree invariants");
    tree
}

#[test]
fn query_rect_into_matches_query_rect() {
    let points = random_points(2_500, 11, 1_000.0);
    let tree = build_tree(&points);
    let mut rng = StdRng::seed_from_u64(12);
    let mut buf = Vec::new();
    for _ in 0..60 {
        let c = Vector::from([rng.gen::<f64>() * 1_000.0, rng.gen::<f64>() * 1_000.0]);
        let half = Vector::from([rng.gen::<f64>() * 120.0, rng.gen::<f64>() * 120.0]);
        let rect = Rect::centered(&c, &half);

        let mut stats_a = SearchStats::default();
        let alloc = tree.query_rect_with_stats(&rect, &mut stats_a);
        let mut stats_b = SearchStats::default();
        tree.query_rect_into(&rect, &mut stats_b, &mut buf);

        // Identical results in identical order, identical traversal stats.
        let a: Vec<(&Vector<2>, usize)> = alloc.iter().map(|(p, d)| (*p, **d)).collect();
        let b: Vec<(&Vector<2>, usize)> = buf.iter().map(|(p, d)| (*p, **d)).collect();
        assert_eq!(a, b);
        assert_eq!(stats_a.nodes_visited, stats_b.nodes_visited);
        assert_eq!(stats_a.entries_checked, stats_b.entries_checked);
        assert_eq!(stats_a.results, stats_b.results);
    }
}

#[test]
fn query_ball_into_matches_query_ball() {
    let points = random_points(2_500, 21, 1_000.0);
    let tree = build_tree(&points);
    let mut rng = StdRng::seed_from_u64(22);
    let mut buf = Vec::new();
    for _ in 0..60 {
        let c = Vector::from([rng.gen::<f64>() * 1_000.0, rng.gen::<f64>() * 1_000.0]);
        let r = rng.gen::<f64>() * 150.0;

        let alloc = tree.query_ball(&c, r);
        let mut stats = SearchStats::default();
        tree.query_ball_into(&c, r, &mut stats, &mut buf);

        let a: Vec<(&Vector<2>, usize)> = alloc.iter().map(|(p, d)| (*p, **d)).collect();
        let b: Vec<(&Vector<2>, usize)> = buf.iter().map(|(p, d)| (*p, **d)).collect();
        assert_eq!(a, b);
    }
}

#[test]
fn nearest_neighbors_into_matches_nearest_neighbors() {
    let points = random_points(2_500, 31, 1_000.0);
    let tree = build_tree(&points);
    let mut rng = StdRng::seed_from_u64(32);
    let mut scratch = KnnScratch::new();
    let mut buf = Vec::new();
    for _ in 0..40 {
        let c = Vector::from([rng.gen::<f64>() * 1_000.0, rng.gen::<f64>() * 1_000.0]);
        let k = 1 + rng.gen::<usize>() % 50;

        let mut stats_a = SearchStats::default();
        let alloc = tree.nearest_neighbors_with_stats(&c, k, &mut stats_a);
        let mut stats_b = SearchStats::default();
        tree.nearest_neighbors_into(&c, k, &mut stats_b, &mut scratch, &mut buf);

        let a: Vec<(f64, &Vector<2>, usize)> =
            alloc.iter().map(|(d, p, v)| (*d, *p, **v)).collect();
        let b: Vec<(f64, &Vector<2>, usize)> = buf.iter().map(|(d, p, v)| (*d, *p, **v)).collect();
        assert_eq!(a, b);
        assert_eq!(stats_a.nodes_visited, stats_b.nodes_visited);
    }
}

#[test]
fn into_buffers_are_cleared_not_appended() {
    let points = random_points(500, 41, 100.0);
    let tree = build_tree(&points);
    let everything = Rect::everything();
    let mut stats = SearchStats::default();
    let mut buf = Vec::new();
    tree.query_rect_into(&everything, &mut stats, &mut buf);
    assert_eq!(buf.len(), 500);
    // A second call must replace, not extend.
    tree.query_rect_into(&everything, &mut stats, &mut buf);
    assert_eq!(buf.len(), 500);

    let mut scratch = KnnScratch::new();
    let mut knn = Vec::new();
    tree.nearest_neighbors_into(
        &Vector::from([50.0, 50.0]),
        7,
        &mut stats,
        &mut scratch,
        &mut knn,
    );
    assert_eq!(knn.len(), 7);
    tree.nearest_neighbors_into(
        &Vector::from([50.0, 50.0]),
        7,
        &mut stats,
        &mut scratch,
        &mut knn,
    );
    assert_eq!(knn.len(), 7);
}
