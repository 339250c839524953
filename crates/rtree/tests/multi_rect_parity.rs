//! Parity tests for the batched multi-rectangle probe: a single
//! `query_rects_into` descent must reproduce, per query, exactly the
//! candidates (same order) and exactly the `SearchStats` of N solo
//! `query_rect_into` calls — batching is a pure amortization.

use gprq_linalg::Vector;
use gprq_rtree::{RTree, Rect, SearchStats};
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

fn random_rects(n: usize, seed: u64, extent: f64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = Vector::from([rng.gen::<f64>() * extent, rng.gen::<f64>() * extent]);
            let half = Vector::from([rng.gen::<f64>() * 120.0, rng.gen::<f64>() * 120.0]);
            Rect::centered(&c, &half)
        })
        .collect()
}

/// Solo baseline for one rectangle via the single-rect entry point.
fn solo<'t>(
    tree: &'t RTree<2, usize>,
    rect: &Rect<2>,
) -> (Vec<(&'t Vector<2>, &'t usize)>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    tree.query_rect_into(rect, &mut stats, &mut out);
    (out, stats)
}

#[test]
fn multi_rect_matches_solo_bitwise() {
    let points = random_points(3_000, 51, 1_000.0);
    let tree = build_tree(&points);
    for (rect_seed, batch) in [(52u64, 1usize), (53, 2), (54, 7), (55, 16), (56, 33)] {
        let rects = random_rects(batch, rect_seed, 1_000.0);
        let mut stats = vec![SearchStats::default(); batch];
        let mut out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); batch];
        tree.query_rects_into(&rects, &mut stats, &mut out);

        for q in 0..batch {
            let (solo_out, solo_stats) = solo(&tree, &rects[q]);
            assert_eq!(out[q], solo_out, "candidates diverge for query {q}");
            assert_eq!(stats[q], solo_stats, "stats diverge for query {q}");
        }
    }
}

#[test]
fn duplicate_and_disjoint_rects_stay_independent() {
    let points = random_points(1_200, 61, 500.0);
    let tree = build_tree(&points);
    let hot = Rect::centered(&Vector::from([250.0, 250.0]), &Vector::from([80.0, 80.0]));
    let cold = Rect::centered(
        &Vector::from([-1_000.0, -1_000.0]),
        &Vector::from([1.0, 1.0]),
    );
    let rects = [hot, hot, cold, hot];
    let mut stats = vec![SearchStats::default(); rects.len()];
    let mut out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); rects.len()];
    tree.query_rects_into(&rects, &mut stats, &mut out);

    let (hot_out, hot_stats) = solo(&tree, &hot);
    let (cold_out, cold_stats) = solo(&tree, &cold);
    assert!(!hot_out.is_empty());
    assert!(cold_out.is_empty());
    for q in [0, 1, 3] {
        assert_eq!(out[q], hot_out);
        assert_eq!(stats[q], hot_stats);
    }
    assert_eq!(out[2], cold_out);
    assert_eq!(stats[2], cold_stats);
}

#[test]
fn empty_inputs_and_empty_tree_are_well_defined() {
    let tree = build_tree(&random_points(300, 71, 100.0));

    // No rects: nothing happens, buffers beyond the batch are still cleared.
    let mut stats: Vec<SearchStats> = Vec::new();
    let mut out: Vec<Vec<(&Vector<2>, &usize)>> = vec![vec![]; 2];
    out[0].push((tree.iter().next().unwrap().0, tree.iter().next().unwrap().1));
    tree.query_rects_into(&[], &mut stats, &mut out);
    assert!(out[0].is_empty() && out[1].is_empty());

    // Empty tree: every query answers empty with zero stats.
    let empty: RTree<2, usize> = RTree::new();
    let rects = [Rect::everything(), Rect::everything()];
    let mut stats = vec![SearchStats::default(); 2];
    let mut out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); 2];
    empty.query_rects_into(&rects, &mut stats, &mut out);
    for q in 0..2 {
        assert!(out[q].is_empty());
        assert_eq!(stats[q], SearchStats::default());
    }
}

#[test]
fn shorter_stat_slice_bounds_the_batch() {
    let tree = build_tree(&random_points(600, 81, 200.0));
    let rects = random_rects(4, 82, 200.0);
    // Only two stats slots: queries 2 and 3 must not run (their buffers
    // are still cleared).
    let mut stats = vec![SearchStats::default(); 2];
    let mut out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); 4];
    tree.query_rects_into(&rects, &mut stats, &mut out);
    for q in 0..2 {
        let (solo_out, solo_stats) = solo(&tree, &rects[q]);
        assert_eq!(out[q], solo_out);
        assert_eq!(stats[q], solo_stats);
    }
    assert!(out[2].is_empty() && out[3].is_empty());
}
