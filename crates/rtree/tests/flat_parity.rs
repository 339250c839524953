//! Parity tests for the cache-conscious flat index: a frozen image must
//! reproduce the pointer tree bitwise (candidates, order, and every
//! `SearchStats` counter), and the batched probe
//! `Phase1Index::search_rects_into` must keep its contract on both
//! backends — every buffer cleared, the batch bounded by the shortest
//! slice, each query answered as a solo call answers it.

use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats};
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

/// Candidate list a Phase-1 backend returns for one rectangle.
type Candidates<'t> = Vec<(&'t Vector<2>, &'t usize)>;

/// Solo baseline for one rectangle via the single-rect entry point.
fn solo<'t, I: Phase1Index<2, usize>>(
    index: &'t I,
    rect: &Rect<2>,
) -> (Candidates<'t>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    index.search_rect_into(rect, &mut stats, &mut out);
    (out, stats)
}

/// The batched probe over `rects` with `slots` stats slots and `buffers`
/// output buffers, each holding the `stale` record before the call.
fn batch<'t, I: Phase1Index<2, usize>>(
    index: &'t I,
    rects: &[Rect<2>],
    slots: usize,
    buffers: usize,
    stale: &'t (Vector<2>, usize),
) -> (Vec<Candidates<'t>>, Vec<SearchStats>) {
    let mut stats = vec![SearchStats::default(); slots];
    let mut out = vec![vec![(&stale.0, &stale.1)]; buffers];
    index.search_rects_into(rects, &mut stats, &mut out);
    (out, stats)
}

#[test]
fn frozen_image_matches_pointer_tree_bitwise() {
    let points = random_points(3_000, 41, 1_000.0);
    // Both topologies: incremental R* inserts and STR bulk load.
    for tree in [
        build_tree(&points),
        RTree::bulk_load(points.clone(), RStarParams::paper_default(2)),
    ] {
        let flat = FlatRTree::freeze(tree.clone());
        for rect in random_rects(40, 42, 1_000.0) {
            let mut tree_stats = SearchStats::default();
            let mut tree_out = Vec::new();
            tree.query_rect_into(&rect, &mut tree_stats, &mut tree_out);
            let (flat_out, flat_stats) = solo(&flat, &rect);
            assert_eq!(flat_out, tree_out, "candidates diverge from source tree");
            assert_eq!(flat_stats, tree_stats, "stats diverge from source tree");
        }
    }
}

#[test]
fn empty_inputs_and_empty_tree_are_well_defined() {
    let stale = (Vector::ZERO, usize::MAX);
    let tree = build_tree(&random_points(300, 71, 100.0));
    let flat = FlatRTree::freeze(tree.clone());

    // No rects: nothing runs, and buffers beyond the batch are still cleared.
    for (out, _) in [
        batch(&tree, &[], 0, 2, &stale),
        batch(&flat, &[], 0, 2, &stale),
    ] {
        assert!(out.iter().all(Vec::is_empty));
    }

    // Empty index: every query answers empty with zero stats.
    let empty_tree: RTree<2, usize> = RTree::new();
    let empty_flat = FlatRTree::freeze(RTree::new());
    let rects = [Rect::everything(), Rect::everything()];
    for (out, stats) in [
        batch(&empty_tree, &rects, 2, 2, &stale),
        batch(&empty_flat, &rects, 2, 2, &stale),
    ] {
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(stats, [SearchStats::default(); 2]);
    }
}

#[test]
fn shorter_stat_slice_bounds_the_batch() {
    fn check<I: Phase1Index<2, usize>>(index: &I, rects: &[Rect<2>]) {
        let stale = (Vector::ZERO, usize::MAX);
        // Only two stats slots: queries 2 and 3 must not run (their
        // buffers are still cleared).
        let (out, stats) = batch(index, rects, 2, 4, &stale);
        for q in 0..2 {
            let (solo_out, solo_stats) = solo(index, &rects[q]);
            assert_eq!(out[q], solo_out);
            assert_eq!(stats[q], solo_stats);
        }
        assert!(out[2].is_empty() && out[3].is_empty());
    }
    let tree = build_tree(&random_points(600, 81, 200.0));
    let rects = random_rects(4, 82, 200.0);
    check(&FlatRTree::freeze(tree.clone()), &rects);
    check(&tree, &rects);
}

#[test]
fn trait_dispatch_matches_pointer_tree_through_phase1_index() {
    let points = random_points(1_500, 91, 400.0);
    let tree = build_tree(&points);
    let flat = FlatRTree::freeze(tree.clone());
    let rects = random_rects(9, 92, 400.0);

    let mut tree_stats = vec![SearchStats::default(); rects.len()];
    let mut tree_out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); rects.len()];
    Phase1Index::search_rects_into(&tree, &rects, &mut tree_stats, &mut tree_out);

    let mut flat_stats = vec![SearchStats::default(); rects.len()];
    let mut flat_out: Vec<Vec<(&Vector<2>, &usize)>> = vec![Vec::new(); rects.len()];
    Phase1Index::search_rects_into(&flat, &rects, &mut flat_stats, &mut flat_out);

    for q in 0..rects.len() {
        assert_eq!(flat_out[q], tree_out[q], "candidates diverge for query {q}");
        assert_eq!(flat_stats[q], tree_stats[q], "stats diverge for query {q}");
    }
}
