//! Property tests for the flat index: across random workloads (including
//! empty trees) and degenerate rectangles (zero-width, inverted, huge),
//! the flat image must return identical candidate sets — and, where the
//! topology is shared, identical `SearchStats` tallies — to the pointer
//! `RTree`.

use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats};
use proptest::prelude::*;

/// One drawn rectangle before shaping: center, half-extents, selector.
type RawRect = ((f64, f64), (f64, f64), u8);

/// Candidate list a Phase-1 backend returns for one rectangle.
type Candidates<'t> = Vec<(&'t Vector<2>, &'t usize)>;

/// Sorted bitwise candidate key set: (x bits, y bits, payload).
fn key_set(candidates: &[(&Vector<2>, &usize)]) -> Vec<(u64, u64, usize)> {
    let mut keys: Vec<(u64, u64, usize)> = candidates
        .iter()
        .map(|(p, d)| (p[0].to_bits(), p[1].to_bits(), **d))
        .collect();
    keys.sort_unstable();
    keys
}

fn search<'t, I: Phase1Index<2, usize>>(
    index: &'t I,
    rect: &Rect<2>,
) -> (Candidates<'t>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    index.search_rect_into(rect, &mut stats, &mut out);
    (out, stats)
}

/// Point sets may be empty (empty-tree case is always in scope).
fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 0..160)
}

/// Raw rectangle draws: center, half-extent draw, and a shape selector.
fn arb_raw_rects() -> impl Strategy<Value = Vec<RawRect>> {
    proptest::collection::vec(
        (
            (-600.0f64..600.0, -600.0f64..600.0),
            (-40.0f64..40.0, -40.0f64..40.0),
            0u8..4,
        ),
        1..8,
    )
}

/// Materializes the interesting rectangle shapes from a raw draw:
/// ordinary boxes, zero-width (point) rects, inverted rects (a negative
/// half-extent makes `lo > hi`, matching nothing), and huge rects that
/// cover the whole workload.
fn make_rects(raw: &[RawRect]) -> Vec<Rect<2>> {
    raw.iter()
        .map(|&((cx, cy), (hx, hy), kind)| {
            let (hx, hy) = match kind {
                0 => (0.0, 0.0),
                1 => (1e4, 1e4),
                _ => (hx, hy),
            };
            // Built from lo/hi directly: a negative half-extent draw
            // yields an inverted rect, which `Rect::centered` rejects.
            Rect {
                lo: Vector::from([cx - hx, cy - hy]),
                hi: Vector::from([cx + hx, cy + hy]),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frozen image shares the source topology: candidates (order
    /// included) and every stats counter must match the pointer tree
    /// bitwise.
    #[test]
    fn prop_frozen_matches_rtree_bitwise(
        points in arb_points(),
        raw_rects in arb_raw_rects(),
        bulk in proptest::bool::weighted(0.5),
    ) {
        let rects = make_rects(&raw_rects);
        let records: Vec<(Vector<2>, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Vector::from([x, y]), i))
            .collect();
        let tree = if bulk {
            RTree::bulk_load(records, RStarParams::paper_default(2))
        } else {
            let mut t = RTree::new();
            for (p, id) in records {
                t.insert(p, id);
            }
            t
        };
        let flat = FlatRTree::freeze(tree.clone());
        prop_assert_eq!(flat.len(), tree.len());
        prop_assert_eq!(flat.node_count(), tree.node_count());

        for rect in &rects {
            let (tree_out, tree_stats) = search(&tree, rect);
            let (flat_out, flat_stats) = search(&flat, rect);
            prop_assert_eq!(&flat_out, &tree_out);
            prop_assert_eq!(flat_stats, tree_stats);
        }
    }

    /// The packed (fanout-64) layout reshapes the tree, so node counters
    /// differ — but the candidate sets and the result tallies must be
    /// identical to the pointer tree on every workload.
    #[test]
    fn prop_packed_layout_matches_both_backends(
        points in arb_points(),
        raw_rects in arb_raw_rects(),
    ) {
        let rects = make_rects(&raw_rects);
        let records: Vec<(Vector<2>, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Vector::from([x, y]), i))
            .collect();
        let tree = RTree::bulk_load(records.clone(), RStarParams::paper_default(2));
        let flat = FlatRTree::bulk_load(records);
        prop_assert_eq!(flat.len(), tree.len());

        for rect in &rects {
            let (tree_out, tree_stats) = search(&tree, rect);
            let (flat_out, flat_stats) = search(&flat, rect);
            prop_assert_eq!(key_set(&flat_out), key_set(&tree_out));
            prop_assert_eq!(flat_stats.results, tree_stats.results);
        }
    }
}
