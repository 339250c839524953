//! The R\*-tree proper: insertion (with forced reinsertion), deletion
//! (with tree condensation), and structural validation.

use crate::node::{LeafEntry, Node};
use crate::params::RStarParams;
use crate::rect::Rect;
use crate::split::rstar_split;
use gprq_linalg::Vector;

/// An in-memory R\*-tree over `D`-dimensional points with payload `T`.
///
/// This is the "conventional spatial index" of paper §III-A: the target
/// objects of a probabilistic range query have exact locations, so a
/// classical point R\*-tree (Beckmann et al.) serves Phase 1 unchanged.
///
/// ```
/// use gprq_rtree::RTree;
/// use gprq_linalg::Vector;
///
/// let mut tree: RTree<2, usize> = RTree::new();
/// for (i, xy) in [[1.0, 1.0], [2.0, 5.0], [9.0, 9.0]].iter().enumerate() {
///     tree.insert(Vector::from(*xy), i);
/// }
/// let hits = tree.query_ball(&Vector::from([1.5, 3.0]), 3.0);
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RTree<const D: usize, T> {
    pub(crate) root: Node<D, T>,
    pub(crate) params: RStarParams,
    pub(crate) len: usize,
}

/// Work queued for (re)insertion during one insert/delete operation.
enum Pending<const D: usize, T> {
    Point(LeafEntry<D, T>),
    Subtree(Node<D, T>),
}

/// Per-operation context implementing the R\* "reinsert once per level"
/// rule.
struct InsertCtx<const D: usize, T> {
    pending: Vec<Pending<D, T>>,
    reinserted_levels: Vec<bool>,
}

impl<const D: usize, T> InsertCtx<D, T> {
    fn new() -> Self {
        InsertCtx {
            pending: Vec::new(),
            reinserted_levels: Vec::new(),
        }
    }

    /// Returns `true` (and records it) if level `lvl` has not yet done a
    /// forced reinsertion during this operation.
    fn try_mark_reinserted(&mut self, lvl: usize) -> bool {
        if self.reinserted_levels.len() <= lvl {
            self.reinserted_levels.resize(lvl + 1, false);
        }
        if self.reinserted_levels[lvl] {
            false
        } else {
            self.reinserted_levels[lvl] = true;
            true
        }
    }
}

impl<const D: usize, T> Default for RTree<D, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize, T> RTree<D, T> {
    /// An empty tree with default parameters.
    pub fn new() -> Self {
        Self::with_params(RStarParams::default())
    }

    /// An empty tree with explicit parameters.
    pub fn with_params(params: RStarParams) -> Self {
        RTree {
            root: Node::empty_leaf(),
            params,
            len: 0,
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (a lone leaf root has height 1).
    pub fn height(&self) -> usize {
        self.root.level as usize + 1
    }

    /// Total number of nodes (root, internal, leaves).
    pub fn node_count(&self) -> usize {
        self.root.count_nodes()
    }

    /// The tree's parameters.
    pub fn params(&self) -> RStarParams {
        self.params
    }

    /// MBR of the whole dataset (`None` when empty).
    pub fn bounding_rect(&self) -> Option<Rect<D>> {
        if self.is_empty() {
            None
        } else {
            Some(self.root.mbr)
        }
    }

    /// Inserts a record.
    ///
    /// # Panics
    ///
    /// Panics if the point has non-finite coordinates (NaN keys would
    /// corrupt every comparison-based invariant in the tree).
    pub fn insert(&mut self, point: Vector<D>, data: T) {
        assert!(point.is_finite(), "R-tree keys must be finite, got {point}");
        let mut ctx = InsertCtx::new();
        self.insert_one(Pending::Point(LeafEntry { point, data }), &mut ctx);
        while let Some(p) = ctx.pending.pop() {
            self.insert_one(p, &mut ctx);
        }
        self.len += 1;
    }

    /// Removes one record equal to `(point, data)`.
    ///
    /// Points match by `f64` `==` on every coordinate: exactly, except
    /// that `-0.0` and `0.0` compare equal. Returns `false` if no such
    /// record exists. When several matching records exist, exactly one is
    /// removed.
    pub fn remove(&mut self, point: &Vector<D>, data: &T) -> bool
    where
        T: PartialEq,
    {
        let mut orphans: Vec<LeafEntry<D, T>> = Vec::new();
        if !delete_rec(&mut self.root, point, data, &mut orphans, self.params) {
            return false;
        }
        self.len -= 1;

        // Shrink the root: an internal root with a single child is
        // replaced by that child; an emptied root degenerates to a leaf.
        loop {
            if self.root.is_leaf() {
                break;
            }
            match self.root.children.len() {
                0 => {
                    self.root = Node::empty_leaf();
                    break;
                }
                1 => {
                    if let Some(child) = self.root.children.pop() {
                        self.root = child;
                    }
                }
                _ => break,
            }
        }

        // Reinsert orphaned records through the normal insertion path.
        for entry in orphans {
            let mut ctx = InsertCtx::new();
            self.insert_one(Pending::Point(entry), &mut ctx);
            while let Some(p) = ctx.pending.pop() {
                self.insert_one(p, &mut ctx);
            }
        }
        true
    }

    /// Dispatches one pending entry from the root, handling root splits.
    fn insert_one(&mut self, entry: Pending<D, T>, ctx: &mut InsertCtx<D, T>) {
        let target_level = match &entry {
            Pending::Point(_) => 0,
            Pending::Subtree(n) => n.level + 1,
        };
        debug_assert!(target_level <= self.root.level || self.root.is_leaf());
        if let Some(sibling) =
            insert_rec(&mut self.root, entry, target_level, ctx, self.params, true)
        {
            let old_root = std::mem::replace(&mut self.root, Node::empty_leaf());
            self.root = Node::internal_from_children(vec![old_root, sibling]);
        }
    }

    /// Gathers occupancy statistics (node counts and fill factors per
    /// level) — used by the experiment harness to report index quality
    /// and by tests to confirm bulk loading packs nodes densely.
    pub fn tree_stats(&self) -> TreeStats {
        let mut stats = TreeStats {
            height: self.height(),
            records: self.len,
            ..TreeStats::default()
        };
        if !self.is_empty() {
            collect_stats(&self.root, &mut stats);
            stats.mean_leaf_occupancy = if stats.leaf_nodes > 0 {
                stats.leaf_slot_sum as f64
                    / (stats.leaf_nodes as f64 * self.params.max_entries as f64)
            } else {
                0.0
            };
        }
        stats
    }

    /// Checks every structural invariant of the tree, returning a
    /// description of the first violation.
    ///
    /// Intended for tests and debugging (it walks the whole tree):
    /// * stored record count matches `len`,
    /// * every node's MBR tightly bounds its contents,
    /// * occupancy is within `[m, M]` for all non-root nodes,
    /// * all leaves sit at level 0 and levels decrease by one per step.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant (there is no error taxonomy worth an enum here).
    pub fn validate(&self) -> Result<(), String> {
        let mut count = 0usize;
        validate_rec(&self.root, self.params, true, &mut count)?;
        if count != self.len {
            return Err(format!("len = {} but found {count} records", self.len));
        }
        Ok(())
    }
}

/// Occupancy summary of a tree (see [`RTree::tree_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeStats {
    /// Tree height (leaf root = 1).
    pub height: usize,
    /// Stored records.
    pub records: usize,
    /// Leaf node count.
    pub leaf_nodes: usize,
    /// Internal node count (including the root when internal).
    pub internal_nodes: usize,
    /// Sum of leaf occupancies (internal detail for the mean).
    pub leaf_slot_sum: usize,
    /// Mean leaf fill factor relative to `max_entries` (0–1).
    pub mean_leaf_occupancy: f64,
}

fn collect_stats<const D: usize, T>(node: &Node<D, T>, stats: &mut TreeStats) {
    if node.is_leaf() {
        stats.leaf_nodes += 1;
        stats.leaf_slot_sum += node.entries.len();
    } else {
        stats.internal_nodes += 1;
        for c in &node.children {
            collect_stats(c, stats);
        }
    }
}

/// Recursive insertion. Returns a split-off sibling if `node` overflowed
/// and was split.
fn insert_rec<const D: usize, T>(
    node: &mut Node<D, T>,
    entry: Pending<D, T>,
    target_level: u32,
    ctx: &mut InsertCtx<D, T>,
    params: RStarParams,
    is_root: bool,
) -> Option<Node<D, T>> {
    if node.level == target_level {
        match entry {
            Pending::Point(e) => {
                debug_assert!(node.is_leaf());
                if node.entries.is_empty() && node.children.is_empty() {
                    node.mbr = Rect::from_point(&e.point);
                } else {
                    node.mbr.extend_point(&e.point);
                }
                node.entries.push(e);
            }
            Pending::Subtree(n) => {
                debug_assert!(!node.is_leaf());
                node.mbr.extend_rect(&n.mbr);
                node.children.push(n);
            }
        }
        if node.occupancy() > params.max_entries {
            return overflow_treatment(node, ctx, params, is_root);
        }
        None
    } else {
        let entry_mbr = match &entry {
            Pending::Point(e) => Rect::from_point(&e.point),
            Pending::Subtree(n) => n.mbr,
        };
        let idx = choose_subtree(node, &entry_mbr);
        let split = insert_rec(
            &mut node.children[idx],
            entry,
            target_level,
            ctx,
            params,
            false,
        );
        let result = if let Some(sibling) = split {
            node.children.push(sibling);
            if node.children.len() > params.max_entries {
                node.recompute_mbr();
                return overflow_treatment(node, ctx, params, is_root);
            }
            None
        } else {
            None
        };
        // The child's MBR may have grown (insert) or shrunk (forced
        // reinsertion removed entries), so recompute rather than extend.
        node.recompute_mbr();
        result
    }
}

/// The R\* ChooseSubtree heuristic: the child with the least key
/// (overlap enlargement, area enlargement, area) when the children are
/// leaves, (area enlargement, area) otherwise, first one on ties.
///
/// Scoring every child of a leaf parent by its overlap with all its
/// siblings costs O(M²) `overlap_area` calls, so that level first tries
/// [`zero_overlap_choice`], an O(M) shortcut that returns the scan's
/// answer whenever it can prove it, and runs [`choose_subtree_scan`]
/// only when it cannot.
fn choose_subtree<const D: usize, T>(node: &Node<D, T>, entry_mbr: &Rect<D>) -> usize {
    debug_assert!(!node.children.is_empty());
    if node.level == 1 {
        if let Some(k) = zero_overlap_choice(&node.children, entry_mbr) {
            debug_assert_eq!(k, choose_subtree_scan(node, entry_mbr));
            return k;
        }
    }
    choose_subtree_scan(node, entry_mbr)
}

/// The full R\* ChooseSubtree scan: scores every child and keeps the first
/// strict minimum of its key. The fallback of [`choose_subtree`] and the
/// oracle its tests compare against.
fn choose_subtree_scan<const D: usize, T>(node: &Node<D, T>, entry_mbr: &Rect<D>) -> usize {
    let children_are_leaves = node.level == 1;
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, child) in node.children.iter().enumerate() {
        let enlarged = child.mbr.union(entry_mbr);
        let area_enlargement = enlarged.area() - child.mbr.area();
        let key = if children_are_leaves {
            (
                overlap_enlargement(&node.children, i, &child.mbr, &enlarged),
                area_enlargement,
                child.mbr.area(),
            )
        } else {
            (area_enlargement, child.mbr.area(), 0.0)
        };
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// How much the summed overlap of `siblings[i]` (whose MBR is `mbr`) with
/// every other sibling grows when its MBR grows to `enlarged`.
fn overlap_enlargement<const D: usize, T>(
    siblings: &[Node<D, T>],
    i: usize,
    mbr: &Rect<D>,
    enlarged: &Rect<D>,
) -> f64 {
    let mut overlap_before = 0.0;
    let mut overlap_after = 0.0;
    for (j, other) in siblings.iter().enumerate() {
        if i == j {
            continue;
        }
        overlap_before += mbr.overlap_area(&other.mbr);
        overlap_after += enlarged.overlap_area(&other.mbr);
    }
    overlap_after - overlap_before
}

/// The exact shortcut of [`choose_subtree`] at a leaf parent: returns the
/// child [`choose_subtree_scan`] would return, or `None` when it cannot
/// prove which one that is.
///
/// It takes the first child `k` that minimizes (area enlargement, area),
/// an O(M) pass, and computes only `k`'s overlap enlargement. If that is
/// exactly 0, `k` is the scan's choice:
///
/// * Overlap enlargement is never negative. `union` only grows a box
///   (per-axis `min`/`max` are exact) and `overlap_area` is monotone in
///   its first box: each clipped extent of the grown box is at least the
///   old one, and a float subtraction, product or sum of larger operands
///   is never smaller. So `overlap_after ≥ overlap_before` term by term
///   and in sum, and their difference is ≥ 0. It can also be +∞, or NaN
///   from ∞ − ∞; a NaN key is never `<` anything, so it never wins.
/// * Every key is therefore at least (0, area enlargement, area), and
///   `k`'s key is exactly (0, its area enlargement, its area). Each child
///   before `k` has (area enlargement, area) strictly above `k`'s, so its
///   key is strictly above `k`'s, and the scan's running minimum moves to
///   `k`. No child after `k` has a key strictly below `k`'s, so it stays.
///
/// Huge coordinates (beyond ~1e154 in 2-D) can make an area infinite, a
/// 0 × ∞ area NaN and an ∞ − ∞ enlargement NaN. Then (area enlargement, area) is not
/// totally ordered, so the shortcut gives up and the scan decides.
fn zero_overlap_choice<const D: usize, T>(
    children: &[Node<D, T>],
    entry_mbr: &Rect<D>,
) -> Option<usize> {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, child) in children.iter().enumerate() {
        let area = child.mbr.area();
        let key = (child.mbr.union(entry_mbr).area() - area, area);
        if key.0.is_nan() || key.1.is_nan() {
            return None;
        }
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    let child = children.get(best)?;
    let enlarged = child.mbr.union(entry_mbr);
    // Never negative (see above), so `<= 0.0` is the exact-zero test.
    (overlap_enlargement(children, best, &child.mbr, &enlarged) <= 0.0).then_some(best)
}

/// R\* OverflowTreatment: forced reinsertion the first time a level
/// overflows during an operation, a proper split afterwards (and always
/// for the root).
fn overflow_treatment<const D: usize, T>(
    node: &mut Node<D, T>,
    ctx: &mut InsertCtx<D, T>,
    params: RStarParams,
    is_root: bool,
) -> Option<Node<D, T>> {
    let lvl = node.level as usize;
    if !is_root && ctx.try_mark_reinserted(lvl) {
        force_reinsert(node, ctx, params);
        None
    } else {
        Some(split_node(node, params))
    }
}

/// Removes the `p` entries whose centers lie farthest from the node's MBR
/// center and queues them for reinsertion, closest first ("close
/// reinsert" — the variant the R\* authors found best).
fn force_reinsert<const D: usize, T>(
    node: &mut Node<D, T>,
    ctx: &mut InsertCtx<D, T>,
    params: RStarParams,
) {
    let center = node.mbr.center();
    let p = params
        .reinsert_count
        .min(node.occupancy() - params.min_entries);
    if node.is_leaf() {
        // Sort ascending by distance; split off the far tail.
        node.entries.sort_by(|a, b| {
            a.point
                .distance_squared(&center)
                .total_cmp(&b.point.distance_squared(&center))
        });
        let tail = node.entries.split_off(node.entries.len() - p);
        // Queue far-to-near; the pending stack pops nearest first.
        for e in tail.into_iter().rev() {
            ctx.pending.push(Pending::Point(e));
        }
    } else {
        node.children.sort_by(|a, b| {
            a.mbr
                .center()
                .distance_squared(&center)
                .total_cmp(&b.mbr.center().distance_squared(&center))
        });
        let tail = node.children.split_off(node.children.len() - p);
        for n in tail.into_iter().rev() {
            ctx.pending.push(Pending::Subtree(n));
        }
    }
    node.recompute_mbr();
}

/// Splits an overflowing node in place; `node` keeps the left group and
/// the right group is returned as a new sibling.
fn split_node<const D: usize, T>(node: &mut Node<D, T>, params: RStarParams) -> Node<D, T> {
    if node.is_leaf() {
        let items = std::mem::take(&mut node.entries);
        let split = rstar_split(items, params.min_entries);
        node.entries = split.left;
        node.recompute_mbr();
        Node::leaf_from_entries(split.right)
    } else {
        let items = std::mem::take(&mut node.children);
        let split = rstar_split(items, params.min_entries);
        node.children = split.left;
        node.recompute_mbr();
        Node::internal_from_children(split.right)
    }
}

/// Recursive deletion with condensation. Underflowing nodes along the
/// path are dissolved and their records queued in `orphans`.
fn delete_rec<const D: usize, T: PartialEq>(
    node: &mut Node<D, T>,
    point: &Vector<D>,
    data: &T,
    orphans: &mut Vec<LeafEntry<D, T>>,
    params: RStarParams,
) -> bool {
    if node.is_leaf() {
        if let Some(idx) = node
            .entries
            .iter()
            .position(|e| e.point == *point && e.data == *data)
        {
            node.entries.swap_remove(idx);
            node.recompute_mbr();
            return true;
        }
        return false;
    }
    for i in 0..node.children.len() {
        if !node.children[i].mbr.contains_point(point) {
            continue;
        }
        if delete_rec(&mut node.children[i], point, data, orphans, params) {
            if node.children[i].occupancy() < params.min_entries {
                let removed = node.children.remove(i);
                collect_entries(removed, orphans);
            }
            node.recompute_mbr();
            return true;
        }
    }
    false
}

/// Flattens a dissolved subtree into its leaf records.
fn collect_entries<const D: usize, T>(node: Node<D, T>, out: &mut Vec<LeafEntry<D, T>>) {
    if node.is_leaf() {
        out.extend(node.entries);
    } else {
        for child in node.children {
            collect_entries(child, out);
        }
    }
}

fn validate_rec<const D: usize, T>(
    node: &Node<D, T>,
    params: RStarParams,
    is_root: bool,
    count: &mut usize,
) -> Result<(), String> {
    let occ = node.occupancy();
    if !is_root && occ < params.min_entries {
        return Err(format!(
            "non-root node at level {} underflows: {occ} < {}",
            node.level, params.min_entries
        ));
    }
    if occ > params.max_entries {
        return Err(format!(
            "node at level {} overflows: {occ} > {}",
            node.level, params.max_entries
        ));
    }
    if node.is_leaf() {
        if !node.children.is_empty() {
            return Err("leaf has children".into());
        }
        *count += node.entries.len();
        for e in &node.entries {
            if !node.mbr.contains_point(&e.point) {
                return Err(format!("leaf MBR does not contain point {}", e.point));
            }
        }
        // MBR must be tight.
        if !node.entries.is_empty() {
            let tight = Node::leaf_from_entries(
                node.entries
                    .iter()
                    .map(|e| LeafEntry {
                        point: e.point,
                        data: (),
                    })
                    .collect(),
            )
            .mbr;
            if tight != node.mbr {
                return Err("leaf MBR is not tight".into());
            }
        }
    } else {
        if !node.entries.is_empty() {
            return Err("internal node has leaf entries".into());
        }
        if node.children.is_empty() {
            return Err("internal node has no children".into());
        }
        let mut tight = node.children[0].mbr;
        for child in &node.children {
            if child.level + 1 != node.level {
                return Err(format!(
                    "child level {} under node level {}",
                    child.level, node.level
                ));
            }
            if !node.mbr.contains_rect(&child.mbr) {
                return Err("node MBR does not contain child MBR".into());
            }
            tight.extend_rect(&child.mbr);
            validate_rec(child, params, false, count)?;
        }
        if tight != node.mbr {
            return Err("internal MBR is not tight".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How often [`zero_overlap_choice`] decided, and how often it left
    /// the choice to the scan.
    #[derive(Debug, Default)]
    struct Tally {
        shortcut: usize,
        scan: usize,
    }

    /// At every leaf parent under `node`, asserts that `choose_subtree`
    /// picks the full scan's child for every probe point.
    fn check_leaf_parents(node: &Node<2, usize>, probes: &[Vector<2>], tally: &mut Tally) {
        if node.level > 1 {
            for child in &node.children {
                check_leaf_parents(child, probes, tally);
            }
        } else if node.level == 1 {
            for p in probes {
                let entry = Rect::from_point(p);
                match zero_overlap_choice(&node.children, &entry) {
                    Some(_) => tally.shortcut += 1,
                    None => tally.scan += 1,
                }
                let scan = choose_subtree_scan(node, &entry);
                assert_eq!(choose_subtree(node, &entry), scan, "probe {p}");
            }
        }
    }

    /// Inserts `points` one by one, then moves every other record
    /// (remove, reinsert at a fresh `draw` under a new id), validating
    /// after every operation and comparing every leaf parent's choice
    /// with the full scan for fresh `draw` probes every 20 operations.
    fn churn(
        points: &[[f64; 2]],
        params: RStarParams,
        seed: u64,
        draw: impl Fn(&mut StdRng) -> [f64; 2],
    ) -> Tally {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree: RTree<2, usize> = RTree::with_params(params);
        let mut tally = Tally::default();
        let mut ops = 0usize;
        let mut step = |tree: &RTree<2, usize>, rng: &mut StdRng, tally: &mut Tally| {
            if let Err(e) = tree.validate() {
                panic!("invalid tree after {ops} operations: {e}");
            }
            ops += 1;
            if ops % 20 == 0 {
                let probes: Vec<Vector<2>> = (0..12).map(|_| Vector::from(draw(rng))).collect();
                check_leaf_parents(&tree.root, &probes, tally);
            }
        };
        for (id, p) in points.iter().enumerate() {
            tree.insert(Vector::from(*p), id);
            step(&tree, &mut rng, &mut tally);
        }
        for (id, p) in points.iter().enumerate().step_by(2) {
            assert!(tree.remove(&Vector::from(*p), &id));
            step(&tree, &mut rng, &mut tally);
            tree.insert(Vector::from(draw(&mut rng)), points.len() + id);
            step(&tree, &mut rng, &mut tally);
        }
        tally
    }

    /// `n` draws, every eighth a duplicate of the one before.
    fn with_duplicates(
        n: usize,
        seed: u64,
        draw: impl Fn(&mut StdRng) -> [f64; 2],
    ) -> Vec<[f64; 2]> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<[f64; 2]> = Vec::with_capacity(n);
        for i in 0..n {
            let p = match points.last() {
                Some(&last) if i % 8 == 0 => last,
                _ => draw(&mut rng),
            };
            points.push(p);
        }
        points
    }

    fn uniform(rng: &mut StdRng) -> [f64; 2] {
        [rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)]
    }

    /// Points on two axis-parallel lines: leaves of zero area.
    fn collinear(rng: &mut StdRng) -> [f64; 2] {
        let t = rng.gen_range(0.0..1000.0);
        if rng.gen_bool(0.5) {
            [t, 250.0]
        } else {
            [750.0, t]
        }
    }

    /// Mostly coordinates near ±1e200, whose areas overflow to ∞ and
    /// whose enlargements are ∞ − ∞ = NaN, with some small points mixed in.
    fn huge(rng: &mut StdRng) -> [f64; 2] {
        if rng.gen_bool(0.25) {
            uniform(rng)
        } else {
            [rng.gen_range(-2e200..2e200), rng.gen_range(-2e200..2e200)]
        }
    }

    #[test]
    fn choose_subtree_matches_the_full_scan() {
        for params in [RStarParams::paper_default(2), RStarParams::new(4)] {
            let run = |seed, draw: fn(&mut StdRng) -> [f64; 2]| {
                churn(&with_duplicates(600, seed, draw), params, seed, draw)
            };
            let (u, c, h) = (run(1, uniform), run(2, collinear), run(3, huge));
            let fanout = params.max_entries;
            // Overlapping leaves need both paths, zero-area leaves never
            // overlap, and infinite areas always leave it to the scan.
            assert!(u.shortcut > 0 && u.scan > 0, "uniform, M = {fanout}: {u:?}");
            assert!(c.shortcut > 0, "collinear, M = {fanout}: {c:?}");
            assert!(h.scan > 0, "huge, M = {fanout}: {h:?}");
        }
    }
}
