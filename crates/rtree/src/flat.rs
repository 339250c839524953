//! Cache-conscious read-optimized R\*-tree: a frozen, flat-arena image
//! of an [`RTree`] built for Phase-1 scan speed (ROADMAP item 3).
//!
//! The pointer tree stores each node as a `Vec`-of-`Vec` (`Node`):
//! every descent chases heap pointers and tests child MBRs stored as
//! interleaved `{lo, hi}` structs, ~88 bytes apart. [`FlatRTree`]
//! freezes that structure into four contiguous arrays:
//!
//! * **node arena** — one 16-byte `FlatNode` per node in BFS order,
//!   children addressed by `u32` offsets and stored contiguously, so a
//!   node's child headers share cache lines;
//! * **SoA bounds arena** — per internal node, its children's MBRs laid
//!   out dimension-major (`cnt` mins then `cnt` maxes per dimension),
//!   so the AABB overlap test is a branch-free row scan that
//!   auto-vectorizes like the Phase-3 `count_hits` kernel; per leaf,
//!   the entry coordinates in the same dimension-major shape;
//! * **entry columns** — leaf points and payloads in global leaf order,
//!   so the `Phase1Index` borrow contract (`(&Vector, &T)`) is served
//!   from two dense arrays.
//!
//! Every node also carries a *hint key* — its own MBR in a dense side
//! array — checked once per visit: any dimension in which the query
//! rectangle covers the node's full extent is skipped in the row scans
//! (every child/entry trivially passes it). Large query rectangles
//! degenerate to near-copy scans.
//!
//! Two constructors with different parity contracts:
//!
//! * [`FlatRTree::freeze`] preserves the source topology exactly —
//!   candidate order *and* every [`SearchStats`] counter are bitwise
//!   identical to the pointer tree's [`RTree::query_rect_into`];
//! * [`FlatRTree::bulk_load`] re-packs with a cache-line-multiple
//!   fanout ([`PACKED_FANOUT`]), trading stat-compatibility for fewer,
//!   wider nodes — the candidate *set* is still identical (same
//!   boundary-inclusive predicates on the same points).
//!
//! # Concurrent reads: published snapshots
//!
//! The index is immutable by design, so any number of reader threads
//! share one image with no validation protocol. One writer owns the
//! mutable pointer [`RTree`]; after each batch of writes it publishes
//! `Arc::new(FlatRTree::freeze(tree.clone()))` into a
//! `RwLock<Arc<FlatRTree<D, T>>>`, and readers hold the read lock only
//! long enough to clone the `Arc`. A write becomes visible at the next
//! publish, and each publish costs an O(n) clone + freeze (DESIGN.md
//! §14).
//!
//! ```
//! use gprq_linalg::Vector;
//! use gprq_rtree::{FlatRTree, RStarParams, RTree, Rect};
//! use std::sync::{Arc, PoisonError, RwLock};
//!
//! let mut tree = RTree::with_params(RStarParams::paper_default(2));
//! for i in 0..100u32 {
//!     tree.insert(Vector::from([f64::from(i), f64::from(i)]), i);
//! }
//! let published = RwLock::new(Arc::new(FlatRTree::freeze(tree.clone())));
//! let load = |lock: &RwLock<Arc<FlatRTree<2, u32>>>| {
//!     Arc::clone(&lock.read().unwrap_or_else(PoisonError::into_inner))
//! };
//! let far = Rect::centered(&Vector::from([500.0, 500.0]), &Vector::from([1.0, 1.0]));
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         // The writer owns the pointer tree: write, then publish.
//!         tree.insert(Vector::from([500.0, 500.0]), 100);
//!         let image = Arc::new(FlatRTree::freeze(tree.clone()));
//!         *published.write().unwrap_or_else(PoisonError::into_inner) = image;
//!     });
//!     s.spawn(|| {
//!         // A concurrent reader sees either whole image.
//!         let image = load(&published);
//!         assert!(image.len() == 100 || image.len() == 101);
//!         assert_eq!(image.query_rect(&far).len(), image.len() - 100);
//!     });
//! });
//! // After the join, every load sees the write.
//! let image = load(&published);
//! assert_eq!(image.len(), 101);
//! assert_eq!(image.query_rect(&far).len(), 1);
//! ```

use crate::node::Node;
use crate::params::RStarParams;
use crate::query::{Phase1Index, SearchStats};
use crate::rect::Rect;
use crate::tree::RTree;
use gprq_linalg::Vector;
use std::collections::VecDeque;

/// Scan block width: children/entries are scanned up to `CHUNK` at a
/// time, each block's survivors held as one `u64` bitset — so no node
/// size forces a heap allocation, and must stay ≤ 64 (the bitset width).
const CHUNK: usize = 64;

/// Fanout of [`FlatRTree::bulk_load`]-packed trees: 64 entries per
/// node. One SoA row of a 64-wide node is 64 × 8 B = 512 B = 8 cache
/// lines walked sequentially with no branches, and the node count (and
/// with it the tree height and per-level header traffic) drops ~2.5×
/// against the paper's 1 KB-page fanout of 25.
pub const PACKED_FANOUT: usize = 64;

/// One node of the flat arena: 16 bytes, no pointers.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Start of this node's SoA block in the bounds arena.
    block: u32,
    /// First child node index (internal) or first entry index (leaf).
    first: u32,
    /// Number of children (internal) or entries (leaf).
    count: u32,
    /// Height above the leaf level; `0` marks a leaf.
    level: u32,
}

/// A read-optimized, cache-conscious flat image of an [`RTree`].
///
/// Implements [`Phase1Index`], so the PRQ executors and the batched
/// query engine (`QueryBatch` in the core crate) run over it
/// unchanged; see the module docs for the layout and parity contracts.
///
/// ```
/// use gprq_rtree::{FlatRTree, Phase1Index, RTree, RStarParams, Rect, SearchStats};
/// use gprq_linalg::Vector;
///
/// let points: Vec<(Vector<2>, u32)> = (0..500)
///     .map(|i| (Vector::from([(i % 23) as f64, (i % 41) as f64]), i))
///     .collect();
/// let flat = FlatRTree::bulk_load(points.clone());
/// assert_eq!(flat.len(), 500);
///
/// let rect = Rect::centered(&Vector::from([10.0, 20.0]), &Vector::from([3.0, 5.0]));
/// let mut stats = SearchStats::default();
/// let mut out = Vec::new();
/// flat.search_rect_into(&rect, &mut stats, &mut out);
/// let brute = points.iter().filter(|(p, _)| rect.contains_point(p)).count();
/// assert_eq!(out.len(), brute);
/// ```
#[derive(Debug, Clone)]
pub struct FlatRTree<const D: usize, T> {
    /// Node arena in BFS order; the root is `nodes[0]` when non-empty.
    nodes: Vec<FlatNode>,
    /// SoA blocks, dimension-major per node (see module docs).
    bounds: Vec<f64>,
    /// Per-node hint keys: each node's own MBR as `2 * D` floats
    /// (`lo_0, hi_0, lo_1, hi_1, …`), indexed by node * 2D.
    boxes: Vec<f64>,
    /// Leaf points in global leaf order (the borrow the trait returns).
    points: Vec<Vector<D>>,
    /// Payloads aligned with `points`.
    payloads: Vec<T>,
    /// Record count.
    len: usize,
    /// Tree height (a lone leaf root has height 1; empty tree 0).
    height: usize,
    /// MBR of the whole dataset (meaningful only when `len > 0`).
    root_mbr: Rect<D>,
}

impl<const D: usize, T> FlatRTree<D, T> {
    /// The cache-tuned R\* parameters used by [`FlatRTree::bulk_load`].
    pub fn packed_params() -> RStarParams {
        RStarParams::new(PACKED_FANOUT)
    }

    /// Builds a packed flat index directly from records: STR bulk load
    /// at [`PACKED_FANOUT`], then freeze. Candidate sets match any
    /// other backend over the same records; node-visit statistics
    /// reflect the packed topology (fewer, wider nodes).
    ///
    /// # Panics
    ///
    /// Panics if any point is non-finite, or on a dataset too large for
    /// `u32` node/entry addressing (≥ 2³² records).
    pub fn bulk_load(points: Vec<(Vector<D>, T)>) -> Self {
        Self::freeze(RTree::bulk_load(points, Self::packed_params()))
    }

    /// Freezes `tree` into a flat image with the **same topology**:
    /// per query, the candidate list, its order, and every counter in
    /// [`SearchStats`] are bitwise identical to the source tree's
    /// [`RTree::query_rect_into`] (pinned by `tests/flat_parity.rs`).
    ///
    /// Consumes the tree, so payloads need not be `Clone`; the source
    /// remains available by freezing a clone when both are wanted.
    ///
    /// # Panics
    ///
    /// Panics if any stored point is non-finite (the hint keys assume
    /// every point lies inside its leaf MBR, which `NaN` breaks), or if
    /// the tree exceeds `u32` node/entry/arena addressing — beyond
    /// in-memory scale for this index.
    pub fn freeze(tree: RTree<D, T>) -> Self {
        let len = tree.len();
        let height = if len == 0 { 0 } else { tree.height() };
        if len == 0 {
            return FlatRTree {
                nodes: Vec::new(),
                bounds: Vec::new(),
                boxes: Vec::new(),
                points: Vec::new(),
                payloads: Vec::new(),
                len: 0,
                height: 0,
                root_mbr: Rect::from_point(&Vector::ZERO),
            };
        }
        let n_nodes = tree.node_count();
        // Exact arena size: D floats per entry (leaf rows) plus 2·D per
        // parent-held child MBR (every node except the root is a child
        // exactly once).
        let arena = D * len + 2 * D * n_nodes.saturating_sub(1);
        let addressable = u32::MAX as usize;
        assert!(
            n_nodes <= addressable && len <= addressable && arena <= addressable,
            "flat R*-tree exceeds u32 addressing: {n_nodes} nodes / {len} entries"
        );
        let root_mbr = tree.root.mbr;

        let mut nodes: Vec<FlatNode> = Vec::with_capacity(n_nodes);
        let mut bounds: Vec<f64> = Vec::with_capacity(arena);
        let mut boxes: Vec<f64> = Vec::with_capacity(2 * D * n_nodes);
        let mut points: Vec<Vector<D>> = Vec::with_capacity(len);
        let mut payloads: Vec<T> = Vec::with_capacity(len);

        // BFS flattening: nodes take indices in enqueue order, so each
        // parent's children occupy a contiguous index range starting at
        // `next_index` when the parent is popped.
        let mut queue: VecDeque<Node<D, T>> = VecDeque::new();
        queue.push_back(tree.root);
        let mut next_index = 1usize;
        while let Some(node) = queue.pop_front() {
            for d in 0..D {
                boxes.push(node.mbr.lo[d]);
                boxes.push(node.mbr.hi[d]);
            }
            // Bounds proven <= u32::MAX by the addressing assert above.
            let block = bounds.len() as u32;
            if node.is_leaf() {
                let first = points.len() as u32;
                let count = node.entries.len() as u32;
                for d in 0..D {
                    for e in &node.entries {
                        bounds.push(e.point[d]);
                    }
                }
                for e in node.entries {
                    assert!(
                        e.point.is_finite(),
                        "flat R*-tree keys must be finite (hint keys rely on points lying inside their leaf MBR)"
                    );
                    points.push(e.point);
                    payloads.push(e.data);
                }
                nodes.push(FlatNode {
                    block,
                    first,
                    count,
                    level: 0,
                });
            } else {
                let first = next_index as u32;
                let count = node.children.len() as u32;
                for d in 0..D {
                    for c in &node.children {
                        bounds.push(c.mbr.lo[d]);
                    }
                    for c in &node.children {
                        bounds.push(c.mbr.hi[d]);
                    }
                }
                nodes.push(FlatNode {
                    block,
                    first,
                    count,
                    level: node.level,
                });
                next_index += node.children.len();
                for c in node.children {
                    queue.push_back(c);
                }
            }
        }
        FlatRTree {
            nodes,
            bounds,
            boxes,
            points,
            payloads,
            len,
            height,
            root_mbr,
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the frozen tree (a lone leaf root has height 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes in the flat arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// MBR of the whole dataset (`None` when empty).
    pub fn bounding_rect(&self) -> Option<Rect<D>> {
        if self.is_empty() {
            None
        } else {
            Some(self.root_mbr)
        }
    }

    /// Iterates over all `(point, payload)` records in global leaf
    /// order (the freeze-time BFS leaf order).
    pub fn iter(&self) -> impl Iterator<Item = (&Vector<D>, &T)> {
        std::iter::zip(self.points.iter(), self.payloads.iter())
    }

    /// Returns all records whose points lie in `rect`.
    pub fn query_rect(&self, rect: &Rect<D>) -> Vec<(&Vector<D>, &T)> {
        let mut stats = SearchStats::default();
        self.query_rect_with_stats(rect, &mut stats)
    }

    /// [`FlatRTree::query_rect`] with statistics accumulation.
    pub fn query_rect_with_stats(
        &self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
    ) -> Vec<(&Vector<D>, &T)> {
        let mut out = Vec::new();
        self.query_rect_into(rect, stats, &mut out);
        out
    }

    /// Buffer-reusing rectangle query: clears `out`, then appends every
    /// record whose point lies in `rect` (boundary inclusive). On a
    /// [`FlatRTree::freeze`]-built index this reproduces the source
    /// tree's results and statistics bitwise.
    pub fn query_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        out.clear();
        if self.len == 0 {
            return;
        }
        self.descend_rect(0, rect, stats, &mut |p, d| out.push((p, d)));
    }

    // HOT-PATH: flat-index rectangle descent (cache-conscious Phase 1 inner loop)
    fn descend_rect<'t>(
        &'t self,
        idx: usize,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        visit: &mut impl FnMut(&'t Vector<D>, &'t T),
    ) {
        let Some(&node) = self.nodes.get(idx) else {
            return;
        };
        stats.nodes_visited += 1;
        let cnt = node.count as usize;
        let block = node.block as usize;
        let first = node.first as usize;
        if node.level == 0 {
            self.scan_leaf(idx, rect, stats, visit);
        } else {
            let covered = self.covered_dims(idx, rect);
            let mut base = 0usize;
            while base < cnt {
                let take = CHUNK.min(cnt - base);
                let mut m = self.inner_mask(block, cnt, base, take, rect, &covered);
                // Walk only the set bits (ascending, preserving the
                // source tree's child visit order).
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.descend_rect(first + base + i, rect, stats, visit);
                }
                base += take;
            }
        }
    }

    // HOT-PATH: packed flat leaf probe (branch-free containment scan)
    fn scan_leaf<'t>(
        &'t self,
        idx: usize,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        visit: &mut impl FnMut(&'t Vector<D>, &'t T),
    ) {
        let Some(&node) = self.nodes.get(idx) else {
            return;
        };
        let cnt = node.count as usize;
        let block = node.block as usize;
        let first = node.first as usize;
        let covered = self.covered_dims(idx, rect);
        let mut base = 0usize;
        while base < cnt {
            let take = CHUNK.min(cnt - base);
            let mut m = self.leaf_mask(block, cnt, base, take, rect, &covered);
            // Exact solo semantics: every entry of a visited leaf is
            // "checked" even when a hint skipped its comparisons.
            stats.entries_checked += take;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let e = first + base + i;
                if let (Some(p), Some(d)) = (self.points.get(e), self.payloads.get(e)) {
                    stats.results += 1;
                    visit(p, d);
                }
            }
            base += take;
        }
    }

    // HOT-PATH: branch-free SoA overlap scan over one node's child MBR rows
    //
    // Returns a bitset: bit `i` set iff chunk slot `i` overlaps `rect`
    // — the same boolean per child as `rect.intersects(&child.mbr)`
    // (`q.lo[d] <= child.hi[d] && q.hi[d] >= child.lo[d]` over every
    // dimension). Each dimension's comparison row ANDs into the running
    // bitset branch-free; a row that empties the set short-circuits the
    // remaining dimensions, and callers walk only the set bits via
    // `trailing_zeros` instead of all `CHUNK` slots.
    fn inner_mask(
        &self,
        block: usize,
        cnt: usize,
        base: usize,
        take: usize,
        rect: &Rect<D>,
        covered: &[bool; D],
    ) -> u64 {
        let mut m = chunk_mask(take);
        for (d, &cov) in std::iter::zip(0..D, covered) {
            if cov {
                continue;
            }
            let q_lo = rect.lo[d];
            let q_hi = rect.hi[d];
            let min_row = block + 2 * d * cnt + base;
            let max_row = min_row + cnt;
            let (Some(mins), Some(maxs)) = (
                self.bounds.get(min_row..min_row + take),
                self.bounds.get(max_row..max_row + take),
            ) else {
                return 0;
            };
            let mut row = 0u64;
            for (i, (mn, mx)) in std::iter::zip(0u32.., std::iter::zip(mins, maxs)) {
                row |= (u64::from(q_lo <= *mx) & u64::from(q_hi >= *mn)) << i;
            }
            m &= row;
            if m == 0 {
                return 0;
            }
        }
        m
    }

    // HOT-PATH: branch-free SoA containment scan over one leaf's coordinate rows
    //
    // Bit `i` set iff chunk entry `i` lies inside `rect` — the same
    // boolean per entry as `rect.contains_point(&p)`
    // (`q.lo[d] <= p[d] && p[d] <= q.hi[d]` over every dimension).
    fn leaf_mask(
        &self,
        block: usize,
        cnt: usize,
        base: usize,
        take: usize,
        rect: &Rect<D>,
        covered: &[bool; D],
    ) -> u64 {
        let mut m = chunk_mask(take);
        for (d, &cov) in std::iter::zip(0..D, covered) {
            if cov {
                continue;
            }
            let q_lo = rect.lo[d];
            let q_hi = rect.hi[d];
            let at = block + d * cnt + base;
            let Some(xs) = self.bounds.get(at..at + take) else {
                return 0;
            };
            let mut row = 0u64;
            for (i, x) in std::iter::zip(0u32.., xs) {
                row |= (u64::from(q_lo <= *x) & u64::from(*x <= q_hi)) << i;
            }
            m &= row;
            if m == 0 {
                return 0;
            }
        }
        m
    }

    // HOT-PATH: per-node hint key — dimensions the query fully covers
    //
    // For any dimension `d` with `q.lo[d] <= node.lo[d]` and
    // `node.hi[d] <= q.hi[d]`, every child MBR and every leaf point lies
    // inside `[node.lo, node.hi]` (the containment invariant; freeze
    // asserts finite keys), so the dimension-`d` comparison row resolves
    // to all-pass and is skipped. The skip never changes a predicate
    // outcome — it only removes comparisons whose result is forced.
    fn covered_dims(&self, idx: usize, rect: &Rect<D>) -> [bool; D] {
        let mut cov = [false; D];
        let at = 2 * D * idx;
        if let Some(bx) = self.boxes.get(at..at + 2 * D) {
            for (d, pair) in bx.chunks_exact(2).enumerate() {
                if let &[node_lo, node_hi] = pair {
                    cov[d] = rect.lo[d] <= node_lo && node_hi <= rect.hi[d];
                }
            }
        }
        cov
    }
}

// HOT-PATH: all-ones bitset over a chunk's first `take` slots
fn chunk_mask(take: usize) -> u64 {
    if take >= 64 {
        u64::MAX
    } else {
        (1u64 << take) - 1
    }
}

impl<const D: usize, T> Phase1Index<D, T> for FlatRTree<D, T> {
    fn search_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        self.query_rect_into(rect, stats, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn published_snapshots_stay_whole_under_concurrent_reads() {
        // The module docs' publish protocol under load: one writer
        // publishes an image after each insert while two readers load
        // and query, and every load sees one whole image.
        use std::sync::{Arc, PoisonError, RwLock};
        let mut tree = RTree::with_params(RStarParams::paper_default(2));
        for i in 0..100u32 {
            tree.insert(Vector::from([f64::from(i), f64::from(i)]), i);
        }
        let published = RwLock::new(Arc::new(FlatRTree::freeze(tree.clone())));
        let load = || Arc::clone(&published.read().unwrap_or_else(PoisonError::into_inner));
        let far = Rect::centered(&Vector::from([500.0, 500.0]), &Vector::from([1.0, 50.0]));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20u32 {
                    tree.insert(Vector::from([500.0, 500.0 + f64::from(i)]), 100 + i);
                    let image = Arc::new(FlatRTree::freeze(tree.clone()));
                    *published.write().unwrap_or_else(PoisonError::into_inner) = image;
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let image = load();
                        assert_eq!(image.query_rect(&far).len(), image.len() - 100);
                    }
                });
            }
        });
        assert_eq!(load().len(), 120);
    }

    #[test]
    fn empty_tree_freezes_to_empty_index() {
        let flat: FlatRTree<2, u8> = FlatRTree::freeze(RTree::new());
        assert!(flat.is_empty());
        assert_eq!(flat.len(), 0);
        assert_eq!(flat.height(), 0);
        assert_eq!(flat.node_count(), 0);
        assert!(flat.bounding_rect().is_none());
        let mut stats = SearchStats::default();
        let mut out = Vec::new();
        flat.query_rect_into(&Rect::everything(), &mut stats, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, SearchStats::default());
    }

    #[test]
    fn freeze_preserves_shape_and_records() {
        let points = random_points(2_000, 7, 800.0);
        let tree = RTree::bulk_load(points.clone(), RStarParams::paper_default(2));
        let (node_count, height, bbox) = (tree.node_count(), tree.height(), tree.bounding_rect());
        let flat = FlatRTree::freeze(tree);
        assert_eq!(flat.len(), 2_000);
        assert_eq!(flat.node_count(), node_count);
        assert_eq!(flat.height(), height);
        assert_eq!(flat.bounding_rect(), bbox);
        assert_eq!(flat.iter().count(), 2_000);
    }

    #[test]
    fn frozen_query_matches_pointer_tree_bitwise() {
        let points = random_points(3_000, 11, 1_000.0);
        let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
        let flat = FlatRTree::freeze(tree.clone());
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let c = Vector::from([rng.gen::<f64>() * 1_000.0, rng.gen::<f64>() * 1_000.0]);
            let half = Vector::from([rng.gen::<f64>() * 150.0, rng.gen::<f64>() * 150.0]);
            let rect = Rect::centered(&c, &half);

            let mut tree_stats = SearchStats::default();
            let mut tree_out = Vec::new();
            tree.query_rect_into(&rect, &mut tree_stats, &mut tree_out);

            let mut flat_stats = SearchStats::default();
            let mut flat_out = Vec::new();
            flat.query_rect_into(&rect, &mut flat_stats, &mut flat_out);

            assert_eq!(flat_out, tree_out, "candidates diverge");
            assert_eq!(flat_stats, tree_stats, "stats diverge");
        }
    }

    #[test]
    fn packed_layout_matches_brute_force() {
        let points = random_points(2_500, 21, 500.0);
        let flat = FlatRTree::bulk_load(points.clone());
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..40 {
            let c = Vector::from([rng.gen::<f64>() * 500.0, rng.gen::<f64>() * 500.0]);
            let half = Vector::from([rng.gen::<f64>() * 80.0, rng.gen::<f64>() * 80.0]);
            let rect = Rect::centered(&c, &half);
            let mut got: Vec<usize> = flat.query_rect(&rect).iter().map(|(_, d)| **d).collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = points
                .iter()
                .filter(|(p, _)| rect.contains_point(p))
                .map(|(_, d)| *d)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn covering_query_returns_everything_with_leaf_level_checks() {
        let points = random_points(800, 31, 300.0);
        let flat = FlatRTree::bulk_load(points);
        let mut stats = SearchStats::default();
        let out = flat.query_rect_with_stats(&Rect::everything(), &mut stats);
        assert_eq!(out.len(), 800);
        assert_eq!(stats.results, 800);
        assert_eq!(stats.entries_checked, 800);
        assert_eq!(stats.nodes_visited, flat.node_count());
    }

    #[test]
    fn degenerate_and_disjoint_rects() {
        let points = vec![
            (Vector::from([1.0, 1.0]), 0usize),
            (Vector::from([2.0, 2.0]), 1),
            (Vector::from([1.0, 1.0]), 2),
        ];
        let flat = FlatRTree::bulk_load(points);
        // Degenerate (zero-area) rect on a duplicated point.
        let hit = flat.query_rect(&Rect::from_point(&Vector::from([1.0, 1.0])));
        assert_eq!(hit.len(), 2);
        // Inverted rect (lo > hi) matches nothing, exactly like the
        // pointer tree's predicates.
        let inverted = Rect {
            lo: Vector::from([5.0, 5.0]),
            hi: Vector::from([-5.0, -5.0]),
        };
        assert!(flat.query_rect(&inverted).is_empty());
        let far = Rect::centered(&Vector::from([1e6, 1e6]), &Vector::from([1.0, 1.0]));
        assert!(flat.query_rect(&far).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_keys_rejected_at_freeze() {
        let mut tree: RTree<2, u8> = RTree::new();
        tree.insert(Vector::from([f64::NAN, 0.0]), 1);
        let _ = FlatRTree::freeze(tree);
    }

    #[test]
    fn packed_fanout_is_cache_line_multiple() {
        // 8 f64 per 64-byte line; a packed SoA row must tile lines.
        assert_eq!(PACKED_FANOUT % 8, 0);
        assert_eq!(
            FlatRTree::<2, u8>::packed_params().max_entries,
            PACKED_FANOUT
        );
    }
}
