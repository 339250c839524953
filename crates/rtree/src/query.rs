//! Query operations: rectangle range, ball range, and k-nearest-neighbor
//! search, all with node-access accounting.
//!
//! The paper reports that Phase 1 (index-based search) is a negligible
//! fraction of query cost, but its *output size* — the candidate set —
//! determines the dominant Phase 3 cost. [`SearchStats`] exposes both the
//! I/O-proxy (nodes visited) and the candidate counts so the experiment
//! harness can reproduce Tables I–III.
//!
//! Every query entry point has a buffer-reusing `*_into` variant that
//! appends into a caller-owned `Vec` (after clearing it), so a batch
//! driver issuing thousands of queries allocates its result buffers
//! once. The convenience variants delegate to them. The descent helpers
//! are `HOT-PATH` roots for the workspace auditor, which proves them
//! transitively allocation-free.

use crate::node::Node;
use crate::rect::Rect;
use crate::tree::RTree;
use gprq_linalg::Vector;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Counters accumulated during a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes touched (the disk-access proxy).
    pub nodes_visited: usize,
    /// Leaf records tested against the query predicate.
    pub entries_checked: usize,
    /// Records reported to the visitor.
    pub results: usize,
}

impl SearchStats {
    /// Accumulates another search's counters into this one (saturating),
    /// so a batch driver or metrics layer can aggregate across queries.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited = self.nodes_visited.saturating_add(other.nodes_visited);
        self.entries_checked = self.entries_checked.saturating_add(other.entries_checked);
        self.results = self.results.saturating_add(other.results);
    }
}

/// A Phase-1 rectangle index: anything the PRQ executors can run their
/// candidate search against. Implemented by the mutable pointer
/// [`RTree`] and by its frozen flat image
/// ([`FlatRTree`](crate::FlatRTree)), which concurrent readers share as
/// published snapshots (see the [`flat`](crate::flat) module docs).
pub trait Phase1Index<const D: usize, T> {
    /// Clears `out`, then appends every record whose point lies in
    /// `rect` (boundary inclusive), accumulating statistics.
    fn search_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    );

    /// Batched Phase-1 probe: clears every `out[q]`, then answers
    /// `rects[q]` into `out[q]` with statistics accumulated into
    /// `stats[q]`, for every `q` up to the shortest of the three slices.
    /// It runs one solo [`Phase1Index::search_rect_into`] call per
    /// query, so each query's candidates, their order and its counters
    /// are the solo call's. `QueryBatch` in `gprq-core` does not call
    /// it: each of its queries runs the solo probe.
    fn search_rects_into<'t>(
        &'t self,
        rects: &[Rect<D>],
        stats: &mut [SearchStats],
        out: &mut [Vec<(&'t Vector<D>, &'t T)>],
    ) {
        for buf in out.iter_mut() {
            buf.clear();
        }
        for ((rect, stats), out) in rects.iter().zip(stats).zip(out) {
            self.search_rect_into(rect, stats, out);
        }
    }
}

impl<const D: usize, T> Phase1Index<D, T> for RTree<D, T> {
    fn search_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        self.query_rect_into(rect, stats, out);
    }
}

/// Reusable scratch state for [`RTree::nearest_neighbors_into`].
///
/// Owns the best-first priority queue so repeated k-NN queries against
/// the same tree reuse its backing allocation. The lifetime `'t` ties
/// the scratch to the tree borrow; create one per batch of queries.
pub struct KnnScratch<'t, const D: usize, T> {
    heap: BinaryHeap<HeapItem<'t, D, T>>,
}

impl<'t, const D: usize, T> KnnScratch<'t, D, T> {
    /// Creates empty scratch state (no allocation until first use).
    pub fn new() -> Self {
        KnnScratch {
            heap: BinaryHeap::new(),
        }
    }
}

impl<const D: usize, T> Default for KnnScratch<'_, D, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize, T> RTree<D, T> {
    /// Visits every record whose point lies in `rect` (boundary
    /// inclusive), accumulating statistics.
    pub fn query_rect_visit<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        mut visit: impl FnMut(&'t Vector<D>, &'t T),
    ) {
        if self.is_empty() {
            return;
        }
        rect_rec(&self.root, rect, stats, &mut visit);
    }

    /// Returns all records whose points lie in `rect`.
    pub fn query_rect(&self, rect: &Rect<D>) -> Vec<(&Vector<D>, &T)> {
        let mut stats = SearchStats::default();
        self.query_rect_with_stats(rect, &mut stats)
    }

    /// [`RTree::query_rect`] with statistics accumulation.
    pub fn query_rect_with_stats(
        &self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
    ) -> Vec<(&Vector<D>, &T)> {
        let mut out = Vec::new();
        self.query_rect_into(rect, stats, &mut out);
        out
    }

    /// Buffer-reusing [`RTree::query_rect_with_stats`]: clears `out`,
    /// then appends every matching record. Results are identical to the
    /// allocating variant (same order, same contents).
    pub fn query_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        out.clear();
        if self.is_empty() {
            return;
        }
        rect_rec(&self.root, rect, stats, &mut |p, d| out.push((p, d)));
    }

    /// Visits every record within Euclidean distance `radius` of `center`.
    pub fn query_ball_visit<'t>(
        &'t self,
        center: &Vector<D>,
        radius: f64,
        stats: &mut SearchStats,
        mut visit: impl FnMut(&'t Vector<D>, &'t T),
    ) {
        debug_assert!(radius >= 0.0);
        if self.is_empty() {
            return;
        }
        ball_rec(&self.root, center, radius * radius, stats, &mut visit);
    }

    /// Returns all records within Euclidean distance `radius` of `center`.
    pub fn query_ball(&self, center: &Vector<D>, radius: f64) -> Vec<(&Vector<D>, &T)> {
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.query_ball_into(center, radius, &mut stats, &mut out);
        out
    }

    /// Buffer-reusing [`RTree::query_ball`]: clears `out`, then appends
    /// every record within `radius` of `center`, with statistics
    /// accumulation. Results are identical to the allocating variant.
    pub fn query_ball_into<'t>(
        &'t self,
        center: &Vector<D>,
        radius: f64,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        debug_assert!(radius >= 0.0);
        out.clear();
        if self.is_empty() {
            return;
        }
        ball_rec(&self.root, center, radius * radius, stats, &mut |p, d| {
            out.push((p, d))
        });
    }

    /// Returns the `k` records nearest to `center` as
    /// `(distance, point, payload)`, ascending by distance.
    ///
    /// Classic best-first (Hjaltason–Samet) search over a min-heap keyed
    /// by MINDIST. Used by the pseudo-feedback workload of experiment II
    /// (paper §VI-A: "search its k-nearest neighbors (k-NN) … k = 20")
    /// and by the probabilistic-NN extension.
    pub fn nearest_neighbors(&self, center: &Vector<D>, k: usize) -> Vec<(f64, &Vector<D>, &T)> {
        let mut stats = SearchStats::default();
        self.nearest_neighbors_with_stats(center, k, &mut stats)
    }

    /// [`RTree::nearest_neighbors`] with statistics accumulation.
    pub fn nearest_neighbors_with_stats(
        &self,
        center: &Vector<D>,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<(f64, &Vector<D>, &T)> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        self.nearest_neighbors_into(center, k, stats, &mut scratch, &mut out);
        out
    }

    /// Buffer-reusing [`RTree::nearest_neighbors_with_stats`]: clears
    /// `out` and the scratch heap, then appends the `k` nearest records.
    /// Results are identical to the allocating variant.
    pub fn nearest_neighbors_into<'t>(
        &'t self,
        center: &Vector<D>,
        k: usize,
        stats: &mut SearchStats,
        scratch: &mut KnnScratch<'t, D, T>,
        out: &mut Vec<(f64, &'t Vector<D>, &'t T)>,
    ) {
        out.clear();
        scratch.heap.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        scratch.heap.push(HeapItem {
            dist_sq: self.root.mbr.min_dist_squared(center),
            kind: Candidate::Node(&self.root),
        });
        while out.len() < k {
            let Some(hit) = knn_next(center, &mut scratch.heap, stats) else {
                break;
            };
            out.push(hit);
        }
    }

    /// Returns a lazy iterator over all records in **ascending distance**
    /// from `center` — incremental nearest-neighbor search (Hjaltason &
    /// Samet). Pulling `k` items costs the same as a `k`-NN query; the
    /// probabilistic-NN extension uses it to stream candidates until its
    /// probability bound proves no farther object can enter the top-k.
    pub fn nearest_iter<'a>(
        &'a self,
        center: &Vector<D>,
    ) -> impl Iterator<Item = (f64, &'a Vector<D>, &'a T)> + 'a {
        let mut heap: BinaryHeap<HeapItem<'a, D, T>> = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(HeapItem {
                dist_sq: self.root.mbr.min_dist_squared(center),
                kind: Candidate::Node(&self.root),
            });
        }
        let center = *center;
        let mut stats = SearchStats::default();
        std::iter::from_fn(move || knn_next(&center, &mut heap, &mut stats))
    }

    /// Iterates over all `(point, payload)` records in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vector<D>, &T)> {
        let mut stack: Vec<&Node<D, T>> = Vec::new();
        if !self.is_empty() {
            stack.push(&self.root);
        }
        std::iter::from_fn(move || loop {
            let node = stack.pop()?;
            if node.is_leaf() {
                return Some(node);
            }
            stack.extend(node.children.iter());
        })
        .flat_map(|leaf| leaf.entries.iter().map(|e| (&e.point, &e.data)))
    }
}

enum Candidate<'a, const D: usize, T> {
    Node(&'a Node<D, T>),
    Entry(&'a Vector<D>, &'a T),
}

struct HeapItem<'a, const D: usize, T> {
    dist_sq: f64,
    kind: Candidate<'a, D, T>,
}

impl<const D: usize, T> PartialEq for HeapItem<'_, D, T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl<const D: usize, T> Eq for HeapItem<'_, D, T> {}
impl<const D: usize, T> PartialOrd for HeapItem<'_, D, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize, T> Ord for HeapItem<'_, D, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-by-distance.
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

// HOT-PATH: rectangle range-query descent (Phase 1 inner loop)
fn rect_rec<'a, const D: usize, T>(
    node: &'a Node<D, T>,
    rect: &Rect<D>,
    stats: &mut SearchStats,
    visit: &mut impl FnMut(&'a Vector<D>, &'a T),
) {
    stats.nodes_visited += 1;
    if node.is_leaf() {
        for e in &node.entries {
            stats.entries_checked += 1;
            if rect.contains_point(&e.point) {
                stats.results += 1;
                visit(&e.point, &e.data);
            }
        }
    } else {
        for c in &node.children {
            if rect.intersects(&c.mbr) {
                rect_rec(c, rect, stats, visit);
            }
        }
    }
}

// HOT-PATH: ball range-query descent (Phase 1 inner loop)
fn ball_rec<'a, const D: usize, T>(
    node: &'a Node<D, T>,
    center: &Vector<D>,
    radius_sq: f64,
    stats: &mut SearchStats,
    visit: &mut impl FnMut(&'a Vector<D>, &'a T),
) {
    stats.nodes_visited += 1;
    if node.is_leaf() {
        for e in &node.entries {
            stats.entries_checked += 1;
            if e.point.distance_squared(center) <= radius_sq {
                stats.results += 1;
                visit(&e.point, &e.data);
            }
        }
    } else {
        for c in &node.children {
            if c.mbr.min_dist_squared(center) <= radius_sq {
                ball_rec(c, center, radius_sq, stats, visit);
            }
        }
    }
}

// HOT-PATH: one best-first k-NN step (Hjaltason–Samet) over a caller-owned heap
/// Pops the heap, expanding every node that surfaces, until a record
/// does; returns that record, the nearest one not yet returned, or `None`
/// once the heap is empty. Both k-NN entry points run this step, so they
/// visit nodes in the same order and count them alike.
fn knn_next<'a, const D: usize, T>(
    center: &Vector<D>,
    heap: &mut BinaryHeap<HeapItem<'a, D, T>>,
    stats: &mut SearchStats,
) -> Option<(f64, &'a Vector<D>, &'a T)> {
    while let Some(item) = heap.pop() {
        match item.kind {
            Candidate::Node(node) => {
                stats.nodes_visited += 1;
                if node.is_leaf() {
                    for e in &node.entries {
                        stats.entries_checked += 1;
                        heap.push(HeapItem {
                            dist_sq: e.point.distance_squared(center),
                            kind: Candidate::Entry(&e.point, &e.data),
                        });
                    }
                } else {
                    for c in &node.children {
                        heap.push(HeapItem {
                            dist_sq: c.mbr.min_dist_squared(center),
                            kind: Candidate::Node(c),
                        });
                    }
                }
            }
            Candidate::Entry(point, data) => {
                stats.results += 1;
                return Some((item.dist_sq.sqrt(), point, data));
            }
        }
    }
    None
}
