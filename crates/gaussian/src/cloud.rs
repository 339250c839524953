//! Shared-sample Phase-3 engine: one sample cloud per query, spatially
//! indexed for grid-accelerated hit counting.
//!
//! The paper's integrator (§V-A) draws a fresh batch of `N(q, Σ)`
//! samples *per candidate*, even though the proposal distribution never
//! depends on the candidate. This module does the expensive
//! probabilistic work once and answers many membership tests cheaply:
//!
//! * [`SampleCloud`] draws the query's batch once into a
//!   structure-of-arrays layout (one `Vec<f64>` per dimension) so the
//!   distance kernel streams each coordinate column sequentially —
//!   cache-friendly and auto-vectorizable, with a branch-free
//!   hit-count inner loop.
//! * [`CloudGrid`] overlays a uniform grid on the cloud and reorders
//!   the samples cell by cell. A probe for `Pr(‖x − center‖ ≤ δ)`
//!   visits only cells intersecting `B(center, δ)`: cells whose tight
//!   sample bounding box lies fully inside the ball contribute their
//!   counts without a single distance test; boundary cells run the SoA
//!   kernel over their contiguous sample range. Per-candidate cost
//!   drops from `O(samples)` to `O(samples near the candidate)`. In
//!   high dimension, where a grid this fine cannot prune, it is a
//!   single cell: a bounding-box test, then one linear kernel pass.
//!
//! **Estimator caveat** (why conformance, not bit-parity, is the
//! correctness gate): sharing one cloud across every candidate of a
//! query makes the per-candidate estimation errors *positively
//! correlated across candidates*. Each individual estimate is still
//! unbiased with the same variance as a fresh batch of equal size —
//! only the joint distribution changes — so closed-form conformance
//! suites hold unchanged, while bit-parity with the per-candidate
//! estimator is neither expected nor meaningful.
//!
//! Grid and linear scans over the *same* cloud, however, agree
//! **exactly** (same hit count, bit for bit): both paths compute each
//! sample's squared distance with the identical summation order, and
//! the fully-inside shortcut only fires when the cell's farthest
//! corner — evaluated with that same ordering — already clears `δ²`.
//! Rounding is monotone, so no counted sample can escape and no
//! uncounted one can sneak in. The `cloud_grid` test suite pins this.

use crate::mvn::Gaussian;
use crate::sampler::Ziggurat;
use gprq_linalg::{Cholesky, Vector};
use rand::Rng;
use std::num::NonZeroUsize;

/// Aim for this many samples per occupied grid cell (sizing heuristic;
/// see [`CloudGrid::build`]).
const TARGET_PER_CELL: usize = 16;

/// Upper bound on the per-axis grid resolution, so cell bookkeeping
/// stays small next to the sample storage itself.
const MAX_RES: usize = 128;

/// Samples per register block of the SoA distance kernel
/// ([`count_hits`]).
///
/// A block keeps one running squared distance per sample in registers
/// while it walks all `D` coordinate columns, then compares the whole
/// block with `δ²` — so no accumulator is loaded or stored between
/// dimensions. Eight `f64` lanes fill four SSE2 or two AVX registers
/// and leave room for the column loads at `D = 9`. The width only
/// groups samples: each sample's sum is the same left-to-right
/// `0.0 + Σ_d (x_d − c_d)²` in ascending `d` whatever the block, so
/// any width returns the same counts.
const KERNEL_LANES: usize = 8;

/// Counters describing the work a cloud-backed probe performed.
///
/// Evaluators accumulate these and the executors flush them into
/// `QueryStats` once per query (see `PipelineMetrics` in `gprq-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloudStats {
    /// Sample clouds built: one per query that integrates on the
    /// shared-sample path (the first integration draws it), none for a
    /// query that integrates nothing.
    pub builds: usize,
    /// Monte-Carlo samples drawn: whole clouds, lazy extensions, and
    /// freshly drawn offset tables (a cached table draws nothing).
    pub samples_drawn: usize,
    /// Grid cells visited across all probes.
    pub cells_scanned: usize,
    /// Visited cells classified fully-inside (counted without distance
    /// tests).
    pub cells_inside: usize,
    /// Samples that went through the distance kernel (boundary cells on
    /// the grid path, every sample on the linear path).
    pub samples_tested: usize,
}

impl CloudStats {
    /// Accumulates `other` into `self`, field by field.
    pub fn merge(&mut self, other: &CloudStats) {
        self.builds += other.builds;
        self.samples_drawn += other.samples_drawn;
        self.cells_scanned += other.cells_scanned;
        self.cells_inside += other.cells_inside;
        self.samples_tested += other.samples_tested;
    }
}

/// One query's Monte-Carlo sample batch in structure-of-arrays layout:
/// coordinate `d` of sample `i` lives at `coords[d][i]`.
///
/// Samples are stored in draw order, which matches
/// [`GaussianSampler::sample_batch`] bit for bit (pinned by a proptest).
///
/// [`GaussianSampler::sample_batch`]: crate::sampler::GaussianSampler::sample_batch
#[derive(Debug, Clone)]
pub struct SampleCloud<const D: usize> {
    coords: [Vec<f64>; D],
}

impl<const D: usize> SampleCloud<D> {
    /// Draws `n_samples` from `gaussian` once, in the same order as
    /// [`GaussianSampler::sample_batch`].
    ///
    /// The count is a [`NonZeroUsize`], so an empty cloud — which would
    /// turn `0/0` into a silent rejection — is unrepresentable and this
    /// constructor cannot fail or panic.
    ///
    /// [`GaussianSampler::sample_batch`]: crate::sampler::GaussianSampler::sample_batch
    pub fn draw<R: Rng + ?Sized>(
        gaussian: &Gaussian<D>,
        n_samples: NonZeroUsize,
        rng: &mut R,
    ) -> Self {
        let mut coords: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        append_draws::<D, true, R>(
            &mut coords,
            gaussian.cholesky(),
            gaussian.mean(),
            n_samples.get(),
            rng,
        );
        SampleCloud { coords }
    }

    /// Draws `n_samples` *mean-free offsets* `w_j = L·z_j` for a
    /// Cholesky factor `L`, in SoA layout (`offsets[d][j]` is coordinate
    /// `d` of offset `j`). The `z_j` are the ziggurat stream a fresh
    /// [`GaussianSampler`] would consume from the same `rng` state; the
    /// generator keeps no spare, so nothing carries over between draws.
    ///
    /// This is the batch executor's Σ-group cache primitive: queries
    /// sharing a covariance (hence, bitwise, a factor `L`) share one
    /// offset table and re-center it per query with
    /// [`SampleCloud::from_offsets`]. Because [`GaussianSampler::sample`]
    /// materializes `L·z` as a vector *before* the single component-wise
    /// add of the mean, `from_offsets(mean, draw_offsets(L, n, rng))` is
    /// bitwise identical to [`SampleCloud::draw`] from the same `rng`
    /// state — the parity tests below pin this.
    ///
    /// [`GaussianSampler`]: crate::sampler::GaussianSampler
    /// [`GaussianSampler::sample`]: crate::sampler::GaussianSampler::sample
    pub fn draw_offsets<R: Rng + ?Sized>(
        chol: &Cholesky<D>,
        n_samples: NonZeroUsize,
        rng: &mut R,
    ) -> [Vec<f64>; D] {
        let mut offsets: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        append_draws::<D, false, R>(&mut offsets, chol, &Vector::ZERO, n_samples.get(), rng);
        offsets
    }

    /// Builds a cloud by re-centering an offset table from
    /// [`SampleCloud::draw_offsets`]: sample `j` is `mean + w_j`,
    /// computed with the same component-wise add as the sampler, so the
    /// result is bitwise identical to drawing fresh from the same `rng`
    /// state with a [`Gaussian`] carrying that mean and factor.
    pub fn from_offsets(mean: &Vector<D>, offsets: &[Vec<f64>; D]) -> Self {
        let coords: [Vec<f64>; D] = std::array::from_fn(|d| {
            let m = mean[d];
            offsets[d].iter().map(|&w| m + w).collect()
        });
        SampleCloud { coords }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.coords.first().map_or(0, Vec::len)
    }

    /// `true` only for `D == 0` degenerate instantiations; every cloud
    /// built by [`SampleCloud::draw`] holds at least one sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample `i` reassembled as a vector (`None` past the end).
    pub fn get(&self, i: usize) -> Option<Vector<D>> {
        if i < self.len() {
            Some(Vector::from_fn(|d| {
                self.coords
                    .get(d)
                    .and_then(|col| col.get(i))
                    .map_or(0.0, |v| *v)
            }))
        } else {
            None
        }
    }

    /// The raw coordinate columns (column `d` holds coordinate `d` of
    /// every sample, in draw order).
    pub fn columns(&self) -> &[Vec<f64>; D] {
        &self.coords
    }

    /// Counts samples with `‖x − center‖ ≤ delta` by a linear scan of
    /// the whole cloud. Debug-asserts `delta ≥ 0`.
    // HOT-PATH: shared-cloud linear hit count (Phase 3 inner loop)
    pub fn count_within(&self, center: &Vector<D>, delta: f64) -> usize {
        debug_assert!(delta >= 0.0);
        count_hits(&self.coords, 0, self.len(), center, delta * delta)
    }

    /// Estimates `Pr(‖x − center‖ ≤ delta)` as the hit fraction of the
    /// full cloud.
    pub fn probability(&self, center: &Vector<D>, delta: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_within(center, delta) as f64 / self.len() as f64
    }
}

/// Appends `n` samples to `cols`, one coordinate per column: with
/// `SHIFT` each is `mean_d + (0.0 + Σ_{k≤d} L_dk·z_k)`, without it the
/// mean-free offset `0.0 + Σ_{k≤d} L_dk·z_k`. The normals come from the
/// ziggurat in stream order — normal `j` is `z_{j mod D}` of sample
/// `j / D`, the order [`crate::sampler::GaussianSampler`] consumes — and
/// each sum runs in ascending `k` like [`Cholesky::apply`], so every
/// coordinate is bitwise the sampler's `mean + L.apply(z)`.
///
/// The work goes in blocks of [`KERNEL_LANES`] samples: the block's
/// normals wait in a `D × KERNEL_LANES` stack buffer, each column's
/// block of the map is summed in independent lanes, and the results are
/// appended to the column. No `n × D` temporary exists, and the tables
/// are fetched once per call.
fn append_draws<const D: usize, const SHIFT: bool, R: Rng + ?Sized>(
    cols: &mut [Vec<f64>; D],
    chol: &Cholesky<D>,
    mean: &Vector<D>,
    n: usize,
    rng: &mut R,
) {
    let normals = Ziggurat::get();
    for col in cols.iter_mut() {
        col.reserve(n);
    }
    let rows_of = &chol.lower().0;
    let mut left = n;
    while left > 0 {
        let rows = left.min(KERNEL_LANES);
        let mut z = [[0.0f64; KERNEL_LANES]; D];
        for r in 0..rows {
            for zk in z.iter_mut() {
                zk[r] = normals.sample(rng);
            }
        }
        for (d, ((col, row), &m)) in cols
            .iter_mut()
            .zip(rows_of)
            .zip(mean.as_slice())
            .enumerate()
        {
            let mut acc = [0.0f64; KERNEL_LANES];
            for (&l, zk) in row.iter().zip(&z).take(d + 1) {
                for (a, &v) in acc.iter_mut().zip(zk) {
                    *a += l * v;
                }
            }
            col.extend(
                acc.iter()
                    .take(rows)
                    .map(|&a| if SHIFT { m + a } else { a }),
            );
        }
        left -= rows;
    }
}

/// Per-column `(min, max)` of `col`, each element read as `shift + x`
/// when `SHIFT`. The reduction runs [`KERNEL_LANES`] independent
/// `f64::min`/`f64::max` chains and folds them at the end: the minimum
/// and maximum of a set do not depend on the order it is visited in, so
/// the result equals one serial chain, without its loop-carried latency.
fn lane_bounds<const SHIFT: bool>(col: &[f64], shift: f64) -> (f64, f64) {
    let mut lo = [f64::INFINITY; KERNEL_LANES];
    let mut hi = [f64::NEG_INFINITY; KERNEL_LANES];
    let mut reduce = |block: &[f64]| {
        for ((l, h), &raw) in lo.iter_mut().zip(hi.iter_mut()).zip(block) {
            let x = if SHIFT { shift + raw } else { raw };
            *l = l.min(x);
            *h = h.max(x);
        }
    };
    let mut blocks = col.chunks_exact(KERNEL_LANES);
    for block in &mut blocks {
        reduce(block);
    }
    reduce(blocks.remainder());
    (
        lo.into_iter().fold(f64::INFINITY, f64::min),
        hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// The SoA distance kernel shared by the linear scan and the grid's
/// boundary cells, so both paths round identically per sample.
///
/// Walks `start..end` in register blocks of [`KERNEL_LANES`] samples:
/// per block, every coordinate column adds its squared differences to
/// the block's accumulators (ascending dimension order, starting from
/// `0.0`), then the block counts `dsq ≤ delta_sq` branch-free. The last
/// `< KERNEL_LANES` samples take the same per-sample sum one at a time.
/// A range that does not lie inside every column counts nothing.
// HOT-PATH: SoA distance kernel (Phase 3 innermost loop)
fn count_hits<const D: usize>(
    cols: &[Vec<f64>; D],
    start: usize,
    end: usize,
    center: &Vector<D>,
    delta_sq: f64,
) -> usize {
    // `std::iter::zip` (not the `.iter()` adaptor) keeps this hot root
    // free of method names the workspace call-graph auditor would
    // over-approximate onto unrelated impls.
    let mut segs: [&[f64]; D] = [&[]; D];
    for (seg, col) in std::iter::zip(&mut segs, cols) {
        match col.get(start..end) {
            Some(range) => *seg = range,
            None => return 0,
        }
    }
    let len = end - start;
    let blocked = len - len % KERNEL_LANES;
    let mut hits = 0usize;
    for at in (0..blocked).step_by(KERNEL_LANES) {
        let mut acc = [0.0f64; KERNEL_LANES];
        for (seg, &c) in std::iter::zip(&segs, center.as_slice()) {
            let Some(block) = seg.get(at..at + KERNEL_LANES) else {
                return hits;
            };
            for (a, &x) in std::iter::zip(&mut acc, block) {
                let diff = x - c;
                *a += diff * diff;
            }
        }
        for dsq in acc {
            hits += usize::from(dsq <= delta_sq);
        }
    }
    for i in blocked..len {
        let mut dsq = 0.0f64;
        for (seg, &c) in std::iter::zip(&segs, center.as_slice()) {
            let diff = seg.get(i).map_or(0.0, |&x| x - c);
            dsq += diff * diff;
        }
        hits += usize::from(dsq <= delta_sq);
    }
    hits
}

/// The grid's uniform per-axis resolution for `n` samples: the largest
/// `r ≤ MAX_RES` with `r^D ≤ n / TARGET_PER_CELL`, in integer arithmetic
/// only. Two cells per axis cannot prune: the probe's one-cell widening
/// covers both halves of every axis the ball touches, so every probe
/// would visit every cell. The builders make a one-cell grid for any
/// `r ≤ 2`.
fn uniform_resolution<const D: usize>(n: usize) -> usize {
    let cells_target = (n / TARGET_PER_CELL).max(1);
    let dim_exp = u32::try_from(D).unwrap_or(u32::MAX);
    let mut uniform_res = 1usize;
    while uniform_res < MAX_RES {
        let next = uniform_res + 1;
        match next.checked_pow(dim_exp) {
            Some(total) if total <= cells_target => uniform_res = next,
            _ => break,
        }
    }
    uniform_res
}

/// Clamped float→index conversion for grid coordinates: `t` is floored,
/// then clamped to `[0, max_index]`, so the cast is total (NaN and both
/// infinities land on a valid index).
///
/// Implemented as a saturating cast, which computes the same value
/// without the libm `floor` call: `as usize` maps NaN and negatives to
/// 0, truncates non-negative values (truncation = floor there), and
/// saturates +∞/overflow at `usize::MAX`, which the `min` then clamps —
/// case for case what floor-max-min-cast produced.
fn grid_slot(t: f64, max_index: usize) -> usize {
    (t as usize).min(max_index)
}

/// A uniform grid over a [`SampleCloud`], with samples reordered cell by
/// cell (CSR layout) and a tight per-cell bounding box of the samples it
/// actually holds.
///
/// Cell sizing: the per-axis resolution is the largest `r ≤ 128` with
/// `r^D ≤ n / 16` — about `TARGET_PER_CELL` samples per cell if the
/// cloud were uniform; axes with zero extent collapse to one cell. When
/// that rule gives `r ≤ 2` (`D ≥ 8` at 100 000 samples) the grid is a
/// single cell instead: with the probe's one-cell widening, two cells
/// per axis would put every cell in every probe, so the cells would
/// only add bookkeeping. The one-cell grid keeps draw order and is
/// built in one pass per column. A probe enumerates the cells whose
/// index range overlaps
/// `[center − δ, center + δ]` per axis (widened by one cell against
/// rounding slop), then classifies each: fully-inside cells contribute
/// `count` hits with no distance test, boundary cells run the SoA
/// kernel on their contiguous range. See the module docs for why this
/// matches the linear scan exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudGrid<const D: usize> {
    /// The cloud's coordinate columns in cell order (a one-cell grid
    /// built by [`CloudGrid::build`] keeps the drawn columns).
    cols: [Vec<f64>; D],
    /// CSR ranges: cell `c` owns samples `cell_start[c]..cell_start[c+1]`.
    cell_start: Vec<usize>,
    /// Tight per-cell sample minima, `cells × D`, cell-major.
    cell_min: Vec<f64>,
    /// Tight per-cell sample maxima, `cells × D`, cell-major.
    cell_max: Vec<f64>,
    res: [usize; D],
    origin: [f64; D],
    inv_width: [f64; D],
    len: usize,
}

impl<const D: usize> CloudGrid<D> {
    /// Indexes `cloud`, copying its samples into cell order. A one-cell
    /// grid keeps the cloud's columns as they are and only reduces their
    /// bounding box, with the same result as the copying build. Infallible
    /// and panic-free for every cloud [`SampleCloud::draw`] can build.
    pub fn build(cloud: SampleCloud<D>) -> Self {
        let uniform_res = uniform_resolution::<D>(cloud.len());
        if uniform_res <= 2 {
            let mut bounds = [(f64::INFINITY, f64::NEG_INFINITY); D];
            for (b, col) in bounds.iter_mut().zip(&cloud.coords) {
                *b = lane_bounds::<false>(col, 0.0);
            }
            return Self::one_cell(cloud.coords, bounds);
        }
        Self::build_grid::<false>(&cloud.coords, &[0.0; D], uniform_res)
    }

    /// Indexes the re-centering of an offset table from
    /// [`SampleCloud::draw_offsets`] without materializing the
    /// intermediate cloud: every pass adds `mean` on the fly, with the
    /// same component-wise `mean + offset` add as
    /// [`SampleCloud::from_offsets`], so the grid — layout, bounds, and
    /// every downstream probability — is bitwise identical to
    /// `build(SampleCloud::from_offsets(mean, offsets))`. The batch
    /// executor's Σ-cache hit path uses this to skip one full
    /// `n × D` allocate-write-read round trip per query.
    pub fn build_recentered(mean: &Vector<D>, offsets: &[Vec<f64>; D]) -> Self {
        let mut shift = [0.0f64; D];
        for (s, &m) in shift.iter_mut().zip(mean.as_slice()) {
            *s = m;
        }
        let uniform_res = uniform_resolution::<D>(offsets.first().map_or(0, Vec::len));
        if uniform_res <= 2 {
            return Self::build_one_cell(offsets, &shift);
        }
        Self::build_grid::<true>(offsets, &shift, uniform_res)
    }

    /// The shared build body. With `SHIFT` false the shift is all
    /// zeros and every element is used as stored; with `SHIFT` true
    /// each element of column `d` is read as `shift[d] + x` in every
    /// pass — the same float add producing the same value each time,
    /// so the two modes agree whenever the shifted input equals the
    /// unshifted one.
    fn build_grid<const SHIFT: bool>(
        source: &[Vec<f64>; D],
        shift: &[f64; D],
        uniform_res: usize,
    ) -> Self {
        let n = source.first().map_or(0, Vec::len);

        // Tight bounding box of the cloud, per axis.
        let mut origin = [0.0f64; D];
        let mut upper = [0.0f64; D];
        for (d, col) in source.iter().enumerate() {
            (origin[d], upper[d]) = lane_bounds::<SHIFT>(col, shift[d]);
        }

        let mut res = [1usize; D];
        let mut inv_width = [0.0f64; D];
        let mut cells = 1usize;
        for d in 0..D {
            let extent = upper[d] - origin[d];
            if extent.is_finite() && extent > 0.0 {
                res[d] = uniform_res;
                let width = extent / uniform_res as f64;
                if width > f64::MIN_POSITIVE {
                    inv_width[d] = 1.0 / width;
                }
            }
            cells = cells.saturating_mul(res[d]);
        }

        // Counting sort into cell order, organized dimension-major for
        // cache residency in high dimensions. Cell indexing runs the
        // `cell = cell·res_d + slot_d` fold one axis at a time over all
        // samples — the same indices a per-sample fold produces, but
        // the inner loop's iterations are independent, so the float
        // chain (sub, mul, saturating cast) pipelines across samples
        // instead of serializing across axes. The destination slot
        // (`pos`) is then fixed per sample and the scatter runs one
        // column at a time, its random writes confined to a single
        // `n`-float column; each column's per-cell bounds are reduced
        // immediately after its scatter, while the column is still
        // cache-hot. The permutation is the same stable cursor order as
        // a fused per-sample scatter, and min/max over the same sample
        // set is order-independent, so the layout, the bounds, and
        // every downstream probability are unchanged.
        let mut cell_idx = vec![0usize; n];
        for d in 0..D {
            let (o, iw, r, m) = (origin[d], inv_width[d], res[d], shift[d]);
            let max_index = r - 1;
            if d == 0 {
                for (slot, &raw) in cell_idx.iter_mut().zip(&source[d]) {
                    let x = if SHIFT { m + raw } else { raw };
                    *slot = grid_slot((x - o) * iw, max_index);
                }
            } else {
                for (slot, &raw) in cell_idx.iter_mut().zip(&source[d]) {
                    let x = if SHIFT { m + raw } else { raw };
                    *slot = *slot * r + grid_slot((x - o) * iw, max_index);
                }
            }
        }
        let mut cell_start = vec![0usize; cells + 1];
        for &c in &cell_idx {
            if let Some(count) = cell_start.get_mut(c + 1) {
                *count += 1;
            }
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }
        let mut cursor = cell_start.clone();
        let mut pos = vec![0usize; n];
        for (slot, &c) in pos.iter_mut().zip(&cell_idx) {
            let Some(next) = cursor.get_mut(c) else {
                continue;
            };
            *slot = *next;
            *next += 1;
        }
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| vec![0.0f64; n]);
        let mut cell_min = vec![f64::INFINITY; cells * D];
        let mut cell_max = vec![f64::NEG_INFINITY; cells * D];
        for (d, (col, src)) in cols.iter_mut().zip(source).enumerate() {
            let m = shift[d];
            for (&p, &raw) in pos.iter().zip(src) {
                let v = if SHIFT { m + raw } else { raw };
                if let Some(out) = col.get_mut(p) {
                    *out = v;
                }
            }
            for c in 0..cells {
                let (Some(&start), Some(&end)) = (cell_start.get(c), cell_start.get(c + 1)) else {
                    continue;
                };
                let Some(seg) = col.get(start..end) else {
                    continue;
                };
                let at = c * D + d;
                (cell_min[at], cell_max[at]) = lane_bounds::<false>(seg, 0.0);
            }
        }

        CloudGrid {
            cols,
            cell_start,
            cell_min,
            cell_max,
            res,
            origin,
            inv_width,
            len: n,
        }
    }

    /// The one-cell grid over a re-centered offset table: each
    /// re-centered column is copied in draw order (what the counting
    /// sort produces for one cell), then its bounds are reduced.
    fn build_one_cell(offsets: &[Vec<f64>; D], shift: &[f64; D]) -> Self {
        let mut bounds = [(f64::INFINITY, f64::NEG_INFINITY); D];
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        for (((col, b), src), &m) in cols.iter_mut().zip(&mut bounds).zip(offsets).zip(shift) {
            *col = src.iter().map(|&raw| m + raw).collect();
            *b = lane_bounds::<false>(col, 0.0);
        }
        Self::one_cell(cols, bounds)
    }

    /// The one-cell grid over `cols`, which hold every sample in draw
    /// order, with per-axis sample bounds `(min, max)`. The cell's tight
    /// box is the cloud's bounding box, so probes cost one bounding-box
    /// test plus, unless the whole box is inside the ball, one linear
    /// kernel pass.
    fn one_cell(cols: [Vec<f64>; D], bounds: [(f64, f64); D]) -> Self {
        let n = cols.first().map_or(0, Vec::len);
        let mut origin = [0.0f64; D];
        let mut upper = [0.0f64; D];
        let mut inv_width = [0.0f64; D];
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            let extent = hi - lo;
            if extent.is_finite() && extent > f64::MIN_POSITIVE {
                inv_width[d] = 1.0 / extent;
            }
            origin[d] = lo;
            upper[d] = hi;
        }
        CloudGrid {
            cols,
            cell_start: vec![0, n],
            cell_min: origin.to_vec(),
            cell_max: upper.to_vec(),
            res: [1; D],
            origin,
            inv_width,
            len: n,
        }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the grid indexes no samples (unreachable via
    /// [`CloudGrid::build`] over a drawn cloud).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total grid cells (`∏ res`).
    pub fn cells(&self) -> usize {
        self.cell_start.len().saturating_sub(1)
    }

    /// Per-axis cell resolution.
    pub fn resolution(&self) -> [usize; D] {
        self.res
    }

    /// Counts samples with `‖x − center‖ ≤ delta`, visiting only cells
    /// that can intersect the ball. Exactly equals
    /// [`SampleCloud::count_within`] over the source cloud.
    // HOT-PATH: grid-indexed hit count (Phase 3 inner loop)
    pub fn count_within(&self, center: &Vector<D>, delta: f64) -> usize {
        let mut stats = CloudStats::default();
        self.count_within_stats(center, delta, &mut stats)
    }

    /// [`CloudGrid::count_within`] accumulating probe counters into
    /// `stats`. Debug-asserts `delta ≥ 0`.
    // HOT-PATH: grid-indexed hit count with probe counters (Phase 3)
    pub fn count_within_stats(
        &self,
        center: &Vector<D>,
        delta: f64,
        stats: &mut CloudStats,
    ) -> usize {
        debug_assert!(delta >= 0.0);
        let delta_sq = delta * delta;
        let mut lo = [0usize; D];
        let mut hi = [0usize; D];
        for (d, &c) in std::iter::zip(0..D, center.as_slice()) {
            match self.lookup_axis_range(d, c, delta) {
                Some((l, h)) => {
                    lo[d] = l;
                    hi[d] = h;
                }
                None => return 0,
            }
        }

        let mut idx = lo;
        let mut hits = 0usize;
        loop {
            let mut cell = 0usize;
            for (&r, &i) in std::iter::zip(&self.res, &idx) {
                cell = cell * r + i;
            }
            stats.cells_scanned += 1;
            let start = self.cell_start.get(cell).copied().unwrap_or(0);
            let end = self.cell_start.get(cell + 1).copied().unwrap_or(start);
            if end > start {
                // Farthest corner of the cell's *tight sample box*,
                // summed in the same dimension order as the kernel:
                // per-sample dsq ≤ this bound under monotone rounding,
                // so "corner inside ⇒ every sample inside" is exact.
                let base = cell * D;
                let mut corner = 0.0f64;
                for (d, &c) in std::iter::zip(0..D, center.as_slice()) {
                    let lo_diff = self.cell_min.get(base + d).copied().unwrap_or(0.0) - c;
                    let hi_diff = self.cell_max.get(base + d).copied().unwrap_or(0.0) - c;
                    let m = lo_diff.abs().max(hi_diff.abs());
                    corner += m * m;
                }
                if corner <= delta_sq {
                    stats.cells_inside += 1;
                    hits += end - start;
                } else {
                    stats.samples_tested += end - start;
                    hits += count_hits(&self.cols, start, end, center, delta_sq);
                }
            }
            // Odometer over the cell box, last axis fastest.
            let mut d = D;
            loop {
                if d == 0 {
                    return hits;
                }
                d -= 1;
                if idx[d] < hi[d] {
                    idx[d] += 1;
                    break;
                }
                idx[d] = lo[d];
            }
        }
    }

    /// Estimates `Pr(‖x − center‖ ≤ delta)` as the grid-counted hit
    /// fraction, accumulating probe counters into `stats`.
    // HOT-PATH: grid-indexed qualification probability (Phase 3)
    pub fn probability_with_stats(
        &self,
        center: &Vector<D>,
        delta: f64,
        stats: &mut CloudStats,
    ) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_within_stats(center, delta, stats) as f64 / self.len as f64
    }

    /// Estimates `Pr(‖x − center‖ ≤ delta)` as the grid-counted hit
    /// fraction of the cloud.
    pub fn probability(&self, center: &Vector<D>, delta: f64) -> f64 {
        let mut stats = CloudStats::default();
        self.probability_with_stats(center, delta, &mut stats)
    }

    // INVARIANT: the returned index range must cover every cell holding
    // a sample the linear kernel would count for (center, δ). The range
    // comes from the same floor((t − origin) · inv_width) transform that
    // assigned samples to cells — monotone in t — widened by one whole
    // cell on each side, which dwarfs the ≤ few-ulp slop between a
    // boundary sample's rounded distance and its rounded cell
    // coordinate. Over-covering only costs empty probes; under-covering
    // would drop hits, so the widening is never skipped.
    fn lookup_axis_range(&self, d: usize, center: f64, delta: f64) -> Option<(usize, usize)> {
        let max_index = self.res.get(d).copied().unwrap_or(1) - 1;
        let origin = self.origin.get(d).copied().unwrap_or(0.0);
        let inv_width = self.inv_width.get(d).copied().unwrap_or(0.0);
        let t_lo = ((center - delta) - origin) * inv_width;
        let t_hi = ((center + delta) - origin) * inv_width;
        if t_hi.floor() + 1.0 < 0.0 || t_lo.floor() - 1.0 > max_index as f64 {
            return None;
        }
        Some((
            grid_slot(t_lo - 1.0, max_index),
            grid_slot(t_hi + 1.0, max_index),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn sigma_paper(gamma: f64) -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(gamma)
    }

    #[test]
    fn cloud_matches_quadrature_oracle() {
        let g = Gaussian::new(Vector::from([100.0, 100.0]), sigma_paper(10.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(4242);
        let cloud = SampleCloud::draw(&g, nz(200_000), &mut rng);
        assert_eq!(cloud.len(), 200_000);
        assert!(!cloud.is_empty());
        let center = Vector::from([110.0, 95.0]);
        let delta = 25.0;
        let exact = crate::integrate::quadrature_probability_2d(&g, &center, delta, 64, 128);
        let linear = cloud.probability(&center, delta);
        assert!(
            (linear - exact).abs() < 0.006,
            "cloud {linear} vs exact {exact}"
        );
        let grid = CloudGrid::build(cloud);
        assert_eq!(grid.probability(&center, delta), linear);
    }

    #[test]
    fn cloud_monotone_in_delta() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(8);
        let grid = CloudGrid::build(SampleCloud::draw(&g, nz(50_000), &mut rng));
        let center = Vector::from([0.5, 0.5]);
        let mut prev = 0.0;
        for delta in [0.1, 0.5, 1.0, 2.0, 4.0] {
            let p = grid.probability(&center, delta);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn linear_count_matches_per_sample_tests_across_lane_boundaries() {
        // Cloud lengths off the kernel's lane width put whole blocks and
        // a scalar tail on both sides of every boundary.
        let g = Gaussian::new(Vector::from([5.0, -3.0]), sigma_paper(4.0)).unwrap();
        let center = Vector::from([6.0, -2.0]);
        let delta = 10.0;
        for n in [1, 7, 8, 9, 255, 256, 257, 1_000] {
            let cloud = SampleCloud::draw(&g, nz(n), &mut StdRng::seed_from_u64(99));
            let naive = (0..n)
                .filter_map(|i| cloud.get(i))
                .filter(|x| x.distance_squared(&center) <= delta * delta)
                .count();
            assert_eq!(cloud.count_within(&center, delta), naive, "n = {n}");
        }
    }

    #[test]
    fn offset_cloud_is_bitwise_identical_to_fresh_draw() {
        // The Σ-group cache contract: re-centering a shared offset table
        // reproduces a fresh per-query draw bit for bit, because the
        // sampler materializes L·z before the single mean add.
        let sigma = sigma_paper(3.0);
        let g_a = Gaussian::new(Vector::from([10.0, -4.0]), sigma).unwrap();
        let g_b = Gaussian::new(Vector::from([-250.0, 97.5]), sigma).unwrap();

        let offsets = {
            let mut rng = StdRng::seed_from_u64(77);
            SampleCloud::draw_offsets(g_a.cholesky(), nz(3_000), &mut rng)
        };
        for g in [&g_a, &g_b] {
            let mut rng = StdRng::seed_from_u64(77);
            let fresh = SampleCloud::draw(g, nz(3_000), &mut rng);
            let recentered = SampleCloud::from_offsets(g.mean(), &offsets);
            assert_eq!(recentered.len(), 3_000);
            for d in 0..2 {
                for i in 0..3_000 {
                    assert_eq!(
                        fresh.columns()[d][i].to_bits(),
                        recentered.columns()[d][i].to_bits(),
                        "offset cloud diverges from fresh draw (d={d}, i={i})"
                    );
                }
            }
        }
    }

    /// A correlated `D`-dimensional Gaussian, `Σ_ij = s_i·s_j·0.6^|i−j|`,
    /// so every entry of the factor's lower triangle is nonzero.
    fn correlated<const D: usize>() -> Gaussian<D> {
        let s = |i: usize| 1.0 + 0.25 * i as f64;
        let cov = Matrix::from_fn(|i, j| s(i) * s(j) * 0.6f64.powi(i.abs_diff(j) as i32));
        Gaussian::new(Vector::from_fn(|d| 10.0 - 3.0 * d as f64), cov).unwrap()
    }

    fn assert_columns_bitwise<const D: usize>(a: &[Vec<f64>; D], b: &[Vec<f64>; D], what: &str) {
        for d in 0..D {
            assert_eq!(a[d].len(), b[d].len(), "{what}: column {d} length");
            for (i, (x, y)) in a[d].iter().zip(&b[d]).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: d = {d}, i = {i}");
            }
        }
    }

    fn offsets_equal_draw<const D: usize>() {
        let g = correlated::<D>();
        let fresh = SampleCloud::draw(&g, nz(257), &mut StdRng::seed_from_u64(5150));
        let offsets =
            SampleCloud::draw_offsets(g.cholesky(), nz(257), &mut StdRng::seed_from_u64(5150));
        let recentered = SampleCloud::from_offsets(g.mean(), &offsets);
        assert_columns_bitwise(
            fresh.columns(),
            recentered.columns(),
            &format!("offsets, D = {D}"),
        );
    }

    #[test]
    fn offsets_equal_draw_bitwise_in_three_and_nine_dimensions() {
        // An odd D·n (3 · 257) and a block-straddling n in 9-D.
        offsets_equal_draw::<3>();
        offsets_equal_draw::<9>();
    }

    fn column_map_equals_per_sample_apply<const D: usize>() {
        let g = correlated::<D>();
        // 75 samples: nine whole blocks of the draw plus a partial one.
        let cloud = SampleCloud::draw(&g, nz(75), &mut StdRng::seed_from_u64(404));
        let normals = Ziggurat::get();
        let mut rng = StdRng::seed_from_u64(404);
        for i in 0..75 {
            let z = Vector::<D>::from_fn(|_| normals.sample(&mut rng));
            let x = *g.mean() + g.cholesky().apply(&z);
            for d in 0..D {
                assert_eq!(
                    cloud.columns()[d][i].to_bits(),
                    x[d].to_bits(),
                    "D = {D}, sample {i}, coordinate {d}"
                );
            }
        }
    }

    #[test]
    fn column_wise_map_equals_per_sample_cholesky_apply() {
        column_map_equals_per_sample_apply::<1>();
        column_map_equals_per_sample_apply::<2>();
        column_map_equals_per_sample_apply::<9>();
    }

    #[test]
    fn get_roundtrips_samples() {
        let g = Gaussian::new(Vector::from([3.0, -1.0]), sigma_paper(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let cloud = SampleCloud::draw(&g, nz(64), &mut rng);
        for i in 0..64 {
            let v = cloud.get(i).unwrap();
            for d in 0..2 {
                assert_eq!(v[d].to_bits(), cloud.columns()[d][i].to_bits());
            }
        }
        assert!(cloud.get(64).is_none());
    }

    #[test]
    fn grid_sizing_rule() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(5);
        // 100 000 samples / 16 per cell = 6 250 cells → res 79 in 2-D.
        let grid = CloudGrid::build(SampleCloud::draw(&g, nz(100_000), &mut rng));
        let res = grid.resolution();
        assert_eq!(res[0], res[1]);
        assert!(res[0] * res[0] <= 6_250);
        assert!((res[0] + 1) * (res[0] + 1) > 6_250);
        assert_eq!(grid.cells(), res[0] * res[1]);
        assert_eq!(grid.len(), 100_000);
        // Tiny clouds collapse to a single cell.
        let tiny = SampleCloud::draw(&g, nz(3), &mut rng);
        assert_eq!(CloudGrid::build(tiny).resolution(), [1, 1]);
        // So does a rule that gives two cells per axis: 2² ≤ 100 / 16 < 3².
        let two = SampleCloud::draw(&g, nz(100), &mut rng);
        assert_eq!(CloudGrid::build(two).resolution(), [1, 1]);
        let three = SampleCloud::draw(&g, nz(144), &mut rng);
        assert_eq!(CloudGrid::build(three).resolution(), [3, 3]);
    }

    #[test]
    fn inside_cells_skip_distance_tests_on_huge_delta() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(11);
        let grid = CloudGrid::build(SampleCloud::draw(&g, nz(20_000), &mut rng));
        let mut stats = CloudStats::default();
        let hits = grid.count_within_stats(&Vector::ZERO, 1e6, &mut stats);
        assert_eq!(hits, 20_000);
        assert!(stats.cells_inside > 0);
        assert_eq!(stats.samples_tested, 0, "no boundary cells at δ = 10⁶");
    }

    #[test]
    fn three_dimensional_grid_agrees_with_linear() {
        let g = Gaussian::new(
            Vector::from([1.0, -2.0, 0.5]),
            Matrix::<3>::identity().scale(4.0),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let cloud = SampleCloud::draw(&g, nz(30_000), &mut rng);
        let grid = CloudGrid::build(cloud.clone());
        for (center, delta) in [
            (Vector::from([1.0, -2.0, 0.5]), 2.0),
            (Vector::from([0.0, 0.0, 0.0]), 4.5),
            (Vector::from([8.0, 3.0, -7.0]), 6.0),
        ] {
            assert_eq!(
                grid.count_within(&center, delta),
                cloud.count_within(&center, delta)
            );
        }
    }
}
