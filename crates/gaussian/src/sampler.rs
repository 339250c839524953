//! Random sampling from Gaussian distributions.
//!
//! The paper's experiments use RANDLIB to draw Gaussian variates for the
//! importance-sampling integrator (§V-A). Phase 3 draws its `N(0, 1)`
//! variates with the 256-layer ziggurat of Marsaglia & Tsang (J. Stat.
//! Softw. 5(8), 2000) over `rand`'s `u64` source, and maps them through
//! the Cholesky affine map `x = q + L·z` for the general `N(q, Σ)`:
//! [`GaussianSampler`] one sample at a time, [`crate::cloud::SampleCloud`]
//! a whole cloud at once, bit for bit the same stream. The Box–Muller
//! [`StandardNormal`] is kept only where its exact stream matters: the
//! fixed datasets of `gprq-workloads` and the uniform-ball comparator
//! ([`sample_uniform_ball`]).

use crate::mvn::Gaussian;
use gprq_linalg::Vector;
use rand::Rng;
use std::sync::OnceLock;

/// Right edge `R` of the ziggurat's base strip: where the tail begins.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Area `V` shared by every layer (the base strip counts its tail).
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// Layers of the ziggurat, picked by the low 8 bits of one `u64`.
const ZIG_LAYERS: usize = 256;

/// The unnormalized standard-normal density `f(x) = e^(−x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The 256-layer ziggurat for `N(0, 1)` (Marsaglia & Tsang 2000), the
/// generator behind every Phase-3 draw.
///
/// Layer `i ≥ 1` is the box `[0, x[i]] × [f(x[i]), f(x[i+1])]`; layer 0
/// is the base strip `[0, x[0]] × [0, f(R)]`, whose part beyond
/// `x[1] = R` stands for the tail. Every layer has area `V`, so a
/// uniform layer index and a uniform abscissa pick a point uniformly
/// under the curve: the fast path accepts it when it lies left of the
/// next layer's edge, the wedge test decides the sliver beside the
/// curve, and the tail uses Marsaglia's exponential method. It keeps no
/// state between calls, so each normal depends only on the RNG position
/// it starts from.
#[derive(Debug)]
pub(crate) struct Ziggurat {
    /// Layer edges, descending: `x[0] = V / f(R)`, `x[1] = R`,
    /// `x[i+1] = √(−2 ln(V / x[i] + f(x[i])))` and `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// The density at each edge, `f[i] = f(x[i])`.
    f: [f64; ZIG_LAYERS + 1],
}

impl Ziggurat {
    /// The tables, built once per process on first use.
    pub(crate) fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }

    fn build() -> Ziggurat {
        let mut x = [0.0f64; ZIG_LAYERS + 1];
        let mut edge = ZIG_R;
        for (i, slot) in x.iter_mut().enumerate().take(ZIG_LAYERS) {
            *slot = match i {
                0 => ZIG_V / density(ZIG_R),
                1 => ZIG_R,
                _ => {
                    edge = (-2.0 * (ZIG_V / edge + density(edge)).ln()).sqrt();
                    edge
                }
            };
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    }

    /// Draws one `N(0, 1)` variate. The fast path takes one `next_u64`:
    /// its low 8 bits pick the layer, its top 53 bits the signed
    /// uniform `u ∈ [−1, 1)`.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let [low, ..] = bits.to_le_bytes();
            let layer = usize::from(low);
            let u = (bits >> 11) as f64 * f64::EPSILON - 1.0;
            let (Some(&outer), Some(&inner)) = (self.x.get(layer), self.x.get(layer + 1)) else {
                continue;
            };
            let x = u * outer;
            if x.abs() < inner {
                return x;
            }
            if layer == 0 {
                return Self::tail(rng, u);
            }
            let (Some(&f_outer), Some(&f_inner)) = (self.f.get(layer), self.f.get(layer + 1))
            else {
                continue;
            };
            // The wedge: a uniform height inside the layer's sliver.
            if f_inner + (f_outer - f_inner) * rng.gen::<f64>() < density(x) {
                return x;
            }
        }
    }

    /// Marsaglia's exponential method for `|z| > R`, signed like `u`.
    #[cold]
    fn tail<R: Rng + ?Sized>(rng: &mut R, u: f64) -> f64 {
        loop {
            let x = -open_unit(rng).ln() / ZIG_R;
            let y = -open_unit(rng).ln();
            if y + y > x * x {
                return if u < 0.0 { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }
}

/// A uniform in the open interval `(0, 1)`, so its logarithm is finite:
/// the midpoint of one of `2^52` equal cells, computed exactly.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 12) as f64 + 0.5) * f64::EPSILON
}

/// A standard-normal variate generator using the Box–Muller transform.
///
/// Each transform produces two independent `N(0, 1)` values; the second is
/// cached so consecutive calls consume uniforms at the optimal rate.
/// Phase 3 draws from the ziggurat instead ([`GaussianSampler`]); this
/// generator keeps its exact stream because the fixed datasets of
/// `gprq-workloads` and the uniform-ball comparator are built from it.
///
/// ```
/// use gprq_gaussian::StandardNormal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut sn = StandardNormal::new();
/// let z = sn.sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StandardNormal {
    spare: Option<f64>,
}

impl StandardNormal {
    /// Creates a generator with an empty spare cache.
    pub fn new() -> Self {
        StandardNormal { spare: None }
    }

    /// Draws one `N(0, 1)` variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 ∈ (0, 1] so ln(u1) is finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = std::f64::consts::TAU * u2;
        self.spare = Some(radius * angle.sin());
        radius * angle.cos()
    }

    /// Fills a vector with independent `N(0, 1)` coordinates.
    pub fn sample_vector<const D: usize, R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vector<D> {
        Vector::from_fn(|_| self.sample(rng))
    }
}

/// Sampler for a general Gaussian `N(q, Σ)` via `x = q + L·z`, with
/// `z` from the ziggurat.
///
/// Borrows the [`Gaussian`] so the Cholesky factor is computed once per
/// query, matching the paper's setting where thousands of integrations
/// share a single query distribution. Sample `i` consumes normals
/// `i·D .. (i+1)·D` of the stream, so it is bitwise the sample `i` of a
/// [`crate::cloud::SampleCloud`] drawn from the same RNG state.
#[derive(Debug, Clone)]
pub struct GaussianSampler<'a, const D: usize> {
    gaussian: &'a Gaussian<D>,
    normals: &'static Ziggurat,
}

impl<'a, const D: usize> GaussianSampler<'a, D> {
    /// Creates a sampler bound to `gaussian`.
    pub fn new(gaussian: &'a Gaussian<D>) -> Self {
        GaussianSampler {
            gaussian,
            normals: Ziggurat::get(),
        }
    }

    /// Draws one sample `x ~ N(q, Σ)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vector<D> {
        let z = Vector::from_fn(|_| self.normals.sample(rng));
        *self.gaussian.mean() + self.gaussian.cholesky().apply(&z)
    }

    /// Fills `out` with samples (one per slot), in stream order.
    pub fn sample_batch<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [Vector<D>]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// Samples a point uniformly from the `D`-ball of radius `radius` centered
/// at `center`.
///
/// Uses the standard construction: an isotropic Gaussian direction scaled
/// to the sphere, then a radius drawn as `r = radius · u^{1/D}`. This is
/// the sampling primitive of the *uniform-ball* Monte-Carlo comparator
/// (the "standard Monte Carlo method" the paper contrasts with importance
/// sampling in §V-A).
pub fn sample_uniform_ball<const D: usize, R: Rng + ?Sized>(
    standard: &mut StandardNormal,
    rng: &mut R,
    center: &Vector<D>,
    radius: f64,
) -> Vector<D> {
    debug_assert!(radius >= 0.0);
    // Direction: normalized Gaussian vector (retry the astronomically
    // unlikely zero vector).
    let mut dir;
    loop {
        dir = standard.sample_vector::<D, R>(rng);
        if let Some(unit) = dir.normalized() {
            dir = unit;
            break;
        }
    }
    let u: f64 = rng.gen::<f64>();
    let r = radius * u.powf(1.0 / D as f64);
    *center + dir * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sigma_paper() -> Matrix<2> {
        let s3 = 3.0f64.sqrt();
        Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0)
    }

    #[test]
    fn ziggurat_tables_satisfy_the_recurrence() {
        let zig = Ziggurat::get();
        let (x, f) = (&zig.x, &zig.f);
        assert_eq!(x[0].to_bits(), (ZIG_V / density(ZIG_R)).to_bits());
        assert_eq!(x[1].to_bits(), ZIG_R.to_bits());
        assert_eq!(x[ZIG_LAYERS].to_bits(), 0.0f64.to_bits());
        for i in 1..ZIG_LAYERS - 1 {
            let next = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
            assert_eq!(x[i + 1].to_bits(), next.to_bits(), "edge {}", i + 1);
        }
        for i in 0..=ZIG_LAYERS {
            assert_eq!(f[i].to_bits(), density(x[i]).to_bits(), "f[{i}]");
            if i < ZIG_LAYERS {
                assert!(x[i] > x[i + 1], "edges descend at {i}");
            }
        }
        // Every box has area V, up to the top one whose roof is f(0) = 1:
        // R and V close the recurrence at x[256] = 0.
        for i in 1..ZIG_LAYERS {
            let area = x[i] * (f[i + 1] - f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-8, "layer {i}: area {area}");
        }
        // The base strip is the box [0, R] × [0, f(R)] plus the tail
        // beyond R, ∫_R^∞ f = √(π/2)·erfc(R/√2).
        let tail = (0.5 * std::f64::consts::PI).sqrt()
            * crate::specfun::erfc(ZIG_R / std::f64::consts::SQRT_2);
        let base = ZIG_R * density(ZIG_R) + tail;
        assert!((base / ZIG_V - 1.0).abs() < 1e-10, "base strip {base}");
        assert!((x[0] * f[1] / ZIG_V - 1.0).abs() < 1e-15);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sn = StandardNormal::new();
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = sn.sample(&mut rng);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sn = StandardNormal::new();
        let n = 100_000;
        let within_one =
            (0..n).filter(|_| sn.sample(&mut rng).abs() <= 1.0).count() as f64 / n as f64;
        // P(|Z| ≤ 1) = 0.6827.
        assert!((within_one - 0.6827).abs() < 0.01, "got {within_one}");
    }

    #[test]
    fn gaussian_sampler_matches_moments() {
        let g = Gaussian::new(Vector::from([500.0, 300.0]), sigma_paper()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = GaussianSampler::new(&g);
        let n = 200_000;
        let mut mean = Vector::<2>::ZERO;
        let mut m2 = Matrix::<2>::ZERO;
        for _ in 0..n {
            let x = sampler.sample(&mut rng) - *g.mean();
            mean += x;
            for i in 0..2 {
                for j in 0..2 {
                    m2[(i, j)] += x[i] * x[j];
                }
            }
        }
        let inv_n = 1.0 / n as f64;
        mean = mean * inv_n;
        assert!(mean.norm() < 0.1, "sample mean offset {mean}");
        for i in 0..2 {
            for j in 0..2 {
                let cov = m2[(i, j)] * inv_n;
                let expect = sigma_paper()[(i, j)];
                assert!(
                    (cov - expect).abs() < 0.03 * expect.abs().max(10.0),
                    "cov[{i}][{j}] = {cov}, expect {expect}"
                );
            }
        }
    }

    #[test]
    fn sample_batch_fills_all() {
        let g = Gaussian::<2>::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = GaussianSampler::new(&g);
        let mut buf = vec![Vector::<2>::ZERO; 64];
        sampler.sample_batch(&mut rng, &mut buf);
        // All finite and (with overwhelming probability) distinct from zero.
        assert!(buf.iter().all(|v| v.is_finite()));
        assert!(buf.iter().any(|v| v.norm() > 1e-9));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = Gaussian::<2>::standard();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = GaussianSampler::new(&g);
            s.sample(&mut rng)
        };
        assert_eq!(run(9).as_slice(), run(9).as_slice());
        assert_ne!(run(9).as_slice(), run(10).as_slice());
    }

    #[test]
    fn uniform_ball_stays_inside_and_fills() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sn = StandardNormal::new();
        let center = Vector::from([10.0, -5.0, 2.0]);
        let radius = 4.0;
        let n = 50_000;
        let mut inside_half = 0usize;
        for _ in 0..n {
            let x = sample_uniform_ball(&mut sn, &mut rng, &center, radius);
            let dist = x.distance(&center);
            assert!(dist <= radius + 1e-12);
            if dist <= radius / 2.0 {
                inside_half += 1;
            }
        }
        // Volume ratio of half-radius ball in 3-D is 1/8.
        let frac = inside_half as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn uniform_ball_radius_zero_returns_center() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sn = StandardNormal::new();
        let center = Vector::from([1.0, 2.0]);
        let x = sample_uniform_ball(&mut sn, &mut rng, &center, 0.0);
        assert_eq!(x.as_slice(), center.as_slice());
    }
}
