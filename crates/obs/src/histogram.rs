//! Log₂-bucketed value distribution.

use crate::metric::saturating_add;
use crate::snapshot::HistogramSummary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: one for zero plus one per power of two in `u64`.
pub const BUCKET_COUNT: usize = 65;

/// A fixed-size, log₂-bucketed histogram of `u64` values.
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the
/// range `[2^(i−1), 2^i − 1]` (bucket `64` caps at `u64::MAX`). Every
/// write path is a relaxed atomic with saturating arithmetic, so
/// recording can never panic, wrap, or lock — the properties the
/// workspace auditor requires of hot-path instrumentation.
///
/// Quantiles are *conservative*: [`Histogram::quantile`] returns the
/// upper bound of the bucket containing the requested rank, clamped to
/// the recorded maximum, so the estimate never understates a latency
/// and never exceeds the largest value recorded.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: `0 → 0`, else `⌊log₂ v⌋ + 1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The largest value bucket `index` can hold (see type docs for the
    /// bucket layout); indices past the last bucket report `u64::MAX`.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(Self::bucket_index(value)) {
            saturating_add(bucket, 1);
        }
        saturating_add(&self.count, 1);
        saturating_add(&self.sum, value);
        // ORDERING: Relaxed — the max is a commutative statistic; the
        // RMW needs atomicity against other recorders, not ordering.
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a floating-point observation, sanitized instead of
    /// rejected: NaN and negative values clamp to `0`, `+∞` and values
    /// beyond `u64::MAX` saturate. Recording never panics on any input.
    pub fn record_f64(&self, value: f64) {
        // `value <= 0.0` is false for NaN, so NaN needs its own arm.
        let v = if value.is_nan() || value <= 0.0 {
            0
        } else if value >= u64::MAX as f64 {
            u64::MAX
        } else {
            value as u64
        };
        self.record(v);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — a statistical snapshot; a reader racing a
        // recorder may see count ahead of a bucket, which the consumers
        // (summaries, quantiles) already treat conservatively.
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        // ORDERING: Relaxed — same statistical-snapshot contract as
        // `count`.
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest value recorded (0 when empty).
    pub fn max_value(&self) -> u64 {
        // ORDERING: Relaxed — same statistical-snapshot contract as
        // `count`.
        self.max.load(Ordering::Relaxed)
    }

    /// A copy of the per-bucket counts, index-aligned with
    /// [`Histogram::bucket_upper_bound`].
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        // ORDERING: Relaxed — same statistical-snapshot contract as the
        // scalar accessors above.
        std::array::from_fn(|i| match self.buckets.get(i) {
            Some(b) => b.load(Ordering::Relaxed),
            None => 0,
        })
    }

    /// Conservative quantile estimate: the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` observation, clamped to
    /// [`Histogram::max_value`]. `q` is clamped to `[0, 1]` (NaN reads
    /// as `0`); an empty histogram reports `0`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        // ORDERING: Relaxed bucket reads — a racing recorder can skew
        // the estimate by one observation; the fallthrough below keeps
        // the answer conservative.
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket.load(Ordering::Relaxed));
            if cumulative >= target {
                return Self::bucket_upper_bound(i).min(self.max_value());
            }
        }
        // Only reachable if a concurrent writer raced `count` ahead of
        // its bucket increment; the max is the honest conservative answer.
        self.max_value()
    }

    /// Accumulates `other` into `self` bucket-by-bucket (saturating).
    /// Merging is associative and commutative up to saturation, so
    /// per-worker histograms can be folded in any order.
    pub fn merge(&self, other: &Histogram) {
        // ORDERING: Relaxed throughout — merging folds statistical
        // tallies; workers are expected to be quiescent, and a racing
        // recorder only shifts an observation between fold rounds.
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            saturating_add(mine, theirs.load(Ordering::Relaxed));
        }
        saturating_add(&self.count, other.count.load(Ordering::Relaxed));
        saturating_add(&self.sum, other.sum.load(Ordering::Relaxed));
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time scalar summary (count, sum, max, p50/p90/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max_value(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every value's bucket upper bound is ≥ the value itself — the
        // conservative-quantile property at the bucket level.
        for v in [0u64, 1, 2, 5, 1023, 1024, 1 << 40, u64::MAX] {
            assert!(Histogram::bucket_upper_bound(Histogram::bucket_index(v)) >= v);
        }
    }

    #[test]
    fn record_and_summary() {
        let h = Histogram::new();
        for v in [0u64, 1, 100, 100, 5_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5_201);
        assert_eq!(h.max_value(), 5_000);
        let s = h.summary();
        assert_eq!(s.count, 5);
        // p50 = rank-3 value (100) → its bucket's upper bound (127).
        assert_eq!(s.p50, 127);
        assert!(s.p99 >= 5_000);
    }

    #[test]
    fn record_f64_sanitizes_hostile_inputs() {
        let h = Histogram::new();
        for v in [f64::NAN, f64::NEG_INFINITY, -3.0, -0.0] {
            h.record_f64(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 0, "hostile inputs clamp to zero");
        h.record_f64(f64::INFINITY);
        assert_eq!(h.max_value(), u64::MAX);
        h.record_f64(2.9);
        assert_eq!(h.max_value(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::new();
        h.record_duration(Duration::from_nanos(1_000));
        h.record_duration(Duration::from_secs(u64::MAX)); // > u64::MAX ns
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_value(), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8, 15]
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20-1]
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.9), 15);
        assert_eq!(h.quantile(0.95), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max() {
        for v in [0u64, 1, 5, 12_168, 20_000, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "value {v}, q {q}");
            }
        }
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 505);
        assert_eq!(a.max_value(), 500);
        let counts = a.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }
}
