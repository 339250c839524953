//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is an order statistic of the
//! recorded samples (nearest rank), never a histogram bucket bound, so
//! it always lies within `[min, max]` of what was measured. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that it is refused, and the highest percentile the
//! sample does support is named instead.

/// Samples that must lie strictly above a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, when the one asked for is
/// refused.
const LADDER: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.9, "p90"),
    (0.75, "p75"),
];

/// A tail percentile the sample is too small to support.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    /// The highest supported percentile on [`LADDER`] and its value,
    /// if any is.
    pub fallback: Option<(&'static str, f64)>,
}

/// Raw samples, sorted once.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or count).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sorted(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of quantile `q`: the smallest rank whose
    /// sample has at least `q·n` samples at or below it.
    fn rank(&self, q: f64) -> usize {
        let n = self.0.len();
        // The epsilon keeps q·n = 990 from rounding up to 991 when the
        // product lands a hair above the integer.
        let r = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
        r.min(n)
    }

    /// Samples strictly above the `q` order statistic.
    fn beyond(&self, q: f64) -> usize {
        self.0.len() - self.rank(q)
    }

    /// The `q` order statistic (`None` on an empty sample).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        self.0.get(self.rank(q) - 1).copied()
    }

    /// The median (lower middle for an even count).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// A tail percentile, refused when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn tail(&self, q: f64) -> Result<f64, Refused> {
        match self.quantile(q) {
            Some(v) if self.beyond(q) >= MIN_BEYOND => Ok(v),
            _ => Err(Refused {
                fallback: self.highest_supported(),
            }),
        }
    }

    /// The highest percentile on the ladder the sample supports.
    pub fn highest_supported(&self) -> Option<(&'static str, f64)> {
        LADDER.iter().find_map(|&(q, name)| {
            (self.beyond(q) >= MIN_BEYOND)
                .then(|| self.quantile(q).map(|v| (name, v)))
                .flatten()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Sorted {
        // Reversed input checks that construction sorts.
        Sorted::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn known_vectors() {
        let s = Sorted::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.2), Some(1.0));
        assert_eq!(s.quantile(0.21), Some(2.0));
        // Even count: the lower middle.
        assert_eq!(Sorted::new(vec![4.0, 1.0, 3.0, 2.0]).median(), Some(2.0));
        let hundred = one_to(100);
        assert_eq!(hundred.quantile(0.5), Some(50.0));
        assert_eq!(hundred.quantile(0.9), Some(90.0));
        assert_eq!(hundred.quantile(0.99), Some(99.0));
        assert_eq!(Sorted::new(Vec::new()).median(), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let enough = one_to(1000);
        assert_eq!(enough.tail(0.99), Ok(990.0));
        let short = one_to(999);
        let refused = short.tail(0.99).unwrap_err();
        // 999 samples support p95 (rank 950, 49 beyond) but not p99.
        assert_eq!(refused.fallback, Some(("p95", 950.0)));
        // Too few for any tail at all.
        assert_eq!(one_to(30).tail(0.9).unwrap_err().fallback, None);
        assert_eq!(one_to(40).highest_supported(), Some(("p75", 30.0)));
    }

    #[test]
    fn quantiles_stay_within_min_max() {
        let values: Vec<f64> = (0..257)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.37 - 40.0)
            .collect();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let s = Sorted::new(values);
        for k in 0..=1000 {
            let v = s.quantile(k as f64 / 1000.0).unwrap();
            assert!(
                (lo..=hi).contains(&v),
                "q={k}/1000 gave {v} outside [{lo}, {hi}]"
            );
        }
    }
}
