//! Property-based invariants for the log-bucketed histogram
//! (deterministic under the offline proptest shim's per-test seeds).

use gprq_obs::{Histogram, BUCKET_COUNT};
use proptest::prelude::*;

fn filled(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn counts(h: &Histogram) -> [u64; BUCKET_COUNT] {
    h.bucket_counts()
}

proptest! {
    #[test]
    fn total_count_equals_bucket_sum(values in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        let h = filled(&values);
        let bucket_total: u64 = counts(&h).iter().sum();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(bucket_total, h.count());
    }

    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let ab = filled(&a);
        ab.merge(&filled(&b));
        let ba = filled(&b);
        ba.merge(&filled(&a));
        prop_assert_eq!(counts(&ab), counts(&ba));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.sum(), ba.sum());
        prop_assert_eq!(ab.max_value(), ba.max_value());
    }

    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..1_000_000, 0..60),
        b in proptest::collection::vec(0u64..1_000_000, 0..60),
        c in proptest::collection::vec(0u64..1_000_000, 0..60),
    ) {
        // (a ⊕ b) ⊕ c
        let left = filled(&a);
        left.merge(&filled(&b));
        left.merge(&filled(&c));
        // a ⊕ (b ⊕ c)
        let bc = filled(&b);
        bc.merge(&filled(&c));
        let right = filled(&a);
        right.merge(&bc);
        prop_assert_eq!(counts(&left), counts(&right));
        prop_assert_eq!(left.sum(), right.sum());
        prop_assert_eq!(left.max_value(), right.max_value());
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        values in proptest::collection::vec(0u64..u64::MAX, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let h = filled(&values);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
        // The top quantile is exactly the recorded maximum: the bucket
        // cap is clamped to it, and the cap never understates it.
        prop_assert_eq!(h.quantile(1.0), h.max_value());
    }

    #[test]
    fn recording_hostile_floats_never_panics(
        finite in proptest::collection::vec(-1.0e300f64..1.0e300, 0..50),
    ) {
        let h = Histogram::new();
        for v in &finite {
            h.record_f64(*v);
        }
        // The non-finite and boundary cases, explicitly.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN, f64::MAX] {
            h.record_f64(v);
        }
        // Negative-duration analogue: u64 has no negative values, so the
        // f64 entry point is the negative path; zero duration is the floor.
        h.record_duration(std::time::Duration::ZERO);
        prop_assert_eq!(h.count(), finite.len() as u64 + 7);
        let bucket_total: u64 = counts(&h).iter().sum();
        prop_assert_eq!(bucket_total, h.count());
    }

    #[test]
    fn every_value_lands_in_its_bucket(v in 0u64..u64::MAX) {
        let idx = Histogram::bucket_index(v);
        prop_assert!(idx < BUCKET_COUNT);
        let upper = Histogram::bucket_upper_bound(idx);
        prop_assert!(v <= upper);
        if idx > 0 {
            // Lower edge: the previous bucket's cap is strictly below v.
            prop_assert!(Histogram::bucket_upper_bound(idx - 1) < v);
        }
    }
}
