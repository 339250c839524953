//! Pins the benchmark's fixed datasets bit for bit.
//!
//! The end-to-end benchmark builds its road network and its Corel-like
//! table from these generators at seed 42, and `corel_like_9d` draws
//! from the Box–Muller `StandardNormal`. A change to either generator or
//! to that sampler would silently move every benchmark figure; these
//! fingerprints make it fail here instead. The constants were computed
//! at the parent of the commit that moved Phase-3 sampling to the
//! ziggurat, so they also prove that move left both datasets untouched.
//! Update them only together with a deliberate dataset change.

use gprq_linalg::Vector;
use gprq_workloads::{corel_like_9d, road_network_2d, COREL_SIZE, ROAD_NETWORK_SIZE};

/// FNV-1a (64-bit) over the little-endian bytes of every coordinate's
/// `f64::to_bits`, points in order.
fn fingerprint<const D: usize>(points: &[Vector<D>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for &x in p.as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn road_network_dataset_is_pinned() {
    let points = road_network_2d(ROAD_NETWORK_SIZE, 42);
    assert_eq!(points.len(), ROAD_NETWORK_SIZE);
    assert_eq!(fingerprint(&points), 0x0fa1_df10_1cce_d852);
}

#[test]
fn corel_dataset_is_pinned() {
    let points = corel_like_9d(COREL_SIZE, 42);
    assert_eq!(points.len(), COREL_SIZE);
    assert_eq!(fingerprint(&points), 0xf5df_2e85_41a3_d1c8);
}
