//! Seeded generators for the four workloads.
//!
//! The datasets are fixed, as the paper's are: one road network and one
//! Corel-like table, generated with [`DATA_SEED`]. The substitute
//! generators place their streets and clusters by seed, and a different
//! layout moves the 9-D query cost by ±10 %, more than the regression
//! bounds the benchmark has to resolve. Everything else — query pools,
//! the churn move stream and every Monte-Carlo seed — is a pure function
//! of the `--seed` argument, so two commits given the same seed run the
//! same requests. Pools are larger than one run consumes at today's
//! speed; a faster build wraps around, and since no request leaves
//! state behind (fresh evaluator, fresh batch engine), a repeat costs
//! the same as the first visit.

use gprq_core::PrqQuery;
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use gprq_workloads::{
    corel_like_9d, eq34_covariance, pseudo_feedback_covariance, random_query_centers,
    road_network_2d, COREL_SIZE, ROAD_NETWORK_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the two fixed datasets (the one the repository's other bench
/// binaries default to).
pub const DATA_SEED: u64 = 42;

/// Monte-Carlo samples per query cloud (the paper's §V-A budget).
pub const SAMPLES: usize = 100_000;

/// The pseudo-feedback neighbourhood size of §VI-A.
const FEEDBACK_K: usize = 20;

/// Queries that share one Σ in a `corel9d_batch16` request.
pub const BATCH: usize = 16;

/// Record moves between two queries of `road2d_churn`.
pub const MOVES_PER_STEP: usize = 1_000;

/// Largest per-axis displacement of a churn move.
const JITTER: f64 = 5.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: 2-D road network, Eq. 34 covariance (γ = 10).
    Road2dPaper,
    /// Table III: 9-D Corel-like data, per-query pseudo-feedback Σ.
    Corel9dFeedback,
    /// The 9-D data through `QueryBatch`, 16 queries per shared Σ.
    Corel9dBatch16,
    /// Record moves on the writable tree between isotropic queries.
    Road2dChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Road2dPaper,
        Workload::Corel9dFeedback,
        Workload::Corel9dBatch16,
        Workload::Road2dChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Road2dPaper => "road2d_paper",
            Workload::Corel9dFeedback => "corel9d_feedback",
            Workload::Corel9dBatch16 => "corel9d_batch16",
            Workload::Road2dChurn => "road2d_churn",
        }
    }

    /// Why the workload is in the benchmark; `BENCHMARK.json` carries the
    /// same line (the smoke test compares them).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Road2dPaper => {
                "Table I 2-D queries: Phase 3 is ~99% of a query, two thirds of it the per-query cloud build and one third per-candidate counting"
            }
            Workload::Corel9dFeedback => {
                "Table III 9-D queries, each with its own feedback Sigma: cloud draw plus ~80 integrations whose count varies tenfold and drives the latency tail"
            }
            Workload::Corel9dBatch16 => {
                "the only QueryBatch workload: 16 queries share one feedback Sigma, so 15 of 16 reuse the cached offsets and skip the cloud draw"
            }
            Workload::Road2dChurn => {
                "remove+insert moves take half the time beside isotropic queries, where BF decides every candidate and Phase 3 builds a cloud it never uses"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in the generated pool: queries, batches or churn steps.
    pub fn pool_size(self, scale: Scale) -> usize {
        let full = match self {
            Workload::Road2dPaper => 2_000,
            Workload::Corel9dFeedback => 2_000,
            Workload::Corel9dBatch16 => 400,
            Workload::Road2dChurn => 1_000,
        };
        match scale {
            Scale::Full => full,
            Scale::Quick => (full / 50).max(1),
        }
    }
}

/// Operation-count scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full pools, time-boxed runs.
    Full,
    /// 1/50 of every pool, run once through.
    Quick,
}

/// Splitmix64: derives independent streams (data, queries, moves) from
/// the one seed argument.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cloud seed of request `i`: `seed ⊕ i`.
pub fn eval_seed(seed: u64, i: usize) -> u64 {
    seed ^ i as u64
}

fn with_ids<const D: usize>(points: Vec<Vector<D>>) -> Vec<(Vector<D>, u32)> {
    (0u32..).zip(points).map(|(i, p)| (p, i)).collect()
}

/// The paper's 2-D dataset: 50 747 road-segment midpoints.
pub fn road_records() -> Vec<(Vector<2>, u32)> {
    with_ids(road_network_2d(ROAD_NETWORK_SIZE, DATA_SEED))
}

/// The paper's 9-D dataset: 68 040 Corel-like feature vectors.
pub fn corel_records() -> Vec<(Vector<9>, u32)> {
    with_ids(corel_like_9d(COREL_SIZE, DATA_SEED))
}

fn centers<const D: usize>(
    records: &[(Vector<D>, u32)],
    count: usize,
    seed: u64,
) -> Vec<Vector<D>> {
    let points: Vec<Vector<D>> = records.iter().map(|(p, _)| *p).collect();
    random_query_centers(&points, count, seed)
        .into_iter()
        .map(|(_, p)| p)
        .collect()
}

/// Orders a pool so that every prefix of it samples the whole range of
/// request costs. Requests are ranked by `cost` and visited in
/// bit-reversed rank order (a van der Corput sequence) shifted by a
/// random offset: for every `k`, the first `2^k` requests sit at `2^k`
/// evenly spaced cost ranks.
///
/// A time-boxed run consumes a prefix of its pool. A 9-D query's cost
/// varies tenfold with its Phase-3 work, so a random prefix of a few
/// hundred queries (or a few dozen batches) would make a run's median
/// depend on which requests it happened to draw rather than on the
/// code under test.
pub fn stratify<T>(items: Vec<T>, cost: &[usize], seed: u64) -> Vec<T> {
    let mut ranked: Vec<(usize, T)> = cost.iter().copied().zip(items).collect();
    ranked.sort_by_key(|&(c, _)| c);
    let span = ranked.len().next_power_of_two();
    let bits = span.trailing_zeros();
    let offset = StdRng::seed_from_u64(seed).gen_range(0..span);
    let mut slots: Vec<Option<T>> = ranked.into_iter().map(|(_, item)| Some(item)).collect();
    (0..span)
        .filter_map(|k| {
            let reversed = if bits == 0 {
                0
            } else {
                k.reverse_bits() >> (usize::BITS - bits)
            };
            slots
                .get_mut((reversed + offset) % span)
                .and_then(Option::take)
        })
        .collect()
}

/// `road2d_paper`: random centers, Σ = Eq. 34 with γ = 10, δ = 25,
/// θ = 0.01.
pub fn road_paper_queries(
    records: &[(Vector<2>, u32)],
    count: usize,
    seed: u64,
) -> Vec<PrqQuery<2>> {
    let sigma = eq34_covariance(10.0);
    centers(records, count, derive(seed, 3))
        .into_iter()
        .map(|c| PrqQuery::new(c, sigma, 25.0, 0.01).expect("Eq. 34 Σ is SPD"))
        .collect()
}

/// The pointer tree the bench finds feedback neighbourhoods on. It is
/// input generation, not the system under test, so it is never timed.
pub fn knn_tree(records: &[(Vector<9>, u32)]) -> RTree<9, u32> {
    RTree::bulk_load(records.to_vec(), RStarParams::paper_default(9))
}

/// Eq. 35: the covariance of the 20-NN of `center`.
fn feedback_sigma(knn: &RTree<9, u32>, center: &Vector<9>) -> Matrix<9> {
    let neighbours: Vec<Vector<9>> = knn
        .nearest_neighbors(center, FEEDBACK_K)
        .iter()
        .map(|(_, p, _)| **p)
        .collect();
    pseudo_feedback_covariance(&neighbours)
}

fn corel_query(center: Vector<9>, sigma: Matrix<9>) -> PrqQuery<9> {
    PrqQuery::new(center, sigma, 0.7, 0.4).expect("Eq. 35 Σ is SPD")
}

/// `corel9d_feedback`: each query's Σ comes from its own center's
/// neighbourhood; δ = 0.7, θ = 0.4.
pub fn corel_feedback_queries(
    knn: &RTree<9, u32>,
    records: &[(Vector<9>, u32)],
    count: usize,
    seed: u64,
) -> Vec<PrqQuery<9>> {
    centers(records, count, derive(seed, 4))
        .into_iter()
        .map(|c| corel_query(c, feedback_sigma(knn, &c)))
        .collect()
}

/// `corel9d_batch16`: `groups` batches of [`BATCH`] queries; a batch
/// shares the feedback Σ of its first center.
pub fn corel_batch_groups(
    knn: &RTree<9, u32>,
    records: &[(Vector<9>, u32)],
    groups: usize,
    seed: u64,
) -> Vec<Vec<PrqQuery<9>>> {
    centers(records, groups * BATCH, derive(seed, 5))
        .chunks(BATCH)
        .map(|chunk| {
            let sigma = feedback_sigma(knn, &chunk[0]);
            chunk.iter().map(|c| corel_query(*c, sigma)).collect()
        })
        .collect()
}

/// One churn move: take `old` out of the index and put `new` in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The live record removed.
    pub old: (Vector<2>, u32),
    /// The same object, jittered by up to ±5 per axis, under a fresh id.
    pub new: (Vector<2>, u32),
}

/// The `road2d_churn` request stream: moves of random live records and
/// GPS-like isotropic queries (Σ = 10·I, δ = 25, θ = 0.01) centered on
/// random live records. It tracks the live set itself, so the stream
/// depends on the seed alone, not on the index under test.
#[derive(Debug, Clone)]
pub struct Churn {
    live: Vec<(Vector<2>, u32)>,
    next_id: u32,
    rng: StdRng,
}

impl Churn {
    /// Starts from the records the index was loaded with.
    pub fn new(records: &[(Vector<2>, u32)], seed: u64) -> Self {
        Churn {
            live: records.to_vec(),
            next_id: u32::try_from(records.len()).expect("record count fits u32"),
            rng: StdRng::seed_from_u64(derive(seed, 6)),
        }
    }

    /// The next move.
    pub fn next_move(&mut self) -> Move {
        let slot = self.rng.gen_range(0..self.live.len());
        let old = self.live[slot];
        let jitter = Vector::from([
            self.rng.gen_range(-JITTER..JITTER),
            self.rng.gen_range(-JITTER..JITTER),
        ]);
        let new = (old.0 + jitter, self.next_id);
        self.next_id += 1;
        self.live[slot] = new;
        Move { old, new }
    }

    /// The next query.
    pub fn next_query(&mut self) -> PrqQuery<2> {
        let center = self.live[self.rng.gen_range(0..self.live.len())].0;
        PrqQuery::new(center, Matrix::identity().scale(10.0), 25.0, 0.01)
            .expect("isotropic Σ is SPD")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_stream(records: &[(Vector<2>, u32)], seed: u64) -> (Vec<Move>, Vec<Vector<2>>) {
        let mut churn = Churn::new(records, seed);
        let moves = (0..500).map(|_| churn.next_move()).collect();
        let queries = (0..20).map(|_| *churn.next_query().center()).collect();
        (moves, queries)
    }

    fn road_centers(seed: u64) -> Vec<Vector<2>> {
        road_paper_queries(&road_records(), 50, seed)
            .iter()
            .map(|q| *q.center())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(road_centers(42), road_centers(42));
        let records = road_records();
        assert_eq!(churn_stream(&records, 42), churn_stream(&records, 42));

        let corel = corel_records();
        let small = &corel[..5_000];
        let knn = knn_tree(small);
        let covs = |seed| -> Vec<Matrix<9>> {
            corel_batch_groups(&knn, small, 2, seed)
                .iter()
                .flatten()
                .chain(&corel_feedback_queries(&knn, small, 5, seed))
                .map(|q| *q.gaussian().covariance())
                .collect()
        };
        assert_eq!(covs(42), covs(42));
        assert_ne!(covs(42), covs(7));
    }

    #[test]
    fn seeds_7_and_42_differ() {
        assert_ne!(road_centers(7), road_centers(42));
        let records = road_records();
        assert_ne!(churn_stream(&records, 7), churn_stream(&records, 42));
        assert_ne!(eval_seed(7, 3), eval_seed(42, 3));
    }

    #[test]
    fn churn_moves_live_records_under_fresh_ids() {
        let records = road_records();
        let mut churn = Churn::new(&records, 1);
        let mut live: std::collections::HashSet<u32> = records.iter().map(|r| r.1).collect();
        for _ in 0..2_000 {
            let m = churn.next_move();
            assert!(live.remove(&m.old.1), "moved a record that is not live");
            assert!(live.insert(m.new.1), "reused an id");
            let d = m.new.0 - m.old.0;
            assert!(d[0].abs() <= JITTER && d[1].abs() <= JITTER);
        }
        assert_eq!(live.len(), records.len());
    }

    #[test]
    fn stratified_prefixes_sample_evenly_spaced_costs() {
        // Cost of item i is its rank; 64 items make every prefix exact.
        let cost: Vec<usize> = (0..64).map(|i| (i * 37) % 64).collect();
        let order = stratify((0..64).collect::<Vec<usize>>(), &cost, 9);
        for k in 0..=6 {
            let mut octiles: Vec<usize> = order[..1 << k]
                .iter()
                .map(|&i| cost[i] >> (6 - k))
                .collect();
            octiles.sort_unstable();
            assert_eq!(
                octiles,
                (0..1 << k).collect::<Vec<_>>(),
                "prefix of {}",
                1 << k
            );
        }
        assert_ne!(order, stratify((0..64).collect(), &cost, 10));
        // Any size is a permutation.
        let mut odd = stratify((0..95).collect::<Vec<usize>>(), &[0; 95], 3);
        odd.sort_unstable();
        assert_eq!(odd, (0..95).collect::<Vec<_>>());
        assert_eq!(stratify(vec![7], &[1], 1), vec![7]);
    }

    #[test]
    fn batch_groups_share_sigma_within_a_group_only() {
        let corel = corel_records();
        let small = &corel[..5_000];
        let groups = corel_batch_groups(&knn_tree(small), small, 3, 3);
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.len(), BATCH);
            assert!(g
                .iter()
                .all(|q| q.gaussian().covariance() == g[0].gaussian().covariance()));
        }
        assert_ne!(
            groups[0][0].gaussian().covariance(),
            groups[1][0].gaussian().covariance()
        );
    }
}
