//! Probabilistic k-nearest-neighbor queries (paper §VII, future work 1).
//!
//! `PNN(q, Σ, δ, k)` returns the `k` objects with the **highest
//! qualification probability** `Pr(‖x − o‖ ≤ δ)` — the natural ranking
//! companion of the thresholded `PRQ`.
//!
//! The search streams candidates from the R\*-tree in ascending Euclidean
//! distance from `q` and integrates them, maintaining the current top-k.
//! It stops as soon as the BF **upper bound on probability at the next
//! candidate's distance** falls below the current k-th best probability:
//! because the bound `∫_{B(o,δ)} p∥` is monotonically decreasing in
//! `‖o − q‖` and dominates the true probability (Property 4), no farther
//! object can displace the top-k.

use crate::evaluator::ProbabilityEvaluator;
use crate::query::PrqQuery;
use gprq_gaussian::noncentral::ball_probability;
use gprq_linalg::Vector;
use gprq_rtree::RTree;

/// One ranked result of a probabilistic k-NN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PnnResult<'t, const D: usize, T> {
    /// The object's location.
    pub point: &'t Vector<D>,
    /// The object's payload.
    pub data: &'t T,
    /// Estimated qualification probability.
    pub probability: f64,
    /// Euclidean distance from the query center.
    pub distance: f64,
}

/// Statistics of a probabilistic k-NN execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PnnStats {
    /// Candidates pulled from the distance-ordered stream.
    pub candidates_examined: usize,
    /// Numerical integrations performed.
    pub integrations: usize,
}

/// Upper bound on the qualification probability of an object at distance
/// `dist` from the query center, from the BF upper bounding function
/// `p∥` (Definition 6): `(λ∥)^{−d/2}|Σ|^{−1/2} · F_d(√λ∥·dist, √λ∥·δ)`,
/// clamped to 1.
pub fn probability_upper_bound<const D: usize>(query: &PrqQuery<D>, dist: f64) -> f64 {
    let g = query.gaussian();
    let lambda_par = g.lambda_parallel();
    let sqrt_l = lambda_par.sqrt();
    let ln_scale = -0.5 * (D as f64) * lambda_par.ln() - 0.5 * g.log_det_covariance();
    let f = ball_probability(D, sqrt_l * dist, sqrt_l * query.delta());
    (ln_scale.exp() * f).min(1.0)
}

/// Executes a probabilistic k-NN query. The `theta` field of `query` is
/// ignored (ranking replaces thresholding); `δ` defines the event whose
/// probability ranks the objects.
///
/// Results are sorted by descending probability (ties by ascending
/// distance).
pub fn probabilistic_knn<'t, const D: usize, T, E>(
    tree: &'t RTree<D, T>,
    query: &PrqQuery<D>,
    k: usize,
    evaluator: &mut E,
) -> (Vec<PnnResult<'t, D, T>>, PnnStats)
where
    E: ProbabilityEvaluator<D>,
{
    let mut stats = PnnStats::default();
    if k == 0 || tree.is_empty() {
        return (Vec::new(), stats);
    }
    evaluator.begin_query(query.gaussian());
    let mut top: Vec<PnnResult<'t, D, T>> = Vec::with_capacity(k + 1);

    for (dist, point, data) in tree.nearest_iter(query.center()) {
        stats.candidates_examined += 1;
        // Termination: can anything at this distance (or farther) beat
        // the current k-th probability?
        if top.len() == k {
            if let Some(kth) = top.last() {
                if probability_upper_bound(query, dist) < kth.probability {
                    break;
                }
            }
        }
        stats.integrations += 1;
        let probability = evaluator.probability(query.gaussian(), point, query.delta());
        let result = PnnResult {
            point,
            data,
            probability,
            distance: dist,
        };
        // Insert in sorted order (descending probability, ascending
        // distance); k is small so linear insertion beats a heap.
        let pos = top
            .iter()
            .position(|r| {
                r.probability < probability || (r.probability == probability && r.distance > dist)
            })
            .unwrap_or(top.len());
        top.insert(pos, result);
        if top.len() > k {
            top.pop();
        }
    }
    // `PnnStats` has no cloud fields: drain the draw so it does not
    // leak into the evaluator's next query.
    evaluator.take_cloud_stats();
    (top, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use gprq_linalg::Matrix;
    use gprq_rtree::RStarParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> RTree<2, usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = (0..n)
            .map(|i| {
                (
                    Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                    i,
                )
            })
            .collect();
        RTree::bulk_load(points, RStarParams::paper_default(2))
    }

    fn paper_query() -> PrqQuery<2> {
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
        // θ is irrelevant for PNN; any valid value works.
        PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap()
    }

    #[test]
    fn matches_exhaustive_ranking() {
        let tree = random_tree(2_000, 5);
        let query = paper_query();
        let k = 10;
        let mut eval = Quadrature2dEvaluator::default();
        let (got, stats) = probabilistic_knn(&tree, &query, k, &mut eval);
        assert_eq!(got.len(), k);

        // Exhaustive oracle.
        let mut oracle = Quadrature2dEvaluator::default();
        let mut all: Vec<(f64, usize)> = tree
            .iter()
            .map(|(p, d)| (oracle.probability(query.gaussian(), p, query.delta()), *d))
            .collect();
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (i, r) in got.iter().enumerate() {
            assert!(
                (r.probability - all[i].0).abs() < 1e-9,
                "rank {i}: {} vs oracle {}",
                r.probability,
                all[i].0
            );
        }
        // The bound must have terminated the scan early.
        assert!(
            stats.integrations < 2_000,
            "expected early termination, integrated {}",
            stats.integrations
        );
    }

    #[test]
    fn results_sorted_descending() {
        let tree = random_tree(500, 9);
        let query = paper_query();
        let mut eval = Quadrature2dEvaluator::default();
        let (got, _) = probabilistic_knn(&tree, &query, 8, &mut eval);
        for w in got.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn upper_bound_dominates_truth_and_decreases() {
        let query = paper_query();
        let mut oracle = Quadrature2dEvaluator::default();
        let mut prev = f64::INFINITY;
        for t in [0.0, 10.0, 20.0, 40.0, 80.0] {
            let ub = probability_upper_bound(&query, t);
            assert!(ub <= prev + 1e-12, "bound must be non-increasing");
            prev = ub;
            let p = *query.center() + Vector::from([t, 0.0]);
            let truth = oracle.probability(query.gaussian(), &p, query.delta());
            assert!(ub >= truth - 1e-9, "bound {ub} < truth {truth} at {t}");
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let tree = random_tree(100, 1);
        let query = paper_query();
        let mut eval = Quadrature2dEvaluator::default();
        assert!(probabilistic_knn(&tree, &query, 0, &mut eval).0.is_empty());
        let empty: RTree<2, usize> = RTree::new();
        assert!(probabilistic_knn(&empty, &query, 5, &mut eval).0.is_empty());
    }

    #[test]
    fn k_exceeding_database_returns_all() {
        let tree = random_tree(20, 2);
        let query = paper_query();
        let mut eval = Quadrature2dEvaluator::default();
        let (got, _) = probabilistic_knn(&tree, &query, 100, &mut eval);
        assert_eq!(got.len(), 20);
    }
}
