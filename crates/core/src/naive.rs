//! The naive baseline: integrate every object in the database.
//!
//! This is what the paper's filtering strategies are measured against —
//! without Phases 1–2, every one of the 50 747 (or 68 040) objects pays
//! the Monte-Carlo integration cost. Used by the correctness tests as the
//! definition of the true answer set and by the benches as the
//! worst-case bar.

use crate::evaluator::ProbabilityEvaluator;
use crate::executor::{PrqOutcome, QueryStats};
use crate::query::PrqQuery;
use gprq_linalg::Vector;
use gprq_rtree::RTree;
use std::time::Instant;

/// Evaluates the query by a full scan with per-object integration.
pub fn execute_naive<'t, const D: usize, T, E>(
    tree: &'t RTree<D, T>,
    query: &PrqQuery<D>,
    evaluator: &mut E,
) -> PrqOutcome<'t, D, T>
where
    E: ProbabilityEvaluator<D>,
{
    let mut stats = QueryStats::default();
    let t = Instant::now();
    evaluator.begin_query(query.gaussian());
    let mut answers: Vec<(&'t Vector<D>, &'t T)> = Vec::new();
    for (point, data) in tree.iter() {
        stats.integrations += 1;
        let p = evaluator.probability(query.gaussian(), point, query.delta());
        if p >= query.theta() {
            answers.push((point, data));
        }
    }
    stats.phase1_candidates = stats.integrations;
    stats.phase3_time = t.elapsed();
    stats.answers = answers.len();
    stats.absorb_cloud(&evaluator.take_cloud_stats());
    PrqOutcome {
        answers,
        uncertain: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use crate::executor::PrqExecutor;
    use crate::strategy::StrategySet;
    use gprq_linalg::Matrix;
    use gprq_rtree::RStarParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn naive_matches_filtered_execution() {
        let mut rng = StdRng::seed_from_u64(77);
        let points: Vec<(Vector<2>, usize)> = (0..2_000)
            .map(|i| {
                (
                    Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]),
                    i,
                )
            })
            .collect();
        let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
        let s3 = 3.0f64.sqrt();
        let sigma = Matrix::from_rows([[7.0, 2.0 * s3], [2.0 * s3, 3.0]]).scale(10.0);
        let query = PrqQuery::new(Vector::from([500.0, 500.0]), sigma, 25.0, 0.01).unwrap();

        let mut eval = Quadrature2dEvaluator::default();
        let naive = execute_naive(&tree, &query, &mut eval);
        let filtered = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();

        let mut a: Vec<usize> = naive.answers.iter().map(|(_, d)| **d).collect();
        let mut b: Vec<usize> = filtered.answers.iter().map(|(_, d)| **d).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // The whole point of the paper: filtering integrates far less.
        assert_eq!(naive.stats.integrations, 2_000);
        assert!(filtered.stats.integrations < naive.stats.integrations / 10);
    }

    #[test]
    fn naive_on_empty_tree() {
        let tree: RTree<2, usize> = RTree::new();
        let query = PrqQuery::new(Vector::ZERO, Matrix::identity(), 1.0, 0.1).unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = execute_naive(&tree, &query, &mut eval);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.integrations, 0);
    }
}
