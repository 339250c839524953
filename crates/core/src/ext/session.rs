//! Continuous-query sessions: a sequence of probabilistic range queries
//! from one moving, imprecisely-localized object (the paper's §I robot
//! scenario executed over time).
//!
//! A session checks its thresholds and strategies once, reuses one
//! evaluator across steps, and reports per-step plus aggregate
//! statistics; each step runs the same plan and pipeline as a one-shot
//! [`PrqExecutor::execute`]. Results are returned as *deltas* (objects
//! entering/leaving the probable range) because monitoring applications
//! react to changes, not to full sets.

use crate::error::PrqError;
use crate::evaluator::ProbabilityEvaluator;
use crate::executor::{PrqExecutor, QueryStats};
use crate::query::PrqQuery;
use crate::strategy::StrategySet;
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::Phase1Index;

/// One step's outcome in a monitoring session.
#[derive(Debug, Clone)]
pub struct StepOutcome<T> {
    /// Payloads qualifying at this step (sorted, deduplicated).
    pub answers: Vec<T>,
    /// Payloads newly qualifying relative to the previous step.
    pub entered: Vec<T>,
    /// Payloads that stopped qualifying relative to the previous step.
    pub left: Vec<T>,
    /// Execution statistics for this step.
    pub stats: QueryStats,
}

/// A monitoring session over a static object database, held in any
/// [`Phase1Index`].
pub struct MonitoringSession<'t, const D: usize, T, E, I> {
    tree: &'t I,
    delta: f64,
    theta: f64,
    strategies: StrategySet,
    evaluator: E,
    previous: Vec<T>,
    /// Aggregate statistics across all steps.
    pub total: QueryStats,
    /// Number of steps executed.
    pub steps: usize,
}

impl<'t, const D: usize, T, E, I> MonitoringSession<'t, D, T, E, I>
where
    T: Clone + Ord,
    E: ProbabilityEvaluator<D>,
    I: Phase1Index<D, T>,
{
    /// Creates a session, rejecting one that no step could run: it plans
    /// a query at the session's thresholds, so it fails exactly where
    /// every step's plan would.
    ///
    /// # Errors
    ///
    /// [`PrqError::InvalidDelta`] or [`PrqError::InvalidTheta`] for
    /// out-of-range thresholds, [`PrqError::NoPrimaryStrategy`] for an
    /// OR-only set, and [`PrqError::ThetaRegionUndefined`] when RR or OR
    /// is enabled with `θ ≥ 1/2`.
    pub fn new(
        tree: &'t I,
        delta: f64,
        theta: f64,
        strategies: StrategySet,
        evaluator: E,
    ) -> Result<Self, PrqError> {
        let probe = PrqQuery::<D>::new(Vector::ZERO, Matrix::identity(), delta, theta)?;
        PrqExecutor::new(strategies).plan(&probe)?;
        Ok(MonitoringSession {
            tree,
            delta,
            theta,
            strategies,
            evaluator,
            previous: Vec::new(),
            total: QueryStats::default(),
            steps: 0,
        })
    }

    /// Executes one step at the given pose estimate.
    ///
    /// # Errors
    ///
    /// Propagates query-construction and execution errors.
    pub fn step(
        &mut self,
        mean: Vector<D>,
        covariance: Matrix<D>,
    ) -> Result<StepOutcome<T>, PrqError> {
        let query = PrqQuery::new(mean, covariance, self.delta, self.theta)?;
        let outcome =
            PrqExecutor::new(self.strategies).execute(self.tree, &query, &mut self.evaluator)?;

        let mut answers: Vec<T> = outcome.answers.iter().map(|(_, d)| (*d).clone()).collect();
        answers.sort_unstable();
        answers.dedup();

        let entered: Vec<T> = answers
            .iter()
            .filter(|a| self.previous.binary_search(a).is_err())
            .cloned()
            .collect();
        let left: Vec<T> = self
            .previous
            .iter()
            .filter(|p| answers.binary_search(p).is_err())
            .cloned()
            .collect();

        // Aggregate statistics.
        let s = outcome.stats;
        self.total.merge(&s);
        self.steps += 1;

        self.previous = answers.clone();
        Ok(StepOutcome {
            answers,
            entered,
            left,
            stats: s,
        })
    }

    /// Mean integrations per step so far.
    pub fn mean_integrations(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total.integrations as f64 / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Quadrature2dEvaluator;
    use gprq_rtree::{FlatRTree, RStarParams, RTree};
    use std::time::Duration;

    fn grid_tree() -> RTree<2, u32> {
        let mut points = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                points.push((
                    Vector::from([i as f64 * 25.0, j as f64 * 25.0]),
                    (i * 40 + j) as u32,
                ));
            }
        }
        RTree::bulk_load(points, RStarParams::paper_default(2))
    }

    fn cov(spread: f64) -> Matrix<2> {
        Matrix::identity().scale(spread)
    }

    /// `stats` with its wall-clock fields zeroed: the integer counters.
    fn untimed(stats: QueryStats) -> QueryStats {
        QueryStats {
            phase1_time: Duration::ZERO,
            phase2_time: Duration::ZERO,
            phase3_time: Duration::ZERO,
            ..stats
        }
    }

    #[test]
    fn deltas_track_movement() {
        let tree = grid_tree();
        let mut session = MonitoringSession::new(
            &tree,
            60.0,
            0.2,
            StrategySet::ALL,
            Quadrature2dEvaluator::default(),
        )
        .unwrap();
        let first = session
            .step(Vector::from([200.0, 200.0]), cov(100.0))
            .unwrap();
        assert!(!first.answers.is_empty());
        assert_eq!(first.entered, first.answers, "first step: all enter");
        assert!(first.left.is_empty());

        // Tiny movement: mostly stable set.
        let second = session
            .step(Vector::from([205.0, 200.0]), cov(100.0))
            .unwrap();
        assert!(second.entered.len() + second.left.len() < first.answers.len());

        // Large jump: completely new set.
        let third = session
            .step(Vector::from([800.0, 800.0]), cov(100.0))
            .unwrap();
        assert!(!third.entered.is_empty());
        assert!(!third.left.is_empty());
        // Old answers all left (they're ~850 away, far beyond δ = 60).
        assert_eq!(third.left.len(), second.answers.len());
        assert_eq!(session.steps, 3);
        assert!(session.mean_integrations() >= 0.0);
    }

    #[test]
    fn flat_index_session_matches_the_pointer_tree() {
        let tree = grid_tree();
        let flat = FlatRTree::freeze(grid_tree());
        fn session<I: Phase1Index<2, u32>>(
            index: &I,
        ) -> MonitoringSession<'_, 2, u32, Quadrature2dEvaluator, I> {
            let eval = Quadrature2dEvaluator::default();
            MonitoringSession::new(index, 60.0, 0.2, StrategySet::ALL, eval).unwrap()
        }
        let (mut pointer, mut frozen) = (session(&tree), session(&flat));
        for (x, spread) in [(200.0, 100.0), (205.0, 100.0), (800.0, 400.0)] {
            let mean = Vector::from([x, 0.8 * x]);
            let a = pointer.step(mean, cov(spread)).unwrap();
            let b = frozen.step(mean, cov(spread)).unwrap();
            assert!(!a.answers.is_empty());
            assert_eq!(
                (&a.answers, &a.entered, &a.left),
                (&b.answers, &b.entered, &b.left)
            );
            assert_eq!(untimed(a.stats), untimed(b.stats), "step at x = {x}");
        }
        assert_eq!(untimed(pointer.total), untimed(frozen.total));
    }

    #[test]
    fn session_matches_one_shot_execution() {
        let tree = grid_tree();
        let mut session = MonitoringSession::new(
            &tree,
            60.0,
            0.2,
            StrategySet::ALL,
            Quadrature2dEvaluator::default(),
        )
        .unwrap();
        let mean = Vector::from([333.0, 512.0]);
        let sigma = cov(80.0);
        let step = session.step(mean, sigma).unwrap();

        let query = PrqQuery::new(mean, sigma, 60.0, 0.2).unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let one_shot = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        let mut expect: Vec<u32> = one_shot.answers.iter().map(|(_, d)| **d).collect();
        expect.sort_unstable();
        assert_eq!(step.answers, expect);
        // The step plans as the one-shot call does, so it prunes, accepts
        // and integrates the same objects.
        assert_eq!(untimed(step.stats), untimed(one_shot.stats));
    }

    #[test]
    fn growing_uncertainty_changes_answer_set() {
        // The paper's Example 1 punchline, as an assertion: at fixed
        // position, growing Σ changes which objects clear θ.
        let tree = grid_tree();
        let mut session = MonitoringSession::new(
            &tree,
            60.0,
            0.3,
            StrategySet::ALL,
            Quadrature2dEvaluator::default(),
        )
        .unwrap();
        let mean = Vector::from([500.0, 500.0]);
        let tight = session.step(mean, cov(10.0)).unwrap();
        // σ ≈ 173 per axis: even an object at the center captures only
        // ~1 − exp(−δ²/(2σ²)) ≈ 6 % < θ of the mass — no object qualifies.
        let loose = session.step(mean, cov(30_000.0)).unwrap();
        assert!(!tight.answers.is_empty());
        assert!(
            loose.answers.is_empty(),
            "under huge uncertainty nothing clears θ = 0.3, got {:?}",
            loose.answers
        );
    }

    #[test]
    fn rejects_invalid_parameters() {
        let tree = grid_tree();
        assert!(MonitoringSession::new(
            &tree,
            -1.0,
            0.2,
            StrategySet::ALL,
            Quadrature2dEvaluator::default()
        )
        .is_err());
        assert!(MonitoringSession::new(
            &tree,
            1.0,
            0.0,
            StrategySet::ALL,
            Quadrature2dEvaluator::default()
        )
        .is_err());
        let or_only = StrategySet {
            rr: false,
            or: true,
            bf: false,
        };
        assert!(
            MonitoringSession::new(&tree, 1.0, 0.2, or_only, Quadrature2dEvaluator::default())
                .is_err()
        );
        // θ ≥ 1/2 leaves RR and OR without a θ-region, so no step of an
        // `ALL` session could plan; a BF session runs there.
        let eval = Quadrature2dEvaluator::default();
        assert_eq!(
            MonitoringSession::new(&tree, 60.0, 0.6, StrategySet::ALL, eval).err(),
            Some(PrqError::ThetaRegionUndefined(0.6))
        );
        let eval = Quadrature2dEvaluator::default();
        let mut bf = MonitoringSession::new(&tree, 60.0, 0.6, StrategySet::BF, eval).unwrap();
        let step = bf.step(Vector::from([500.0, 500.0]), cov(100.0)).unwrap();
        assert!(!step.answers.is_empty());
    }
}
