//! Correctness checks, never inside a timed interval: the cheap ones
//! right after each request, the oracle and the batch re-runs after the
//! request loop ends (except on `road2d_churn`, whose oracle must see
//! the tree as the query did, and costs microseconds there).
//!
//! A **failed operation** is a call that returns `Err`, a `remove` that
//! reports a live record missing, an answer outside the RR search box
//! the bench computes itself, or a query whose answers differ from the
//! reference run it is checked against (solo runs for a batch, `execute`
//! for the traced decomposition). A **verdict error** is an object in
//! the RR box whose membership in the answer set disagrees with an exact
//! oracle: `BfBounds::exact` where BF decides the object, 2-D polar
//! quadrature otherwise. Monte-Carlo answers are estimates, so verdict
//! errors are expected near θ; the run is correct while their rate stays
//! within [`MAX_VERDICT_ERROR_RATE`].

use gprq_core::{
    cloud_seed, BatchOutcome, BfBounds, BfClass, FringeMode, MonteCarloEvaluator,
    ProbabilityEvaluator, PrqExecutor, PrqQuery, Quadrature2dEvaluator, RrFilter, StrategySet,
    ThetaRegion,
};
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats};

use crate::workloads::SAMPLES;

/// Highest tolerated share of oracle-checked objects with a wrong
/// verdict. A 100 000-sample estimate has a standard error of ~3·10⁻⁴ at
/// θ = 0.01, so only objects within about 10⁻³ of θ can flip; they are
/// well under 1 % of the RR box on both 2-D workloads.
pub const MAX_VERDICT_ERROR_RATE: f64 = 0.01;

/// Every `ORACLE_EVERY`-th query of a 2-D workload is oracle-checked.
pub const ORACLE_EVERY: usize = 20;

/// Every `PARITY_EVERY`-th batch is re-run query by query.
pub const PARITY_EVERY: usize = 10;

/// Correctness counts of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations issued: queries, plus moves on the churn workload.
    pub attempted: u64,
    /// Operations that failed (see the module docs).
    pub failed: u64,
    /// Objects compared against the exact oracle.
    pub oracle_objects: u64,
    /// Of those, objects with the wrong verdict.
    pub oracle_mismatches: u64,
}

impl Tally {
    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Share of oracle-checked objects with a wrong verdict (0 when none
    /// were checked, as on the 9-D workloads, which have no oracle yet).
    pub fn verdict_error_rate(&self) -> f64 {
        ratio(self.oracle_mismatches, self.oracle_objects)
    }

    /// No failed operation and a verdict error rate within bounds.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.verdict_error_rate() <= MAX_VERDICT_ERROR_RATE
    }
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The Phase-1 box of RR (Algorithm 1), computed by the bench from the
/// query alone; no answer may lie outside it.
pub fn rr_box<const D: usize>(query: &PrqQuery<D>) -> Option<Rect<D>> {
    let region = ThetaRegion::for_query(query).ok()?;
    Some(RrFilter::new(query, &region, FringeMode::PaperFaithful).search_rect())
}

/// Sorted answer ids, the form two answer sets are compared in.
pub fn sorted_ids<'a>(answers: impl Iterator<Item = &'a u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = answers.copied().collect();
    ids.sort_unstable();
    ids
}

/// The sorted ids of `answers` when every answer lies inside the
/// query's RR box; `None`, a failed operation, otherwise.
pub fn boxed_ids<const D: usize>(
    query: &PrqQuery<D>,
    answers: &[(&Vector<D>, &u32)],
) -> Option<Vec<u32>> {
    let rect = rr_box(query)?;
    answers
        .iter()
        .all(|(p, _)| rect.contains_point(p))
        .then(|| sorted_ids(answers.iter().map(|(_, id)| *id)))
}

/// The answer ids of a solo `PrqExecutor` run whose evaluator is seeded
/// `seed`.
pub fn solo_ids<const D: usize, I: Phase1Index<D, u32>>(
    index: &I,
    query: &PrqQuery<D>,
    seed: u64,
) -> Option<Vec<u32>> {
    let mut evaluator = MonteCarloEvaluator::new(SAMPLES, seed);
    let outcome = PrqExecutor::new(StrategySet::ALL).execute(index, query, &mut evaluator);
    outcome
        .ok()
        .map(|o| sorted_ids(o.answers.iter().map(|(_, id)| *id)))
}

/// Checks each query of a batch (`outcomes` is `None` when the batch
/// failed) and counts one operation per query; returns the ids of the
/// queries that passed.
pub fn batch_ids<const D: usize>(
    queries: &[PrqQuery<D>],
    outcomes: Option<&[BatchOutcome<'_, D, u32>]>,
    tally: &mut Tally,
) -> Vec<Option<Vec<u32>>> {
    queries
        .iter()
        .enumerate()
        .map(|(k, query)| {
            let ids = outcomes
                .and_then(|o| o.get(k))
                .and_then(|o| boxed_ids(query, &o.answers));
            tally.op(ids.is_some());
            ids
        })
        .collect()
}

/// Re-runs each query of a batch alone, seeded as the batch derives its
/// cloud seeds from `base_seed`; a query whose answers differ from the
/// batch's counts as failed.
pub fn batch_parity<const D: usize, I: Phase1Index<D, u32>>(
    index: &I,
    base_seed: u64,
    queries: &[PrqQuery<D>],
    ids: &[Option<Vec<u32>>],
    tally: &mut Tally,
) {
    for (query, ids) in queries.iter().zip(ids) {
        // A query that already failed is not counted twice.
        if let Some(ids) = ids {
            let solo = solo_ids(index, query, cloud_seed(base_seed, query.gaussian()));
            tally.failed += u64::from(solo.as_ref() != Some(ids));
        }
    }
}

/// Compares every object of the RR box with the exact oracle and records
/// the verdicts in `tally`. `answers` must be sorted.
pub fn oracle_2d<I: Phase1Index<2, u32>>(
    index: &I,
    query: &PrqQuery<2>,
    answers: &[u32],
    tally: &mut Tally,
) {
    let Some(rect) = rr_box(query) else {
        return;
    };
    let mut objects = Vec::new();
    index.search_rect_into(&rect, &mut SearchStats::default(), &mut objects);
    let bf = BfBounds::exact(query);
    let mut quadrature = Quadrature2dEvaluator::default();
    for (point, id) in objects {
        let qualifies = match bf.classify(point) {
            BfClass::Accept => true,
            BfClass::Reject => false,
            BfClass::NeedsIntegration => {
                quadrature.probability(query.gaussian(), point, query.delta()) >= query.theta()
            }
        };
        tally.oracle_objects += 1;
        if qualifies != answers.binary_search(id).is_ok() {
            tally.oracle_mismatches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_linalg::Matrix;
    use gprq_rtree::FlatRTree;

    fn query() -> PrqQuery<2> {
        PrqQuery::new(
            Vector::from([50.0, 50.0]),
            Matrix::identity().scale(10.0),
            5.0,
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn box_check_rejects_far_answers() {
        let q = query();
        let near = Vector::from([51.0, 49.0]);
        let far = Vector::from([500.0, 50.0]);
        assert_eq!(boxed_ids(&q, &[(&near, &7), (&near, &3)]), Some(vec![3, 7]));
        assert_eq!(boxed_ids(&q, &[(&near, &7), (&far, &3)]), None);
    }

    #[test]
    fn oracle_counts_wrong_verdicts() {
        let records: Vec<(Vector<2>, u32)> = (0..400)
            .map(|i| {
                (
                    Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]),
                    i,
                )
            })
            .collect();
        let index = FlatRTree::bulk_load(records);
        let q = query();
        let mut exact = Tally::default();
        // The true answer: objects within distance 5 of (50, 50) carry
        // far more than 5 % of the N(q, 10·I) mass, the grid corners do not.
        let mut truth = Vec::new();
        let mut quadrature = Quadrature2dEvaluator::default();
        for (p, id) in index.iter() {
            if quadrature.probability(q.gaussian(), p, q.delta()) >= q.theta() {
                truth.push(*id);
            }
        }
        truth.sort_unstable();
        oracle_2d(&index, &q, &truth, &mut exact);
        assert!(exact.oracle_objects > 0);
        assert_eq!(exact.oracle_mismatches, 0);

        let mut wrong = Tally::default();
        oracle_2d(&index, &q, &truth[1..], &mut wrong);
        assert_eq!(wrong.oracle_mismatches, 1);
        assert!(wrong.verdict_error_rate() > 0.0);
    }
}
