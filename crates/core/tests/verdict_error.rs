//! The verdict-error gate: how often the paper's Monte-Carlo Phase 3
//! answers a candidate wrongly, against the exact evaluator as oracle.
//!
//! Each pool runs `MonteCarloEvaluator` (10 000 samples per query cloud)
//! over seeded, scaled-down copies of the two paper workloads — the 2-D
//! road network under the Eq. 34 Σ (γ = 10, δ = 25, θ = 0.01) and the
//! 9-D Corel-like data under each query's Eq. 35 feedback Σ (δ = 0.7,
//! θ = 0.4) — and records every integrated candidate's estimate. The
//! exact evaluator then decides each of those candidates; it must leave
//! none `Uncertain`.
//!
//! **Stated rate.** A Monte-Carlo verdict on a candidate with exact
//! probability `p` is wrong with probability
//! `e = Φ(−|p − θ|/σ̂)`, `σ̂ = √(p(1 − p)/n)` (normal approximation to the
//! binomial), so the expected count of wrong verdicts is `E = Σ e`. One
//! query's candidates share its cloud, so their errors are correlated;
//! the slack is sized per query from the perfectly correlated worst
//! case, `Var(O_q) ≤ (Σ_c √(e_c(1 − e_c)))²`. The gate fails when the
//! observed count exceeds `E + 4·√(Σ_q Var(O_q)) + 1`.

use gprq_core::{
    ExactEvaluator, MonteCarloEvaluator, ProbabilityEvaluator, PrqExecutor, PrqQuery, StrategySet,
    Verdict,
};
use gprq_gaussian::cloud::CloudStats;
use gprq_gaussian::specfun::std_normal_cdf;
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::{RStarParams, RTree};
use gprq_workloads::{
    corel_like_9d, eq34_covariance, pseudo_feedback_covariance, random_query_centers,
    road_network_2d,
};

/// Samples per Monte-Carlo query cloud.
const SAMPLES: usize = 10_000;
/// Objects per scaled-down dataset.
const OBJECTS: usize = 8_000;
/// Queries per pool.
const QUERIES: usize = 100;

/// The Monte-Carlo evaluator, recording each integrated candidate with
/// its estimate.
struct Recording<const D: usize> {
    inner: MonteCarloEvaluator<D>,
    seen: Vec<(Vector<D>, f64)>,
}

impl<const D: usize> ProbabilityEvaluator<D> for Recording<D> {
    fn begin_query(&mut self, gaussian: &Gaussian<D>) {
        self.inner.begin_query(gaussian);
    }

    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        let estimate = self.inner.probability(gaussian, center, delta);
        self.seen.push((*center, estimate));
        estimate
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        self.inner.take_cloud_stats()
    }
}

/// Observed and predicted wrong verdicts over one pool.
#[derive(Debug)]
struct Tally {
    candidates: usize,
    observed: usize,
    expected: f64,
    variance: f64,
}

impl Tally {
    fn bound(&self) -> f64 {
        self.expected + 4.0 * self.variance.sqrt() + 1.0
    }
}

fn tally<const D: usize>(tree: &RTree<D, u32>, queries: &[PrqQuery<D>]) -> Tally {
    let executor = PrqExecutor::new(StrategySet::ALL);
    let mut exact = ExactEvaluator::<D>::default();
    let mut out = Tally {
        candidates: 0,
        observed: 0,
        expected: 0.0,
        variance: 0.0,
    };
    for (i, query) in queries.iter().enumerate() {
        let mut mc = Recording {
            inner: MonteCarloEvaluator::new(SAMPLES, 1_000 + i as u64),
            seen: Vec::new(),
        };
        executor.execute(tree, query, &mut mc).unwrap();
        let (g, delta, theta) = (query.gaussian(), query.delta(), query.theta());
        let mut spread = 0.0;
        for (center, estimate) in &mc.seen {
            let verdict = exact.evaluate(g, center, delta, theta).verdict;
            assert_ne!(verdict, Verdict::Uncertain, "query {i}, {center:?}");
            let p = exact.probability(g, center, delta);
            let sigma = (p * (1.0 - p) / SAMPLES as f64).sqrt();
            let e = std_normal_cdf(-(p - theta).abs() / sigma);
            out.expected += e;
            spread += (e * (1.0 - e)).sqrt();
            out.observed += usize::from((*estimate >= theta) != (verdict == Verdict::Accept));
        }
        out.variance += spread * spread;
        out.candidates += mc.seen.len();
    }
    out
}

#[test]
fn monte_carlo_verdict_errors_match_the_binomial_prediction() {
    let road = road_network_2d(OBJECTS, 42);
    let tree = RTree::bulk_load(
        (0u32..).zip(&road).map(|(i, p)| (*p, i)).collect(),
        RStarParams::paper_default(2),
    );
    let queries: Vec<PrqQuery<2>> = random_query_centers(&road, QUERIES, 7)
        .into_iter()
        .map(|(_, c)| PrqQuery::new(c, eq34_covariance(10.0), 25.0, 0.01).unwrap())
        .collect();
    let road_tally = tally(&tree, &queries);

    let corel = corel_like_9d(OBJECTS, 42);
    let tree = RTree::bulk_load(
        (0u32..).zip(&corel).map(|(i, p)| (*p, i)).collect(),
        RStarParams::paper_default(9),
    );
    let queries: Vec<PrqQuery<9>> = random_query_centers(&corel, QUERIES, 9)
        .into_iter()
        .map(|(_, c)| {
            let neighbours: Vec<Vector<9>> = tree
                .nearest_neighbors(&c, 20)
                .iter()
                .map(|(_, p, _)| **p)
                .collect();
            PrqQuery::new(c, pseudo_feedback_covariance(&neighbours), 0.7, 0.4).unwrap()
        })
        .collect();
    let corel_tally = tally(&tree, &queries);

    for (name, t) in [("road", road_tally), ("corel", corel_tally)] {
        println!(
            "{name}: {} candidates, observed {} wrong verdicts, predicted {:.1} (bound {:.1})",
            t.candidates,
            t.observed,
            t.expected,
            t.bound()
        );
        assert!(t.candidates > 0, "{name}: nothing integrated");
        assert!(
            (t.observed as f64) <= t.bound(),
            "{name}: {} wrong verdicts against a predicted {:.2} (bound {:.2})",
            t.observed,
            t.expected,
            t.bound()
        );
    }
}
