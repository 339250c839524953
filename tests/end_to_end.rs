//! Cross-crate integration tests: the full pipeline from workload
//! generation through indexing, strategy filtering, and probability
//! computation, validated against oracles.

use gaussian_prq::prelude::*;
use gaussian_prq::workloads;

fn road_tree(n: usize, seed: u64) -> RTree<2, usize> {
    let pts = workloads::road_network_2d(n, seed);
    RTree::bulk_load(
        pts.into_iter().zip(0..).collect(),
        RStarParams::paper_default(2),
    )
}

fn sorted_ids(outcome: &PrqOutcome<'_, 2, usize>) -> Vec<usize> {
    let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn paper_default_query_all_strategies_equal_naive() {
    let tree = road_tree(8_000, 1);
    let query = PrqQuery::new(
        Vector::from([450.0, 430.0]),
        workloads::eq34_covariance(10.0),
        25.0,
        0.01,
    )
    .unwrap();

    // Ground truth by deterministic quadrature over a full scan.
    let mut oracle = Quadrature2dEvaluator::default();
    let truth = sorted_ids(&execute_naive(&tree, &query, &mut oracle));
    assert!(!truth.is_empty(), "query should have answers");

    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(set)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert_eq!(sorted_ids(&outcome), truth, "strategy {name}");
    }
}

#[test]
fn monte_carlo_agrees_with_oracle_away_from_threshold() {
    // MC jitter can flip objects whose true probability sits within a
    // few standard errors of θ; everything else must agree.
    let tree = road_tree(4_000, 2);
    let query = PrqQuery::new(
        Vector::from([500.0, 500.0]),
        workloads::eq34_covariance(10.0),
        25.0,
        0.01,
    )
    .unwrap();
    let mut mc = MonteCarloEvaluator::paper_default(7);
    let mc_ids = sorted_ids(
        &PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut mc)
            .unwrap(),
    );
    // Oracle classification with a tolerance band: objects with
    // |p − θ| > 5σ must be classified identically.
    let sigma_mc = (0.01f64 * 0.99 / 100_000.0).sqrt();
    let band = 5.0 * sigma_mc;
    let mut oracle = Quadrature2dEvaluator::default();
    for (point, id) in tree.iter() {
        let p = oracle.probability(query.gaussian(), point, query.delta());
        if p > query.theta() + band {
            assert!(
                mc_ids.binary_search(id).is_ok(),
                "missed sure answer {id} (p = {p})"
            );
        } else if p < query.theta() - band {
            assert!(
                mc_ids.binary_search(id).is_err(),
                "false positive {id} (p = {p})"
            );
        }
    }
}

#[test]
fn gamma_scaling_increases_work_and_answers() {
    // Tables I–II trend: γ = 1 → 10 → 100 grows candidates and answers.
    let tree = road_tree(10_000, 3);
    let mut prev_candidates = 0usize;
    for gamma in [1.0, 10.0, 100.0] {
        let query = PrqQuery::new(
            Vector::from([400.0, 450.0]),
            workloads::eq34_covariance(gamma),
            25.0,
            0.01,
        )
        .unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let outcome = PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        assert!(
            outcome.stats.integrations + outcome.stats.accepted_without_integration
                >= prev_candidates,
            "work should grow with γ"
        );
        prev_candidates = outcome.stats.integrations + outcome.stats.accepted_without_integration;
    }
}

#[test]
fn shared_samples_match_fresh_samples_closely() {
    let tree = road_tree(3_000, 4);
    let query = PrqQuery::new(
        Vector::from([500.0, 500.0]),
        workloads::eq34_covariance(10.0),
        25.0,
        0.05,
    )
    .unwrap();
    let mut fresh = MonteCarloEvaluator::new(100_000, 11);
    let a = sorted_ids(
        &PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut fresh)
            .unwrap(),
    );
    let mut shared = MonteCarloEvaluator::<2>::new(100_000, 12);
    let b = sorted_ids(
        &PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut shared)
            .unwrap(),
    );
    // Allow a small symmetric difference from MC noise at the threshold.
    let diff = a
        .iter()
        .filter(|x| b.binary_search(x).is_err())
        .chain(b.iter().filter(|x| a.binary_search(x).is_err()))
        .count();
    assert!(
        diff <= (a.len().max(8)) / 8,
        "symmetric difference {diff} too large ({} vs {})",
        a.len(),
        b.len()
    );
}

#[test]
fn nine_dimensional_pipeline_runs() {
    // End-to-end 9-D: pseudo-feedback covariance, all strategies agree
    // under a shared-sample evaluator (deterministic enough given one
    // batch per query — the batch is identical across strategy sets
    // because the evaluator is re-seeded).
    let features = workloads::corel_like_9d(6_000, 5);
    let tree: RTree<9, usize> = RTree::bulk_load(
        features.iter().copied().zip(0..).collect(),
        RStarParams::paper_default(9),
    );
    let q_idx = 1234;
    let knn = tree.nearest_neighbors(&features[q_idx], 20);
    let samples: Vec<Vector<9>> = knn.iter().map(|(_, p, _)| **p).collect();
    let sigma = workloads::pseudo_feedback_covariance(&samples);
    let query = PrqQuery::new(features[q_idx], sigma, 0.7, 0.4).unwrap();

    let mut reference: Option<Vec<usize>> = None;
    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut eval = MonteCarloEvaluator::<9>::new(50_000, 777);
        let outcome = PrqExecutor::new(set)
            .execute(&tree, &query, &mut eval)
            .unwrap();
        let mut ids: Vec<usize> = outcome.answers.iter().map(|(_, d)| **d).collect();
        ids.sort_unstable();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "9-D strategy {name} disagrees"),
        }
    }
}

#[test]
fn every_strategy_equals_naive_across_theta() {
    let tree = road_tree(5_000, 6);
    for theta in [0.005, 0.01, 0.1, 0.3] {
        let query = PrqQuery::new(
            Vector::from([300.0, 600.0]),
            workloads::eq34_covariance(10.0),
            25.0,
            theta,
        )
        .unwrap();
        let mut eval = Quadrature2dEvaluator::default();
        let truth = sorted_ids(&execute_naive(&tree, &query, &mut eval));
        assert!(
            !truth.is_empty(),
            "θ = {theta}: the query should have answers"
        );
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            let outcome = PrqExecutor::new(set)
                .execute(&tree, &query, &mut eval)
                .unwrap();
            assert_eq!(sorted_ids(&outcome), truth, "{name} at θ = {theta}");
        }
    }
}

#[test]
fn fringe_generalization_preserves_answers() {
    let tree = road_tree(5_000, 7);
    let query = PrqQuery::new(
        Vector::from([500.0, 400.0]),
        workloads::eq34_covariance(100.0),
        25.0,
        0.01,
    )
    .unwrap();
    let mut eval = Quadrature2dEvaluator::default();
    let faithful = PrqExecutor::new(StrategySet::RR)
        .with_fringe_mode(FringeMode::PaperFaithful)
        .execute(&tree, &query, &mut eval)
        .unwrap();
    let general = PrqExecutor::new(StrategySet::RR)
        .with_fringe_mode(FringeMode::AllDimensions)
        .execute(&tree, &query, &mut eval)
        .unwrap();
    let disabled = PrqExecutor::new(StrategySet::RR)
        .with_fringe_mode(FringeMode::Disabled)
        .execute(&tree, &query, &mut eval)
        .unwrap();
    assert_eq!(sorted_ids(&faithful), sorted_ids(&general));
    assert_eq!(sorted_ids(&faithful), sorted_ids(&disabled));
    // In 2-D, faithful == general; disabled does strictly more work.
    assert_eq!(faithful.stats.integrations, general.stats.integrations);
    assert!(disabled.stats.integrations >= faithful.stats.integrations);
}

#[test]
fn parallel_integrator_matches_executor_answers() {
    let tree = road_tree(3_000, 8);
    let query = PrqQuery::new(
        Vector::from([500.0, 500.0]),
        workloads::eq34_covariance(10.0),
        25.0,
        0.01,
    )
    .unwrap();
    let mut oracle = Quadrature2dEvaluator::default();
    let truth = sorted_ids(
        &PrqExecutor::new(StrategySet::ALL)
            .execute(&tree, &query, &mut oracle)
            .unwrap(),
    );
    // A one-query batch; the integrator's thread count (4) is unused.
    let mut batch = QueryBatch::new(
        PrqExecutor::new(StrategySet::ALL),
        ParallelIntegrator::new(100_000, 31, 4).unwrap(),
    );
    let outcomes = batch.execute(&tree, std::slice::from_ref(&query)).unwrap();
    assert!(!outcomes[0].integrated.is_empty(), "Phase 3 must run");
    let mut par_ids: Vec<usize> = outcomes[0].answers.iter().map(|(_, d)| **d).collect();
    par_ids.sort_unstable();
    // MC noise tolerance at the threshold.
    let diff = truth
        .iter()
        .filter(|x| par_ids.binary_search(x).is_err())
        .chain(par_ids.iter().filter(|x| truth.binary_search(x).is_err()))
        .count();
    assert!(diff <= truth.len().max(8) / 8, "diff {diff}");
}
