//! Quickstart: issue one probabilistic range query end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gaussian_prq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. Build a database of exactly-located objects (a synthetic road
    //    network, as in the paper's experiments) and index it.
    // ------------------------------------------------------------------
    let points = gaussian_prq::workloads::road_network_2d(10_000, 42);
    let records: Vec<(Vector<2>, usize)> = points.into_iter().zip(0..).collect();
    let tree = RTree::bulk_load(records, RStarParams::paper_default(2));
    println!(
        "indexed {} objects (R*-tree height {}, {} nodes)",
        tree.len(),
        tree.height(),
        tree.node_count()
    );

    // ------------------------------------------------------------------
    // 2. Describe the query object: position known only as N(q, Σ).
    //    This is the paper's default query (Eq. 34 with γ = 10,
    //    δ = 25, θ = 0.01).
    // ------------------------------------------------------------------
    let query = PrqQuery::new(
        Vector::from([500.0, 500.0]),
        gaussian_prq::workloads::eq34_covariance(10.0),
        25.0,
        0.01,
    )?;
    println!(
        "query: center {}, delta {}, theta {}",
        query.center(),
        query.delta(),
        query.theta()
    );

    // ------------------------------------------------------------------
    // 3. Execute with each strategy combination and compare the work.
    // ------------------------------------------------------------------
    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut evaluator = ExactEvaluator::default();
        let outcome = PrqExecutor::new(set).execute(&tree, &query, &mut evaluator)?;
        let s = &outcome.stats;
        println!(
            "{name:>6}: {} answers | {} phase-1 candidates, {} integrations, \
             {} accepted free, {} node accesses | {:.1} ms",
            s.answers,
            s.phase1_candidates,
            s.integrations,
            s.accepted_without_integration,
            s.node_accesses,
            s.total_time().as_secs_f64() * 1e3,
        );
    }

    // ------------------------------------------------------------------
    // 4. Cross-check against the naive full-scan baseline.
    // ------------------------------------------------------------------
    let mut evaluator = ExactEvaluator::default();
    let naive = execute_naive(&tree, &query, &mut evaluator);
    println!(
        " naive: {} answers | {} integrations | {:.1} ms",
        naive.stats.answers,
        naive.stats.integrations,
        naive.stats.total_time().as_secs_f64() * 1e3,
    );
    Ok(())
}
