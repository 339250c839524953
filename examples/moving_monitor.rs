//! Continuous monitoring of a moving, imprecisely-localized object —
//! the paper's robot scenario run as a *query stream* using the
//! [`MonitoringSession`] extension: one evaluator reused across steps,
//! enter/leave deltas per step, and an `EXPLAIN`-style plan printed for
//! the first pose.
//!
//! ```text
//! cargo run --release --example moving_monitor
//! ```

use gaussian_prq::core::explain::explain;
use gaussian_prq::prelude::*;
use gaussian_prq::workloads::{road_network_2d, simulate_trajectory, TrajectoryModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Static obstacle/POI database.
    let points = road_network_2d(30_000, 7);
    let tree = RTree::bulk_load(
        points.into_iter().zip(0u32..).collect(),
        RStarParams::paper_default(2),
    );
    println!("database: {} points of interest", tree.len());

    let delta = 45.0;
    let theta = 0.25;
    let model = TrajectoryModel {
        step_length: 30.0,
        turn_rate: 0.09,
        fix_interval: 6,
        ..TrajectoryModel::default()
    };
    let trajectory = simulate_trajectory(&model, Vector::from([150.0, 200.0]), 0.5, 18, 2.0);

    // EXPLAIN the first pose's query before running anything.
    let first = &trajectory[0];
    let probe_query = PrqQuery::new(first.mean, first.covariance, delta, theta)?;
    println!("\n{}", explain(&probe_query, StrategySet::ALL)?);

    // Stream the trajectory through a monitoring session.
    let mut session = MonitoringSession::new(
        &tree,
        delta,
        theta,
        StrategySet::ALL,
        ExactEvaluator::default(),
    )?;
    println!("  t(s) | in-range | entered | left | integrations");
    println!("-------+----------+---------+------+-------------");
    for pose in &trajectory {
        let step = session.step(pose.mean, pose.covariance)?;
        println!(
            "{:6.0} | {:8} | {:7} | {:4} | {:8}",
            pose.time,
            step.answers.len(),
            step.entered.len(),
            step.left.len(),
            step.stats.integrations,
        );
    }
    println!(
        "\nsession total: {} steps, mean {:.0} integrations/step, {} answers reported",
        session.steps,
        session.mean_integrations(),
        session.total.answers,
    );
    Ok(())
}
