//! Mobile-sensor monitoring with degraded GPS — the paper's §I sensor
//! scenario, exercising the *uncertain targets* extension (§VII).
//!
//! A fleet of mobile sensors reports positions at a low update rate to
//! save power. Between updates, each sensor's believed position is a
//! Gaussian whose spread grows with the time since its last fix. A
//! monitoring station (itself on a vehicle with imprecise GPS) asks
//! which sensors are within communication range δ with probability ≥ θ —
//! a range query where *both* sides are uncertain, solved exactly by
//! covariance convolution.
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```

use gaussian_prq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut seed = 0x5eed_u64;
    let mut next = move || {
        // xorshift for a tiny self-contained PRNG.
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };

    // 1. The fleet: 500 sensors; staleness of the last GPS fix drives
    //    each sensor's positional uncertainty (5 m fresh … 60 m stale).
    let sensors: Vec<UncertainTarget<2>> = (0..500)
        .map(|_| {
            let staleness = next(); // 0 = fresh fix, 1 = very stale
            let spread = 5.0 + 55.0 * staleness;
            UncertainTarget {
                mean: Vector::from([next() * 2_000.0, next() * 2_000.0]),
                covariance: Matrix::identity().scale(spread * spread),
            }
        })
        .collect();
    println!(
        "fleet: {} mobile sensors with per-sensor uncertainty",
        sensors.len()
    );

    // 2. The monitoring vehicle: position from its own filter.
    let station = PrqQuery::new(
        Vector::from([1_000.0, 1_000.0]),
        gaussian_prq::workloads::rotated_covariance_2d(40.0, 15.0, 0.6),
        250.0, // radio range δ = 250 m
        0.5,   // want ≥ 50 % link probability
    )?;
    println!(
        "station at {} (anisotropic uncertainty), radio range {} m, θ = {}",
        station.center(),
        station.delta(),
        station.theta()
    );

    // 3. Evaluate the uncertain-vs-uncertain range query. The BF bounds
    //    on each convolved distribution decide most sensors without
    //    computing a probability at all.
    let mut evaluator = ExactEvaluator::default();
    let outcome = prq_uncertain_targets(&station, &sensors, &mut evaluator)?;
    println!(
        "\n{} sensors reachable with ≥ 50 % probability",
        outcome.answers.len()
    );
    println!(
        "decided by bounds alone: {} / {}   (integrations: {}, left uncertain: {})",
        outcome.decided_by_bounds,
        sensors.len(),
        outcome.integrations,
        outcome.uncertain.len()
    );

    // 4. Show how target staleness changes the verdict for two sensors
    //    at the same nominal distance.
    let probe_mean = *station.center() + Vector::from([230.0, 0.0]);
    for (label, spread) in [("fresh fix (5 m)", 5.0), ("stale fix (60 m)", 60.0f64)] {
        let target = UncertainTarget {
            mean: probe_mean,
            covariance: Matrix::identity().scale(spread * spread),
        };
        let p = qualification_probability(&station, &target, &mut evaluator)?;
        println!("probe sensor with {label:>16}: link probability {p:.3}");
    }
    println!("\nSame nominal position, different staleness ⇒ different answer —");
    println!("the covariance convolution Σ + Σ_o makes that exact, not heuristic.");
    Ok(())
}
