//! Location anonymity — the paper's §I privacy scenario.
//!
//! A user shares only an *obfuscated* location with a venue-finder
//! service: instead of exact coordinates, the service receives a Gaussian
//! whose spread is chosen by the user's privacy level. The service still
//! answers "which venues are probably within walking distance?" —
//! a probabilistic range query. This example also uses the cost model to
//! pick the cheapest strategy set per privacy level before executing.
//!
//! ```text
//! cargo run --release --example location_privacy
//! ```

use gaussian_prq::core::cost::{expected_integrations, region_volumes, DensityEstimate};
use gaussian_prq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // City venue database: clustered around a few districts.
    let venues = gaussian_prq::workloads::road_network_2d(20_000, 99);
    let tree = RTree::bulk_load(
        venues.into_iter().zip(0u32..).collect(),
        RStarParams::paper_default(2),
    );
    println!("venue database: {} points", tree.len());

    let true_location = Vector::from([420.0, 380.0]);
    let walking_range = 40.0; // δ
    let confidence = 0.2; // θ

    println!("\nprivacy |  σ (m) | answers | integr. | predicted | strategy chosen");
    println!("--------+--------+---------+---------+-----------+----------------");
    for (label, sigma_m) in [
        ("exact ", 1.0),
        ("street", 15.0),
        ("block ", 40.0),
        ("city-q", 120.0f64),
    ] {
        // The obfuscation the user's device applies: isotropic Gaussian
        // noise of scale σ. The service only ever sees (q, Σ).
        let reported_cov = Matrix::identity().scale(sigma_m * sigma_m);
        let query = PrqQuery::new(true_location, reported_cov, walking_range, confidence)?;

        // Cost-model-driven strategy choice.
        let volumes = region_volumes(&query, 7)?;
        let density = DensityEstimate::uniform(tree.len(), 1000.0 * 1000.0);
        let (best_name, best_set, predicted) = StrategySet::PAPER_COMBINATIONS
            .iter()
            .map(|(name, set)| (*name, *set, expected_integrations(&volumes, &density, *set)))
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("six combinations");

        let mut eval = ExactEvaluator::default();
        let outcome = PrqExecutor::new(best_set).execute(&tree, &query, &mut eval)?;
        println!(
            "{label}  | {sigma_m:6.0} | {:7} | {:7} | {predicted:9.0} | {best_name}",
            outcome.stats.answers, outcome.stats.integrations,
        );
    }

    println!("\nAs the privacy radius grows, the service's uncertainty region");
    println!("inflates: more candidates must be integrated, yet fewer venues");
    println!("clear the confidence threshold — quantifying the privacy/utility");
    println!("trade-off without the user ever revealing exact coordinates.");
    Ok(())
}
