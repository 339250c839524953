//! **Dimensionality sweep** (extension) — candidate counts and answer
//! sizes across d ∈ {2, 3, 5, 9} on controlled uniform data, making the
//! Fig. 17 "curse of dimensionality" discussion (§VI-B) measurable at
//! the query level: at matched expected-answer scale, the candidate set
//! needing integration balloons with dimension.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin dims [--n 30000] [--samples 30000]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::{row, Args};
use gprq_core::{MonteCarloEvaluator, PrqExecutor, PrqQuery, StrategySet};
use gprq_gaussian::chi::chi_inverse;
use gprq_linalg::{Matrix, Vector};
use gprq_rtree::{RStarParams, RTree};
use gprq_workloads::synthetic::uniform;

/// Runs one dimension: uniform data in [0, 100]^D with δ chosen so the
/// δ-ball holds ~50 expected objects — matching the *answer scale*
/// across dimensions isolates the candidate blowup.
fn run_dim<const D: usize>(n: usize, samples: usize, seed: u64) -> [String; 5] {
    let extent = 100.0;
    let pts = uniform::<D>(n, extent, seed);
    // Solve n·V_D(δ)/extent^D = 50 for δ.
    let target = 50.0;
    let ln_v1 = gprq_gaussian::specfun::ln_unit_ball_volume(D);
    let delta = ((target / n as f64).ln() + (D as f64) * extent.ln() - ln_v1)
        .exp()
        .powf(1.0 / D as f64);
    let tree: RTree<D, u32> = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
        RStarParams::paper_default(D),
    );
    // Query at the domain center; anisotropic spread (σ² alternating
    // 9 / 20.25 per axis — an isotropic Σ would let BF decide everything
    // exactly, paper §VI-B's spherical special case), δ = 10, θ = 0.1.
    let cov = Matrix::<D>::from_fn(|i, j| {
        if i == j {
            let s = if i % 2 == 0 {
                0.3 * delta
            } else {
                0.45 * delta
            };
            s * s
        } else {
            0.0
        }
    });
    // Query spread scales with δ so the uncertainty stays comparable
    // to the search range (σ = 0.3·δ on even axes, 0.45·δ on odd).
    let query = PrqQuery::new(Vector::<D>::splat(extent / 2.0), cov, delta, 0.1).expect("valid");
    let mut eval = MonteCarloEvaluator::<D>::new(samples, seed);
    let outcome = PrqExecutor::new(StrategySet::ALL)
        .execute(&tree, &query, &mut eval)
        .expect("executes");
    let r_theta = chi_inverse(D, 1.0 - 2.0 * 0.1);
    [
        format!("{:.2}", delta),
        format!("{:.2}", r_theta),
        format!("{}", outcome.stats.phase1_candidates),
        format!("{}", outcome.stats.integrations),
        format!("{}", outcome.stats.answers),
    ]
}

fn main() {
    let args = Args::parse();
    let n = args.get("n", 30_000usize);
    let samples = args.get("samples", 30_000usize);
    let seed = args.get("seed", 42u64);

    println!("Dimensionality sweep: n = {n} uniform points, δ matched to ~50 expected neighbors, θ = 0.1\n");
    println!(
        "{}",
        row(
            "d",
            &[
                "δ".into(),
                "r_θ".into(),
                "phase1".into(),
                "integr.".into(),
                "ANS".into()
            ]
        )
    );
    let r2 = run_dim::<2>(n, samples, seed);
    println!("{}", row("2", &r2));
    let r3 = run_dim::<3>(n, samples, seed);
    println!("{}", row("3", &r3));
    let r5 = run_dim::<5>(n, samples, seed);
    println!("{}", row("5", &r5));
    let r9 = run_dim::<9>(n, samples, seed);
    println!("{}", row("9", &r9));

    println!("\nexpected shape: r_θ grows with d (Fig. 17); the candidate-to-answer");
    println!("ratio degrades with d — the §VI-B curse-of-dimensionality effect.");
}
