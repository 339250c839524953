//! Example-based multimedia retrieval in 9-D feature space — the paper's
//! second application (§I) and Experiment II scenario (§VI).
//!
//! The user supplies a few example images ("pseudo feedback": the 20
//! nearest neighbors of a randomly chosen image). The system models the
//! user's interest as a Gaussian over color-moment feature space whose
//! covariance blends the sample covariance with the Euclidean metric
//! (Eq. 35), then retrieves images probably within feature distance
//! δ = 0.7 of the interest point with probability ≥ θ.
//!
//! ```text
//! cargo run --release --example image_retrieval
//! ```

use gaussian_prq::prelude::*;
use gaussian_prq::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Corel-like 9-D feature collection (reduced from the paper's
    // 68,040 for example runtime; the bench reproduces full scale).
    let n = 20_000;
    let features = workloads::corel_like_9d(n, 11);
    let records: Vec<(Vector<9>, usize)> = features.iter().copied().zip(0..).collect();
    let tree = RTree::bulk_load(records, RStarParams::paper_default(9));
    println!("indexed {n} image feature vectors (9-D)");

    // Pick a random query image and gather pseudo-feedback: its 20-NN
    // (including itself), exactly as §VI-A.
    let query_idx = 4_321;
    let query_vec = features[query_idx];
    let k = 20;
    let knn = tree.nearest_neighbors(&query_vec, k);
    let samples: Vec<Vector<9>> = knn.iter().map(|(_, p, _)| **p).collect();
    println!(
        "pseudo-feedback: {}-NN of image #{query_idx} (max sample distance {:.3})",
        k,
        knn.last().unwrap().0
    );

    // Eq. 35: Σ = Σ̃ + κI with κ = |Σ̃|^{1/9}.
    let sigma = workloads::pseudo_feedback_covariance(&samples);
    let eig = sigma.symmetric_eigen()?;
    println!(
        "interest model: narrow Gaussian, condition number λ_max/λ_min = {:.1}",
        eig.condition_number()
    );

    // The paper's query parameters: δ = 0.7, θ = 40 %.
    let query = PrqQuery::new(query_vec, sigma, 0.7, 0.4)?;

    for (name, set) in StrategySet::PAPER_COMBINATIONS {
        let mut evaluator = ExactEvaluator::default();
        let outcome = PrqExecutor::new(set).execute(&tree, &query, &mut evaluator)?;
        let s = &outcome.stats;
        println!(
            "{name:>6}: {} images retrieved | {} candidates → {} integrations",
            s.answers, s.phase1_candidates, s.integrations,
        );
    }

    // Ranking variant (the paper's future-work probabilistic NN): the 5
    // most probable matches regardless of threshold.
    let mut evaluator = ExactEvaluator::default();
    let (top, stats) = probabilistic_knn(&tree, &query, 5, &mut evaluator);
    println!(
        "\ntop-5 by qualification probability (examined {} candidates):",
        stats.candidates_examined
    );
    for (rank, r) in top.iter().enumerate() {
        println!(
            "  #{rank}: image {:>6} at distance {:.3}, p = {:.3}",
            r.data, r.distance, r.probability
        );
    }
    Ok(())
}
