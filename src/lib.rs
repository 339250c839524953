//! # gaussian-prq
//!
//! Probabilistic spatial range queries for **Gaussian-based imprecise
//! query objects** — a from-scratch Rust implementation of
//!
//! > Yoshiharu Ishikawa, Yuichi Iijima, Jeffrey Xu Yu.
//! > *Spatial Range Querying for Gaussian-Based Imprecise Query Objects.*
//! > Proc. IEEE ICDE 2009.
//!
//! A query object whose position is only known as a Gaussian distribution
//! `N(q, Σ)` asks for all exactly-located database objects within
//! distance `δ` **with probability at least `θ`**. Because the
//! qualification probability requires numerical integration, query time
//! is dominated by how many candidates reach that phase; this crate
//! implements the paper's three filtering strategies (rectilinear-region,
//! oblique-region, bounding-function) and their combinations over a
//! from-scratch R\*-tree, and decides the candidates that remain either
//! by the paper's Monte Carlo or exactly, from a certified bound on the
//! probability.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `gprq-linalg` | vectors, matrices, eigen/Cholesky |
//! | [`gaussian`] | `gprq-gaussian` | distributions, chi/noncentral CDFs, Monte-Carlo integration |
//! | [`rtree`] | `gprq-rtree` | the R\*-tree index |
//! | [`core`] | `gprq-core` | queries, strategies, executor, extensions |
//! | [`workloads`] | `gprq-workloads` | the paper's experimental workloads |
//!
//! ## Quickstart
//!
//! ```
//! use gaussian_prq::prelude::*;
//!
//! // 1. Index the database of exactly-located objects.
//! let objects: Vec<(Vector<2>, u32)> = (0..400)
//!     .map(|i| (Vector::from([(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0]), i))
//!     .collect();
//! let tree = RTree::bulk_load(objects, RStarParams::paper_default(2));
//!
//! // 2. Describe the imprecise query object.
//! let query = PrqQuery::new(
//!     Vector::from([50.0, 50.0]),      // estimated position q
//!     Matrix::identity().scale(16.0),  // positional covariance Σ
//!     10.0,                            // distance threshold δ
//!     0.2,                             // probability threshold θ
//! )?;
//!
//! // 3. Execute with all three filtering strategies; the exact
//! //    evaluator decides each remaining candidate without sampling.
//! let mut evaluator = ExactEvaluator::default();
//! let outcome = PrqExecutor::new(StrategySet::ALL)
//!     .execute(&tree, &query, &mut evaluator)?;
//!
//! println!(
//!     "{} answers, {} integrations out of {} candidates, {} undecided",
//!     outcome.stats.answers,
//!     outcome.stats.integrations,
//!     outcome.stats.phase1_candidates,
//!     outcome.stats.uncertain,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gprq_core as core;
pub use gprq_gaussian as gaussian;
pub use gprq_linalg as linalg;
pub use gprq_rtree as rtree;
pub use gprq_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use gprq_core::ext::parallel::ParallelIntegrator;
    pub use gprq_core::ext::pnn::{probabilistic_knn, PnnResult};
    pub use gprq_core::ext::session::{MonitoringSession, StepOutcome};
    pub use gprq_core::ext::uncertain::{
        prq_uncertain_targets, qualification_probability, UncertainTarget,
    };
    pub use gprq_core::{
        cloud_seed, execute_naive, BatchOutcome, BfClass, DegradationReason, DegradationReport,
        ExactEvaluator, FringeMode, MonteCarloEvaluator, PipelineMetrics, ProbabilityEvaluator,
        PrqError, PrqExecutor, PrqOutcome, PrqQuery, Quadrature2dEvaluator, QueryBatch, QueryStats,
        ResilientExecutor, ResilientOutcome, SigmaFactorCache, StrategySet, TerminalStrategy,
        ThetaRegion, UncertainCause, Verdict,
    };
    pub use gprq_gaussian::cloud::{CloudGrid, SampleCloud};
    pub use gprq_gaussian::Gaussian;
    pub use gprq_linalg::{Matrix, Vector};
    pub use gprq_rtree::{
        FlatRTree, Phase1Index, RStarParams, RTree, Rect, SearchStats, PACKED_FANOUT,
    };
}
