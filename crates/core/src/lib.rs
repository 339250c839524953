//! # gprq-core
//!
//! The primary contribution of *"Spatial Range Querying for Gaussian-Based
//! Imprecise Query Objects"* (Ishikawa, Iijima, Yu — ICDE 2009),
//! implemented in full:
//!
//! * [`PrqQuery`] — probabilistic range queries `PRQ(q, δ, θ)` whose query
//!   object's location is a Gaussian `N(q, Σ)` (Definitions 1–2);
//! * [`ThetaRegion`] — the `1 − 2θ` ellipsoid
//!   and its bounding geometry (Definitions 3–5, Properties 1–2);
//! * the three filtering strategies — [`strategy::rr`] (rectilinear
//!   region, Algorithm 1), [`strategy::or`] (oblique region), and
//!   [`strategy::bf`] (bounding functions, Algorithm 2) — and their six
//!   combinations ([`StrategySet`]);
//! * [`PrqExecutor`] — the three-phase pipeline (index search → filtering
//!   → probability computation) with full [`QueryStats`];
//! * [`evaluator`] — the Phase-3 menu: the paper's Monte Carlo
//!   ([`MonteCarloEvaluator`]), a 2-D quadrature oracle, and the exact
//!   [`ExactEvaluator`], which decides from a certified bound; each
//!   candidate gets one [`Verdict`], `Uncertain` when it stays undecided;
//! * [`resilience`] — admission, strategy fallback and a candidate cap
//!   around the same pipeline ([`ResilientExecutor`]);
//! * [`execute_naive`] — the full-scan baseline: the filterless plan on
//!   the same pipeline;
//! * [`ext`] — the paper's §VII future-work items: probabilistic k-NN
//!   queries, uncertain *target* objects, and `QueryBatch`'s configuration.
//!
//! ```
//! use gprq_core::{ExactEvaluator, PrqExecutor, PrqQuery, StrategySet};
//! use gprq_linalg::{Matrix, Vector};
//! use gprq_rtree::{RTree, RStarParams};
//!
//! // Index some exact target objects.
//! let points: Vec<(Vector<2>, u32)> = (0..100)
//!     .map(|i| (Vector::from([(i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0]), i))
//!     .collect();
//! let tree = RTree::bulk_load(points, RStarParams::paper_default(2));
//!
//! // A query object whose position is uncertain.
//! let query = PrqQuery::new(
//!     Vector::from([45.0, 45.0]),          // mean position
//!     Matrix::identity().scale(25.0),      // covariance
//!     15.0,                                // distance threshold δ
//!     0.1,                                 // probability threshold θ
//! ).unwrap();
//!
//! let mut evaluator = ExactEvaluator::default();
//! let outcome = PrqExecutor::new(StrategySet::ALL)
//!     .execute(&tree, &query, &mut evaluator)
//!     .unwrap();
//! assert!(!outcome.answers.is_empty());
//! assert!(outcome.uncertain.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod evaluator;
pub mod executor;
pub mod explain;
pub mod ext;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod metrics;
pub mod query;
pub mod resilience;
pub mod strategy;
pub mod theta_region;

pub use batch::{cloud_seed, BatchOutcome, QueryBatch, SigmaFactorCache};
pub use error::PrqError;
pub use evaluator::{
    EvalReport, ExactEvaluator, MonteCarloEvaluator, ProbabilityEvaluator, Quadrature2dEvaluator,
    Verdict,
};
pub use executor::{
    execute_naive, PrqExecutor, PrqOutcome, QueryStats, UncertainCause, UncertainObject,
};
pub use explain::{explain, explain_with_metrics, QueryPlan};
#[cfg(feature = "fault-inject")]
pub use fault::{FaultPlan, FaultSchedule, FaultSite};
pub use metrics::{Phase, PipelineMetrics};
pub use query::PrqQuery;
pub use resilience::{
    DegradationReason, DegradationReport, ResilientExecutor, ResilientOutcome, TerminalStrategy,
};
pub use strategy::bf::{BfBounds, BfClass, RejectBound};
pub use strategy::or::OrFilter;
pub use strategy::rr::{FringeMode, RrFilter};
pub use strategy::StrategySet;
pub use theta_region::{r_theta_exact, ThetaRegion};
