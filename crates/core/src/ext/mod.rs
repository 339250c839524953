//! Extensions beyond the paper's evaluated scope — its §VII "future work"
//! items, implemented on top of the same machinery:
//!
//! * [`pnn`] — probabilistic k-nearest-neighbor queries: rank objects by
//!   qualification probability at a fixed `δ`, pruning with the BF upper
//!   bound;
//! * [`uncertain`] — *uncertain target objects*: when a target is itself
//!   Gaussian, the qualification probability reduces exactly to a query
//!   with the convolved covariance `Σ + Σ_o`;
//! * [`parallel`] — `QueryBatch`'s configuration: cloud size and base
//!   seed;
//! * [`session`] — continuous monitoring: a sequence of PRQs from a
//!   moving object, with catalog reuse and enter/leave delta reporting.

pub mod parallel;
pub mod pnn;
pub mod session;
pub mod uncertain;
