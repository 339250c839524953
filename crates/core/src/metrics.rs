//! Pipeline-wide observability: one handle bundling every metric the
//! three-phase executor, the resilient wrapper, and the batch engine
//! record.
//!
//! [`PipelineMetrics`] owns a [`gprq_obs::Registry`] plus cached
//! instrument handles, so the hot path pays one relaxed atomic per
//! event — never a name lookup or a lock. Executors take the handle by
//! reference ([`PrqExecutor::with_metrics`]) and stay `Copy`; a handle
//! can be cloned freely (clones share the same instruments).
//!
//! Counters are flushed **once per query** from the already-maintained
//! [`QueryStats`], so per-candidate work sees no instrumentation at
//! all; only the plan span and the three phase spans touch metrics
//! inside a query. The `BENCH_obs.json`
//! guard holds the end-to-end overhead of this design under 3 %.
//!
//! Span-to-paper mapping: [`Phase::Plan`] derives the query's radii
//! (`r_θ`, BF's `α∥`/`α⊥`) before any phase runs, [`Phase::Search`] is
//! the paper's Phase 1 (index-based search), [`Phase::Filter`] Phase 2
//! (RR/OR/BF filtering), [`Phase::Integrate`] Phase 3 (probability
//! computation, "at least 97 % of the total processing time", §V-B).
//!
//! [`PrqExecutor::with_metrics`]: crate::executor::PrqExecutor::with_metrics
//! [`QueryStats`]: crate::executor::QueryStats

use crate::executor::QueryStats;
use crate::resilience::{DegradationReason, DegradationReport};
use gprq_obs::{Clock, Counter, Histogram, MetricsSnapshot, MonotonicClock, PhaseSpan, Registry};
use std::sync::Arc;

/// Registered metric names, one `const` per instrument so callers and
/// dashboards never drift from the recording sites (the DESIGN.md §10
/// table is generated from this list's docs).
pub mod names {
    /// Counter: queries executed (one per `execute` call).
    pub const QUERIES: &str = "prq_queries_total";
    /// Counter: answer-set entries returned.
    pub const ANSWERS: &str = "prq_answers_total";
    /// Counter: R-tree nodes visited in Phase 1 (`SearchStats::nodes_visited`).
    pub const PHASE1_NODE_VISITS: &str = "prq_phase1_node_visits_total";
    /// Counter: leaf records tested in Phase 1 (`SearchStats::entries_checked`).
    pub const PHASE1_LEAF_HITS: &str = "prq_phase1_leaf_hits_total";
    /// Counter: candidates returned by the Phase-1 rectangle search.
    pub const PHASE1_CANDIDATES: &str = "prq_phase1_candidates_total";
    /// Counter: candidates pruned by the RR fringe filter.
    pub const PHASE2_FRINGE_PRUNES: &str = "prq_phase2_fringe_prunes_total";
    /// Counter: candidates rotated into the eigenbasis by the OR filter.
    pub const PHASE2_OR_ROTATIONS: &str = "prq_phase2_or_rotations_total";
    /// Counter: candidates pruned by the OR oblique-box filter.
    pub const PHASE2_OR_PRUNES: &str = "prq_phase2_or_prunes_total";
    /// Counter: candidates rejected by the BF radius `α∥`.
    pub const PHASE2_BF_REJECTS: &str = "prq_phase2_bf_rejects_total";
    /// Counter: candidates accepted by the BF radius `α⊥` without integration.
    pub const PHASE2_BF_ACCEPTS: &str = "prq_phase2_bf_accepts_total";
    /// Counter: numerical integrations performed in Phase 3.
    pub const PHASE3_INTEGRATIONS: &str = "prq_phase3_integrations_total";
    /// Counter: objects reported `Verdict::Uncertain`.
    pub const PHASE3_UNCERTAIN: &str = "prq_phase3_uncertain_total";
    /// Counter: Monte-Carlo samples drawn in Phase 3 — clouds and
    /// freshly drawn batch offset tables — on every path
    /// (`CloudStats::samples_drawn`). Each integrated object is measured
    /// against its query's whole cloud; on the solo paths the cloud size
    /// is this counter over `prq_cloud_builds_total`.
    pub const PHASE3_SAMPLES: &str = "prq_phase3_samples_total";
    /// Histogram: plan wall-clock nanoseconds per query (strategy
    /// validation, `r_θ` and the BF radii).
    pub const PLAN_DURATION_NS: &str = "prq_plan_duration_ns";
    /// Histogram: Phase-1 wall-clock nanoseconds per query.
    pub const PHASE1_DURATION_NS: &str = "prq_phase1_duration_ns";
    /// Histogram: Phase-2 wall-clock nanoseconds per query.
    pub const PHASE2_DURATION_NS: &str = "prq_phase2_duration_ns";
    /// Histogram: Phase-3 wall-clock nanoseconds per query.
    pub const PHASE3_DURATION_NS: &str = "prq_phase3_duration_ns";
    /// Counter: input repairs applied by admission (θ clamps, Σ
    /// symmetrization/regularization).
    pub const RESILIENCE_REPAIRS: &str = "prq_resilience_repairs_total";
    /// Counter: strategy-fallback hops (strategy switches + naive scans).
    pub const RESILIENCE_FALLBACK_HOPS: &str = "prq_resilience_fallback_hops_total";
    /// Counter: objects lost to evaluator faults.
    pub const RESILIENCE_EVALUATOR_FAULTS: &str = "prq_resilience_evaluator_faults_total";
    /// Counter: budget-exhaustion events (the candidate cap was hit).
    pub const RESILIENCE_BUDGET_EXHAUSTED: &str = "prq_resilience_budget_exhausted_total";
    /// Counter: shared sample clouds built (one per query that integrates
    /// on the cloud path).
    pub const CLOUD_BUILDS: &str = "prq_cloud_builds_total";
    /// Counter: grid cells visited while answering cloud probabilities.
    pub const CLOUD_CELLS_SCANNED: &str = "prq_cloud_cells_scanned_total";
    /// Counter: visited cells classified fully-inside `B(center, δ)` —
    /// their samples counted without any distance test.
    pub const CLOUD_CELLS_INSIDE: &str = "prq_cloud_cells_inside_total";
    /// Counter: cloud samples that ran the SoA distance kernel (boundary
    /// cells only; compare against `prq_phase3_samples_total`).
    pub const CLOUD_SAMPLES_TESTED: &str = "prq_cloud_samples_tested_total";
    /// Counter: query batches executed (one per `QueryBatch::execute`).
    pub const BATCHES: &str = "prq_batches_total";
    /// Counter: queries executed through the batch planner.
    pub const BATCH_QUERIES: &str = "prq_batch_queries_total";
    /// Counter: batch queries whose Σ-keyed factor/offset table was
    /// already cached by an earlier group member (Cholesky + sample
    /// offsets reused, the normal draws skipped).
    pub const BATCH_SIGMA_CACHE_HITS: &str = "prq_batch_sigma_cache_hits";
    /// Counter: batch queries that had to draw a fresh Σ-group offset
    /// table (the group's first integrating member).
    pub const BATCH_SIGMA_CACHE_MISSES: &str = "prq_batch_sigma_cache_misses";
    /// Counter: batch members lost to an injected/internal fault and
    /// recovered with a fresh `MonteCarloEvaluator` on the same seed
    /// (every hop reported).
    pub const BATCH_ABORTS: &str = "prq_batch_aborts_total";
}

/// The plan stage and the paper's three query-processing phases, used to
/// label spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Planning: strategy validation plus the θ-region and BF radii.
    Plan,
    /// Phase 1: index-based search.
    Search,
    /// Phase 2: RR/OR/BF filtering.
    Filter,
    /// Phase 3: probability computation.
    Integrate,
}

/// Saturating `usize → u64` without a lossy cast (audit rule R6).
fn as_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Shared observability handle for the query pipeline.
///
/// Cheap to clone (all clones share instruments); see the module docs
/// for the recording discipline and overhead budget.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    registry: Registry,
    clock: Arc<dyn Clock>,
    queries: Arc<Counter>,
    answers: Arc<Counter>,
    node_visits: Arc<Counter>,
    leaf_hits: Arc<Counter>,
    phase1_candidates: Arc<Counter>,
    fringe_prunes: Arc<Counter>,
    or_rotations: Arc<Counter>,
    or_prunes: Arc<Counter>,
    bf_rejects: Arc<Counter>,
    bf_accepts: Arc<Counter>,
    integrations: Arc<Counter>,
    uncertain: Arc<Counter>,
    phase3_samples: Arc<Counter>,
    plan_duration: Arc<Histogram>,
    phase1_duration: Arc<Histogram>,
    phase2_duration: Arc<Histogram>,
    phase3_duration: Arc<Histogram>,
    repairs: Arc<Counter>,
    fallback_hops: Arc<Counter>,
    evaluator_faults: Arc<Counter>,
    budget_exhausted: Arc<Counter>,
    cloud_builds: Arc<Counter>,
    cloud_cells_scanned: Arc<Counter>,
    cloud_cells_inside: Arc<Counter>,
    cloud_samples_tested: Arc<Counter>,
    batches: Arc<Counter>,
    batch_queries: Arc<Counter>,
    batch_sigma_cache_hits: Arc<Counter>,
    batch_sigma_cache_misses: Arc<Counter>,
    batch_aborts: Arc<Counter>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineMetrics {
    /// A fresh metrics handle over the monotonic wall clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A metrics handle over a caller-supplied clock — tests pass
    /// [`gprq_obs::MockClock`] to make span durations deterministic.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let registry = Registry::new();
        PipelineMetrics {
            queries: registry.counter(names::QUERIES),
            answers: registry.counter(names::ANSWERS),
            node_visits: registry.counter(names::PHASE1_NODE_VISITS),
            leaf_hits: registry.counter(names::PHASE1_LEAF_HITS),
            phase1_candidates: registry.counter(names::PHASE1_CANDIDATES),
            fringe_prunes: registry.counter(names::PHASE2_FRINGE_PRUNES),
            or_rotations: registry.counter(names::PHASE2_OR_ROTATIONS),
            or_prunes: registry.counter(names::PHASE2_OR_PRUNES),
            bf_rejects: registry.counter(names::PHASE2_BF_REJECTS),
            bf_accepts: registry.counter(names::PHASE2_BF_ACCEPTS),
            integrations: registry.counter(names::PHASE3_INTEGRATIONS),
            uncertain: registry.counter(names::PHASE3_UNCERTAIN),
            phase3_samples: registry.counter(names::PHASE3_SAMPLES),
            plan_duration: registry.histogram(names::PLAN_DURATION_NS),
            phase1_duration: registry.histogram(names::PHASE1_DURATION_NS),
            phase2_duration: registry.histogram(names::PHASE2_DURATION_NS),
            phase3_duration: registry.histogram(names::PHASE3_DURATION_NS),
            repairs: registry.counter(names::RESILIENCE_REPAIRS),
            fallback_hops: registry.counter(names::RESILIENCE_FALLBACK_HOPS),
            evaluator_faults: registry.counter(names::RESILIENCE_EVALUATOR_FAULTS),
            budget_exhausted: registry.counter(names::RESILIENCE_BUDGET_EXHAUSTED),
            cloud_builds: registry.counter(names::CLOUD_BUILDS),
            cloud_cells_scanned: registry.counter(names::CLOUD_CELLS_SCANNED),
            cloud_cells_inside: registry.counter(names::CLOUD_CELLS_INSIDE),
            cloud_samples_tested: registry.counter(names::CLOUD_SAMPLES_TESTED),
            batches: registry.counter(names::BATCHES),
            batch_queries: registry.counter(names::BATCH_QUERIES),
            batch_sigma_cache_hits: registry.counter(names::BATCH_SIGMA_CACHE_HITS),
            batch_sigma_cache_misses: registry.counter(names::BATCH_SIGMA_CACHE_MISSES),
            batch_aborts: registry.counter(names::BATCH_ABORTS),
            registry,
            clock,
        }
    }

    /// The underlying registry (for registering application metrics
    /// alongside the pipeline's own).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time snapshot of every pipeline metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Starts an RAII span recording into the given phase's duration
    /// histogram.
    pub fn phase_span(&self, phase: Phase) -> PhaseSpan<'_> {
        let target = match phase {
            Phase::Plan => &self.plan_duration,
            Phase::Search => &self.phase1_duration,
            Phase::Filter => &self.phase2_duration,
            Phase::Integrate => &self.phase3_duration,
        };
        PhaseSpan::start(self.clock.as_ref(), target)
    }

    /// Flushes one finished query's counters. Called once per query so
    /// per-candidate work carries no instrumentation cost; durations are
    /// recorded live by [`PipelineMetrics::phase_span`], not here.
    pub fn record_query(&self, stats: &QueryStats) {
        self.queries.inc();
        self.answers.add(as_u64(stats.answers));
        self.node_visits.add(as_u64(stats.node_accesses));
        self.leaf_hits.add(as_u64(stats.leaf_hits));
        self.phase1_candidates.add(as_u64(stats.phase1_candidates));
        self.fringe_prunes.add(as_u64(stats.pruned_by_fringe));
        self.or_rotations.add(as_u64(stats.or_rotations));
        self.or_prunes.add(as_u64(stats.pruned_by_or));
        self.bf_rejects.add(as_u64(stats.pruned_by_bf));
        self.bf_accepts
            .add(as_u64(stats.accepted_without_integration));
        self.integrations.add(as_u64(stats.integrations));
        self.uncertain.add(as_u64(stats.uncertain));
        self.phase3_samples.add(as_u64(stats.phase3_samples));
        self.cloud_builds.add(as_u64(stats.cloud_builds));
        self.cloud_cells_scanned
            .add(as_u64(stats.cloud_cells_scanned));
        self.cloud_cells_inside
            .add(as_u64(stats.cloud_cells_inside));
        self.cloud_samples_tested
            .add(as_u64(stats.cloud_samples_tested));
    }

    /// Flushes a resilient execution's degradation report into the
    /// repair / fallback / fault / budget counters.
    pub fn record_report(&self, report: &DegradationReport) {
        for event in report.iter() {
            match event {
                DegradationReason::ThetaClamped { .. }
                | DegradationReason::CovarianceSymmetrized { .. }
                | DegradationReason::CovarianceRegularized { .. } => self.repairs.inc(),
                DegradationReason::StrategySwitched { .. }
                | DegradationReason::NaiveFallback { .. } => self.fallback_hops.inc(),
                DegradationReason::EvaluatorFaults { objects } => {
                    self.evaluator_faults.add(as_u64(*objects));
                }
                DegradationReason::BudgetExhausted { .. } => self.budget_exhausted.inc(),
            }
        }
    }

    /// Records one finished batch: the batch itself, how many queries it
    /// carried, and the Σ-group table hit/miss split (hits + misses == the
    /// queries that integrated and were not recovered; the others
    /// consult no table).
    pub fn record_batch(&self, queries: usize, sigma_cache_hits: usize, sigma_cache_misses: usize) {
        self.batches.inc();
        self.batch_queries.add(as_u64(queries));
        self.batch_sigma_cache_hits.add(as_u64(sigma_cache_hits));
        self.batch_sigma_cache_misses
            .add(as_u64(sigma_cache_misses));
    }

    /// Records one batch member lost to a fault and recovered with a
    /// fresh evaluator.
    pub fn record_batch_abort(&self) {
        self.batch_aborts.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprq_obs::MockClock;

    #[test]
    fn record_query_flushes_every_counter() {
        let m = PipelineMetrics::new();
        let stats = QueryStats {
            phase1_candidates: 10,
            node_accesses: 4,
            leaf_hits: 30,
            pruned_by_fringe: 3,
            or_rotations: 7,
            pruned_by_or: 2,
            pruned_by_bf: 1,
            accepted_without_integration: 1,
            integrations: 3,
            answers: 2,
            phase3_samples: 1_500,
            uncertain: 1,
            cloud_builds: 1,
            cloud_cells_scanned: 40,
            cloud_cells_inside: 25,
            cloud_samples_tested: 900,
            ..QueryStats::default()
        };
        m.record_query(&stats);
        m.record_query(&stats);
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::QUERIES), Some(2));
        assert_eq!(snap.counter(names::ANSWERS), Some(4));
        assert_eq!(snap.counter(names::PHASE1_NODE_VISITS), Some(8));
        assert_eq!(snap.counter(names::PHASE1_LEAF_HITS), Some(60));
        assert_eq!(snap.counter(names::PHASE2_OR_ROTATIONS), Some(14));
        assert_eq!(snap.counter(names::PHASE3_SAMPLES), Some(3_000));
        assert_eq!(snap.counter(names::CLOUD_BUILDS), Some(2));
        assert_eq!(snap.counter(names::CLOUD_CELLS_SCANNED), Some(80));
        assert_eq!(snap.counter(names::CLOUD_CELLS_INSIDE), Some(50));
        assert_eq!(snap.counter(names::CLOUD_SAMPLES_TESTED), Some(1_800));
    }

    #[test]
    fn phase_spans_record_into_the_right_histograms() {
        let clock = Arc::new(MockClock::new());
        let m = PipelineMetrics::with_clock(clock.clone());
        for (phase, ns) in [
            (Phase::Plan, 50u64),
            (Phase::Search, 100),
            (Phase::Filter, 200),
            (Phase::Integrate, 97_000),
        ] {
            let span = m.phase_span(phase);
            clock.advance(ns);
            assert_eq!(span.finish(), ns);
        }
        let snap = m.snapshot();
        assert_eq!(
            snap.histogram(names::PLAN_DURATION_NS).map(|h| h.sum),
            Some(50)
        );
        assert_eq!(
            snap.histogram(names::PHASE1_DURATION_NS).map(|h| h.sum),
            Some(100)
        );
        assert_eq!(
            snap.histogram(names::PHASE2_DURATION_NS).map(|h| h.sum),
            Some(200)
        );
        assert_eq!(
            snap.histogram(names::PHASE3_DURATION_NS).map(|h| h.sum),
            Some(97_000)
        );
    }

    #[test]
    fn report_classification() {
        use crate::resilience::SwitchCause;
        use crate::strategy::StrategySet;
        let m = PipelineMetrics::new();
        let mut report = DegradationReport::new();
        report.record(DegradationReason::ThetaClamped {
            from: 2.0,
            to: 1.0 - 1e-9,
        });
        report.record(DegradationReason::CovarianceSymmetrized { asymmetry: 0.5 });
        report.record(DegradationReason::StrategySwitched {
            from: StrategySet::ALL,
            to: StrategySet::BF,
            cause: SwitchCause::ThetaAboveHalf(0.7),
        });
        report.record(DegradationReason::NaiveFallback {
            cause: SwitchCause::ExecutionFailed,
        });
        report.record(DegradationReason::EvaluatorFaults { objects: 5 });
        report.record(DegradationReason::BudgetExhausted { unresolved: 9 });
        m.record_report(&report);
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::RESILIENCE_REPAIRS), Some(2));
        assert_eq!(snap.counter(names::RESILIENCE_FALLBACK_HOPS), Some(2));
        assert_eq!(snap.counter(names::RESILIENCE_EVALUATOR_FAULTS), Some(5));
        assert_eq!(snap.counter(names::RESILIENCE_BUDGET_EXHAUSTED), Some(1));
    }

    #[test]
    fn batch_recording() {
        let m = PipelineMetrics::new();
        m.record_batch(16, 14, 2);
        m.record_batch(4, 0, 4);
        m.record_batch_abort();
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::BATCHES), Some(2));
        assert_eq!(snap.counter(names::BATCH_QUERIES), Some(20));
        assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_HITS), Some(14));
        assert_eq!(snap.counter(names::BATCH_SIGMA_CACHE_MISSES), Some(6));
        assert_eq!(snap.counter(names::BATCH_ABORTS), Some(1));
    }
}
