//! The `--trace` pass: the same requests as the end-to-end pass, timed
//! layer by layer from the outside.
//!
//! A solo query is re-composed from the layers' public calls — plan
//! (`ThetaRegion::for_query`, `RrFilter::new`, `OrFilter::new`,
//! `BfBounds::exact`), Phase 1 (`Phase1Index::search_rect_into`),
//! Phase 2 (`RrFilter::passes`, `OrFilter::passes`,
//! `BfBounds::classify`), the cloud build
//! (`ProbabilityEvaluator::begin_query`) and Phase 3
//! (`ProbabilityEvaluator::probability`, `take_cloud_stats`) — each in
//! its own span under a root `query` span. The same query then runs
//! through `PrqExecutor::execute` with the pipeline's metrics registry
//! attached: its answers must equal the decomposition's, its time is
//! the untraced reference for `trace_overhead_frac`, and its registry
//! counters are compared with the sums the bench counted itself. A
//! batch is traced as a `batch` root around `QueryBatch::execute` and a
//! separate `Phase1Index::search_rects_into` over the batch's boxes.
//! Spans stay in memory until the run ends.

use std::time::Instant;

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::metrics::names;
use gprq_core::{
    BfBounds, BfClass, FringeMode, MonteCarloEvaluator, OrFilter, PipelineMetrics,
    ProbabilityEvaluator, PrqError, PrqExecutor, PrqQuery, QueryBatch, RrFilter, StrategySet,
    ThetaRegion,
};
use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RTree, Rect, SearchStats};

use crate::check::{self, ratio, Tally, ORACLE_EVERY, PARITY_EVERY};
use crate::run::{self, Deadline, Opts, Oracle};
use crate::stats::Sorted;
use crate::workloads::{eval_seed, Churn, Move, MOVES_PER_STEP, SAMPLES};
use crate::{Metric, Report};

/// One timed interval. Spans of one request share `trace`; `parent`
/// is the index of the enclosing span in the run's span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request (trace) id.
    pub trace: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span as one JSON line; `id` is its index in the run.
    pub fn json(&self, id: usize) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        format!(
            "{{\"trace\":{},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.trace, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Root span names: one per request whose time the children explain.
const ROOTS: [&str; 2] = ["query", "batch"];

/// Work counted by the bench at the layer boundaries it calls.
#[derive(Debug, Default)]
struct Counts {
    queries: u64,
    answers: u64,
    node_visits: u64,
    entries_checked: u64,
    candidates: u64,
    fringe_prunes: u64,
    or_rotations: u64,
    or_prunes: u64,
    bf_rejects: u64,
    bf_accepts: u64,
    integrations: u64,
    cloud_builds: u64,
    unused_builds: u64,
    cells_scanned: u64,
    cells_inside: u64,
    samples_tested: u64,
    /// Time in `PrqExecutor::execute` for the same queries.
    reference_ns: u64,
    batches: u64,
    sigma_hits: u64,
    sigma_misses: u64,
    moves: u64,
    remove_ns: u64,
    insert_ns: u64,
    /// Per move, remove + insert, in µs.
    writes_us: Vec<f64>,
    tree_height: usize,
    tree_nodes: usize,
}

impl Counts {
    fn search(&mut self, stats: &SearchStats, candidates: usize) {
        self.node_visits += stats.nodes_visited as u64;
        self.entries_checked += stats.entries_checked as u64;
        self.candidates += candidates as u64;
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a request lasts under 584 years")
}

/// Everything one traced pass records: spans, the bench's own counts,
/// and the correctness tally.
#[derive(Debug)]
struct Pass {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Counts,
    tally: Tally,
}

impl Pass {
    fn new() -> Self {
        Pass {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
            tally: Tally::default(),
        }
    }

    fn now(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// Opens a root span; returns its index and start time.
    fn open(&mut self, trace: u64, name: &'static str) -> (usize, u64) {
        let now = self.now();
        self.spans.push(Span {
            trace,
            parent: None,
            name,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a child of `parent` from `start` to now; returns now, the
    /// start of the next child, so consecutive children tile the root.
    fn child(&mut self, parent: usize, name: &'static str, start: u64) -> u64 {
        let now = self.now();
        self.spans.push(Span {
            trace: self.spans[parent].trace,
            parent: Some(parent),
            name,
            start_ns: start,
            end_ns: now,
        });
        now
    }

    /// Total nanoseconds in spans called `name`.
    fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Nanoseconds in root spans, and in their direct children.
    fn roots_and_children(&self) -> (u64, u64) {
        let is_root = |s: &Span| s.parent.is_none() && ROOTS.contains(&s.name);
        let roots = self
            .spans
            .iter()
            .filter(|s| is_root(s))
            .map(Span::duration)
            .sum();
        let children = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| is_root(&self.spans[p])))
            .map(Span::duration)
            .sum();
        (roots, children)
    }
}

/// One query through the public layer calls, each in its own span.
/// Returns the sorted answer ids.
fn decomposed<const D: usize, I: Phase1Index<D, u32>>(
    index: &I,
    query: &PrqQuery<D>,
    seed: u64,
    trace: u64,
    p: &mut Pass,
) -> Result<Vec<u32>, PrqError> {
    let (root, start) = p.open(trace, "query");
    let region = match ThetaRegion::for_query(query) {
        Ok(region) => region,
        Err(e) => {
            p.close(root);
            return Err(e);
        }
    };
    let rr = RrFilter::new(query, &region, FringeMode::PaperFaithful);
    let or = OrFilter::new(query, &region);
    let bf = BfBounds::exact(query);
    let rect = rr.search_rect();
    let at = p.child(root, "plan", start);

    let mut search = SearchStats::default();
    let mut candidates = Vec::new();
    index.search_rect_into(&rect, &mut search, &mut candidates);
    let at = p.child(root, "phase1", at);

    let c = &mut p.counts;
    let mut answers = Vec::new();
    let mut work = Vec::new();
    for &(point, id) in &candidates {
        if !rr.passes(point) {
            c.fringe_prunes += 1;
            continue;
        }
        c.or_rotations += 1;
        if !or.passes(point) {
            c.or_prunes += 1;
            continue;
        }
        match bf.classify(point) {
            BfClass::Reject => c.bf_rejects += 1,
            BfClass::Accept => {
                c.bf_accepts += 1;
                answers.push(*id);
            }
            BfClass::NeedsIntegration => work.push((point, *id)),
        }
    }
    let at = p.child(root, "phase2", at);

    let mut evaluator = MonteCarloEvaluator::new(SAMPLES, seed);
    evaluator.begin_query(query.gaussian());
    let at = p.child(root, "cloud_build", at);

    for &(point, id) in &work {
        if evaluator.probability(query.gaussian(), point, query.delta()) >= query.theta() {
            answers.push(id);
        }
    }
    let cloud = evaluator.take_cloud_stats();
    p.child(root, "phase3", at);
    p.close(root);

    let c = &mut p.counts;
    c.queries += 1;
    c.search(&search, candidates.len());
    c.integrations += work.len() as u64;
    c.answers += answers.len() as u64;
    c.cloud_builds += cloud.builds as u64;
    if work.is_empty() {
        c.unused_builds += cloud.builds as u64;
    }
    c.cells_scanned += cloud.cells_scanned as u64;
    c.cells_inside += cloud.cells_inside as u64;
    c.samples_tested += cloud.samples_tested as u64;
    answers.sort_unstable();
    Ok(answers)
}

/// One traced solo request: the decomposition and the reference
/// `execute`, in alternating order so neither always runs warm. Counts
/// one operation, failed unless the reference answers pass the box
/// check and equal the decomposition's; returns those answer ids.
fn traced_query<const D: usize, I: Phase1Index<D, u32>>(
    executor: &PrqExecutor<'_>,
    index: &I,
    query: &PrqQuery<D>,
    seed: u64,
    trace: u64,
    p: &mut Pass,
) -> Option<Vec<u32>> {
    let reference = |c: &mut Counts| {
        let started = Instant::now();
        let mut evaluator = MonteCarloEvaluator::new(SAMPLES, seed);
        let outcome = executor.execute(index, query, &mut evaluator);
        c.reference_ns += nanos(started.elapsed());
        outcome
            .ok()
            .and_then(|o| check::boxed_ids(query, &o.answers))
    };
    let (traced, ids) = if trace.is_multiple_of(2) {
        let traced = decomposed(index, query, seed, trace, p);
        (traced, reference(&mut p.counts))
    } else {
        let ids = reference(&mut p.counts);
        (decomposed(index, query, seed, trace, p), ids)
    };
    let ids = ids.filter(|ids| traced.as_ref().ok() == Some(ids));
    p.tally.op(ids.is_some());
    ids
}

/// Registry counters that disagree with the bench's own sums.
fn mismatches(metrics: &PipelineMetrics, expected: &[(&str, u64)]) -> usize {
    let snapshot = metrics.snapshot();
    expected
        .iter()
        .filter(|&&(name, want)| snapshot.counter(name) != Some(want))
        .count()
}

fn solo_expectations(c: &Counts) -> Vec<(&'static str, u64)> {
    vec![
        (names::QUERIES, c.queries),
        (names::ANSWERS, c.answers),
        (names::PHASE1_NODE_VISITS, c.node_visits),
        (names::PHASE1_LEAF_HITS, c.entries_checked),
        (names::PHASE1_CANDIDATES, c.candidates),
        (names::PHASE2_FRINGE_PRUNES, c.fringe_prunes),
        (names::PHASE2_OR_ROTATIONS, c.or_rotations),
        (names::PHASE2_OR_PRUNES, c.or_prunes),
        (names::PHASE2_BF_REJECTS, c.bf_rejects),
        (names::PHASE2_BF_ACCEPTS, c.bf_accepts),
        (names::PHASE3_INTEGRATIONS, c.integrations),
        // One cloud of SAMPLES draws per query.
        (names::PHASE3_SAMPLES, c.cloud_builds * SAMPLES as u64),
        (names::CLOUD_BUILDS, c.cloud_builds),
        (names::CLOUD_CELLS_SCANNED, c.cells_scanned),
        (names::CLOUD_CELLS_INSIDE, c.cells_inside),
        (names::CLOUD_SAMPLES_TESTED, c.samples_tested),
    ]
}

/// Traced `road2d_paper` / `corel9d_feedback`.
pub fn solo<const D: usize, I: Phase1Index<D, u32>>(
    opts: &Opts,
    index: &I,
    pool: &[PrqQuery<D>],
    oracle: Option<Oracle<'_, D>>,
) -> Report {
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let mut p = Pass::new();
    let mut oracle_due = Vec::new();
    let deadline = Deadline::start(opts, pool.len());
    let mut i = 0;
    while deadline.more(i) {
        let query = &pool[i % pool.len()];
        let ids = traced_query(
            &executor,
            index,
            query,
            eval_seed(opts.seed, i),
            i as u64,
            &mut p,
        );
        if let Some(ids) = ids.filter(|_| oracle.is_some() && i % ORACLE_EVERY == 0) {
            oracle_due.push((i, ids));
        }
        i += 1;
    }
    run::deferred_oracle(oracle, pool, oracle_due, &mut p.tally);
    let mismatched = mismatches(&metrics, &solo_expectations(&p.counts));
    p.finish(mismatched)
}

/// Traced `road2d_churn`: each step's moves are timed one by one under
/// a `moves` root span, then the query is traced like a solo one.
pub fn churn(opts: &Opts, tree: &mut RTree<2, u32>, churn: &mut Churn, pool: usize) -> Report {
    let metrics = PipelineMetrics::new();
    let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
    let mut p = Pass::new();
    let deadline = Deadline::start(opts, pool);
    let mut step = 0;
    while deadline.more(step) {
        let moves: Vec<Move> = (0..MOVES_PER_STEP).map(|_| churn.next_move()).collect();
        let query = churn.next_query();
        let (root, _) = p.open(step as u64, "moves");
        for m in &moves {
            let started = Instant::now();
            let removed = tree.remove(&m.old.0, &m.old.1);
            let between = Instant::now();
            tree.insert(m.new.0, m.new.1);
            let ended = Instant::now();
            let c = &mut p.counts;
            c.remove_ns += nanos(between - started);
            c.insert_ns += nanos(ended - between);
            c.writes_us.push((ended - started).as_secs_f64() * 1e6);
            p.tally.op(removed);
        }
        p.close(root);
        p.counts.moves += moves.len() as u64;

        let tree: &RTree<2, u32> = tree;
        let seed = eval_seed(opts.seed, step);
        let ids = traced_query(&executor, tree, &query, seed, step as u64, &mut p);
        if let Some(ids) = ids.filter(|_| step % ORACLE_EVERY == 0) {
            check::oracle_2d(tree, &query, &ids, &mut p.tally);
        }
        step += 1;
    }
    p.counts.tree_height = tree.height();
    p.counts.tree_nodes = tree.node_count();
    let mismatched = mismatches(&metrics, &solo_expectations(&p.counts));
    p.finish(mismatched)
}

/// Traced `corel9d_batch16`.
pub fn batch(opts: &Opts, index: &FlatRTree<9, u32>, groups: &[Vec<PrqQuery<9>>]) -> Report {
    let metrics = PipelineMetrics::new();
    let integrator =
        ParallelIntegrator::new(SAMPLES, opts.seed, 1).expect("non-zero sample budget");
    let mut p = Pass::new();
    let mut parity_due = Vec::new();
    let deadline = Deadline::start(opts, groups.len());
    let mut b = 0;
    while deadline.more(b) {
        let queries = &groups[b % groups.len()];
        let rects: Vec<Rect<9>> = queries.iter().filter_map(check::rr_box).collect();
        let (root, start) = p.open(b as u64, "batch");
        let executor = PrqExecutor::new(StrategySet::ALL).with_metrics(&metrics);
        let mut engine = QueryBatch::new(executor, integrator);
        let outcomes = engine.execute(index, queries);
        let at = p.child(root, "batch_execute", start);
        let mut search = vec![SearchStats::default(); rects.len()];
        let mut found: Vec<Vec<(&Vector<9>, &u32)>> = vec![Vec::new(); rects.len()];
        index.search_rects_into(&rects, &mut search, &mut found);
        p.child(root, "batch_phase1", at);
        p.close(root);

        let c = &mut p.counts;
        c.queries += queries.len() as u64;
        c.batches += 1;
        c.sigma_hits += engine.cache().hits();
        c.sigma_misses += engine.cache().misses();
        for (stats, out) in search.iter().zip(&found) {
            c.search(stats, out.len());
        }
        for o in outcomes.iter().flatten() {
            c.answers += o.answers.len() as u64;
            c.integrations += o.integrated.len() as u64;
            c.fringe_prunes += o.stats.pruned_by_fringe as u64;
            c.or_prunes += o.stats.pruned_by_or as u64;
            c.bf_rejects += o.stats.pruned_by_bf as u64;
            c.bf_accepts += o.stats.accepted_without_integration as u64;
            c.cells_scanned += o.stats.cloud_cells_scanned as u64;
            c.cells_inside += o.stats.cloud_cells_inside as u64;
            c.samples_tested += o.stats.cloud_samples_tested as u64;
        }
        let ids = check::batch_ids(queries, outcomes.ok().as_deref(), &mut p.tally);
        if b % PARITY_EVERY == 0 {
            parity_due.push((b, ids));
        }
        b += 1;
    }
    for (b, ids) in parity_due {
        check::batch_parity(
            index,
            opts.seed,
            &groups[b % groups.len()],
            &ids,
            &mut p.tally,
        );
    }
    let c = &p.counts;
    let mismatched = mismatches(
        &metrics,
        &[
            (names::QUERIES, c.queries),
            (names::BATCHES, c.batches),
            (names::BATCH_QUERIES, c.queries),
            (names::BATCH_SIGMA_CACHE_HITS, c.sigma_hits),
            (names::BATCH_SIGMA_CACHE_MISSES, c.sigma_misses),
            (names::ANSWERS, c.answers),
            (names::PHASE1_NODE_VISITS, c.node_visits),
            (names::PHASE1_LEAF_HITS, c.entries_checked),
            (names::PHASE1_CANDIDATES, c.candidates),
            (names::PHASE3_INTEGRATIONS, c.integrations),
            // One offset table of SAMPLES draws per cache miss.
            (names::PHASE3_SAMPLES, c.sigma_misses * SAMPLES as u64),
        ],
    );
    p.finish(mismatched)
}

impl Pass {
    /// Turns the pass into the per-layer metrics: times and counts are
    /// means per query, except where the name says otherwise.
    fn finish(mut self, mismatched: usize) -> Report {
        let writes = Sorted::new(std::mem::take(&mut self.counts.writes_us));
        let c = &self.counts;
        let q = c.queries.max(1) as f64;
        let per_query_us = |name: &str| self.total(name) as f64 / q / 1e3;
        let per_query = |n: u64| n as f64 / q;
        let (roots, children) = self.roots_and_children();
        let write_at = |p: f64| writes.tail(p).ok().or(writes.quantile(p)).unwrap_or(0.0);
        let moves_ns = self.total("moves");
        let metrics = vec![
            Metric::new("plan_us", per_query_us("plan"), "us"),
            Metric::new("phase1_us", per_query_us("phase1"), "us"),
            Metric::new("phase1_node_visits", per_query(c.node_visits), "count"),
            Metric::new(
                "phase1_entries_checked",
                per_query(c.entries_checked),
                "count",
            ),
            Metric::new("phase1_candidates", per_query(c.candidates), "count"),
            Metric::new(
                "phase1_hit_frac",
                ratio(c.candidates, c.entries_checked),
                "fraction",
            ),
            Metric::new("phase2_us", per_query_us("phase2"), "us"),
            Metric::new("phase2_fringe_prunes", per_query(c.fringe_prunes), "count"),
            Metric::new("phase2_or_prunes", per_query(c.or_prunes), "count"),
            Metric::new("phase2_bf_rejects", per_query(c.bf_rejects), "count"),
            Metric::new("phase2_bf_accepts", per_query(c.bf_accepts), "count"),
            Metric::new("phase2_integrations", per_query(c.integrations), "count"),
            Metric::new(
                "phase2_decided_frac",
                ratio(c.candidates.saturating_sub(c.integrations), c.candidates),
                "fraction",
            ),
            Metric::new("cloud_build_us", per_query_us("cloud_build"), "us"),
            Metric::new(
                "cloud_build_unused_frac",
                ratio(c.unused_builds, c.cloud_builds),
                "fraction",
            ),
            Metric::new("phase3_us", per_query_us("phase3"), "us"),
            Metric::new(
                "phase3_us_per_integration",
                ratio(self.total("phase3"), c.integrations) / 1e3,
                "us",
            ),
            Metric::new("cloud_cells_scanned", per_query(c.cells_scanned), "count"),
            Metric::new(
                "cloud_cells_inside_frac",
                ratio(c.cells_inside, c.cells_scanned),
                "fraction",
            ),
            Metric::new("cloud_samples_tested", per_query(c.samples_tested), "count"),
            Metric::new("batch_us", per_query_us("batch_execute"), "us"),
            Metric::new(
                "sigma_cache_hit_frac",
                ratio(c.sigma_hits, c.sigma_hits + c.sigma_misses),
                "fraction",
            ),
            Metric::new("batch_phase1_us", per_query_us("batch_phase1"), "us"),
            Metric::new("remove_us", ratio(c.remove_ns, c.moves) / 1e3, "us"),
            Metric::new("insert_us", ratio(c.insert_ns, c.moves) / 1e3, "us"),
            Metric::new("write_p50_us", write_at(0.5), "us"),
            Metric::new("write_p99_us", write_at(0.99), "us"),
            Metric::new(
                "write_wall_frac",
                ratio(moves_ns, moves_ns + self.total("query")),
                "fraction",
            ),
            Metric::new("tree_height", c.tree_height as f64, "levels"),
            Metric::new("tree_nodes", c.tree_nodes as f64, "count"),
            Metric::new("metrics_counter_mismatches", mismatched as f64, "count"),
            Metric::new(
                "verdict_error_rate",
                self.tally.verdict_error_rate(),
                "fraction",
            ),
            Metric::new("query_self_us", (roots - children) as f64 / q / 1e3, "us"),
            Metric::new("span_coverage_frac", ratio(children, roots), "fraction"),
            Metric::new(
                "trace_overhead_frac",
                if c.reference_ns == 0 {
                    0.0
                } else {
                    ratio(self.total("query"), c.reference_ns) - 1.0
                },
                "fraction",
            ),
        ];
        Report {
            notes: vec![format!(
                "traced queries={} spans={} oracle_objects={}",
                c.queries,
                self.spans.len(),
                self.tally.oracle_objects
            )],
            metrics,
            tally: self.tally,
            spans: self.spans,
        }
    }
}
