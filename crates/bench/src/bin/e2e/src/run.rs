//! Set-up and the untraced, time-boxed request loops that give the
//! end-to-end metrics.
//!
//! Every loop is closed: one client sends the next request when the
//! previous one returns. Only the requests themselves are timed; the
//! checks between them run on the side (see `check`).

use std::time::{Duration, Instant};

use gprq_core::ext::parallel::ParallelIntegrator;
use gprq_core::{
    MonteCarloEvaluator, ProbabilityEvaluator, PrqExecutor, PrqQuery, QueryBatch, StrategySet,
};
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, Phase1Index, RStarParams, RTree};

use crate::check::{self, Tally, ORACLE_EVERY, PARITY_EVERY};
use crate::stats::Sorted;
use crate::trace;
use crate::workloads::{self, eval_seed, Churn, Move, Scale, Workload, MOVES_PER_STEP, SAMPLES};
use crate::{Metric, Report};

/// Index builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 9;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop (ignored at [`Scale::Quick`]).
    pub seconds: f64,
    /// Pool size and loop length.
    pub scale: Scale,
    /// Per-layer trace pass instead of the end-to-end pass.
    pub trace: bool,
}

/// When a request loop stops: after `seconds` (at least one request),
/// or after exactly one pass over the pool at quick scale.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    seconds: f64,
    limit: Option<usize>,
}

impl Deadline {
    /// Starts the clock for a loop over a pool of `pool` requests.
    pub fn start(opts: &Opts, pool: usize) -> Self {
        Deadline {
            started: Instant::now(),
            seconds: opts.seconds,
            limit: (opts.scale == Scale::Quick).then_some(pool),
        }
    }

    /// `true` while request number `done` should still be sent.
    pub fn more(&self, done: usize) -> bool {
        match self.limit {
            Some(limit) => done < limit,
            None => done == 0 || self.started.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// A 2-D oracle check bound to its index: `(query, sorted answer ids)`.
pub type Oracle<'a, const D: usize> = &'a dyn Fn(&PrqQuery<D>, &[u32], &mut Tally);

/// Builds the index [`SETUP_BUILDS`] times from fresh copies of the
/// records; returns the last build and the median build time.
fn setup<R: Clone, I>(records: &[R], build: impl Fn(Vec<R>) -> I) -> (I, f64) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut index = None;
    for _ in 0..SETUP_BUILDS {
        let input = records.to_vec();
        drop(index.take());
        let started = Instant::now();
        index = Some(build(input));
        times.push(started.elapsed().as_secs_f64());
    }
    let median = Sorted::new(times).median().expect("at least one build");
    (index.expect("at least one build"), median)
}

/// Counts the integrations Phase 3 would run, without running them.
struct CountOnly;

impl<const D: usize> ProbabilityEvaluator<D> for CountOnly {
    fn probability(&mut self, _: &Gaussian<D>, _: &Vector<D>, _: f64) -> f64 {
        0.0
    }
}

/// The Phase-3 work `query` needs on `index`: its integration count.
fn phase3_work<const D: usize, I: Phase1Index<D, u32>>(index: &I, query: &PrqQuery<D>) -> usize {
    let outcome = PrqExecutor::new(StrategySet::ALL).execute(index, query, &mut CountOnly);
    outcome.map_or(0, |o| o.stats.integrations)
}

/// Orders a pool by stratified Phase-3 work (see
/// [`workloads::stratify`]). Input generation, so never timed.
fn stratified<R>(pool: Vec<R>, seed: u64, work: impl Fn(&R) -> usize) -> Vec<R> {
    let cost: Vec<usize> = pool.iter().map(work).collect();
    workloads::stratify(pool, &cost, workloads::derive(seed, 7))
}

/// Runs one workload pass and reports its metrics.
pub fn run(opts: &Opts) -> Report {
    let seed = opts.seed;
    let pool = opts.workload.pool_size(opts.scale);
    match opts.workload {
        Workload::Road2dPaper => {
            let records = workloads::road_records();
            let (index, setup_s) = setup(&records, FlatRTree::bulk_load);
            let queries = workloads::road_paper_queries(&records, pool, seed);
            let queries = stratified(queries, seed, |q| phase3_work(&index, q));
            let oracle = |q: &PrqQuery<2>, ids: &[u32], tally: &mut Tally| {
                check::oracle_2d(&index, q, ids, tally)
            };
            if opts.trace {
                trace::solo(opts, &index, &queries, Some(&oracle))
            } else {
                solo(opts, &index, &queries, Some(&oracle)).report(setup_s)
            }
        }
        Workload::Corel9dFeedback => {
            let records = workloads::corel_records();
            let (index, setup_s) = setup(&records, FlatRTree::bulk_load);
            let queries = {
                let knn = workloads::knn_tree(&records);
                workloads::corel_feedback_queries(&knn, &records, pool, seed)
            };
            let queries = stratified(queries, seed, |q| phase3_work(&index, q));
            if opts.trace {
                trace::solo(opts, &index, &queries, None)
            } else {
                solo(opts, &index, &queries, None).report(setup_s)
            }
        }
        Workload::Corel9dBatch16 => {
            let records = workloads::corel_records();
            let (index, setup_s) = setup(&records, FlatRTree::bulk_load);
            let groups = {
                let knn = workloads::knn_tree(&records);
                workloads::corel_batch_groups(&knn, &records, pool, seed)
            };
            let groups = stratified(groups, seed, |g| {
                g.iter().map(|q| phase3_work(&index, q)).sum()
            });
            if opts.trace {
                trace::batch(opts, &index, &groups)
            } else {
                batch(opts, &index, &groups).report(setup_s)
            }
        }
        Workload::Road2dChurn => {
            let records = workloads::road_records();
            let (mut tree, setup_s) = setup(&records, |r| {
                RTree::bulk_load(r, RStarParams::paper_default(2))
            });
            let mut churn = Churn::new(&records, seed);
            if opts.trace {
                trace::churn(opts, &mut tree, &mut churn, pool)
            } else {
                churn_loop(opts, &mut tree, &mut churn, pool).report(setup_s)
            }
        }
    }
}

/// What the untraced loop measured.
#[derive(Debug, Default)]
struct Served {
    /// Latency of each request (a query, or a whole batch).
    latencies_ms: Vec<f64>,
    /// Time spent inside requests, churn moves included.
    busy: Duration,
    /// Queries answered.
    queries: u64,
    tally: Tally,
}

impl Served {
    fn request(&mut self, elapsed: Duration, queries: usize) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        self.busy += elapsed;
        self.queries += queries as u64;
    }

    fn report(self, setup_s: f64) -> Report {
        let latency = Sorted::new(self.latencies_ms);
        let n = latency.len();
        let mut notes = vec![format!("requests={n} queries={}", self.queries)];
        notes.push(match latency.tail(0.99) {
            Ok(v) => format!("p99_ms={v} (n={n})"),
            Err(refused) => match refused.fallback {
                Some((name, v)) => format!("p99 refused (n={n}); highest supported {name}_ms={v}"),
                None => format!("p99 refused (n={n}); no tail percentile supported"),
            },
        });
        Report {
            metrics: vec![
                Metric::new("p50_ms", latency.median().unwrap_or(f64::NAN), "ms"),
                Metric::new("qps", self.queries as f64 / self.busy.as_secs_f64(), "1/s"),
                Metric::new("setup_s", setup_s, "s"),
            ],
            notes,
            tally: self.tally,
            spans: Vec::new(),
        }
    }
}

/// `road2d_paper` and `corel9d_feedback`: one query per request, each
/// with a fresh evaluator seeded `seed ⊕ i`.
fn solo<const D: usize, I: Phase1Index<D, u32>>(
    opts: &Opts,
    index: &I,
    pool: &[PrqQuery<D>],
    oracle: Option<Oracle<'_, D>>,
) -> Served {
    let executor = PrqExecutor::new(StrategySet::ALL);
    let mut served = Served::default();
    let mut oracle_due = Vec::new();
    let deadline = Deadline::start(opts, pool.len());
    let mut i = 0;
    while deadline.more(i) {
        let query = &pool[i % pool.len()];
        let started = Instant::now();
        let mut evaluator = MonteCarloEvaluator::new(SAMPLES, eval_seed(opts.seed, i));
        let outcome = executor.execute(index, query, &mut evaluator);
        served.request(started.elapsed(), 1);
        let ids = outcome
            .ok()
            .and_then(|o| check::boxed_ids(query, &o.answers));
        served.tally.op(ids.is_some());
        if let Some(ids) = ids.filter(|_| oracle.is_some() && i % ORACLE_EVERY == 0) {
            oracle_due.push((i, ids));
        }
        i += 1;
    }
    deferred_oracle(oracle, pool, oracle_due, &mut served.tally);
    served
}

/// Runs the oracle on the answers a solo loop set aside: `(request
/// number, sorted answer ids)` of every [`ORACLE_EVERY`]-th query.
pub fn deferred_oracle<const D: usize>(
    oracle: Option<Oracle<'_, D>>,
    pool: &[PrqQuery<D>],
    due: Vec<(usize, Vec<u32>)>,
    tally: &mut Tally,
) {
    if let Some(oracle) = oracle {
        for (i, ids) in due {
            oracle(&pool[i % pool.len()], &ids, tally);
        }
    }
}

/// `corel9d_batch16`: one request is one 16-query batch through a fresh
/// `QueryBatch`, as a caller submitting independent batches would do.
fn batch(opts: &Opts, index: &FlatRTree<9, u32>, groups: &[Vec<PrqQuery<9>>]) -> Served {
    let integrator =
        ParallelIntegrator::new(SAMPLES, opts.seed, 1).expect("non-zero sample budget");
    let mut served = Served::default();
    let mut parity_due = Vec::new();
    let deadline = Deadline::start(opts, groups.len());
    let mut b = 0;
    while deadline.more(b) {
        let queries = &groups[b % groups.len()];
        let started = Instant::now();
        let mut engine = QueryBatch::new(PrqExecutor::new(StrategySet::ALL), integrator);
        let outcomes = engine.execute(index, queries);
        served.request(started.elapsed(), queries.len());
        let ids = check::batch_ids(queries, outcomes.ok().as_deref(), &mut served.tally);
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
            &mut served.tally,
        );
    }
    served
}

/// `road2d_churn`: each step makes [`MOVES_PER_STEP`] moves, then one
/// query; the query is the request whose latency is reported, and the
/// moves count toward busy time. The oracle runs right after the query,
/// while the tree still holds the records it answered from; isotropic
/// Σ lets BF decide every object, so that check costs microseconds.
fn churn_loop(opts: &Opts, tree: &mut RTree<2, u32>, churn: &mut Churn, pool: usize) -> Served {
    let executor = PrqExecutor::new(StrategySet::ALL);
    let mut served = Served::default();
    let deadline = Deadline::start(opts, pool);
    let mut step = 0;
    while deadline.more(step) {
        let moves: Vec<Move> = (0..MOVES_PER_STEP).map(|_| churn.next_move()).collect();
        let query = churn.next_query();
        let started = Instant::now();
        let mut missed = 0;
        for m in &moves {
            missed += u64::from(!tree.remove(&m.old.0, &m.old.1));
            tree.insert(m.new.0, m.new.1);
        }
        let moved = started.elapsed();
        served.tally.attempted += moves.len() as u64;
        served.tally.failed += missed;

        let started = Instant::now();
        let mut evaluator = MonteCarloEvaluator::new(SAMPLES, eval_seed(opts.seed, step));
        let outcome = executor.execute(&*tree, &query, &mut evaluator);
        served.request(started.elapsed(), 1);
        served.busy += moved;
        let ids = outcome
            .ok()
            .and_then(|o| check::boxed_ids(&query, &o.answers));
        served.tally.op(ids.is_some());
        if let Some(ids) = ids.filter(|_| step % ORACLE_EVERY == 0) {
            check::oracle_2d(&*tree, &query, &ids, &mut served.tally);
        }
        step += 1;
    }
    served
}
