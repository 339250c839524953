//! **Phase-1 bench guard** — wall-clock comparison of the
//! cache-conscious flat index ([`FlatRTree`]) against the pointer-based
//! [`RTree`] on the paper's 50 000-point road-network workload, written
//! to `BENCH_phase1.json` so the speedup is tracked over time.
//!
//! Four lanes run the same seeded rectangle set: the pointer tree
//! (solo descents), a frozen image of that exact tree, the packed
//! fanout-64 flat layout (solo descents — the guarded headline), and
//! the packed layout's batched multi-rect descent. Passes alternate
//! between the lanes and the minimum per-lane wall time is kept, so
//! scheduler noise cancels instead of accumulating into one lane. The
//! binary exits non-zero if the packed-layout speedup drops below the
//! floor — it is a guard, not just a report. It also re-verifies
//! candidate parity on the live workload: frozen-vs-pointer bitwise
//! (stats included) and packed-vs-pointer as id sets.
//!
//! ```text
//! cargo run -p gprq-bench --release --bin phase1 \
//!     [--n 50000] [--queries 1200] [--passes 5] [--seed 42] \
//!     [--out BENCH_phase1.json]
//! cargo run -p gprq-bench --release --bin phase1 -- --check   # validate committed JSON
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use gprq_bench::guard::{Bound, Guard};
use gprq_bench::{road_records, Args};
use gprq_linalg::Vector;
use gprq_rtree::{FlatRTree, RStarParams, RTree, Rect, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bump when the JSON layout changes; `--check` rejects older files.
const SCHEMA: u64 = 1;

/// Minimum tolerated pointer-tree/flat-index wall-time ratio.
const MIN_SPEEDUP: f64 = 2.0;

/// The guarded metric: `speedup` must stay at or above the floor.
const GUARD: Guard = Guard {
    bench: "phase1",
    schema: SCHEMA,
    metric: "speedup",
    bound: Bound::AtLeast(MIN_SPEEDUP),
};

fn main() {
    let args = Args::parse();
    let out = args.get("out", String::from("BENCH_phase1.json"));
    if args.flag("check") {
        GUARD.check(&out);
        return;
    }

    let n = args.get("n", 50_000usize);
    let queries = args.get("queries", 1200usize).max(1);
    let passes = args.get("passes", 5usize).max(1);
    let seed = args.get("seed", 42u64);

    println!("Phase-1 index bench: flat SoA layouts vs the pointer R*-tree");
    println!("{n} road-network points; {queries} rect queries; {passes} alternating passes\n");

    let records = road_records(n, seed);
    let tree = RTree::bulk_load(records.clone(), RStarParams::paper_default(2));
    let frozen = FlatRTree::freeze(tree.clone());
    let packed = FlatRTree::bulk_load(records);
    let rects = query_rects(queries, seed ^ 0x5eed);

    // Parity on the live workload before timing anything: the frozen
    // image must reproduce the pointer tree bitwise (candidates, order,
    // stats); the packed layout must return the same candidate sets.
    let mut tree_visits = 0usize;
    let mut flat_visits = 0usize;
    {
        let mut out_tree = Vec::new();
        let mut out_flat = Vec::new();
        for rect in &rects {
            let mut st_tree = SearchStats::default();
            let mut st_frozen = SearchStats::default();
            let mut st_packed = SearchStats::default();
            tree.query_rect_into(rect, &mut st_tree, &mut out_tree);
            frozen.query_rect_into(rect, &mut st_frozen, &mut out_flat);
            assert_eq!(out_flat, out_tree, "frozen image diverges from source");
            assert_eq!(st_frozen, st_tree, "frozen stats diverge from source");
            packed.query_rect_into(rect, &mut st_packed, &mut out_flat);
            let mut a: Vec<u32> = out_tree.iter().map(|(_, d)| **d).collect();
            let mut b: Vec<u32> = out_flat.iter().map(|(_, d)| **d).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "packed layout candidate set diverges");
            tree_visits += st_tree.nodes_visited;
            flat_visits += st_packed.nodes_visited;
        }
    }

    // Timed lanes, alternating; keep the minimum wall time per lane.
    let mut best = [f64::INFINITY; 4]; // [pointer, frozen, packed, batched]
    let mut checksum = [0usize; 4];
    let mut buf = Vec::new();
    let mut batch_stats = vec![SearchStats::default(); rects.len()];
    let mut batch_out: Vec<Vec<(&Vector<2>, &u32)>> = vec![Vec::new(); rects.len()];
    for _ in 0..passes {
        let started = Instant::now();
        let mut stats = SearchStats::default();
        for rect in &rects {
            tree.query_rect_into(rect, &mut stats, &mut buf);
            checksum[0] += buf.len();
        }
        best[0] = best[0].min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let mut stats = SearchStats::default();
        for rect in &rects {
            frozen.query_rect_into(rect, &mut stats, &mut buf);
            checksum[1] += buf.len();
        }
        best[1] = best[1].min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let mut stats = SearchStats::default();
        for rect in &rects {
            packed.query_rect_into(rect, &mut stats, &mut buf);
            checksum[2] += buf.len();
        }
        best[2] = best[2].min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        packed.query_rects_into(&rects, &mut batch_stats, &mut batch_out);
        checksum[3] += batch_out.iter().map(Vec::len).sum::<usize>();
        best[3] = best[3].min(started.elapsed().as_secs_f64());
    }
    assert_eq!(checksum[0], checksum[1], "lane result counts diverge");
    assert_eq!(checksum[0], checksum[2], "lane result counts diverge");
    assert_eq!(checksum[0], checksum[3], "lane result counts diverge");

    let [pointer_secs, frozen_secs, flat_secs, batch_secs] = best;
    let tiny = f64::MIN_POSITIVE;
    let speedup = pointer_secs / flat_secs.max(tiny);
    let frozen_speedup = pointer_secs / frozen_secs.max(tiny);
    let batch_speedup = pointer_secs / batch_secs.max(tiny);

    println!("pointer R*-tree (min of {passes}): {pointer_secs:.4} s");
    println!("frozen flat     (min of {passes}): {frozen_secs:.4} s ({frozen_speedup:.2}x)");
    println!(
        "packed flat     (min of {passes}): {flat_secs:.4} s ({speedup:.2}x, floor {MIN_SPEEDUP}x)"
    );
    println!("packed batched  (min of {passes}): {batch_secs:.4} s ({batch_speedup:.2}x)");
    println!("node visits: pointer {tree_visits}, packed flat {flat_visits}");

    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"n\": {n},\n  \"queries\": {queries},\n  \
         \"passes\": {passes},\n  \"seed\": {seed},\n  \
         \"pointer_secs\": {pointer_secs:.6},\n  \"frozen_secs\": {frozen_secs:.6},\n  \
         \"flat_secs\": {flat_secs:.6},\n  \"batch_secs\": {batch_secs:.6},\n  \
         \"speedup\": {speedup:.4},\n  \"frozen_speedup\": {frozen_speedup:.4},\n  \
         \"batch_speedup\": {batch_speedup:.4},\n  \
         \"pointer_node_visits\": {tree_visits},\n  \"flat_node_visits\": {flat_visits},\n  \
         \"min_speedup\": {MIN_SPEEDUP}\n}}\n"
    );
    GUARD.write(&out, &json);

    // Guard: the whole point of freezing the tree into SoA arrays.
    GUARD.enforce(speedup);
}

/// Seeded PRQ-like rectangles over the road-network extent `[0, 1000]²`:
/// centers uniform, half-widths mixing tight (≈3) through moderate
/// (≈25) probes — the Phase-1 shapes the three-phase pipeline generates
/// for moderate δ and the paper's Σ scales.
fn query_rects(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = Vector::from([rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0]);
            let half = Vector::from([3.0 + rng.gen::<f64>() * 22.0, 3.0 + rng.gen::<f64>() * 22.0]);
            Rect::centered(&c, &half)
        })
        .collect()
}
