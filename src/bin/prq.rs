//! `prq` — command-line interface to the gaussian-prq library.
//!
//! ```text
//! prq generate road  --n 50747 --seed 42 --out points.csv
//! prq generate corel --n 68040 --seed 42 --out features.csv
//! prq info  --data points.csv
//! prq query --data points.csv --center 500,500 --cov 70,34.64,34.64,30 \
//!           --delta 25 --theta 0.01 [--strategy all]
//! prq pnn   --data points.csv --center 500,500 --cov 70,34.64,34.64,30 \
//!           --delta 25 --k 10 [--samples 100000] [--seed 42]
//! ```
//!
//! Point files are plain CSV, one point per line, 2 or 9 numeric columns
//! (the two dimensionalities the paper evaluates). `--cov` takes the
//! row-major covariance entries (4 values for 2-D, 81 for 9-D).
//!
//! `query` decides each candidate exactly (`ExactEvaluator`), so it
//! draws no samples and needs no seed. An object whose probability the
//! exact evaluator cannot settle against `θ` (a covariance with condition
//! number ≳ 10⁴ can leave some) is listed under `uncertain` with its
//! estimate, never dropped. `pnn` ranks by Monte-Carlo estimates
//! (`MonteCarloEvaluator`, `--samples` draws from `--seed`): a ranking
//! has no undecided verdict to report such an object under, and the
//! estimates stay within sampling error at any condition number.

#![forbid(unsafe_code)]

use gaussian_prq::prelude::*;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `prq help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("pnn") => pnn(&args[1..]),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn usage() -> String {
    "prq — probabilistic range queries for Gaussian-imprecise query objects\n\
     \n\
     commands:\n\
       generate road|corel --n N --seed S --out FILE   write a synthetic dataset\n\
       info  --data FILE                               index statistics\n\
       query --data FILE --center X,Y[,..] --cov C11,C12,.. --delta D --theta T\n\
             [--strategy rr|bf|rr+bf|rr+or|bf+or|all]\n\
       pnn   --data FILE --center .. --cov .. --delta D --k K [--samples N] [--seed S]\n\
       help                                            this text\n"
        .to_string()
}

/// `--key value` lookup.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2)
        .rev()
        .find(|w| w[0] == format!("--{key}"))
        .map(|w| w[1].as_str())
}

fn req<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    opt(args, key).ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_list(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("not a number: `{t}`"))
        })
        .collect()
}

fn generate(args: &[String]) -> Result<String, String> {
    let kind = args.first().ok_or("generate needs `road` or `corel`")?;
    let n: usize = opt(args, "n")
        .unwrap_or("10000")
        .parse()
        .map_err(|_| "--n must be an integer")?;
    let seed: u64 = opt(args, "seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let out = req(args, "out")?;
    let mut csv = String::new();
    match kind.as_str() {
        "road" => {
            for p in gaussian_prq::workloads::road_network_2d(n, seed) {
                writeln!(csv, "{},{}", p[0], p[1]).unwrap();
            }
        }
        "corel" => {
            for p in gaussian_prq::workloads::corel_like_9d(n, seed) {
                let row: Vec<String> = p.as_slice().iter().map(|v| v.to_string()).collect();
                writeln!(csv, "{}", row.join(",")).unwrap();
            }
        }
        other => return Err(format!("unknown dataset kind `{other}`")),
    }
    std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!("wrote {n} points to {out}\n"))
}

/// Loaded dataset with runtime-detected dimensionality.
enum Dataset {
    D2(Vec<Vector<2>>),
    D9(Vec<Vector<9>>),
}

fn load(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let vals = parse_list(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        rows.push(vals);
    }
    let dim = rows.first().map(Vec::len).ok_or("empty dataset")?;
    if rows.iter().any(|r| r.len() != dim) {
        return Err("inconsistent column counts".into());
    }
    match dim {
        2 => Ok(Dataset::D2(
            rows.iter().map(|r| Vector::from([r[0], r[1]])).collect(),
        )),
        9 => Ok(Dataset::D9(
            rows.iter().map(|r| Vector::from_fn(|i| r[i])).collect(),
        )),
        d => Err(format!("unsupported dimensionality {d} (expected 2 or 9)")),
    }
}

fn info(args: &[String]) -> Result<String, String> {
    let data = load(req(args, "data")?)?;
    let mut out = String::new();
    match data {
        Dataset::D2(pts) => describe_tree::<2>(&pts, &mut out),
        Dataset::D9(pts) => describe_tree::<9>(&pts, &mut out),
    }
    Ok(out)
}

fn describe_tree<const D: usize>(pts: &[Vector<D>], out: &mut String) {
    let tree: RTree<D, u32> = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
        RStarParams::paper_default(D),
    );
    let s = tree.tree_stats();
    writeln!(out, "{} points in {D}-D", tree.len()).unwrap();
    writeln!(
        out,
        "R*-tree: height {}, {} leaves + {} internal nodes, mean leaf fill {:.0}%",
        s.height,
        s.leaf_nodes,
        s.internal_nodes,
        100.0 * s.mean_leaf_occupancy
    )
    .unwrap();
    if let Some(b) = tree.bounding_rect() {
        writeln!(out, "extent: {} — {}", b.lo, b.hi).unwrap();
    }
}

fn parse_strategy(s: &str) -> Result<StrategySet, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "rr" => StrategySet::RR,
        "bf" => StrategySet::BF,
        "rr+bf" => StrategySet::RR_BF,
        "rr+or" => StrategySet::RR_OR,
        "bf+or" => StrategySet::BF_OR,
        "all" => StrategySet::ALL,
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

fn query(args: &[String]) -> Result<String, String> {
    let data = load(req(args, "data")?)?;
    let center = parse_list(req(args, "center")?)?;
    let cov = parse_list(req(args, "cov")?)?;
    let delta: f64 = req(args, "delta")?
        .parse()
        .map_err(|_| "--delta must be numeric")?;
    let theta: f64 = req(args, "theta")?
        .parse()
        .map_err(|_| "--theta must be numeric")?;
    let strategy = parse_strategy(opt(args, "strategy").unwrap_or("all"))?;
    match data {
        Dataset::D2(pts) => query_dim::<2>(&pts, &center, &cov, delta, theta, strategy),
        Dataset::D9(pts) => query_dim::<9>(&pts, &center, &cov, delta, theta, strategy),
    }
}

fn query_dim<const D: usize>(
    pts: &[Vector<D>],
    center: &[f64],
    cov: &[f64],
    delta: f64,
    theta: f64,
    strategy: StrategySet,
) -> Result<String, String> {
    let (q, sigma) = build_query_params::<D>(center, cov)?;
    let tree: RTree<D, u32> = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
        RStarParams::paper_default(D),
    );
    let query = PrqQuery::new(q, sigma, delta, theta).map_err(|e| e.to_string())?;
    let mut eval = ExactEvaluator::default();
    let outcome = PrqExecutor::new(strategy)
        .execute(&tree, &query, &mut eval)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let s = &outcome.stats;
    writeln!(
        out,
        "# strategy {} | {} candidates, {} integrations, {} free accepts | {:.1} ms",
        strategy.name(),
        s.phase1_candidates,
        s.integrations,
        s.accepted_without_integration,
        s.total_time().as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(out, "# {} answers (point-id: location)", s.answers).unwrap();
    let mut answers: Vec<(u32, String)> = outcome
        .answers
        .iter()
        .map(|(p, id)| (**id, format!("{p}")))
        .collect();
    answers.sort_unstable_by_key(|(id, _)| *id);
    for (id, loc) in answers {
        writeln!(out, "{id}: {loc}").unwrap();
    }
    writeln!(
        out,
        "# {} uncertain (point-id: estimate, location)",
        s.uncertain
    )
    .unwrap();
    let mut uncertain: Vec<_> = outcome.uncertain.iter().collect();
    uncertain.sort_unstable_by_key(|u| *u.data);
    for u in uncertain {
        let estimate = u.estimate.unwrap_or(f64::NAN);
        writeln!(out, "{}: p≈{estimate:.4} at {}", u.data, u.point).unwrap();
    }
    Ok(out)
}

fn build_query_params<const D: usize>(
    center: &[f64],
    cov: &[f64],
) -> Result<(Vector<D>, Matrix<D>), String> {
    if center.len() != D {
        return Err(format!(
            "--center has {} values, dataset is {D}-D",
            center.len()
        ));
    }
    if cov.len() != D * D {
        return Err(format!(
            "--cov has {} values, expected {} for a {D}×{D} matrix",
            cov.len(),
            D * D
        ));
    }
    let q = Vector::<D>::from_fn(|i| center[i]);
    let sigma = Matrix::<D>::from_fn(|i, j| cov[i * D + j]);
    Ok((q, sigma))
}

fn pnn(args: &[String]) -> Result<String, String> {
    let data = load(req(args, "data")?)?;
    let center = parse_list(req(args, "center")?)?;
    let cov = parse_list(req(args, "cov")?)?;
    let delta: f64 = req(args, "delta")?
        .parse()
        .map_err(|_| "--delta must be numeric")?;
    let k: usize = req(args, "k")?
        .parse()
        .map_err(|_| "--k must be an integer")?;
    let samples: usize = opt(args, "samples")
        .unwrap_or("100000")
        .parse()
        .map_err(|_| "--samples must be an integer")?;
    let seed: u64 = opt(args, "seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    match data {
        Dataset::D2(pts) => pnn_dim::<2>(&pts, &center, &cov, delta, k, samples, seed),
        Dataset::D9(pts) => pnn_dim::<9>(&pts, &center, &cov, delta, k, samples, seed),
    }
}

fn pnn_dim<const D: usize>(
    pts: &[Vector<D>],
    center: &[f64],
    cov: &[f64],
    delta: f64,
    k: usize,
    samples: usize,
    seed: u64,
) -> Result<String, String> {
    let (q, sigma) = build_query_params::<D>(center, cov)?;
    let tree: RTree<D, u32> = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
        RStarParams::paper_default(D),
    );
    // θ is unused by ranking; any valid placeholder works.
    let query = PrqQuery::new(q, sigma, delta, 0.5).map_err(|e| e.to_string())?;
    let mut eval = MonteCarloEvaluator::new(samples, seed);
    let (top, stats) = probabilistic_knn(&tree, &query, k, &mut eval);
    let mut out = String::new();
    writeln!(
        out,
        "# top-{k} by Pr(dist ≤ {delta}) | examined {} candidates, {} integrations",
        stats.candidates_examined, stats.integrations
    )
    .unwrap();
    for (rank, r) in top.iter().enumerate() {
        writeln!(
            out,
            "{}: id {} p={:.4} dist={:.3} at {}",
            rank + 1,
            r.data,
            r.probability,
            r.distance,
            r.point
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaussian_prq::gaussian::specfun::std_normal_cdf;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn usage_on_no_args() {
        assert!(run(&[]).unwrap().contains("commands:"));
        assert!(run(&s(&["help"])).unwrap().contains("generate"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn parse_list_handles_spaces_and_errors() {
        assert_eq!(parse_list("1, 2,3").unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(parse_list("1,x").is_err());
    }

    #[test]
    fn generate_query_roundtrip() {
        let dir = std::env::temp_dir().join("prq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pts.csv");
        let file_s = file.to_str().unwrap();
        run(&s(&[
            "generate", "road", "--n", "2000", "--seed", "7", "--out", file_s,
        ]))
        .unwrap();
        let info_out = run(&s(&["info", "--data", file_s])).unwrap();
        assert!(info_out.contains("2000 points in 2-D"), "{info_out}");
        let q_out = run(&s(&[
            "query",
            "--data",
            file_s,
            "--center",
            "500,500",
            "--cov",
            "700,346.4,346.4,300",
            "--delta",
            "25",
            "--theta",
            "0.01",
        ]))
        .unwrap();
        assert!(q_out.contains("answers"), "{q_out}");
        assert!(q_out.contains("# 0 uncertain"), "{q_out}");
        // Exact answers: the same query prints the same lines (the
        // header also carries the wall-clock time).
        let again = run(&s(&[
            "query",
            "--data",
            file_s,
            "--center",
            "500,500",
            "--cov",
            "700,346.4,346.4,300",
            "--delta",
            "25",
            "--theta",
            "0.01",
        ]))
        .unwrap();
        let body = |out: &str| out.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(body(&q_out), body(&again));
        let p_out = run(&s(&[
            "pnn",
            "--data",
            file_s,
            "--center",
            "500,500",
            "--cov",
            "700,346.4,346.4,300",
            "--delta",
            "25",
            "--k",
            "3",
            "--samples",
            "5000",
        ]))
        .unwrap();
        assert!(p_out.lines().count() >= 4, "{p_out}");
    }

    /// `Pr(‖x − o‖ ≤ δ)` for `x ~ N(q, diag(σx², 1))`: Simpson's rule over
    /// the narrow coordinate of the interval mass along the wide one.
    fn stiff_probability(q: [f64; 2], sx: f64, o: [f64; 2], delta: f64) -> f64 {
        let n = 4000;
        let h = 20.0 / n as f64;
        (0..=n)
            .map(|i| {
                let z = -10.0 + i as f64 * h;
                let u = q[1] + z - o[1];
                let half = (delta * delta - u * u).max(0.0).sqrt();
                let along = std_normal_cdf((o[0] + half - q[0]) / sx)
                    - std_normal_cdf((o[0] - half - q[0]) / sx);
                let weight = match i {
                    0 => 1.0,
                    _ if i == n => 1.0,
                    _ if i % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                weight * h / 3.0 * (-0.5 * z * z).exp() / std::f64::consts::TAU.sqrt() * along
            })
            .sum()
    }

    /// At Σ = diag(10⁴, 1) the exact series leaves most probabilities
    /// near the center unsettled at its cap; `pnn` ranks by Monte-Carlo
    /// estimates instead, which stay within sampling error there: each
    /// reported probability and the k-th one against the best of the rest.
    #[test]
    fn pnn_ranks_a_stiff_covariance_within_sampling_error() {
        let dir = std::env::temp_dir().join("prq_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pts.csv");
        let file_s = file.to_str().unwrap();
        run(&s(&[
            "generate", "road", "--n", "2000", "--seed", "7", "--out", file_s,
        ]))
        .unwrap();
        let out = run(&s(&[
            "pnn",
            "--data",
            file_s,
            "--center",
            "500,500",
            "--cov",
            "1e4,0,0,1",
            "--delta",
            "100",
            "--k",
            "5",
            "--samples",
            "20000",
        ]))
        .unwrap();
        let Dataset::D2(pts) = load(file_s).unwrap() else {
            panic!("road data is 2-D")
        };
        let exact = |id: usize| stiff_probability([500.0, 500.0], 100.0, pts[id].0, 100.0);
        let mut ranked = Vec::new();
        for line in out.lines().skip(1) {
            let mut words = line.split_whitespace();
            let id: usize = words.nth(2).unwrap().parse().unwrap();
            let p: f64 = words.next().unwrap()["p=".len()..].parse().unwrap();
            // 20 000 draws: σ ≤ 0.0035.
            assert!((p - exact(id)).abs() <= 0.02, "{line}: exact {}", exact(id));
            ranked.push(id);
        }
        assert_eq!(ranked.len(), 5, "{out}");
        let kth = exact(ranked[4]);
        let best_rest = (0..pts.len())
            .filter(|id| !ranked.contains(id) && (pts[*id][1] - 500.0).abs() < 110.0)
            .map(exact)
            .fold(0.0, f64::max);
        assert!(
            best_rest <= kth + 0.03,
            "{out}: an unranked object has {best_rest}"
        );
    }

    #[test]
    fn query_rejects_dimension_mismatch() {
        let dir = std::env::temp_dir().join("prq_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pts.csv");
        std::fs::write(&file, "1,2\n3,4\n").unwrap();
        let err = run(&s(&[
            "query",
            "--data",
            file.to_str().unwrap(),
            "--center",
            "1,2,3",
            "--cov",
            "1,0,0,1",
            "--delta",
            "1",
            "--theta",
            "0.1",
        ]))
        .unwrap_err();
        assert!(err.contains("--center"), "{err}");
    }

    #[test]
    fn load_rejects_bad_files() {
        let dir = std::env::temp_dir().join("prq_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bad.csv");
        std::fs::write(&file, "1,2\n3,4,5\n").unwrap();
        assert!(load(file.to_str().unwrap()).is_err());
        std::fs::write(&file, "1,2,3\n").unwrap();
        match load(file.to_str().unwrap()) {
            Err(e) => assert!(e.contains("unsupported dimensionality"), "{e}"),
            Ok(_) => panic!("3-column file should be rejected"),
        }
        assert!(load("/nonexistent/nope.csv").is_err());
    }
}
