//! **Figures 13–16** — geometry of the integration regions for RR, OR,
//! BF, and their intersection (ALL), at γ ∈ {1, 10, 100}
//! (paper §V-B.1–2, δ = 25, θ = 0.01).
//!
//! For each strategy the binary prints the defining region parameters
//! (the quantities annotated in the paper's figures: θ-box half-widths,
//! oblique half-widths, BF radii) and a Monte-Carlo estimate of each
//! region's **area** — the paper's proxy for query cost under uniform
//! data ("if we assume the target objects are uniformly distributed,
//! their areas correspond to the query processing costs").
//!
//! ```text
//! cargo run -p gprq-bench --release --bin fig13_16 [--area-samples 2000000]
//! ```

#![forbid(unsafe_code)]

use gprq_bench::Args;
use gprq_core::{BfBounds, FringeMode, OrFilter, PrqQuery, RejectBound, RrFilter, ThetaRegion};
use gprq_linalg::Vector;
use gprq_workloads::eq34_covariance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse();
    let area_samples = args.get("area-samples", 2_000_000usize);
    let delta = args.get("delta", 25.0f64);
    let theta = args.get("theta", 0.01f64);
    let seed = args.get("seed", 42u64);

    println!("Figures 13–16 reproduction: integration-region geometry, δ = {delta}, θ = {theta}\n");

    for gamma in [1.0, 10.0, 100.0] {
        let fig = match gamma as u32 {
            1 => "Fig. 15",
            10 => "Figs. 13–14",
            _ => "Fig. 16",
        };
        println!("=== γ = {gamma} ({fig}) ===");
        let query = PrqQuery::new(
            Vector::from([0.0, 0.0]),
            eq34_covariance(gamma),
            delta,
            theta,
        )
        .expect("valid");
        let region = ThetaRegion::for_query(&query).expect("θ < 1/2");
        let rr = RrFilter::new(&query, &region, FringeMode::PaperFaithful);
        let or = OrFilter::new(&query, &region);
        let bf = BfBounds::exact(&query);

        let w = region.box_half_widths();
        println!(
            "  RR: θ-box half-widths ({:.1}, {:.1}); search box ({:.1}, {:.1})",
            w[0],
            w[1],
            w[0] + delta,
            w[1] + delta
        );
        let ow = or.half_widths();
        println!(
            "  OR: oblique half-widths along ellipse axes ({:.1}, {:.1})",
            ow[0], ow[1]
        );
        let alpha_par = match bf.reject {
            RejectBound::Radius(a) => a,
            RejectBound::RejectAll => f64::NAN,
        };
        match bf.accept {
            Some(a) => {
                println!("  BF: reject radius α∥ = {alpha_par:.1}, accept radius α⊥ = {a:.1}")
            }
            None => println!("  BF: reject radius α∥ = {alpha_par:.1}, no accept hole"),
        }

        // Monte-Carlo areas over a box covering all regions.
        let cover = (w[0] + delta).max(alpha_par) * 1.05;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = [0usize; 4]; // RR, OR, BF annulus, ALL
        for _ in 0..area_samples {
            let p = Vector::from([
                (rng.gen::<f64>() * 2.0 - 1.0) * cover,
                (rng.gen::<f64>() * 2.0 - 1.0) * cover,
            ]);
            let in_rr = rr.search_rect().contains_point(&p) && rr.passes(&p);
            let in_or = or.passes(&p);
            let dist = p.norm();
            let in_bf = dist <= alpha_par && bf.accept.map_or(true, |a| dist > a);
            if in_rr {
                counts[0] += 1;
            }
            if in_or {
                counts[1] += 1;
            }
            if in_bf {
                counts[2] += 1;
            }
            if in_rr && in_or && in_bf {
                counts[3] += 1;
            }
        }
        let box_area = (2.0 * cover) * (2.0 * cover);
        let area = |c: usize| c as f64 / area_samples as f64 * box_area;
        println!(
            "  integration-region areas: RR {:.0}, OR {:.0}, BF {:.0}, ALL (intersection) {:.0}",
            area(counts[0]),
            area(counts[1]),
            area(counts[2]),
            area(counts[3])
        );
        let reduction = 100.0 * (1.0 - counts[3] as f64 / counts[0].max(1) as f64);
        println!("  ALL shrinks the RR region by {reduction:.0}%\n");
    }

    println!("expected shape (paper §V-B.2): combining strategies helps little at");
    println!("γ = 1 but strongly at γ = 100, where the regions differ most.");
}
