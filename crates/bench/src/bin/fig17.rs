//! **Figure 17** — probability of existence within radius `r` of the
//! distribution center for the normalized Gaussian, d ∈ {2, 3, 5, 9, 15}
//! (paper §VI-B: the curse-of-dimensionality picture).
//!
//! The paper plots Monte-Carlo integrations; we print the exact chi-CDF
//! curves (and verify the paper's two quoted anchor points).
//!
//! ```text
//! cargo run -p gprq-bench --release --bin fig17
//! ```

#![forbid(unsafe_code)]

use gprq_bench::Args;
use gprq_gaussian::chi::{chi_ball_probability, chi_inverse};

fn main() {
    let args = Args::parse();
    let r_max = args.get("rmax", 6.0f64);
    let steps = args.get("steps", 24usize);
    let dims = [2usize, 3, 5, 9, 15];

    println!("Figure 17 reproduction: P(‖x‖ ≤ r) for the standard d-D Gaussian\n");
    print!("{:>6}", "r");
    for d in dims {
        print!("{:>9}", format!("d={d}"));
    }
    println!();
    for i in 0..=steps {
        let r = r_max * i as f64 / steps as f64;
        print!("{r:>6.2}");
        for d in dims {
            print!("{:>9.4}", chi_ball_probability(d, r));
        }
        println!();
    }

    println!("\npaper anchors:");
    println!(
        "  d=2,  r=1: {:.1}%  (paper: 39%)",
        100.0 * chi_ball_probability(2, 1.0)
    );
    println!(
        "  d=9,  r=2: {:.1}%  (paper: 9%)",
        100.0 * chi_ball_probability(9, 2.0)
    );
    println!(
        "  r_θ for 98% mass: d=2 → {:.2} (paper 2.79), d=9 → {:.2} (paper 4.44)",
        chi_inverse(2, 0.98),
        chi_inverse(9, 0.98)
    );
    println!(
        "  r_θ for 20% mass, d=9 → {:.2} (paper 2.32)",
        chi_inverse(9, 0.20)
    );
    println!("\nexpected shape: curves shift right as d grows — the same probability");
    println!("level requires a larger search radius in higher dimensions.");
}
