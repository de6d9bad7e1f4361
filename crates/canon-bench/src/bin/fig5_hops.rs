//! Figure 5: average routing hops vs network size, levels 1–5 (fan-out
//! 10, Zipf assignment).
//!
//! Expected shape (paper §5.1): ≈ 0.5·log2(n) + c, with c growing by at
//! most ~0.7 from Levels=1 (Chord) to Levels=5.

use canon::crescendo::build_crescendo;
use canon_bench::{banner, f, row, run_matrix, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_overlay::stats::hop_stats;

fn main() {
    let cfg = BenchConfig::from_args(65536, 2);
    banner("fig5", "average routing hops vs n, levels 1-5", &cfg);
    let levels: Vec<u32> = vec![1, 2, 3, 4, 5];
    let pairs = 2000;
    let mut header = vec!["n".to_owned(), "0.5*log2(n)".to_owned()];
    header.extend(levels.iter().map(|l| {
        if *l == 1 {
            "chord(L=1)".to_owned()
        } else {
            format!("levels={l}")
        }
    }));
    row(&header);

    // One matrix cell per (n, trial); each cell builds and measures every
    // level count so the per-level curves share placements.
    let rows = run_matrix(&cfg, "fig5", 1024, |trial| {
        levels
            .iter()
            .map(|&l| {
                let h = Hierarchy::balanced(10, l);
                let p = Placement::zipf(&h, trial.n, trial.seed);
                let net = build_crescendo(&h, &p);
                hop_stats(
                    net.graph(),
                    Clockwise,
                    pairs,
                    Seed(trial.seed.0).derive("pairs"),
                )
                .expect("routing failed on a well-formed graph")
                .mean
            })
            .collect::<Vec<f64>>()
    });

    for size_row in &rows {
        let mut cells = vec![size_row.n.to_string(), f(0.5 * (size_row.n as f64).log2())];
        for (i, _) in levels.iter().enumerate() {
            cells.push(f(size_row.mean_of(|o| o.result[i])));
        }
        row(&cells);
    }
    println!("# expect: ~0.5*log2(n)+c; c rises with levels by at most ~0.7");
}
