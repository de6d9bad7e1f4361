//! Figure 3: average number of links (out-degree) per node vs network
//! size, for hierarchies of 1–5 levels (fan-out 10, Zipf 1/k^1.25 leaf
//! assignment).
//!
//! Expected shape (paper §5.1): ≈ log2(n) for every level count, slightly
//! *decreasing* as the number of levels grows; Chord is the Levels=1 row.
//! A second table breaks the largest 5-level network's links down by the
//! hierarchy depth they were created at (the engine's per-level link
//! instrumentation): the leaf level holds the largest share — the leaf
//! ring plus every merge link that clears the condition-(b) bound there.

use canon::crescendo::build_crescendo;
use canon_bench::{banner, f, row, run_matrix, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_overlay::stats::DegreeStats;

fn main() {
    let cfg = BenchConfig::from_args(65536, 2);
    banner("fig3", "average links per node vs n, levels 1-5", &cfg);
    let levels: Vec<u32> = vec![1, 2, 3, 4, 5];
    let mut header = vec!["n".to_owned(), "log2(n)".to_owned()];
    header.extend(levels.iter().map(|l| {
        if *l == 1 {
            "chord(L=1)".to_owned()
        } else {
            format!("levels={l}")
        }
    }));
    row(&header);

    // One matrix cell per (n, trial); each cell builds every level count.
    // Alongside the mean degree, keep the 5-level per-depth link counts
    // for the breakdown table below.
    let rows = run_matrix(&cfg, "fig3", 1024, |trial| {
        let mut degrees = Vec::with_capacity(levels.len());
        let mut by_depth = Vec::new();
        for &l in &levels {
            let h = Hierarchy::balanced(10, l);
            let p = Placement::zipf(&h, trial.n, trial.seed);
            let net = build_crescendo(&h, &p);
            degrees.push(DegreeStats::of(net.graph()).summary.mean);
            if l == 5 {
                by_depth = net.links_per_level().to_vec();
            }
        }
        (degrees, by_depth)
    });

    for size_row in &rows {
        let mut cells = vec![size_row.n.to_string(), f((size_row.n as f64).log2())];
        for (i, _) in levels.iter().enumerate() {
            cells.push(f(size_row.mean_of(|o| o.result.0[i])));
        }
        row(&cells);
    }

    if let Some(largest) = rows.last() {
        println!(
            "# links by creation depth, levels=5, n={} (mean over trials):",
            largest.n
        );
        let depths = largest.outcomes[0].result.1.len();
        let mut header = vec!["".to_owned()];
        header.extend((0..depths).map(|d| format!("depth {d}")));
        row(&header);
        let mut cells = vec!["links".to_owned()];
        for d in 0..depths {
            cells.push(f(largest.mean_of(|o| o.result.1[d] as f64)));
        }
        row(&cells);
    }

    println!("# expect: all columns ~= log2(n); deeper hierarchies slightly lower");
}
