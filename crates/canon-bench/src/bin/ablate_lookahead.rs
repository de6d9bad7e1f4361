//! Ablation of Symphony/Cacophony's lookahead routing (§3.1): the paper
//! reports ≈40% fewer hops from 1-step lookahead "for most network sizes".

use canon::cacophony::{build_cacophony, build_symphony};
use canon_bench::{banner, f, row, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_overlay::{route, NodeIndex};
use canon_symphony::route_with_lookahead;
use rand::Rng;

fn measure(g: &canon_overlay::OverlayGraph, pairs: usize, seed: canon_id::rng::Seed) -> (f64, f64) {
    let mut rng = seed.rng();
    let mut greedy = 0usize;
    let mut look = 0usize;
    let mut count = 0usize;
    while count < pairs {
        let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
        let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
        if a == b {
            continue;
        }
        greedy += route(g, Clockwise, a, b).expect("greedy").hops();
        look += route_with_lookahead(g, a, b).expect("lookahead").hops();
        count += 1;
    }
    (greedy as f64 / count as f64, look as f64 / count as f64)
}

fn main() {
    let cfg = BenchConfig::from_args(16384, 1);
    banner(
        "ablate-lookahead",
        "greedy vs 1-lookahead hops on Symphony/Cacophony",
        &cfg,
    );
    row(&[
        "n".into(),
        "sym-greedy".into(),
        "sym-look".into(),
        "saving".into(),
        "caco-greedy".into(),
        "caco-look".into(),
        "saving".into(),
    ]);
    for n in cfg.sizes(1024) {
        let seed = cfg.trial_seed("lookahead", n as u64);
        let sym = build_symphony(
            &canon_id::rng::random_ids(seed.derive("ids"), n),
            seed.derive("sym"),
        );
        let h = Hierarchy::balanced(10, 3);
        let p = Placement::zipf(&h, n, seed.derive("place"));
        let caco = build_cacophony(&h, &p, seed.derive("caco"));
        let (sg, sl) = measure(&sym, 400, seed.derive("pairs-s"));
        let (cg, cl) = measure(caco.graph(), 400, seed.derive("pairs-c"));
        row(&[
            n.to_string(),
            f(sg),
            f(sl),
            format!("{:.0}%", (1.0 - sl / sg) * 100.0),
            f(cg),
            f(cl),
            format!("{:.0}%", (1.0 - cl / cg) * 100.0),
        ]);
    }
    println!("# expect: ~25-45% fewer hops with lookahead on both systems (paper: ~40%)");
}
