//! Fault isolation (§2.2, quantified): kill a fraction of the nodes
//! *outside* a domain and measure intra-domain routing success.
//!
//! Expected shape: Crescendo's intra-domain routes never use outside nodes,
//! so success stays at 100% for any outside failure rate; flat Chord's
//! intra-domain routes criss-cross the world and fail increasingly.

use canon::crescendo::{build_chord, build_crescendo};
use canon_bench::{banner, f, row, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_overlay::{route_with_filter, NodeIndex, OverlayGraph};
use rand::Rng;
use std::collections::HashSet;

fn survival_rate(
    g: &OverlayGraph,
    members: &[NodeIndex],
    alive: &HashSet<NodeIndex>,
    pairs: usize,
    seed: canon_id::rng::Seed,
) -> f64 {
    let mut rng = seed.rng();
    let mut ok = 0usize;
    let mut total = 0usize;
    while total < pairs {
        let a = members[rng.gen_range(0..members.len())];
        let b = members[rng.gen_range(0..members.len())];
        if a == b {
            continue;
        }
        total += 1;
        if route_with_filter(g, Clockwise, a, b, |x| alive.contains(&x)).is_ok() {
            ok += 1;
        }
    }
    ok as f64 / total as f64
}

fn main() {
    let cfg = BenchConfig::from_args(8192, 1);
    banner(
        "fault-isolation",
        "intra-domain route success vs outside-failure fraction",
        &cfg,
    );
    let n = cfg.max_n;
    let h = Hierarchy::balanced(10, 3);
    let p = Placement::zipf(&h, n, cfg.trial_seed("fault", 0));
    let cresc = build_crescendo(&h, &p);
    let chord = build_chord(p.ids());

    // Pick the largest depth-1 domain as the observation domain.
    let domain = *h
        .domains_at_depth(1)
        .iter()
        .max_by_key(|&&d| cresc.members_of(&h, d).len())
        .expect("hierarchy has depth-1 domains");
    let members = cresc.members_of(&h, domain);
    let member_set: HashSet<NodeIndex> = members.iter().copied().collect();
    let outside: Vec<NodeIndex> = cresc
        .graph()
        .node_indices()
        .filter(|i| !member_set.contains(i))
        .collect();

    row(&["killFrac".into(), "crescendo".into(), "chord".into()]);
    for kill_pct in [0usize, 25, 50, 75, 90, 100] {
        let mut rng = cfg.trial_seed("kills", kill_pct as u64).rng();
        let mut dead: HashSet<NodeIndex> = HashSet::new();
        let quota = outside.len() * kill_pct / 100;
        while dead.len() < quota {
            dead.insert(outside[rng.gen_range(0..outside.len())]);
        }
        let alive: HashSet<NodeIndex> = cresc
            .graph()
            .node_indices()
            .filter(|i| !dead.contains(i))
            .collect();
        // Node indices coincide across the two graphs (both sorted by id).
        let sc = survival_rate(
            cresc.graph(),
            &members,
            &alive,
            300,
            cfg.trial_seed("sc", kill_pct as u64),
        );
        let sh = survival_rate(
            &chord,
            &members,
            &alive,
            300,
            cfg.trial_seed("sh", kill_pct as u64),
        );
        row(&[format!("{kill_pct}%"), f(sc), f(sh)]);
    }
    println!("# expect: crescendo column constant at 1.0; chord degrades toward ~0");
}
