//! Figure 9 (table): expected number of inter-domain links in a multicast
//! tree formed by the union of query paths from 1000 random sources to one
//! random destination (32K nodes), for domains defined at hierarchy levels
//! 1–3.
//!
//! Expected shape (paper §5.4): Crescendo uses a small fraction of the
//! inter-domain links Chord (Prox.) uses — ~1/44 at the top level, ~15% at
//! stub level.

use canon::crescendo::build_crescendo;
use canon::proximity::{build_chord_prox, ProxParams};
use canon_bench::{banner, f, row, BenchConfig};
use canon_id::metric::Clockwise;
use canon_overlay::multicast::MulticastGroup;
use canon_overlay::{route, NodeIndex, Route};
use canon_topology::{attach, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn main() {
    let cfg = BenchConfig::from_args(32768, 3);
    banner(
        "fig9",
        "inter-domain links in a 1000-source multicast tree",
        &cfg,
    );
    let n = cfg.max_n;
    let sources = 1000;
    let seed = cfg.trial_seed("fig9", 0);
    let topo =
        TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
    let att = attach(topo, n, seed.derive("attach"));
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let lat_fn = |a, b| att.latency(a, b);

    let cresc = build_crescendo(&h, &p);
    let chord_px = build_chord_prox(p.ids(), &lat_fn, ProxParams::default(), seed.derive("cp"));

    // Average the tree statistics over several random destinations.
    let trials = cfg.seeds;
    let mut cresc_counts = [0.0f64; 3];
    let mut chord_counts = [0.0f64; 3];
    let mut rng = seed.derive("trials").rng();
    for _ in 0..trials {
        let dest = NodeIndex(rng.gen_range(0..n) as u32);
        let srcs: Vec<NodeIndex> = (0..sources)
            .map(|_| NodeIndex(rng.gen_range(0..n) as u32))
            .filter(|&s| s != dest)
            .collect();

        let routes: Vec<Route> = srcs
            .iter()
            .map(|&s| route(cresc.graph(), Clockwise, s, dest).expect("crescendo routes"))
            .collect();
        let tree_c = MulticastGroup::from_routes(cresc.graph(), dest, &routes);
        let routes: Vec<Route> = srcs
            .iter()
            .map(|&s| chord_px.route(s, dest).expect("prox route"))
            .collect();
        let tree_p = MulticastGroup::from_routes(chord_px.graph(), dest, &routes);

        for (li, depth) in (1..=3u32).enumerate() {
            let dom_c = |x: NodeIndex| cresc.domain_at_depth(&h, x, depth);
            cresc_counts[li] += tree_c.inter_domain_links(dom_c) as f64;
            // Chord (Prox.) is flat; domains still come from the
            // attachment hierarchy via node identifiers.
            let leaf_of = |x: NodeIndex| {
                let id = chord_px.graph().id(x);
                let idx = cresc.graph().index_of(id).expect("same id set");
                cresc.domain_at_depth(&h, idx, depth)
            };
            chord_counts[li] += tree_p.inter_domain_links(leaf_of) as f64;
        }
    }

    row(&[
        "domainLevel".into(),
        "crescendo".into(),
        "chordProx".into(),
        "ratio".into(),
    ]);
    for (li, depth) in (1..=3u32).enumerate() {
        let c = cresc_counts[li] / trials as f64;
        let q = chord_counts[li] / trials as f64;
        row(&[depth.to_string(), f(c), f(q), f(q / c.max(1e-9))]);
    }
    println!(
        "# expect: crescendo << chordProx; ratio largest at level 1 (paper: ~44x), ~6x at level 3"
    );
}
