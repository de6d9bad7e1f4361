//! Figure 6: routing latency and stretch on the transit-stub topology for
//! Chord and Crescendo, with and without proximity adaptation.
//!
//! Expected shape (paper §5.2): plain Chord latency grows ~linearly in
//! log n (stretch rises); plain Crescendo holds a roughly constant stretch
//! (~2–3); Chord (Prox.) improves but still grows; Crescendo (Prox.) is
//! best with a roughly constant stretch (~1.3–2).

use canon::crescendo::{build_chord, build_crescendo};
use canon::proximity::{build_chord_prox, build_crescendo_prox, ProxParams};
use canon_bench::{banner, f, row, BenchConfig};
use canon_id::metric::Clockwise;
use canon_overlay::{route, NodeIndex};
use canon_par::par_map;
use canon_topology::{attach, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn main() {
    let cfg = BenchConfig::from_args(65536, 1);
    banner(
        "fig6",
        "latency (ms) and stretch vs n: chord/crescendo x prox/no-prox",
        &cfg,
    );
    let pairs = 1000;
    row(&[
        "n".into(),
        "direct".into(),
        "chord".into(),
        "crescendo".into(),
        "chordProx".into(),
        "crescProx".into(),
        "s(chord)".into(),
        "s(cresc)".into(),
        "s(chPr)".into(),
        "s(crPr)".into(),
    ]);

    for n in cfg.sizes(2048) {
        let seed = cfg.trial_seed("fig6", 0);
        let topo =
            TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
        let att = attach(topo, n, seed.derive("attach"));
        let h = att.hierarchy().clone();
        let p = att.placement().clone();
        let direct = att.mean_direct_latency(4000, seed.derive("direct"));
        let lat_fn = |a, b| att.latency(a, b);

        // Plain Chord and Crescendo (greedy clockwise routing).
        let chord = build_chord(p.ids());
        let cresc = build_crescendo(&h, &p);
        // Proximity-adapted versions.
        let chord_px = build_chord_prox(p.ids(), &lat_fn, ProxParams::default(), seed.derive("cp"));
        let cresc_px =
            build_crescendo_prox(&h, &p, &lat_fn, ProxParams::default(), seed.derive("xp"));

        // Pre-draw the pairs serially (the exact RNG call sequence of the
        // old serial loop), route them in parallel, and fold the latency
        // sums in index order — byte-identical output at any thread count.
        let mut rng = seed.derive("pairs").rng();
        let drawn: Vec<(usize, usize)> = (0..pairs)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        let routed = par_map(&drawn, |_, &(a, b)| {
            let (ai, bi) = (NodeIndex(a as u32), NodeIndex(b as u32));
            let lat_of = |g: &canon_overlay::OverlayGraph, r: &canon_overlay::Route| {
                r.latency(|x, y| att.latency(g.id(x), g.id(y)))
            };
            let chord_r = route(&chord, Clockwise, ai, bi).expect("chord route");
            let cresc_r = route(cresc.graph(), Clockwise, ai, bi).expect("crescendo route");
            let chpx_r = chord_px.route(ai, bi).expect("chord-prox route");
            let crpx_r = cresc_px.route(ai, bi).expect("crescendo-prox route");
            [
                lat_of(&chord, &chord_r),
                lat_of(cresc.graph(), &cresc_r),
                lat_of(chord_px.graph(), &chpx_r),
                lat_of(cresc_px.graph(), &crpx_r),
            ]
        });
        let count = drawn.len();
        let mut sums = [0.0f64; 4];
        for lats in routed {
            for (s, l) in sums.iter_mut().zip(lats) {
                *s += l;
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / count as f64).collect();
        row(&[
            n.to_string(),
            f(direct),
            f(means[0]),
            f(means[1]),
            f(means[2]),
            f(means[3]),
            f(means[0] / direct),
            f(means[1] / direct),
            f(means[2] / direct),
            f(means[3] / direct),
        ]);
    }
    println!("# expect: s(chord) grows with log n; s(cresc), s(crPr) ~constant; s(crPr) lowest");
}
