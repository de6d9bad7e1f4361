//! Physical-network adaptation on a transit-stub internet (paper §5.2).
//!
//! Attaches 4096 DHT nodes to a 2040-router transit-stub topology and
//! compares end-to-end lookup latency for the paper's four systems: Chord
//! and Crescendo, each with and without proximity adaptation.
//!
//! Run with: `cargo run --release --example campus_network`

use canon::crescendo::{build_chord, build_crescendo};
use canon::proximity::{build_chord_prox, build_crescendo_prox, ProxParams};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_overlay::{route, NodeIndex};
use canon_topology::{attach, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn main() {
    let n = 4096;
    let seed = Seed(99);
    println!("generating 2040-router transit-stub topology + APSP latencies...");
    let topo =
        TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
    let att = attach(topo, n, seed.derive("attach"));
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let lat = |a, b| att.latency(a, b);

    println!("building four overlays over {n} nodes...");
    let chord = build_chord(p.ids());
    let crescendo = build_crescendo(&h, &p);
    let chord_prox = build_chord_prox(p.ids(), &lat, ProxParams::default(), seed.derive("cp"));
    let crescendo_prox =
        build_crescendo_prox(&h, &p, &lat, ProxParams::default(), seed.derive("xp"));

    let direct = att.mean_direct_latency(4000, seed.derive("direct"));
    println!("mean direct (IP) latency: {direct:.1} ms\n");

    let mut rng = seed.derive("pairs").rng();
    let pairs: Vec<(NodeIndex, NodeIndex)> = (0..800)
        .map(|_| {
            (
                NodeIndex(rng.gen_range(0..n) as u32),
                NodeIndex(rng.gen_range(0..n) as u32),
            )
        })
        .filter(|(a, b)| a != b)
        .collect();

    let report = |name: &str, mean: f64| {
        println!("{name:<22} {mean:8.1} ms   stretch {:.2}", mean / direct);
    };

    let mean_of = |g: &canon_overlay::OverlayGraph, routes: Vec<canon_overlay::Route>| {
        routes
            .iter()
            .map(|r| r.latency(|x, y| att.latency(g.id(x), g.id(y))))
            .sum::<f64>()
            / routes.len() as f64
    };

    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| route(&chord, Clockwise, a, b).expect("chord"))
        .collect();
    report("Chord (No Prox.)", mean_of(&chord, routes));

    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| route(crescendo.graph(), Clockwise, a, b).expect("crescendo"))
        .collect();
    report("Crescendo (No Prox.)", mean_of(crescendo.graph(), routes));

    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| chord_prox.route(a, b).expect("chord prox"))
        .collect();
    report("Chord (Prox.)", mean_of(chord_prox.graph(), routes));

    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| crescendo_prox.route(a, b).expect("crescendo prox"))
        .collect();
    report("Crescendo (Prox.)", mean_of(crescendo_prox.graph(), routes));

    println!("\nexpected ordering: Crescendo (Prox.) < Chord (Prox.) ~ Crescendo < Chord");
}
