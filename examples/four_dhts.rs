//! The Canon family portrait (paper §2–§3): build all four Canonical DHTs
//! — Crescendo, Cacophony, Kandy, Can-Can — over one hierarchy and compare
//! their degree and hop profiles against their flat baselines.
//!
//! Run with: `cargo run --release --example four_dhts`

use canon::cacophony::{build_cacophony, build_symphony};
use canon::cancan::build_cancan;
use canon::crescendo::{build_chord, build_crescendo};
use canon::kandy::{build_kademlia, build_kandy};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Xor};
use canon_id::rng::Seed;
use canon_kademlia::BucketChoice;
use canon_overlay::stats::{hop_stats, DegreeStats};
use canon_overlay::OverlayGraph;

fn show(name: &str, g: &OverlayGraph, clockwise: bool) {
    let deg = DegreeStats::of(g);
    let hops = if clockwise {
        hop_stats(g, Clockwise, 500, Seed(5))
    } else {
        hop_stats(g, Xor, 500, Seed(5))
    }
    .expect("routing failed on a well-formed graph");
    println!(
        "{name:<24} degree {:6.2} (max {:3})   hops {:5.2}",
        deg.summary.mean, deg.summary.max, hops.mean
    );
}

fn main() {
    let n = 2048;
    let h = Hierarchy::balanced(8, 3);
    let p = Placement::zipf(&h, n, Seed(1));
    println!(
        "n = {n}, hierarchy: {} levels, fan-out 8, Zipf placement  (log2 n = {:.1})\n",
        h.levels(),
        (n as f64).log2()
    );

    println!("-- clockwise-metric family --");
    show("Chord (flat)", &build_chord(p.ids()), true);
    show("Crescendo", build_crescendo(&h, &p).graph(), true);
    show("Symphony (flat)", &build_symphony(p.ids(), Seed(2)), true);
    show("Cacophony", build_cacophony(&h, &p, Seed(2)).graph(), true);

    println!("\n-- XOR-metric family --");
    show(
        "Kademlia (flat)",
        &build_kademlia(p.ids(), BucketChoice::Closest, Seed(3)),
        false,
    );
    show(
        "Kandy",
        build_kandy(&h, &p, BucketChoice::Closest, Seed(3)).graph(),
        false,
    );
    show("Can-Can", build_cancan(&h, &p).graph(), false);

    println!("\nevery Canonical design keeps the flat degree/hops trade-off (Theorems 2, 5)");
}
