//! §3 variants side by side: the degree/hops trade-off of every flat DHT
//! and its Canonical version over one population (3-level fan-out-10
//! hierarchy, Zipf placement).
//!
//! Expected shape: every Canonical column stays within a small constant of
//! its flat baseline — the paper's central claim of "the same routing
//! state v/s routing hops trade-off".

use canon::cacophony::{build_cacophony, build_symphony};
use canon::cancan::build_cancan;
use canon::crescendo::{build_chord, build_crescendo, build_nondet_chord, build_nondet_crescendo};
use canon::kandy::{build_kademlia, build_kandy};
use canon::pastry::{build_canonical_pastry, build_pastry, PastryParams};
use canon_bench::{banner, f, row, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Xor};
use canon_kademlia::BucketChoice;
use canon_overlay::stats::{hop_stats, DegreeStats};
use canon_overlay::OverlayGraph;

fn main() {
    let cfg = BenchConfig::from_args(4096, 1);
    banner(
        "variants",
        "degree & hops: every flat DHT vs its Canonical version",
        &cfg,
    );
    let n = cfg.max_n;
    let h = Hierarchy::balanced(10, 3);
    let seed = cfg.trial_seed("variants", 0);
    let p = Placement::zipf(&h, n, seed);
    let pastry_params = PastryParams {
        digit_bits: 2,
        leaf_half: 4,
    };

    let show = |name: &str, g: &OverlayGraph, clockwise: bool| {
        let deg = DegreeStats::of(g).summary;
        let hops = if clockwise {
            hop_stats(g, Clockwise, 500, seed.derive("pairs"))
        } else {
            hop_stats(g, Xor, 500, seed.derive("pairs"))
        }
        .expect("routing failed on a well-formed graph");
        row(&[
            name.to_owned(),
            f(deg.mean),
            format!("{}", deg.max as u64),
            f(hops.mean),
        ]);
    };

    row(&[
        "system".into(),
        "degMean".into(),
        "degMax".into(),
        "hops".into(),
    ]);
    show("chord", &build_chord(p.ids()), true);
    show("crescendo", build_crescendo(&h, &p).graph(), true);
    show(
        "nondetChord",
        &build_nondet_chord(p.ids(), seed.derive("nc")),
        true,
    );
    show(
        "nondetCrescendo",
        build_nondet_crescendo(&h, &p, seed.derive("ncr")).graph(),
        true,
    );
    show(
        "symphony",
        &build_symphony(p.ids(), seed.derive("sym")),
        true,
    );
    show(
        "cacophony",
        build_cacophony(&h, &p, seed.derive("cac")).graph(),
        true,
    );
    show(
        "kademlia",
        &build_kademlia(p.ids(), BucketChoice::Closest, seed.derive("kad")),
        false,
    );
    show(
        "kandy",
        build_kandy(&h, &p, BucketChoice::Closest, seed.derive("kan")).graph(),
        false,
    );
    show("cancan", build_cancan(&h, &p).graph(), false);
    show("pastry(b=2)", &build_pastry(p.ids(), pastry_params), false);
    show(
        "canonPastry(b=2)",
        build_canonical_pastry(&h, &p, pastry_params).graph(),
        false,
    );
    println!("# expect: each Canonical row within a small constant of its flat baseline");
}
