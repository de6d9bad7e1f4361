//! Routing-style ablation: recursive vs iterative lookups on the
//! transit-stub internet.
//!
//! Recursive forwarding pays per-hop link latencies; iterative lookups pay
//! an origin-to-intermediate round trip per step. Hierarchy helps *both*
//! modes: Crescendo's early hops stay physically near the origin, so even
//! their origin round trips are cheap, while every Chord step is a
//! long-haul round trip. Expected shape: iterative costs ~1.5–1.8× across
//! the board, Chord's penalty slightly larger, and Crescendo keeps its
//! absolute advantage in both modes.

use canon::crescendo::{build_chord, build_crescendo};
use canon_bench::{banner, f, row, BenchConfig};
use canon_id::metric::Clockwise;
use canon_id::NodeId;
use canon_overlay::faults::{iterative_lookup, lookup_with_faults, FaultModel};
use canon_overlay::{NodeIndex, OverlayGraph};
use canon_topology::{attach, Attachment, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn mean_times(
    g: &OverlayGraph,
    att: &Attachment,
    lookups: usize,
    seed: canon_id::rng::Seed,
) -> (f64, f64) {
    let n = g.len();
    let mut rng = seed.rng();
    let jobs: Vec<(NodeIndex, NodeId)> = (0..lookups)
        .map(|_| {
            (
                NodeIndex(rng.gen_range(0..n) as u32),
                NodeId::new(rng.gen()),
            )
        })
        .collect();

    let lat = |a: NodeIndex, b: NodeIndex| att.latency(g.id(a), g.id(b));
    let model = FaultModel::default();
    // Recursive: per-hop link latencies plus the answer's leg back.
    let recursive = jobs
        .iter()
        .map(|&(from, key)| {
            let r = lookup_with_faults(g, Clockwise, model, from, key, |_| true, lat);
            r.time + lat(r.terminal, from)
        })
        .sum::<f64>()
        / lookups as f64;
    let iterative = jobs
        .iter()
        .map(|&(from, key)| iterative_lookup(g, Clockwise, model, from, key, |_| true, lat).time)
        .sum::<f64>()
        / lookups as f64;
    (recursive, iterative)
}

fn main() {
    let cfg = BenchConfig::from_args(16384, 1);
    banner(
        "iter-vs-rec",
        "mean lookup time (ms): recursive vs iterative, crescendo vs chord",
        &cfg,
    );
    row(&[
        "n".into(),
        "cresc(rec)".into(),
        "cresc(iter)".into(),
        "ratio".into(),
        "chord(rec)".into(),
        "chord(iter)".into(),
        "ratio".into(),
    ]);
    for n in cfg.sizes(2048) {
        let seed = cfg.trial_seed("ivr", n as u64);
        let topo =
            TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
        let att = attach(topo, n, seed.derive("attach"));
        let h = att.hierarchy().clone();
        let p = att.placement().clone();
        let cresc = build_crescendo(&h, &p);
        let chord = build_chord(p.ids());
        let (cr, ci) = mean_times(cresc.graph(), &att, 300, seed.derive("c"));
        let (hr, hi) = mean_times(&chord, &att, 300, seed.derive("h"));
        row(&[
            n.to_string(),
            f(cr),
            f(ci),
            f(ci / cr),
            f(hr),
            f(hi),
            f(hi / hr),
        ]);
    }
    println!("# expect: iterative ~1.5-1.8x recursive for both systems (chord slightly");
    println!("# worse); crescendo stays ~2x faster than chord in absolute terms in both modes");
}
