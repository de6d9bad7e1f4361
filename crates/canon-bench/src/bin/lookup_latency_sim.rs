//! Timed lookups under crash failures: mean lookup completion time and
//! success rate on the transit-stub internet, Crescendo vs flat Chord, as
//! the crash fraction grows.
//!
//! Unlike the structural fault experiments, this prices the *time* cost of
//! failures — every attempt to contact a crashed node burns a
//! retransmission timeout before falling back. Each lookup is one walk of
//! the shared routing engine under the crash mask (`lookup_with_faults`)
//! plus the answer's leg back to the origin; `rt` counts dead neighbours
//! tried per lookup.

use canon::crescendo::{build_chord, build_crescendo};
use canon_bench::{banner, f, row, BenchConfig};
use canon_id::metric::Clockwise;
use canon_id::NodeId;
use canon_overlay::faults::{lookup_with_faults, FaultModel};
use canon_overlay::{NodeIndex, OverlayGraph};
use canon_topology::{attach, Attachment, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn run_system(
    g: &OverlayGraph,
    att: &Attachment,
    crash_pct: usize,
    lookups: usize,
    seed: canon_id::rng::Seed,
) -> (f64, f64, f64) {
    let n = g.len();
    let mut rng = seed.rng();
    // Crash a fraction of the nodes.
    let quota = n * crash_pct / 100;
    let mut dead = std::collections::HashSet::new();
    while dead.len() < quota {
        dead.insert(NodeIndex(rng.gen_range(0..n) as u32));
    }
    // Look up random keys from live origins.
    let lat = |a: NodeIndex, b: NodeIndex| att.latency(g.id(a), g.id(b));
    let model = FaultModel { timeout: 1000.0 };
    let mut done = Vec::new();
    let mut retries = 0usize;
    let mut injected = 0usize;
    while injected < lookups {
        let origin = NodeIndex(rng.gen_range(0..n) as u32);
        if dead.contains(&origin) {
            continue;
        }
        let key = NodeId::new(rng.gen());
        let r = lookup_with_faults(
            g,
            Clockwise,
            model,
            origin,
            key,
            |v| !dead.contains(&v),
            lat,
        );
        retries += r.timeouts;
        if r.completed {
            // The responsible node reports back to the origin.
            done.push(r.time + lat(r.terminal, origin));
        }
        injected += 1;
    }
    let success = done.len() as f64 / lookups as f64;
    let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
    (success, mean, retries as f64 / lookups as f64)
}

fn main() {
    let cfg = BenchConfig::from_args(8192, 1);
    banner(
        "lookup-latency-sim",
        "timed lookups under crashes: crescendo vs chord (transit-stub)",
        &cfg,
    );
    let n = cfg.max_n;
    let seed = cfg.trial_seed("latency-sim", 0);
    let topo =
        TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
    let att = attach(topo, n, seed.derive("attach"));
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let cresc = build_crescendo(&h, &p);
    let chord = build_chord(p.ids());
    let lookups = 400;

    row(&[
        "crashFrac".into(),
        "ok(cresc)".into(),
        "ms(cresc)".into(),
        "rt(cresc)".into(),
        "ok(chord)".into(),
        "ms(chord)".into(),
        "rt(chord)".into(),
    ]);
    for crash_pct in [0usize, 5, 10, 20, 30] {
        let (sc, mc, rc) = run_system(
            cresc.graph(),
            &att,
            crash_pct,
            lookups,
            seed.derive("c").derive_index(crash_pct as u64),
        );
        let (sh, mh, rh) = run_system(
            &chord,
            &att,
            crash_pct,
            lookups,
            seed.derive("h").derive_index(crash_pct as u64),
        );
        row(&[
            format!("{crash_pct}%"),
            f(sc),
            f(mc),
            f(rc),
            f(sh),
            f(mh),
            f(rh),
        ]);
    }
    println!("# expect: latency grows with crash fraction via retransmission timeouts;");
    println!("# both systems degrade similarly in success (no repair runs here) but");
    println!("# crescendo's base latency advantage persists");
}
