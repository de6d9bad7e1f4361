//! Substrate robustness: the paper's Figure-6 ordering (Crescendo beats
//! flat Chord on physical latency; proximity adaptation helps) holds on a
//! clustered Euclidean plane, not just the transit-stub model.

use canon::crescendo::{build_chord, build_crescendo};
use canon::proximity::{build_chord_prox, ProxParams};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_overlay::{route, NodeIndex};
use canon_topology::euclidean::{EuclideanParams, EuclideanWorld};
use rand::Rng;

#[test]
fn crescendo_keeps_its_latency_advantage_on_the_plane() {
    let n = 1200;
    let world = EuclideanWorld::generate(EuclideanParams::default(), n, Seed(31));
    let h = world.hierarchy().clone();
    let p = world.placement().clone();
    let chord = build_chord(p.ids());
    let cresc = build_crescendo(&h, &p);
    let lat_fn = |a, b| world.latency(a, b);
    let chord_px = build_chord_prox(p.ids(), &lat_fn, ProxParams::default(), Seed(32));

    let mut rng = Seed(33).rng();
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    while count < 400 {
        let a = NodeIndex(rng.gen_range(0..n) as u32);
        let b = NodeIndex(rng.gen_range(0..n) as u32);
        if a == b {
            continue;
        }
        count += 1;
        let r = route(&chord, Clockwise, a, b).expect("chord route");
        sums[0] += r.latency(|x, y| world.latency(chord.id(x), chord.id(y)));
        let r = route(cresc.graph(), Clockwise, a, b).expect("crescendo route");
        sums[1] += r.latency(|x, y| world.latency(cresc.graph().id(x), cresc.graph().id(y)));
        let r = chord_px.route(a, b).expect("chord prox route");
        sums[2] += r.latency(|x, y| world.latency(chord_px.graph().id(x), chord_px.graph().id(y)));
    }
    let [chord_ms, cresc_ms, chord_px_ms] = sums.map(|s| s / count as f64);
    assert!(
        cresc_ms < 0.75 * chord_ms,
        "crescendo {cresc_ms} not clearly ahead of chord {chord_ms} on the plane"
    );
    assert!(
        chord_px_ms < 0.8 * chord_ms,
        "proximity adaptation should also help on the plane: {chord_px_ms} vs {chord_ms}"
    );
}

#[test]
fn locality_collapse_also_holds_on_the_plane() {
    let n = 1000;
    let world = EuclideanWorld::generate(EuclideanParams::default(), n, Seed(34));
    let h = world.hierarchy().clone();
    let p = world.placement().clone();
    let cresc = build_crescendo(&h, &p);
    let g = cresc.graph();
    let mut rng = Seed(35).rng();

    // Intra-cluster queries vs global queries.
    let mut by_cluster: std::collections::BTreeMap<_, Vec<NodeIndex>> = Default::default();
    for (id, leaf) in p.iter() {
        by_cluster
            .entry(leaf)
            .or_default()
            .push(g.index_of(id).expect("in graph"));
    }
    let pools: Vec<&Vec<NodeIndex>> = by_cluster.values().filter(|v| v.len() >= 2).collect();

    let mut local = 0.0;
    let mut count = 0usize;
    while count < 300 {
        let pool = pools[rng.gen_range(0..pools.len())];
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        if a == b {
            continue;
        }
        count += 1;
        let r = route(g, Clockwise, a, b).expect("local route");
        local += r.latency(|x, y| world.latency(g.id(x), g.id(y)));
    }
    let local_mean = local / count as f64;

    let mut global = 0.0;
    let mut count = 0usize;
    while count < 300 {
        let a = NodeIndex(rng.gen_range(0..n) as u32);
        let b = NodeIndex(rng.gen_range(0..n) as u32);
        if a == b {
            continue;
        }
        count += 1;
        let r = route(g, Clockwise, a, b).expect("global route");
        global += r.latency(|x, y| world.latency(g.id(x), g.id(y)));
    }
    let global_mean = global / count as f64;

    assert!(
        local_mean < global_mean / 3.0,
        "cluster-local queries ({local_mean}) should be far cheaper than global ({global_mean})"
    );
}
