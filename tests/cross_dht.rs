//! Integration tests spanning the DHT crates: every Canonical design built
//! over the same hierarchy satisfies the paper's structural claims.

use canon::cacophony::build_cacophony;
use canon::cancan::build_cancan;
use canon::crescendo::build_crescendo;
use canon::engine::CanonicalNetwork;
use canon::kandy::build_kandy;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Metric, Xor};
use canon_id::rng::Seed;
use canon_kademlia::BucketChoice;
use canon_overlay::stats::{hop_stats, DegreeStats};
use canon_overlay::{route, route_with_filter, NodeIndex};
use rand::Rng;

const N: usize = 600;

fn setup() -> (Hierarchy, Placement) {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::zipf(&h, N, Seed(123));
    (h, p)
}

fn all_canonical(h: &Hierarchy, p: &Placement) -> Vec<(&'static str, CanonicalNetwork, bool)> {
    vec![
        ("crescendo", build_crescendo(h, p), true),
        ("cacophony", build_cacophony(h, p, Seed(5)), true),
        (
            "kandy",
            build_kandy(h, p, BucketChoice::Closest, Seed(5)),
            false,
        ),
        ("cancan", build_cancan(h, p), false),
    ]
}

#[test]
fn every_canonical_dht_has_logarithmic_degree() {
    let (h, p) = setup();
    let logn = (N as f64).log2();
    for (name, net, _) in all_canonical(&h, &p) {
        let deg = DegreeStats::of(net.graph()).summary;
        assert!(
            deg.mean < 2.0 * logn,
            "{name}: mean degree {} too large vs log2(n) = {logn}",
            deg.mean
        );
        assert!(
            deg.mean > 0.4 * logn,
            "{name}: mean degree {} too small",
            deg.mean
        );
    }
}

#[test]
fn every_canonical_dht_routes_in_logarithmic_hops() {
    let (h, p) = setup();
    let logn = (N as f64).log2();
    for (name, net, clockwise) in all_canonical(&h, &p) {
        let s = if clockwise {
            hop_stats(net.graph(), Clockwise, 400, Seed(9))
        } else {
            hop_stats(net.graph(), Xor, 400, Seed(9))
        }
        .unwrap();
        assert!(
            s.mean < 1.5 * logn,
            "{name}: mean hops {} vs log2(n) = {logn}",
            s.mean
        );
    }
}

fn check_locality<M: Metric>(name: &str, net: &CanonicalNetwork, h: &Hierarchy, m: M) {
    let g = net.graph();
    let mut rng = Seed(77).rng();
    for d in h.domains_at_depth(1) {
        let members = net.members_of(h, d);
        if members.len() < 2 {
            continue;
        }
        let set: std::collections::HashSet<NodeIndex> = members.iter().copied().collect();
        for _ in 0..10 {
            let a = members[rng.gen_range(0..members.len())];
            let b = members[rng.gen_range(0..members.len())];
            if a == b {
                continue;
            }
            let free = route(g, m, a, b)
                .unwrap_or_else(|e| panic!("{name}: intra-domain route failed: {e}"));
            let fenced = route_with_filter(g, m, a, b, |x| set.contains(&x))
                .unwrap_or_else(|e| panic!("{name}: fenced route failed: {e}"));
            assert_eq!(free, fenced, "{name}: route left domain {d}");
        }
    }
}

#[test]
fn every_canonical_dht_has_path_locality() {
    let (h, p) = setup();
    for (name, net, clockwise) in all_canonical(&h, &p) {
        if clockwise {
            check_locality(name, &net, &h, Clockwise);
        } else {
            check_locality(name, &net, &h, Xor);
        }
    }
}

#[test]
fn fault_isolation_under_outside_failure() {
    // Kill every node outside one depth-1 domain; the survivors still form
    // a complete routing structure among themselves.
    let (h, p) = setup();
    let net = build_crescendo(&h, &p);
    let g = net.graph();
    let d = h.domains_at_depth(1)[0];
    let members = net.members_of(&h, d);
    assert!(members.len() >= 10, "test domain too small");
    let alive: std::collections::HashSet<NodeIndex> = members.iter().copied().collect();
    for (i, &a) in members.iter().enumerate() {
        let b = members[(i * 7 + 3) % members.len()];
        if a == b {
            continue;
        }
        route_with_filter(g, Clockwise, a, b, |x| alive.contains(&x))
            .unwrap_or_else(|e| panic!("domain became partitioned after outside failure: {e}"));
    }
}

#[test]
fn kandy_and_cancan_coincide_under_closest_choice() {
    // With deterministic closest selection, minimizing XOR distance within
    // bucket k equals minimizing XOR distance to the bit-flipped target, so
    // the two constructions are isomorphic (the paper's observation that
    // binary-hypercube CAN ≡ XOR-greedy routing).
    let (h, p) = setup();
    let kandy = build_kandy(&h, &p, BucketChoice::Closest, Seed(1));
    let cancan = build_cancan(&h, &p);
    let ek: Vec<_> = kandy.graph().edges().collect();
    let ec: Vec<_> = cancan.graph().edges().collect();
    assert_eq!(ek, ec);
}

#[test]
fn flat_one_level_hierarchy_reduces_every_design_to_its_baseline() {
    let h = Hierarchy::balanced(10, 1);
    let p = Placement::uniform(&h, 300, Seed(21));
    let cresc = build_crescendo(&h, &p);
    let chord = canon::crescendo::build_chord(p.ids());
    assert_eq!(
        cresc.graph().edges().collect::<Vec<_>>(),
        chord.edges().collect::<Vec<_>>()
    );
    let kandy = build_kandy(&h, &p, BucketChoice::Closest, Seed(0));
    let kademlia = canon::kandy::build_kademlia(p.ids(), BucketChoice::Closest, Seed(0));
    assert_eq!(
        kandy.graph().edges().collect::<Vec<_>>(),
        kademlia.edges().collect::<Vec<_>>()
    );
}
