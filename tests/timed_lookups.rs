//! Timed lookups on real Chord graphs: `canon_overlay::faults` prices the
//! shared engine's fault-fallback walk, recursively (per-link latency; the
//! caller adds the report-to-origin leg from `terminal`) and iteratively
//! (origin round trips).

use canon::crescendo::build_chord;
use canon_id::metric::Clockwise;
use canon_id::rng::{random_ids, Seed};
use canon_id::NodeId;
use canon_overlay::faults::{iterative_lookup, lookup_with_faults, FaultModel, FaultyLookup};
use canon_overlay::{route_to_key, NodeIndex, OverlayGraph};
use rand::Rng;

fn graph() -> OverlayGraph {
    build_chord(&random_ids(Seed(1), 128))
}

/// A non-uniform symmetric latency oracle.
fn lat(a: NodeIndex, b: NodeIndex) -> f64 {
    ((a.index() + b.index()) % 7 + 1) as f64
}

#[test]
fn failure_free_lookups_walk_the_static_route() {
    let g = graph();
    let model = FaultModel::default();
    let mut rng = Seed(9).rng();
    for _ in 0..50 {
        let from = NodeIndex(rng.gen_range(0..g.len()) as u32);
        let key = NodeId::new(rng.gen());
        let r = route_to_key(&g, Clockwise, from, key).unwrap();
        let rec = lookup_with_faults(&g, Clockwise, model, from, key, |_| true, lat);
        let iter = iterative_lookup(&g, Clockwise, model, from, key, |_| true, lat);
        for out in [rec, iter] {
            assert!(out.completed);
            assert_eq!(out.timeouts, 0);
            assert_eq!(out.hops, r.hops());
            // `terminal` is where a caller prices the answer's leg back from.
            assert_eq!(out.terminal, r.target());
        }
        // Recursive pays each link; iterative an origin round trip per step.
        assert!((rec.time - r.latency(lat)).abs() < 1e-9);
        let round_trips: f64 = r.path()[1..].iter().map(|&n| 2.0 * lat(from, n)).sum();
        assert!((iter.time - round_trips).abs() < 1e-9);
    }
}

#[test]
fn lookup_from_the_responsible_node_costs_nothing() {
    let g = graph();
    let from = NodeIndex(5);
    let model = FaultModel::default();
    let rec = lookup_with_faults(&g, Clockwise, model, from, g.id(from), |_| true, lat);
    assert!(rec.completed);
    assert_eq!((rec.hops, rec.timeouts, rec.time), (0, 0, 0.0));
    assert_eq!(rec.terminal, from);
    let iter = iterative_lookup(&g, Clockwise, model, from, g.id(from), |_| true, lat);
    assert_eq!(iter, rec);
}

#[test]
fn dead_best_candidate_costs_a_timeout_then_falls_back() {
    let g = graph();
    let key = NodeId::new(0x1111_2222_3333_4444);
    let from = NodeIndex(40);
    let r = route_to_key(&g, Clockwise, from, key).unwrap();
    assert!(r.hops() >= 2, "seeded draw has a multi-hop route");
    let victim = r.path()[1];
    let model = FaultModel { timeout: 100.0 };
    let alive = |n: NodeIndex| n != victim;
    // Every dead attempt costs exactly the timeout, every hop `per_hop`.
    let check = |out: FaultyLookup, per_hop: f64| {
        assert!(out.completed, "fallback candidates rescue the lookup");
        assert_eq!(out.terminal, r.target());
        assert!(out.timeouts >= 1);
        let expect = out.timeouts as f64 * model.timeout + out.hops as f64 * per_hop;
        assert!((out.time - expect).abs() < 1e-9);
    };
    let unit = |_, _| 1.0;
    check(
        lookup_with_faults(&g, Clockwise, model, from, key, alive, unit),
        1.0,
    );
    check(
        iterative_lookup(&g, Clockwise, model, from, key, alive, unit),
        2.0,
    );
}

#[test]
fn lookup_fails_when_every_closer_candidate_is_dead() {
    // Two nodes: a -> b only. Kill b; a's lookup toward b's id fails.
    let g = build_chord(&[NodeId::new(100), NodeId::new(2000)]);
    let out = lookup_with_faults(
        &g,
        Clockwise,
        FaultModel { timeout: 7.0 },
        NodeIndex(0),
        NodeId::new(2000),
        |n| n == NodeIndex(0),
        |_, _| 1.0,
    );
    assert!(!out.completed);
    assert_eq!(out.terminal, NodeIndex(0));
    assert_eq!((out.hops, out.timeouts, out.time), (0, 1, 7.0));
}
