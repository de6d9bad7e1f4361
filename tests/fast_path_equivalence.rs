//! Property tests for the engine's indexed fast path: `execute` over a
//! plain `Greedy` policy (which selects each hop from the graph's
//! `NextHopIndex` with no allocation or sort) must return a `Driven` —
//! route, exhaustion flag, timeout count and time — identical to the
//! generic candidates-then-sort executor `drive` under `unrestricted()`,
//! across Crescendo, Cacophony and Kandy on random hierarchies, for both
//! node-to-node routing and arbitrary-key lookups.

use canon::cacophony::build_cacophony;
use canon::crescendo::build_crescendo;
use canon::kandy::build_kandy;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Metric, Xor};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_kademlia::BucketChoice;
use canon_overlay::engine::unrestricted;
use canon_overlay::{drive, execute, route_to_key_sweep, Greedy, NodeIndex, OverlayGraph};
use proptest::prelude::*;

/// A random hierarchy: up to 3 levels below the root with fan-outs 1..=4.
fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
    (1usize..=4, 1usize..=3, 1u32..=3).prop_map(|(fan1, fan2, depth)| {
        let mut h = Hierarchy::new();
        if depth >= 2 {
            for i in 0..fan1 {
                let c = h.add_domain(h.root(), format!("a{i}"));
                if depth >= 3 {
                    for j in 0..fan2 {
                        h.add_domain(c, format!("b{i}-{j}"));
                    }
                }
            }
        }
        h
    })
}

/// Deterministic routing targets covering member ids and arbitrary key
/// points (which exercise the local-minimum termination path).
fn sample_targets(g: &OverlayGraph) -> Vec<NodeId> {
    let mut targets: Vec<NodeId> = (0..g.len().min(6))
        .map(|i| g.id(NodeIndex(((i * 37 + 11) % g.len()) as u32)))
        .collect();
    targets.extend(
        g.ids()
            .iter()
            .take(4)
            .map(|id| NodeId::new(id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))),
    );
    targets
}

/// The fast path and the generic path must return the same `Driven` — the
/// same route, no exhaustion, no timeouts, zero time — from every sampled
/// start toward every sampled target.
fn check_fast_path_matches_generic<M: Metric>(g: &OverlayGraph, metric: M) {
    let mut queries = Vec::new();
    let mut expected = Vec::new();
    for start in (0..g.len().min(8)).map(|i| NodeIndex(i as u32)) {
        for &target in &sample_targets(g) {
            let policy = Greedy::new(metric, target);
            let fast = execute(g, &policy, start).expect("fast path routes");
            let generic = drive(g, &policy, start, unrestricted()).expect("generic path routes");
            assert_eq!(fast, generic, "fast/generic divergence toward {target}");
            assert!(!fast.exhausted, "fault-free routing never exhausts");
            assert_eq!(
                (fast.timeouts, fast.time),
                (0, 0.0),
                "fault-free walks are free"
            );
            queries.push((start, target));
            expected.push(fast.route);
        }
    }
    // The interleaved batch sweep must realize the same routes again.
    let swept = route_to_key_sweep(g, metric, &queries).expect("sweep routes");
    assert_eq!(swept, expected, "sweep/one-at-a-time route divergence");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crescendo (clockwise metric).
    #[test]
    fn fast_path_matches_generic_crescendo(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        check_fast_path_matches_generic(net.graph(), Clockwise);
    }

    /// Cacophony (randomized small-world links, clockwise metric).
    #[test]
    fn fast_path_matches_generic_cacophony(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_cacophony(&h, &p, Seed(seed ^ 0xc0ffee));
        check_fast_path_matches_generic(net.graph(), Clockwise);
    }

    /// Kandy (XOR metric).
    #[test]
    fn fast_path_matches_generic_kandy(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_kandy(&h, &p, BucketChoice::Closest, Seed(seed ^ 0xbeef));
        check_fast_path_matches_generic(net.graph(), Xor);
    }
}
