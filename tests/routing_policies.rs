//! Property tests for the unified routing engine: policies without extra
//! machinery degenerate to plain greedy routing, the accounting a walk
//! returns (`Driven`'s timeouts and time) agrees with the route it
//! realizes — across all three Canon instantiations (Crescendo, Cacophony,
//! Kandy) on random hierarchies — and filtered routing is the brute-force
//! greedy walk over the allowed nodes.

use canon::cacophony::build_cacophony;
use canon::crescendo::build_crescendo;
use canon::engine::CanonicalNetwork;
use canon::kandy::build_kandy;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Metric, Xor};
use canon_id::rng::{splitmix64, Seed};
use canon_kademlia::BucketChoice;
use canon_overlay::engine::unrestricted;
use canon_overlay::policy::ProximityAware;
use canon_overlay::{
    drive, execute, route, route_with_filter, DriveConfig, Greedy, NodeIndex, OverlayGraph,
    RouteError,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// A deterministic sample of (from, to) pairs covering the graph.
fn sample_pairs(g: &OverlayGraph) -> Vec<(NodeIndex, NodeIndex)> {
    (0..g.len().min(10))
        .map(|i| {
            (
                NodeIndex(i as u32),
                NodeIndex(((i * 37 + 11) % g.len()) as u32),
            )
        })
        .filter(|(a, b)| a != b)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With every node alive, a fault-priced `Greedy` drive takes exactly
    /// the greedy path: fallback candidates are never consulted, so the
    /// walk is `route()`'s, with no timeouts and one latency unit per hop.
    #[test]
    fn fault_fallback_all_alive_is_plain_greedy(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        for (a, b) in sample_pairs(g) {
            let plain = route(g, Clockwise, a, b);
            prop_assert!(plain.is_ok(), "greedy route failed: {:?}", plain.err());
            let cfg = DriveConfig {
                alive: |_: NodeIndex| true,
                timeout_cost: 500.0,
                latency: |_: NodeIndex, _: NodeIndex| 1.0,
                stop: |_: NodeIndex| false,
            };
            let driven = drive(g, &Greedy::new(Clockwise, g.id(b)), a, cfg);
            prop_assert!(driven.is_ok());
            let (plain, driven) = (plain.expect("checked"), driven.expect("checked"));
            prop_assert_eq!(
                plain.path(),
                driven.route.path(),
                "fault-priced greedy diverged from greedy with no faults"
            );
            prop_assert!(!driven.exhausted);
            prop_assert_eq!(driven.timeouts, 0);
            prop_assert_eq!(driven.time, plain.hops() as f64);
        }
    }

    /// With zero group bits the proximity-aware rank's group component is
    /// identically zero, so the policy degenerates to clockwise greedy.
    #[test]
    fn proximity_zero_bits_is_plain_greedy(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        for (a, b) in sample_pairs(g) {
            let plain = route(g, Clockwise, a, b);
            prop_assert!(plain.is_ok());
            let policy = ProximityAware::new(0, g.id(b));
            let driven = drive(g, &policy, a, unrestricted());
            prop_assert!(driven.is_ok());
            let (plain, driven) = (plain.expect("checked"), driven.expect("checked"));
            prop_assert_eq!(
                plain.path(),
                driven.route.path(),
                "proximity(t=0) diverged from clockwise greedy"
            );
        }
    }

    /// `Driven`'s accounting agrees with `Route::hops()` on Crescendo
    /// (clockwise metric): the fast path returns `route()`'s path with no
    /// timeouts and zero time, and a drive pricing every hop at one unit
    /// takes the same path in exactly `hops` time.
    #[test]
    fn observer_hops_match_route_hops_crescendo(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        check_observer_hops(net.graph(), Clockwise);
    }

    /// Same invariant on Cacophony's randomized small-world links.
    #[test]
    fn observer_hops_match_route_hops_cacophony(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_cacophony(&h, &p, Seed(seed ^ 0xc0ffee));
        check_observer_hops(net.graph(), Clockwise);
    }

    /// Same invariant on Kandy under the XOR metric.
    #[test]
    fn observer_hops_match_route_hops_kandy(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_kandy(&h, &p, BucketChoice::Closest, Seed(seed ^ 0xbeef));
        check_observer_hops(net.graph(), Xor);
    }

    /// `route_with_filter` is the brute-force greedy walk over the allowed
    /// nodes — the same path on success, the same `Stuck { at, remaining }`
    /// on failure — on Crescendo (clockwise) and Kandy (XOR), under a
    /// random domain fence and a random alive set.
    #[test]
    fn filtered_routing_is_the_reference_walk(
        h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000, dead_in_16 in 0u64..12,
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let crescendo = build_crescendo(&h, &p);
        let kandy = build_kandy(&h, &p, BucketChoice::Closest, Seed(seed ^ 0xbeef));
        let fence = h.all_domains().nth(seed as usize % h.len()).expect("in range");
        let filters = |net: &CanonicalNetwork| {
            let g = net.graph();
            let fenced: BTreeSet<NodeIndex> = net.members_of(&h, fence).into_iter().collect();
            let alive: BTreeSet<NodeIndex> = g
                .node_indices()
                .filter(|i| splitmix64(seed ^ g.id(*i).raw()) % 16 >= dead_in_16)
                .collect();
            [fenced, alive]
        };
        for allowed in filters(&crescendo) {
            check_filtered(crescendo.graph(), Clockwise, &allowed);
        }
        for allowed in filters(&kandy) {
            check_filtered(kandy.graph(), Xor, &allowed);
        }
    }
}

fn check_observer_hops<M: Metric>(g: &OverlayGraph, metric: M) {
    for (a, b) in sample_pairs(g) {
        let r = route(g, metric, a, b).expect("fault-free routing reaches every node");
        let policy = Greedy::new(metric, g.id(b));
        let fast = execute(g, &policy, a).expect("fast path routes");
        assert_eq!(fast.route, r, "execute and route() disagree");
        assert_eq!((fast.exhausted, fast.timeouts, fast.time), (false, 0, 0.0));
        let cfg = DriveConfig {
            alive: |_: NodeIndex| true,
            timeout_cost: 0.0,
            latency: |_: NodeIndex, _: NodeIndex| 1.0,
            stop: |_: NodeIndex| false,
        };
        let priced = drive(g, &policy, a, cfg).expect("priced drive routes");
        assert_eq!(priced.route.hops(), r.hops(), "priced walk took other hops");
        assert_eq!(priced.timeouts, 0, "no faults, no timeouts");
        assert_eq!(priced.time, r.hops() as f64, "one latency unit per hop");
    }
}

/// The greedy walk written out by hand: at each node take the allowed
/// neighbours strictly closer to `b`, move to the nearest, and stop when
/// none is left; success iff the walk stops at `b`.
fn reference_walk<M: Metric>(
    g: &OverlayGraph,
    metric: M,
    a: NodeIndex,
    b: NodeIndex,
    allowed: &BTreeSet<NodeIndex>,
) -> Result<Vec<NodeIndex>, RouteError> {
    let dist = |x: NodeIndex| metric.distance(g.id(x), g.id(b));
    let mut path = vec![a];
    let mut cur = a;
    while let Some(next) = g
        .neighbors(cur)
        .iter()
        .copied()
        .filter(|nb| allowed.contains(nb) && dist(*nb) < dist(cur))
        .min_by_key(|&nb| dist(nb))
    {
        path.push(next);
        cur = next;
    }
    if cur == b {
        Ok(path)
    } else {
        Err(RouteError::Stuck {
            at: cur,
            remaining: dist(cur),
        })
    }
}

/// `route_with_filter` against [`reference_walk`] on the sampled pairs plus
/// pairs of allowed nodes (which a domain fence lets Canon connect).
fn check_filtered<M: Metric>(g: &OverlayGraph, metric: M, allowed: &BTreeSet<NodeIndex>) {
    let inside = allowed.iter().zip(allowed.iter().rev()).take(5);
    let pairs = sample_pairs(g)
        .into_iter()
        .chain(inside.map(|(&a, &b)| (a, b)))
        .filter(|(a, b)| a != b);
    for (a, b) in pairs {
        let got = route_with_filter(g, metric, a, b, |x| allowed.contains(&x));
        assert_eq!(
            got.map(|r| r.path().to_vec()),
            reference_walk(g, metric, a, b, allowed),
            "filtered route {a} -> {b} diverges from the reference walk"
        );
    }
}
