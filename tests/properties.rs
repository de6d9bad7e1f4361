//! Property-based integration tests: Canon's invariants hold over random
//! hierarchy shapes, placements and churn sequences.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::rng::{random_ids, Seed};
use canon_overlay::{route, route_with_filter};
use canon_sim::CrescendoSim;
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

fn place(h: &Hierarchy, n: usize, seed: u64) -> Placement {
    Placement::uniform(h, n, Seed(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Global routing succeeds between every sampled pair on any shape.
    #[test]
    fn crescendo_routes_on_any_hierarchy(h in arb_hierarchy(), n in 8usize..120, seed in 0u64..1000) {
        let p = place(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        for i in 0..g.len().min(12) {
            let a = canon_overlay::NodeIndex(i as u32);
            let b = canon_overlay::NodeIndex(((i * 31 + 7) % g.len()) as u32);
            if a == b { continue; }
            let r = route(g, Clockwise, a, b);
            prop_assert!(r.is_ok(), "route failed: {:?}", r.err());
            prop_assert_eq!(r.expect("checked").target(), b);
        }
    }

    /// Path locality: the route between two members of any domain equals
    /// the route computed with everything outside the domain removed.
    #[test]
    fn intra_domain_locality_on_any_hierarchy(h in arb_hierarchy(), n in 8usize..100, seed in 0u64..1000) {
        let p = place(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        for d in h.all_domains() {
            let members = net.members_of(&h, d);
            if members.len() < 2 { continue; }
            let set: std::collections::HashSet<_> = members.iter().copied().collect();
            let a = members[0];
            let b = members[members.len() / 2];
            if a == b { continue; }
            let free = route(g, Clockwise, a, b);
            prop_assert!(free.is_ok());
            let fenced = route_with_filter(g, Clockwise, a, b, |x| set.contains(&x));
            prop_assert!(fenced.is_ok());
            prop_assert_eq!(free.expect("ok"), fenced.expect("ok"));
        }
    }

    /// Convergence: routes from any two domain members to the same outside
    /// destination exit the domain through the same node.
    #[test]
    fn inter_domain_convergence(h in arb_hierarchy(), n in 12usize..100, seed in 0u64..1000) {
        let p = place(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        for d in h.domains_at_depth(1) {
            let members = net.members_of(&h, d);
            let outside: Vec<_> = g
                .node_indices()
                .filter(|&i| !h.is_ancestor_or_self(d, net.leaf_of(i)))
                .collect();
            if members.len() < 2 || outside.is_empty() { continue; }
            let x = outside[0];
            let exits: BTreeSet<_> = members
                .iter()
                .take(6)
                .filter(|&&s| s != x)
                .filter_map(|&s| {
                    let r = route(g, Clockwise, s, x).ok()?;
                    r.path()
                        .iter()
                        .rev()
                        .find(|&&v| h.is_ancestor_or_self(d, net.leaf_of(v)))
                        .copied()
                })
                .collect();
            prop_assert!(exits.len() <= 1, "routes exited {d} via {exits:?}");
        }
    }

    /// Dynamic maintenance equals static construction after arbitrary
    /// join/leave/crash-then-repair interleavings — byte for byte: ids,
    /// CSR arrays, ring and `NextHopIndex`, not merely the edge sets.
    #[test]
    fn churn_equivalence(ops in proptest::collection::vec(0u8..5, 10..60), seed in 0u64..500) {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 3);
        let ids = random_ids(Seed(seed), 80);
        let mut next = 0usize;
        let mut live: Vec<_> = Vec::new();
        for op in ops {
            if op == 3 && live.len() > 2 {
                let gone = live.remove(live.len() / 2);
                sim.leave(gone);
            } else if op == 4 && live.len() > 2 {
                let gone = live.remove(live.len() / 3);
                sim.crash(gone);
                sim.repair();
            } else if next < ids.len() {
                let leaf = leaves[(op as usize) % leaves.len()];
                sim.join(ids[next], leaf);
                live.push(ids[next]);
                next += 1;
            }
        }
        if live.is_empty() { return Ok(()); }
        let static_net = build_crescendo(&h, &sim.placement());
        prop_assert_eq!(&sim.snapshot(), static_net.graph());
    }

    /// Degree stays within Theorem 2's bound on random shapes. The theorem
    /// bounds the *expectation*; a single small sample fluctuates, so we
    /// allow one link of slack and keep n away from trivial sizes.
    #[test]
    fn degree_bound_holds(h in arb_hierarchy(), n in 48usize..200, seed in 0u64..1000) {
        let p = place(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let mean = canon_overlay::stats::DegreeStats::of(net.graph()).summary.mean;
        let l = f64::from(h.levels());
        let bound = ((n - 1) as f64).log2() + l.min((n as f64).log2()) + 1.0;
        prop_assert!(mean <= bound, "mean {mean} > bound {bound}");
    }
}

/// Deterministic regression: domain ids are stable across clones.
#[test]
fn members_of_is_consistent_with_placement() {
    let h = Hierarchy::balanced(3, 3);
    let p = Placement::uniform(&h, 120, Seed(1));
    let net = build_crescendo(&h, &p);
    for (id, leaf) in p.iter() {
        let idx = net.graph().index_of(id).expect("in graph");
        assert_eq!(net.leaf_of(idx), leaf);
        let chain: Vec<DomainId> = h.ancestors(leaf).collect();
        for d in chain {
            assert!(net.members_of(&h, d).contains(&idx));
        }
    }
}
