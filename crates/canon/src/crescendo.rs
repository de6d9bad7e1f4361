//! Crescendo — the Canonical version of Chord (paper §2) — and
//! nondeterministic Crescendo (§3.2), with flat Chord and nondeterministic
//! Chord as their one-domain cases.

use crate::engine::{build_canonical, build_flat, CanonicalNetwork, LevelCtx, LinkRule};
use canon_chord::{chord_links_bounded, nondet_links_bounded};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    metric::Clockwise,
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance,
};
use canon_overlay::OverlayGraph;

/// The Crescendo link rule: deterministic Chord's rule in bounded form.
///
/// At the leaf level this is exactly Chord within the leaf ring; at merge
/// levels it adds, per the paper's conditions (a) and (b), links to the
/// closest node at distance `≥ 2^k` over the merged ring whenever that node
/// is closer than any node of the own ring.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrescendoRule;

impl LinkRule for CrescendoRule {
    type M = Clockwise;
    type NodeState = ();

    fn metric(&self) -> Clockwise {
        Clockwise
    }

    fn links(
        &self,
        _ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        bound: RingDistance,
        _rng: &mut DetRng,
        _state: &mut (),
        out: &mut Vec<NodeId>,
    ) {
        chord_links_bounded(ring, me, bound, out);
    }
}

/// Builds Crescendo over `hierarchy`/`placement`.
///
/// With a one-level hierarchy the result is exactly flat Chord. Routing
/// uses [`Clockwise`] greedy routing; paths are hierarchical automatically
/// (§2.2). The rule is deterministic, so no seed is taken.
pub fn build_crescendo(hierarchy: &Hierarchy, placement: &Placement) -> CanonicalNetwork {
    build_canonical(hierarchy, placement, &CrescendoRule, Seed(0))
}

/// Builds flat deterministic Chord over `ids`: Crescendo over one domain.
///
/// Routing on the result uses the clockwise metric. Every node links to its
/// successor (the `k = 0` rule), so greedy clockwise routing always
/// terminates at the destination.
pub fn build_chord(ids: &[NodeId]) -> OverlayGraph {
    build_flat(ids, &CrescendoRule, Seed(0))
}

/// The nondeterministic Crescendo rule (§3.2): for each `k` a uniformly
/// random node at distance in `[2^k, min(2^(k+1), bound))` — the paper's
/// point that the nondeterministic choice "may only be exercised among
/// nodes closer than any node in its own ring".
#[derive(Clone, Copy, Debug, Default)]
pub struct NondetCrescendoRule;

impl LinkRule for NondetCrescendoRule {
    type M = Clockwise;
    type NodeState = ();

    fn metric(&self) -> Clockwise {
        Clockwise
    }

    fn links(
        &self,
        _ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        bound: RingDistance,
        rng: &mut DetRng,
        _state: &mut (),
        out: &mut Vec<NodeId>,
    ) {
        let start = out.len();
        nondet_links_bounded(ring, me, bound, rng, out);
        // Force the in-ring successor (when within the bound) so greedy
        // clockwise routing stays live at every level.
        if let Some(s) = ring.strict_successor(me) {
            if s != me
                && (me.clockwise_to(s) as u128) < bound.as_u128()
                && !out[start..].contains(&s)
            {
                out.push(s);
            }
        }
    }
}

/// Builds nondeterministic Crescendo over `hierarchy`/`placement`.
pub fn build_nondet_crescendo(
    hierarchy: &Hierarchy,
    placement: &Placement,
    seed: Seed,
) -> CanonicalNetwork {
    build_canonical(
        hierarchy,
        placement,
        &NondetCrescendoRule,
        seed.derive("nondet-crescendo"),
    )
}

/// Builds flat nondeterministic Chord over `ids`: nondeterministic
/// Crescendo over one domain.
///
/// For each distance band `[2^k, 2^(k+1))` every node links to one
/// uniformly random member; the successor link is additionally forced so
/// that greedy routing is always live, matching deployed
/// nondeterministic-Chord systems. The graph is a pure function of
/// `(ids, seed)`.
pub fn build_nondet_chord(ids: &[NodeId], seed: Seed) -> OverlayGraph {
    build_flat(ids, &NondetCrescendoRule, seed.derive("nondet-chord"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::DomainMembership;

    use canon_overlay::{route, route_with_filter, stats, NodeIndex};
    use rand::Rng;

    fn zipf_net(n: usize, levels: u32, seed: u64) -> (Hierarchy, Placement, CanonicalNetwork) {
        let h = Hierarchy::balanced(4, levels);
        let p = Placement::zipf(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        (h, p, net)
    }

    #[test]
    fn paper_figure2_merge() {
        // Figure 2: ring A = {0,5,10,12}, ring B = {2,3,8,13}. Check the
        // merge links the paper derives: 0 → 2 (only), 8 → {10, 12}, and
        // node 2 adds none.
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "A");
        let b = h.add_domain(h.root(), "B");
        let mut pairs = Vec::new();
        for raw in [0u64, 5, 10, 12] {
            pairs.push((NodeId::new(raw), a));
        }
        for raw in [2u64, 3, 8, 13] {
            pairs.push((NodeId::new(raw), b));
        }
        let p = Placement::from_pairs(&h, pairs);
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        let idx = |raw: u64| g.index_of(NodeId::new(raw)).unwrap();

        // Node 0's cross-ring links: exactly {2}.
        let cross0: Vec<u64> = g
            .neighbors(idx(0))
            .iter()
            .map(|&i| g.id(i).raw())
            .filter(|r| [2u64, 3, 8, 13].contains(r))
            .collect();
        assert_eq!(cross0, vec![2]);
        // No link 0 → 3 (the paper calls this out explicitly).
        assert!(!g.neighbors(idx(0)).contains(&idx(3)));

        // Node 8's cross-ring links: exactly {10, 12} (0 ruled out).
        let mut cross8: Vec<u64> = g
            .neighbors(idx(8))
            .iter()
            .map(|&i| g.id(i).raw())
            .filter(|r| [0u64, 5, 10, 12].contains(r))
            .collect();
        cross8.sort_unstable();
        assert_eq!(cross8, vec![10, 12]);

        // Node 2 (successor 3 at distance 1) adds no cross-ring links.
        let cross2: Vec<u64> = g
            .neighbors(idx(2))
            .iter()
            .map(|&i| g.id(i).raw())
            .filter(|r| [0u64, 5, 10, 12].contains(r))
            .collect();
        assert!(
            cross2.is_empty(),
            "node 2 must add no merge links, got {cross2:?}"
        );
    }

    #[test]
    fn crescendo_matches_bruteforce_definition() {
        // Independent re-derivation of the full link set for a small
        // hierarchy, straight from the paper's conditions (a) + (b).
        let h = Hierarchy::balanced(3, 3);
        let p = Placement::uniform(&h, 60, Seed(3));
        let net = build_crescendo(&h, &p);
        let members = DomainMembership::build(&h, &p);
        let g = net.graph();

        for (id, leaf) in p.iter() {
            let mut expected: Vec<NodeId> = Vec::new();
            let path = h.path_from_root(leaf);
            let mut own: Option<&SortedRing> = None;
            for &d in path.iter().rev() {
                let ring = members.ring(d);
                let bound = own.map_or(RingDistance::FULL_CIRCLE, |r| r.clockwise_gap(id));
                for k in 0..64u32 {
                    if (1u128 << k) >= bound.as_u128() {
                        break;
                    }
                    let s = ring.successor(id.offset(1u64 << k)).unwrap();
                    if s == id {
                        continue;
                    }
                    let dist = id.clockwise_to(s) as u128;
                    if dist >= (1u128 << k) && dist < bound.as_u128() && !expected.contains(&s) {
                        expected.push(s);
                    }
                }
                own = Some(ring);
            }
            expected.sort_unstable();
            let gi = g.index_of(id).unwrap();
            let mut got: Vec<NodeId> = g.neighbors(gi).iter().map(|&i| g.id(i)).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "link set mismatch for {id}");
        }
    }

    #[test]
    fn global_routing_works() {
        let (_, _, net) = zipf_net(400, 3, 4);
        let s = stats::hop_stats(net.graph(), Clockwise, 400, Seed(5)).unwrap();
        // Theorem 5: expected hops <= log2(n-1) + 1; empirically ~0.5 log n.
        assert!(s.mean <= (399f64).log2() + 1.0, "mean hops {}", s.mean);
    }

    #[test]
    fn degree_within_theorem_2_bound() {
        let (h, _, net) = zipf_net(600, 4, 6);
        let d = stats::DegreeStats::of(net.graph());
        let l = f64::from(h.levels());
        let bound = (599f64).log2() + l.min((600f64).log2());
        assert!(
            d.summary.mean <= bound,
            "mean degree {} > {bound}",
            d.summary.mean
        );
    }

    #[test]
    fn intra_domain_paths_never_leave_the_domain() {
        // The paper's fault-isolation property (§2.2): restrict routing to
        // the members of any domain; intra-domain routes must still work.
        let (h, _, net) = zipf_net(300, 3, 7);
        let g = net.graph();
        let mut rng = Seed(8).rng();
        for d in h.all_domains() {
            let members = net.members_of(&h, d);
            if members.len() < 2 {
                continue;
            }
            let member_set: std::collections::HashSet<NodeIndex> =
                members.iter().copied().collect();
            for _ in 0..10 {
                let a = members[rng.gen_range(0..members.len())];
                let b = members[rng.gen_range(0..members.len())];
                if a == b {
                    continue;
                }
                let r = route_with_filter(g, Clockwise, a, b, |n| member_set.contains(&n))
                    .unwrap_or_else(|e| panic!("intra-domain route failed in {d}: {e}"));
                // Stronger: the *unrestricted* route is identical, i.e. the
                // greedy route naturally stays inside.
                let free = route(g, Clockwise, a, b).unwrap();
                assert_eq!(r, free, "unrestricted route left domain {d}");
            }
        }
    }

    #[test]
    fn inter_domain_paths_converge_at_closest_predecessor() {
        // §2.2: all routes from nodes of domain D to an outside node x exit
        // D through the closest predecessor of x within D.
        let (h, p, net) = zipf_net(300, 3, 9);
        let g = net.graph();
        let members_ring = DomainMembership::build(&h, &p);
        let mut rng = Seed(10).rng();
        let depth1 = h.domains_at_depth(1);
        for &d in depth1.iter().take(3) {
            let members = net.members_of(&h, d);
            if members.len() < 3 {
                continue;
            }
            // A destination outside d.
            let outside: Vec<NodeIndex> = g
                .node_indices()
                .filter(|&i| !h.is_ancestor_or_self(d, net.leaf_of(i)))
                .collect();
            if outside.is_empty() {
                continue;
            }
            let x = outside[rng.gen_range(0..outside.len())];
            let exit_expected = members_ring
                .ring(d)
                .strict_predecessor(g.id(x))
                .expect("domain is nonempty");
            for _ in 0..8 {
                let s = members[rng.gen_range(0..members.len())];
                if s == x {
                    continue;
                }
                let r = route(g, Clockwise, s, x).unwrap();
                // Last node of the path that is still inside d:
                let exit = r
                    .path()
                    .iter()
                    .rev()
                    .find(|&&n| h.is_ancestor_or_self(d, net.leaf_of(n)))
                    .copied();
                if let Some(exit) = exit {
                    assert_eq!(
                        g.id(exit),
                        exit_expected,
                        "route from {s} exited {d} at the wrong node"
                    );
                }
            }
        }
    }

    #[test]
    fn nondet_crescendo_routes_and_is_seeded() {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::uniform(&h, 256, Seed(11));
        let a = build_nondet_crescendo(&h, &p, Seed(1));
        let b = build_nondet_crescendo(&h, &p, Seed(1));
        assert_eq!(
            a.graph().edges().collect::<Vec<_>>(),
            b.graph().edges().collect::<Vec<_>>()
        );
        let s = stats::hop_stats(a.graph(), Clockwise, 200, Seed(12)).unwrap();
        assert!(s.mean < 12.0, "mean hops {}", s.mean);
    }

    #[test]
    fn deeper_hierarchies_have_no_more_links() {
        // Figure 3's headline: average degree decreases (slightly) as the
        // number of levels grows.
        let n = 1024;
        let flat = {
            let h = Hierarchy::balanced(10, 1);
            let p = Placement::zipf(&h, n, Seed(13));
            stats::DegreeStats::of(build_crescendo(&h, &p).graph())
                .summary
                .mean
        };
        let deep = {
            let h = Hierarchy::balanced(10, 4);
            let p = Placement::zipf(&h, n, Seed(13));
            stats::DegreeStats::of(build_crescendo(&h, &p).graph())
                .summary
                .mean
        };
        assert!(
            deep <= flat + 0.2,
            "4-level degree {deep} clearly exceeds flat degree {flat}"
        );
    }
}
