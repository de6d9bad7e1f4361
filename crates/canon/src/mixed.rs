//! Heterogeneous per-level routing structures (paper §3.5).
//!
//! Canon places no requirement that the same structure be used at every
//! hierarchy level. The paper's example: nodes of one LAN (a leaf domain)
//! can exploit cheap local broadcast to maintain a *complete graph* among
//! themselves, while higher levels merge via the ordinary Crescendo rule —
//! each node's merge links must simply be shorter than the distance to its
//! closest LAN neighbor. Routing at the leaf takes one hop; above that it
//! is standard greedy clockwise routing.
//!
//! [`LanRule`] wraps any inner [`LinkRule`] and substitutes the complete
//! graph at the leaf level.

use crate::crescendo::CrescendoRule;
use crate::engine::{build_canonical, CanonicalNetwork, LevelCtx, LinkRule};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance,
};

/// A rule that connects leaf domains as complete graphs and delegates every
/// higher level to `inner`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LanRule<R> {
    inner: R,
}

impl<R> LanRule<R> {
    /// Wraps `inner`, replacing its leaf-level structure with a complete
    /// graph per leaf domain.
    pub fn new(inner: R) -> Self {
        LanRule { inner }
    }
}

impl<R: LinkRule> LinkRule for LanRule<R> {
    type M = R::M;
    type NodeState = R::NodeState;

    fn metric(&self) -> R::M {
        self.inner.metric()
    }

    fn links(
        &self,
        ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        bound: RingDistance,
        rng: &mut DetRng,
        state: &mut R::NodeState,
        out: &mut Vec<NodeId>,
    ) {
        if ctx.is_leaf_level {
            out.extend(ring.iter().copied().filter(|&other| other != me));
        } else {
            self.inner.links(ctx, ring, me, bound, rng, state, out);
        }
    }
}

/// Builds the paper's LAN example: complete graphs per leaf domain, merged
/// upward with the Crescendo rule.
pub fn build_lan_crescendo(hierarchy: &Hierarchy, placement: &Placement) -> CanonicalNetwork {
    build_canonical(hierarchy, placement, &LanRule::new(CrescendoRule), Seed(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::DomainMembership;
    use canon_id::{metric::Clockwise, rng::Seed};
    use canon_overlay::{route, stats, NodeIndex};
    use rand::Rng;

    fn build(n: usize) -> (Hierarchy, Placement, CanonicalNetwork) {
        let h = Hierarchy::balanced(8, 3);
        let p = Placement::uniform(&h, n, Seed(51));
        let net = build_lan_crescendo(&h, &p);
        (h, p, net)
    }

    #[test]
    fn leaf_domains_are_complete_graphs() {
        let (h, p, net) = build(256);
        let members = DomainMembership::build(&h, &p);
        let g = net.graph();
        for leaf in h.leaves() {
            let ring = members.ring(leaf);
            for &a in ring.as_slice() {
                let ia = g.index_of(a).unwrap();
                for &b in ring.as_slice() {
                    if a == b {
                        continue;
                    }
                    let ib = g.index_of(b).unwrap();
                    assert!(
                        g.neighbors(ia).contains(&ib),
                        "LAN link {a} -> {b} missing in {leaf}"
                    );
                }
            }
        }
    }

    #[test]
    fn intra_lan_routing_is_one_hop() {
        let (h, p, net) = build(256);
        let members = DomainMembership::build(&h, &p);
        let g = net.graph();
        for leaf in h.leaves().into_iter().take(5) {
            let ring = members.ring(leaf);
            if ring.len() < 2 {
                continue;
            }
            let a = g.index_of(ring.as_slice()[0]).unwrap();
            let b = g.index_of(*ring.as_slice().last().unwrap()).unwrap();
            let r = route(g, Clockwise, a, b).unwrap();
            assert_eq!(r.hops(), 1, "LAN route took {} hops", r.hops());
        }
    }

    #[test]
    fn global_routing_still_works() {
        let (_, _, net) = build(300);
        let g = net.graph();
        let mut rng = Seed(52).rng();
        for _ in 0..200 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(g, Clockwise, a, b).unwrap();
            assert_eq!(r.target(), b);
        }
    }

    #[test]
    fn merge_links_still_respect_bounds() {
        let (h, p, net) = build(200);
        let members = DomainMembership::build(&h, &p);
        let g = net.graph();
        for i in g.node_indices() {
            let me = g.id(i);
            let leaf_ring = members.ring(net.leaf_of(i));
            let bound = leaf_ring.clockwise_gap(me);
            for &nb in g.neighbors(i) {
                let other = g.id(nb);
                if !leaf_ring.contains(other) {
                    assert!((me.clockwise_to(other) as u128) < bound.as_u128());
                }
            }
        }
    }

    #[test]
    fn degree_reflects_lan_size_plus_log() {
        let (h, p, net) = build(512);
        let members = DomainMembership::build(&h, &p);
        let g = net.graph();
        let d = stats::DegreeStats::of(g);
        let mean_lan = h.leaves().iter().map(|&l| members.size(l)).sum::<usize>() as f64
            / h.leaves().len() as f64;
        // Expect roughly (LAN size - 1) + O(log n) merge links.
        assert!(d.summary.mean >= mean_lan - 1.0, "mean {}", d.summary.mean);
        assert!(d.summary.mean < mean_lan + 14.0, "mean {}", d.summary.mean);
    }
}
