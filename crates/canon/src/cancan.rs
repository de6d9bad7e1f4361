//! Can-Can — the Canonical version of CAN (paper §3.4), in the
//! equal-length-identifier hypercube formulation.
//!
//! The paper's CAN generalization views identifiers as a binary prefix tree
//! and edges as hypercube edges; after padding to equal length, the edge
//! rule for dimension `i` is "link to a node in the sibling subtree at bit
//! `i`" and routing is left-to-right bit fixing — greedy under XOR. With
//! full-length identifiers (this module), a node's CAN edge for dimension
//! `i` targets the *owner* of the bit-flipped point: the node XOR-closest
//! to `me.flip_bit(i)`.
//!
//! Can-Can applies the rule per level: "a node creates a link at a higher
//! level only if it is a valid CAN edge and is shorter than the shortest
//! link at the lower level". As with Kandy, we read the restriction
//! **per dimension**: the link for dimension `i` is created at the lowest
//! level whose ring has a non-empty sibling subtree for bit `i`, and
//! higher-level candidates for covered dimensions are discarded. This
//! keeps out-degree at the flat log-dimensional-CAN level, preserves
//! bit-fixing routability, and points links into the lowest (most local)
//! possible domain.
//!
//! Flat CAN is this rule over a single domain ([`build_cancan`] on a
//! one-level hierarchy). The paper's other formulation — join-time zone
//! splitting with variable-length zone identifiers — has, as it notes,
//! almost identical properties, and is not built here.

use crate::engine::{build_canonical, CanonicalNetwork, LevelCtx, LinkRule};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    metric::Xor,
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance, ID_BITS,
};

/// The Can-Can link rule: per-dimension, lowest-level-first hypercube
/// edges. The dimensions covered at lower levels live in the per-node
/// `NodeState` bitmap (fresh — all zeros — at each node's leaf).
#[derive(Clone, Copy, Debug, Default)]
pub struct CanCanRule;

impl LinkRule for CanCanRule {
    type M = Xor;
    /// Bitmap of dimensions already covered at lower levels.
    type NodeState = u64;

    fn metric(&self) -> Xor {
        Xor
    }

    fn links(
        &self,
        _ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        _bound: RingDistance,
        _rng: &mut DetRng,
        covered: &mut u64,
        out: &mut Vec<NodeId>,
    ) {
        for i in 0..ID_BITS {
            if *covered & (1u64 << i) != 0 {
                continue;
            }
            let target = me.flip_bit(i);
            let Some(owner) = ring.xor_closest_excluding(target, me) else {
                continue;
            };
            // A valid CAN edge for dimension i lands in the sibling subtree:
            // the owner's top differing bit with `me` must be exactly i.
            if me.xor_to(owner).leading_zeros() != i {
                continue; // sibling subtree empty at this level
            }
            out.push(owner);
            *covered |= 1u64 << i;
        }
    }
}

/// Builds Can-Can over `hierarchy`/`placement`. The rule is deterministic,
/// so no seed is taken.
pub fn build_cancan(hierarchy: &Hierarchy, placement: &Placement) -> CanonicalNetwork {
    build_canonical(hierarchy, placement, &CanCanRule, Seed(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::DomainMembership;
    use canon_id::rng::Seed;
    use canon_overlay::{route, route_with_filter, stats, NodeIndex};
    use rand::Rng;

    fn net(n: usize, levels: u32) -> (Hierarchy, Placement, CanonicalNetwork) {
        let h = Hierarchy::balanced(4, levels);
        let p = Placement::zipf(&h, n, Seed(41));
        let net = build_cancan(&h, &p);
        (h, p, net)
    }

    #[test]
    fn flat_cancan_routes_everywhere() {
        let h = Hierarchy::balanced(4, 1);
        let p = Placement::uniform(&h, 256, Seed(42));
        let net = build_cancan(&h, &p);
        let g = net.graph();
        let mut rng = Seed(43).rng();
        for _ in 0..300 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(g, Xor, a, b).unwrap();
            assert_eq!(r.target(), b);
        }
    }

    #[test]
    fn hierarchical_cancan_routes_all_pairs() {
        let (_, _, net) = net(400, 3);
        let g = net.graph();
        let mut rng = Seed(44).rng();
        for _ in 0..500 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(g, Xor, a, b).unwrap();
            assert_eq!(r.target(), b);
        }
    }

    #[test]
    fn one_link_per_distinguishable_dimension() {
        let (h, p, net) = net(300, 3);
        let members = DomainMembership::build(&h, &p);
        let root_ring = members.ring(h.root());
        let g = net.graph();
        for i in g.node_indices() {
            let me = g.id(i);
            // A dimension is distinguishable iff the global sibling subtree
            // at that bit is non-empty; that equals the number of non-empty
            // XOR buckets (bit j ↔ bucket 63-j).
            let dims = (0..ID_BITS)
                .filter(|&k| !root_ring.xor_bucket(me, k).is_empty())
                .count();
            assert_eq!(g.degree(i), dims, "node {me}");
        }
    }

    #[test]
    fn intra_domain_paths_stay_local() {
        let (h, _, net) = net(400, 3);
        let g = net.graph();
        let mut rng = Seed(45).rng();
        for d in h.domains_at_depth(1) {
            let members = net.members_of(&h, d);
            if members.len() < 2 {
                continue;
            }
            let set: std::collections::HashSet<NodeIndex> = members.iter().copied().collect();
            for _ in 0..6 {
                let a = members[rng.gen_range(0..members.len())];
                let b = members[rng.gen_range(0..members.len())];
                if a == b {
                    continue;
                }
                let free = route(g, Xor, a, b).unwrap();
                let fenced = route_with_filter(g, Xor, a, b, |n| set.contains(&n)).unwrap();
                assert_eq!(free, fenced, "route left domain {d}");
            }
        }
    }

    #[test]
    fn degree_is_logarithmic() {
        let (_, _, net) = net(1024, 2);
        let d = stats::DegreeStats::of(net.graph());
        assert!(
            d.summary.mean > 4.0 && d.summary.mean < 14.0,
            "mean degree {}",
            d.summary.mean
        );
    }

    #[test]
    fn two_nodes_link_mutually() {
        let h = Hierarchy::balanced(2, 1);
        let p = Placement::from_pairs(
            &h,
            vec![
                (NodeId::new(0b1010 << 60), h.root()),
                (NodeId::new(0b0101 << 60), h.root()),
            ],
        );
        let net = build_cancan(&h, &p);
        assert_eq!(net.graph().link_count(), 2);
    }
}
