//! Cacophony — the Canonical version of Symphony (paper §3.1).
//!
//! Each node draws `⌊log2 n_l⌋` harmonic links within its leaf ring, then at
//! every higher level draws `⌊log2 n_level⌋` candidates over the merged ring
//! and retains only those closer than its successor at the lower level,
//! adding a link to its successor at the new level. Both Symphony and
//! Cacophony support greedy routing with a one-step lookahead
//! ([`canon_symphony::route_with_lookahead`]) for ~40% fewer hops. Flat
//! Symphony is the one-domain case ([`build_symphony`]).

use crate::engine::{build_canonical, build_flat, CanonicalNetwork, LevelCtx, LinkRule};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    metric::Clockwise,
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance,
};
use canon_overlay::OverlayGraph;
use canon_symphony::symphony_links_bounded;

/// The Cacophony link rule: Symphony's harmonic rule in bounded form.
/// Harmonic draws come from the per-node RNG the engine supplies.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacophonyRule;

impl LinkRule for CacophonyRule {
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
        symphony_links_bounded(ring, me, bound, rng, out);
    }
}

/// Builds Cacophony over `hierarchy`/`placement`.
///
/// With a one-level hierarchy this is flat Symphony (up to RNG stream
/// labels). Routable with [`Clockwise`] greedy routing, or with
/// [`canon_symphony::route_with_lookahead`].
pub fn build_cacophony(
    hierarchy: &Hierarchy,
    placement: &Placement,
    seed: Seed,
) -> CanonicalNetwork {
    build_canonical(
        hierarchy,
        placement,
        &CacophonyRule,
        seed.derive("cacophony"),
    )
}

/// Builds flat Symphony over `ids`: Cacophony over one domain.
///
/// Routable with [`Clockwise`]; see [`canon_symphony::route_with_lookahead`]
/// for the improved router. The graph is a pure function of `(ids, seed)`.
pub fn build_symphony(ids: &[NodeId], seed: Seed) -> OverlayGraph {
    build_flat(ids, &CacophonyRule, seed.derive("symphony"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::Seed;
    use canon_overlay::{route_with_filter, stats, NodeIndex};
    use canon_symphony::route_with_lookahead;
    use rand::Rng;

    fn net(n: usize, levels: u32) -> (Hierarchy, CanonicalNetwork) {
        let h = Hierarchy::balanced(4, levels);
        let p = Placement::zipf(&h, n, Seed(21));
        let net = build_cacophony(&h, &p, Seed(22));
        (h, net)
    }

    #[test]
    fn cacophony_routes_globally() {
        let (_, net) = net(500, 3);
        let s = stats::hop_stats(net.graph(), Clockwise, 300, Seed(23)).unwrap();
        assert!(s.mean < 20.0, "mean hops {}", s.mean);
    }

    #[test]
    fn degree_is_logarithmic() {
        let (_, net) = net(1024, 3);
        let d = stats::DegreeStats::of(net.graph());
        // Budget: log2 draws per level plus successors, minus bound
        // rejections; stays O(log n).
        assert!(
            d.summary.mean > 4.0 && d.summary.mean < 16.0,
            "mean degree {}",
            d.summary.mean
        );
    }

    #[test]
    fn intra_domain_routing_is_isolated() {
        let (h, net) = net(400, 3);
        let g = net.graph();
        let mut rng = Seed(24).rng();
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
                route_with_filter(g, Clockwise, a, b, |n| set.contains(&n))
                    .unwrap_or_else(|e| panic!("intra-domain route failed: {e}"));
            }
        }
    }

    #[test]
    fn lookahead_works_on_cacophony() {
        let (_, net) = net(600, 2);
        let g = net.graph();
        let mut rng = Seed(25).rng();
        let mut greedy = 0usize;
        let mut look = 0usize;
        for _ in 0..150 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            greedy += canon_overlay::route(g, Clockwise, a, b).unwrap().hops();
            let r = route_with_lookahead(g, a, b).unwrap();
            assert_eq!(r.target(), b);
            look += r.hops();
        }
        assert!(look <= greedy, "lookahead {look} > greedy {greedy}");
    }

    #[test]
    fn construction_is_reproducible() {
        let h = Hierarchy::balanced(3, 2);
        let p = Placement::uniform(&h, 128, Seed(26));
        let a = build_cacophony(&h, &p, Seed(1));
        let b = build_cacophony(&h, &p, Seed(1));
        assert_eq!(
            a.graph().edges().collect::<Vec<_>>(),
            b.graph().edges().collect::<Vec<_>>()
        );
    }
}
