//! The Symphony link rule (paper §3.1): a randomized small-world ring.
//!
//! Symphony (Manku, Bawa, Raghavan — USITS 2003) gives each node
//! `⌊log2 n⌋` long links, each drawn independently with probability
//! inversely proportional to clockwise distance (the *harmonic*
//! distribution), plus a link to its immediate successor. Greedy clockwise
//! routing takes `O(log² n / k)` hops with `k` links; with one step of
//! *lookahead* (considering neighbors' neighbors) it achieves
//! `O(log n / log log n)` — about 40% fewer hops in practice, a property
//! Cacophony inherits (§3.1).
//!
//! As with Chord, this crate holds the per-ring rule in bounded form
//! ([`symphony_links_bounded`]) plus the lookahead router; the `canon` crate
//! assembles Cacophony from the rule over a hierarchy and flat Symphony
//! (`canon::cacophony::build_symphony`) from it over a single domain.

#![forbid(unsafe_code)]

use canon_id::{
    ring::SortedRing,
    rng::{harmonic_distance, DetRng},
    NodeId, RingDistance,
};
use canon_overlay::engine::unrestricted;
use canon_overlay::policy::Lookahead1;
use canon_overlay::{drive, NodeIndex, OverlayGraph, Route, RouteError};

/// Number of long links Symphony grants a node in a ring of `n` nodes:
/// `⌊log2 n⌋` (zero for `n < 2`).
pub fn link_budget(n: usize) -> usize {
    if n < 2 {
        0
    } else {
        (usize::BITS - 1 - n.leading_zeros()) as usize
    }
}

/// The Symphony link rule over `ring`, restricted to links strictly shorter
/// than `bound`.
///
/// Draws [`link_budget`]`(ring.len())` harmonic distances scaled to the ring
/// size; each candidate is the successor of `me + d` and is kept only if its
/// clockwise distance from `me` is below `bound` (paper §3.1: at higher
/// levels a node "retains only those links that are closer than its
/// successor at the lower level"). The successor of `me` within `ring` is
/// always appended when it is strictly closer than `bound`. The links are
/// appended to `out`, each once.
pub fn symphony_links_bounded(
    ring: &SortedRing,
    me: NodeId,
    bound: RingDistance,
    rng: &mut DetRng,
    out: &mut Vec<NodeId>,
) {
    let n = ring.len();
    let start = out.len();
    if n >= 2 {
        for _ in 0..link_budget(n) {
            let d = harmonic_distance(rng, n);
            let Some(s) = ring.successor(me.offset(d)) else {
                break;
            };
            if s == me {
                continue;
            }
            let dist = me.clockwise_to(s) as u128;
            if dist < bound.as_u128() && !out[start..].contains(&s) {
                out.push(s);
            }
        }
    }
    if let Some(s) = ring.strict_successor(me) {
        if s != me && (me.clockwise_to(s) as u128) < bound.as_u128() && !out[start..].contains(&s) {
            out.push(s);
        }
    }
}

/// Greedy clockwise routing with one step of lookahead (paper §3.1).
///
/// At each hop the node examines every pair (neighbor, neighbor's neighbor)
/// and takes the first step of the pair that ends closest to the
/// destination, provided the pair makes strict progress; it falls back to
/// plain greedy when lookahead offers no progress. Implemented as the
/// [`Lookahead1`] policy on the shared routing engine.
///
/// # Errors
///
/// * [`RouteError::Stuck`] if neither lookahead nor greedy can progress.
/// * [`RouteError::HopLimit`] on malformed graphs.
pub fn route_with_lookahead(
    graph: &OverlayGraph,
    from: NodeIndex,
    to: NodeIndex,
) -> Result<Route, RouteError> {
    let target = graph.id(to);
    let r = drive(graph, &Lookahead1::new(target), from, unrestricted())?.route;
    if r.target() != to {
        let at = r.target();
        return Err(RouteError::Stuck {
            at,
            remaining: graph.id(at).clockwise_to(target),
        });
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::{random_ids, Seed};

    fn links(ring: &SortedRing, me: NodeId, bound: RingDistance, rng: &mut DetRng) -> Vec<NodeId> {
        let mut out = Vec::new();
        symphony_links_bounded(ring, me, bound, rng, &mut out);
        out
    }

    #[test]
    fn link_budget_is_floor_log2() {
        assert_eq!(link_budget(0), 0);
        assert_eq!(link_budget(1), 0);
        assert_eq!(link_budget(2), 1);
        assert_eq!(link_budget(3), 1);
        assert_eq!(link_budget(4), 2);
        assert_eq!(link_budget(1024), 10);
        assert_eq!(link_budget(1025), 10);
    }

    #[test]
    fn links_respect_bound() {
        let ids = random_ids(Seed(1), 512);
        let ring = SortedRing::new(ids);
        let me = ring.as_slice()[100];
        let bound = RingDistance::from_u64(1u64 << 60);
        let mut rng = Seed(2).rng();
        let links = links(&ring, me, bound, &mut rng);
        for l in &links {
            assert!((me.clockwise_to(*l) as u128) < bound.as_u128());
        }
    }

    #[test]
    fn successor_always_linked_flat() {
        let ids = random_ids(Seed(3), 256);
        let ring = SortedRing::new(ids);
        let mut rng = Seed(4).rng();
        for &me in ring.as_slice().iter().take(30) {
            let links = links(&ring, me, RingDistance::FULL_CIRCLE, &mut rng);
            let succ = ring.strict_successor(me).unwrap();
            assert!(links.contains(&succ), "{me} lacks successor link");
        }
    }

    #[test]
    fn singleton_and_pair_rings() {
        let one = SortedRing::new(vec![NodeId::new(9)]);
        let mut rng = Seed(5).rng();
        assert!(links(&one, NodeId::new(9), RingDistance::FULL_CIRCLE, &mut rng).is_empty());
        let two = SortedRing::new(vec![NodeId::new(9), NodeId::new(1 << 30)]);
        let links = links(&two, NodeId::new(9), RingDistance::FULL_CIRCLE, &mut rng);
        assert_eq!(links, vec![NodeId::new(1 << 30)]);
    }
}
