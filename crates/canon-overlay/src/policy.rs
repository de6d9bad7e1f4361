//! Pluggable routing policies: candidate enumeration and ranking.
//!
//! Every router in the paper's evaluation is a variation on one greedy
//! metric-decreasing walk; what varies is only *which* neighbors qualify as
//! candidates and *how* they are ranked. A [`RoutingPolicy`] captures
//! exactly that variation, and the [`engine`](crate::engine) supplies
//! everything else (strict-progress checking, liveness filtering with
//! timeout pricing, tie-breaking, hop budget).
//!
//! | Policy | Key (progress measure) | Rank | Origin |
//! |---|---|---|---|
//! | [`Greedy`] | metric distance | distance | Chord/Kademlia routing, timed and filtered lookups |
//! | [`Lookahead1`] | clockwise distance | (pair-end, first-step) | Symphony lookahead |
//! | [`ProximityAware`] | (group dist, clockwise dist) | the key | group routing (§3.6) |
//!
//! Determinism: the engine orders candidates by `(rank, next)`; every
//! policy here has a rank that is injective in the candidate node (metric
//! distances to a fixed target are injective in the node identifier), so
//! the `NodeIndex` tie-break never actually fires and each policy
//! reproduces its pre-refactor router byte for byte.

use crate::graph::{NodeIndex, OverlayGraph};
use canon_id::{metric::Metric, NodeId};

/// One admissible next hop, as proposed by a [`RoutingPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate<K, R> {
    /// The node to forward to.
    pub next: NodeIndex,
    /// The policy key at `next`; becomes the executor's current key after
    /// the hop. Must be strictly smaller than the key at the current node.
    pub landing: K,
    /// Selection rank: the executor tries candidates in increasing
    /// `(rank, next)` order.
    pub rank: R,
}

/// A routing policy: a totally ordered progress measure (`Key`) plus a
/// candidate enumeration with ranking (`Rank`).
///
/// The contract the [`engine`](crate::engine) relies on:
///
/// * `key` is zero-cost to evaluate and [`is_terminal`] holds exactly at
///   nodes where routing should stop successfully (the destination, or —
///   for key lookups — never, with termination at the local minimum);
/// * every candidate's `landing` key is strictly smaller than the key at
///   the current node, so routes terminate;
/// * `candidates` only appends to `out` (the executor clears it).
///
/// [`is_terminal`]: RoutingPolicy::is_terminal
pub trait RoutingPolicy {
    /// The progress measure; strictly decreases along a route.
    type Key: Copy + Ord;
    /// The candidate ordering measure.
    type Rank: Copy + Ord;

    /// The key of `node` (distance to the policy's target).
    fn key(&self, graph: &OverlayGraph, node: NodeIndex) -> Self::Key;

    /// Whether a node with this key is the routing destination.
    fn is_terminal(&self, key: Self::Key) -> bool;

    /// Appends every admissible next hop from `at` (whose key is `key`)
    /// to `out`.
    fn candidates(
        &self,
        graph: &OverlayGraph,
        at: NodeIndex,
        key: Self::Key,
        out: &mut Vec<Candidate<Self::Key, Self::Rank>>,
    );
}

/// Plain greedy routing: every strictly closer neighbor is a candidate,
/// ranked by its distance to the target (Chord/Crescendo clockwise routing,
/// Kademlia/CAN bit-fixing).
#[derive(Clone, Copy, Debug)]
pub struct Greedy<M> {
    metric: M,
    target: NodeId,
}

impl<M: Metric> Greedy<M> {
    /// Greedy routing toward `target` under `metric`.
    pub fn new(metric: M, target: NodeId) -> Greedy<M> {
        Greedy { metric, target }
    }

    /// The index-backed best next hop from `at` (whose key is `key`) and
    /// its landing key, or `None` at a local minimum — the engine's
    /// fault-free fast path ([`crate::engine::execute`],
    /// [`crate::route::route_to_key_sweep`]).
    ///
    /// rank == landing == distance, and distances to a fixed target are
    /// injective in the identifier, so the distance-minimizing neighbor
    /// from the [`NextHopIndex`](crate::index::NextHopIndex) is the first
    /// of [`candidates`](RoutingPolicy::candidates) in `(rank, next)` order
    /// whenever it beats the current key (`execute` asserts this in debug
    /// builds).
    // Without the hint the sweep's per-hop call is not inlined and
    // `route_to_key_sweep` loses ~8% of its lookups/s. The sweep beats
    // one-at-a-time routing only on graphs too large for cache (1.1–1.35×
    // from n = 65,536 up, slower up to n = 4,096; see its doc).
    #[inline]
    pub(crate) fn next_hop(
        &self,
        graph: &OverlayGraph,
        at: NodeIndex,
        key: u64,
    ) -> Option<(NodeIndex, u64)> {
        graph
            .next_hop_index()
            .next_toward(self.metric, at, self.target)
            .filter(|&(_, d)| d < key)
    }
}

impl<M: Metric> RoutingPolicy for Greedy<M> {
    type Key = u64;
    type Rank = u64;

    fn key(&self, graph: &OverlayGraph, node: NodeIndex) -> u64 {
        self.metric.distance(graph.id(node), self.target)
    }

    fn is_terminal(&self, key: u64) -> bool {
        key == 0
    }

    fn candidates(
        &self,
        graph: &OverlayGraph,
        at: NodeIndex,
        key: u64,
        out: &mut Vec<Candidate<u64, u64>>,
    ) {
        // The workspace's single greedy next-hop enumeration.
        // audit: allow(greedy-outside-engine)
        for &nb in graph.neighbors(at) {
            let d = self.metric.distance(graph.id(nb), self.target);
            if d < key {
                out.push(Candidate {
                    next: nb,
                    landing: d,
                    rank: d,
                });
            }
        }
    }
}

/// Greedy clockwise routing with one step of lookahead (Symphony, paper
/// §3.1): each (neighbor, neighbor's neighbor) pair whose end is strictly
/// closer than both the current node and the first step contributes a
/// candidate for the first step, ranked by `(pair-end distance, first-step
/// distance)`; the plain first step itself is always a candidate too, so
/// lookahead falls back to greedy when pairs offer no improvement.
#[derive(Clone, Copy, Debug)]
pub struct Lookahead1 {
    target: NodeId,
}

impl Lookahead1 {
    /// Lookahead routing toward `target` under the clockwise metric.
    pub fn new(target: NodeId) -> Lookahead1 {
        Lookahead1 { target }
    }
}

impl RoutingPolicy for Lookahead1 {
    type Key = u64;
    type Rank = (u64, u64);

    fn key(&self, graph: &OverlayGraph, node: NodeIndex) -> u64 {
        graph.id(node).clockwise_to(self.target)
    }

    fn is_terminal(&self, key: u64) -> bool {
        key == 0
    }

    fn candidates(
        &self,
        graph: &OverlayGraph,
        at: NodeIndex,
        key: u64,
        out: &mut Vec<Candidate<u64, (u64, u64)>>,
    ) {
        // audit: allow(greedy-outside-engine)
        for &nb in graph.neighbors(at) {
            let d1 = graph.id(nb).clockwise_to(self.target);
            if d1 >= key {
                continue; // never move away from the destination
            }
            // Plain greedy candidate: pair end = the first step itself.
            out.push(Candidate {
                next: nb,
                landing: d1,
                rank: (d1, d1),
            });
            // audit: allow(greedy-outside-engine)
            for &nb2 in graph.neighbors(nb) {
                let d2 = graph.id(nb2).clockwise_to(self.target);
                if d2 < key && d2 < d1 {
                    out.push(Candidate {
                        next: nb,
                        landing: d1,
                        rank: (d2, d1),
                    });
                }
            }
        }
    }
}

/// Group-aware greedy routing (paper §3.6): minimize the pair (clockwise
/// *group* distance, clockwise identifier distance) lexicographically. With
/// `group_bits == 0` there is one global group and the policy degenerates
/// to clockwise [`Greedy`].
#[derive(Clone, Copy, Debug)]
pub struct ProximityAware {
    group_bits: u32,
    target: NodeId,
}

impl ProximityAware {
    /// Group-aware routing toward `target` with `group_bits` prefix bits.
    pub fn new(group_bits: u32, target: NodeId) -> ProximityAware {
        ProximityAware { group_bits, target }
    }

    fn group_mask(&self) -> u64 {
        if self.group_bits == 0 {
            0
        } else {
            (1u64 << self.group_bits) - 1
        }
    }
}

impl RoutingPolicy for ProximityAware {
    type Key = (u64, u64);
    type Rank = (u64, u64);

    fn key(&self, graph: &OverlayGraph, node: NodeIndex) -> (u64, u64) {
        let id = graph.id(node);
        let gd = self
            .target
            .prefix(self.group_bits)
            .wrapping_sub(id.prefix(self.group_bits))
            & self.group_mask();
        (gd, id.clockwise_to(self.target))
    }

    fn is_terminal(&self, key: (u64, u64)) -> bool {
        key == (0, 0)
    }

    fn candidates(
        &self,
        graph: &OverlayGraph,
        at: NodeIndex,
        key: (u64, u64),
        out: &mut Vec<Candidate<(u64, u64), (u64, u64)>>,
    ) {
        // audit: allow(greedy-outside-engine)
        for &nb in graph.neighbors(at) {
            let k = self.key(graph, nb);
            if k < key {
                out.push(Candidate {
                    next: nb,
                    landing: k,
                    rank: k,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::metric::{Clockwise, Xor};

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Ring 0..8 with fingers from 0: 0→{1,2,4}.
    fn ring() -> OverlayGraph {
        let ids: Vec<NodeId> = (0u64..8).map(id).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 0u64..8 {
            b.add_link(id(i), id((i + 1) % 8));
        }
        b.add_link(id(0), id(2));
        b.add_link(id(0), id(4));
        b.build()
    }

    #[test]
    fn greedy_candidates_are_strictly_closer() {
        let g = ring();
        let p = Greedy::new(Clockwise, id(5));
        let at = NodeIndex(0);
        let key = p.key(&g, at);
        let mut out = Vec::new();
        p.candidates(&g, at, key, &mut out);
        // Neighbors of 0 are {1, 2, 4}; all strictly closer to 5.
        assert_eq!(out.len(), 3);
        for c in &out {
            assert!(c.landing < key);
            assert_eq!(c.landing, c.rank);
        }
    }

    #[test]
    fn greedy_terminal_at_target_only() {
        let g = ring();
        let p = Greedy::new(Xor, id(3));
        assert!(p.is_terminal(p.key(&g, NodeIndex(3))));
        assert!(!p.is_terminal(p.key(&g, NodeIndex(2))));
    }

    #[test]
    fn lookahead_pairs_rank_below_plain_steps() {
        let g = ring();
        let p = Lookahead1::new(id(5));
        let at = NodeIndex(0);
        let key = p.key(&g, at);
        let mut out = Vec::new();
        p.candidates(&g, at, key, &mut out);
        // 0→4→5 yields a pair candidate with end distance 0 through via=4,
        // ranked before every plain candidate.
        let best = out.iter().min_by_key(|c| (c.rank, c.next)).copied();
        let best = best.expect("candidates exist");
        assert_eq!(best.next, NodeIndex(4));
        assert_eq!(best.rank.0, 0);
    }

    #[test]
    fn proximity_with_zero_bits_degenerates_to_clockwise() {
        let g = ring();
        let target = id(6);
        let prox = ProximityAware::new(0, target);
        let greedy = Greedy::new(Clockwise, target);
        for i in 0..8u32 {
            let at = NodeIndex(i);
            let pk = prox.key(&g, at);
            assert_eq!(pk.0, 0, "one global group");
            assert_eq!(pk.1, greedy.key(&g, at));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            prox.candidates(&g, at, pk, &mut a);
            greedy.candidates(&g, at, greedy.key(&g, at), &mut b);
            let a: Vec<NodeIndex> = a.iter().map(|c| c.next).collect();
            let b: Vec<NodeIndex> = b.iter().map(|c| c.next).collect();
            assert_eq!(a, b);
        }
    }
}
