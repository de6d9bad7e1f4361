//! The Chord and nondeterministic-Chord link rules (paper §2.1, §3.2).
//!
//! Chord hashes nodes onto a circular identifier space; each node `m` keeps
//! a link to the closest node at clockwise distance at least `2^k`, for each
//! `0 ≤ k < N` — equivalently, the successor of the point `m + 2^k`.
//! *Nondeterministic* Chord (used by CFS and analyzed by Gummadi et al.)
//! relaxes the rule: for each `k`, `m` may link to *any* node at distance in
//! `[2^k, 2^(k+1))`.
//!
//! This crate holds the rules only, as per-node *bounded* functions
//! ([`chord_links_bounded`], [`nondet_links_bounded`]) that accept the
//! own-ring distance bound of Canon merge condition (b). The `canon` crate
//! builds every network from exactly these functions — Crescendo and
//! nondeterministic Crescendo over a hierarchy, flat Chord
//! (`canon::crescendo::build_chord`) over a single domain — mirroring how
//! the paper derives the hierarchical designs from the flat rules.
//!
//! The deterministic rule costs what it links, not the `N = 64` bits of
//! the identifier space: [`chord_fingers`] searches the ring once per
//! distinct finger (plus once to find there is no further one). The
//! per-bit statement of the rule is kept as a property-test oracle
//! (`tests/properties.rs`), which requires equal links in the same order.
//!
//! # Example
//!
//! ```
//! use canon_chord::chord_links;
//! use canon_id::{ring::SortedRing, NodeId};
//!
//! // Ring A of the paper's Figure 2.
//! let ring = SortedRing::new([0, 5, 10, 12].map(NodeId::new).to_vec());
//! assert_eq!(chord_links(&ring, NodeId::new(0)), [5, 10].map(NodeId::new));
//! ```

#![forbid(unsafe_code)]

use canon_id::{ring::SortedRing, rng::DetRng, NodeId, RingDistance, ID_BITS};
use rand::Rng;

/// The deterministic Chord link rule over `ring`, restricted to links
/// strictly shorter than `bound`.
///
/// For each `k` with `2^k < bound`, the successor of `me + 2^k` is a
/// candidate; it is kept if its clockwise distance from `me` is below
/// `bound`. With `bound == RingDistance::FULL_CIRCLE` this is exactly the
/// flat Chord rule applied over `ring`. The links are appended to `out`
/// deduplicated, nearest first, and never include `me`. The ring is
/// searched once per link plus at most once more (see [`chord_fingers`]).
pub fn chord_links_bounded(
    ring: &SortedRing,
    me: NodeId,
    bound: RingDistance,
    out: &mut Vec<NodeId>,
) {
    chord_fingers(me, bound, |point| ring.successor(point), out);
}

/// Appends to `out` the distinct Chord fingers of `me` strictly closer
/// than `bound`, nearest first, over any ring that `successor` searches:
/// `successor(p)`
/// must return the first node at or clockwise after `p` (`None` on an empty
/// ring).
///
/// Finger `k` is the successor of `me + 2^k` when that node lies at
/// distance `≥ 2^k`. A finger at distance `d` is also finger `j` for every
/// `2^j ≤ d`, so the next point worth searching is `me + 2^(⌊log2 d⌋ + 1)`:
/// `successor` runs once per finger returned, plus at most once to find
/// that there is no further one. A search that lands on `me` or wraps past
/// it finds no node at distance `≥ 2^k`, and a finger at or beyond `bound`
/// leaves every later one there too, so both end the walk.
pub fn chord_fingers(
    me: NodeId,
    bound: RingDistance,
    mut successor: impl FnMut(NodeId) -> Option<NodeId>,
    out: &mut impl Extend<NodeId>,
) {
    let mut k = 0;
    while k < ID_BITS && (1u128 << k) < bound.as_u128() {
        let Some(s) = successor(me.offset(1u64 << k)) else {
            break;
        };
        let d = me.clockwise_to(s);
        if (d as u128) < (1u128 << k) || (d as u128) >= bound.as_u128() {
            break;
        }
        out.extend([s]);
        k = u64::BITS - d.leading_zeros();
    }
}

/// The flat deterministic Chord rule over `ring` (no bound), as a list.
pub fn chord_links(ring: &SortedRing, me: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    chord_links_bounded(ring, me, RingDistance::FULL_CIRCLE, &mut out);
    out
}

/// The nondeterministic Chord link rule over `ring`, restricted to links
/// strictly shorter than `bound`.
///
/// For each `k`, one node is chosen uniformly at random among the nodes at
/// clockwise distance in `[2^k, min(2^(k+1), bound))` from `me` (paper
/// §3.2: when rings are merged, the nondeterministic choice may only be
/// exercised among nodes closer than any node in `m`'s own ring). Always
/// includes the successor of `me` when it is within `bound` (the `k = 0`
/// band always contains it if nonempty). The links are appended to `out`,
/// each once.
pub fn nondet_links_bounded(
    ring: &SortedRing,
    me: NodeId,
    bound: RingDistance,
    rng: &mut DetRng,
    out: &mut Vec<NodeId>,
) {
    let start = out.len();
    for k in 0..ID_BITS {
        let lo = 1u128 << k;
        if lo >= bound.as_u128() {
            break;
        }
        let hi = (1u128 << (k + 1)).min(bound.as_u128()); // exclusive
        let chosen = choose_in_band(ring, me, lo as u64, hi, rng);
        if let Some(c) = chosen {
            if !out[start..].contains(&c) {
                out.push(c);
            }
        }
    }
}

/// Picks a uniformly random node of `ring` at clockwise distance in
/// `[lo, hi)` from `me`, excluding `me` itself.
fn choose_in_band(
    ring: &SortedRing,
    me: NodeId,
    lo: u64,
    hi: u128,
    rng: &mut DetRng,
) -> Option<NodeId> {
    debug_assert!((lo as u128) < hi && hi <= canon_id::ID_SPACE);
    let ids = ring.as_slice();
    let n = ids.len();
    if n == 0 {
        return None;
    }
    // The band covers the identifier interval [me + lo, me + hi - 1]
    // (inclusive), which may wrap past 2^64. Count members by rank so that
    // the choice is uniform without materializing the band.
    let start = me.offset(lo);
    let span = hi - lo as u128; // number of identifier points in the band
    let first = ids.partition_point(|&id| id < start);
    let wraps = start.raw() as u128 + span > canon_id::ID_SPACE;
    let count = if wraps {
        let end = NodeId::new((start.raw() as u128 + span - 1 - canon_id::ID_SPACE) as u64);
        (n - first) + ids.partition_point(|&id| id <= end)
    } else {
        let end = NodeId::new((start.raw() as u128 + span - 1) as u64);
        ids.partition_point(|&id| id <= end) - first
    };
    if count == 0 {
        return None;
    }
    let pick = rng.gen_range(0..count);
    let cand = ids[(first + pick) % n];
    // `me` is at distance 0 and the band starts at lo >= 1 and ends before
    // the full circle, so it can never contain `me`.
    debug_assert_ne!(cand, me);
    Some(cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::{random_ids, Seed};

    fn ring_of(raws: &[u64]) -> SortedRing {
        SortedRing::new(raws.iter().copied().map(NodeId::new).collect())
    }

    fn bounded(ring: &SortedRing, me: NodeId, bound: RingDistance) -> Vec<NodeId> {
        let mut out = Vec::new();
        chord_links_bounded(ring, me, bound, &mut out);
        out
    }

    #[test]
    fn paper_figure2_ring_a_links() {
        // Figure 2, ring A = {0, 5, 10, 12} in a 4-bit space. In our 64-bit
        // space the distances 1,2,4,8 correspond to k = 0..3; links for
        // higher k all resolve to the successor of points past every node,
        // wrapping to node 0 — i.e. no further distinct targets for node 0.
        let ring = ring_of(&[0, 5, 10, 12]);
        let links = chord_links(&ring, NodeId::new(0));
        // Successor of 1,2,4 is 5; successor of 8 is 10; successor of 16.. is 0 (self, skipped).
        assert_eq!(links, vec![NodeId::new(5), NodeId::new(10)]);
    }

    #[test]
    fn paper_figure2_merged_links_for_node_0() {
        // Merged ring {0,2,3,5,8,10,12,13}; node 0's own-ring (A) bound is
        // distance 5 (to node 5). Candidates below the bound: successor of
        // 0+1 = 2 (distance 2 < 5), successor of 0+2 = 2 (duplicate),
        // successor of 0+4 = 5 (distance 5, not < 5 → rejected).
        let merged = ring_of(&[0, 2, 3, 5, 8, 10, 12, 13]);
        let links = bounded(&merged, NodeId::new(0), RingDistance::from_u64(5));
        assert_eq!(links, vec![NodeId::new(2)]);
    }

    #[test]
    fn paper_figure2_merged_links_for_node_8() {
        // Node 8 in ring B = {2,3,8,13}: own-ring bound = distance 5 (to 13).
        // Over the merged ring: successor of 9 = 10 (distance 2), successor
        // of 10 = 10 (dup), successor of 12 = 12 (distance 4), successor of
        // 16 → wraps to 0 at distance 8 but 8 >= 5 → rejected by bound.
        let merged = ring_of(&[0, 2, 3, 5, 8, 10, 12, 13]);
        let links = bounded(&merged, NodeId::new(8), RingDistance::from_u64(5));
        assert_eq!(links, vec![NodeId::new(10), NodeId::new(12)]);
    }

    #[test]
    fn node_with_close_successor_adds_no_merge_links() {
        // Paper: node 2 has node 3 in its own ring at distance 1, so
        // condition (b) rules out every merge link.
        let merged = ring_of(&[0, 2, 3, 5, 8, 10, 12, 13]);
        let links = bounded(&merged, NodeId::new(2), RingDistance::from_u64(1));
        assert!(links.is_empty());
    }

    #[test]
    fn singleton_ring_has_no_links() {
        let ring = ring_of(&[7]);
        assert!(chord_links(&ring, NodeId::new(7)).is_empty());
    }

    #[test]
    fn every_node_links_to_its_successor() {
        let ids = random_ids(Seed(2), 256);
        let ring = SortedRing::new(ids);
        for &me in ring.as_slice() {
            let succ = ring.strict_successor(me).unwrap();
            let links = chord_links(&ring, me);
            assert!(links.contains(&succ), "{me} missing successor {succ}");
        }
    }

    #[test]
    fn chord_links_are_exactly_distinct_finger_successors() {
        // Cross-check the rule against a brute-force implementation.
        let ids = random_ids(Seed(6), 100);
        let ring = SortedRing::new(ids);
        for &me in ring.as_slice().iter().take(20) {
            let mut brute: Vec<NodeId> = Vec::new();
            for k in 0..ID_BITS {
                let target = me.offset(1u64 << k);
                let s = ring.successor(target).unwrap();
                if s != me && me.clockwise_to(s) as u128 >= (1u128 << k) && !brute.contains(&s) {
                    brute.push(s);
                }
            }
            let mut got = chord_links(&ring, me);
            brute.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, brute);
        }
    }

    #[test]
    fn nondet_links_respect_bands_and_bound() {
        let ids = random_ids(Seed(7), 300);
        let ring = SortedRing::new(ids);
        let me = ring.as_slice()[42];
        let bound = RingDistance::from_u64(1u64 << 62);
        let mut rng = Seed(8).rng();
        let mut links = Vec::new();
        nondet_links_bounded(&ring, me, bound, &mut rng, &mut links);
        assert!(!links.is_empty());
        for l in &links {
            let d = me.clockwise_to(*l);
            assert!(
                (d as u128) < bound.as_u128(),
                "link at distance {d} violates bound"
            );
        }
    }
}
