//! Pastry and its Canonical version (paper §3.3).
//!
//! Pastry routes by *digit fixing*: identifiers are strings of base-`2^b`
//! digits; each node keeps a routing table with one entry per (shared
//! prefix length, next digit) cell plus a *leaf set* of numerically
//! adjacent nodes. The paper describes Pastry as a hypercube variant of
//! nondeterministic Chord whose "two-level structure makes its adaptation
//! more complex" than Kademlia's; with `b = 1` the routing table degenerates
//! into Kademlia's buckets, so this module implements the general base-`2^b`
//! digit machinery (`b` from 1 to 4) and derives the Canonical version the
//! same way Kandy is derived: **each routing-table cell is filled at the
//! lowest hierarchy level whose ring can fill it**, which preserves the
//! flat out-degree, keeps digit-fixing routing complete, and points every
//! cell at the most local eligible node (giving intra-domain path
//! locality).
//!
//! Leaf sets are kept per level in the Canonical version, as §2.3
//! prescribes for Crescendo.
//!
//! Both builders are the engine's walk over [`PastryRule`]; flat Pastry is
//! the walk over one domain.
//!
//! # Example
//!
//! ```
//! use canon::pastry::{build_pastry, PastryParams};
//! use canon_id::{metric::Xor, rng::{random_ids, Seed}};
//! use canon_overlay::{route, NodeIndex};
//!
//! let g = build_pastry(&random_ids(Seed(1), 128), PastryParams::default());
//! let r = route(&g, Xor, NodeIndex(0), NodeIndex(100))?;
//! assert!(r.hops() <= 8); // base-16 digit fixing
//! # Ok::<(), canon_overlay::RouteError>(())
//! ```

use crate::engine::{one_domain, walk, CanonicalNetwork, LevelCtx, LinkRule};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    metric::Xor,
    ring::{xor_closest_sorted, SortedRing},
    rng::{DetRng, Seed},
    NodeId, RingDistance, ID_BITS,
};
use canon_overlay::OverlayGraph;

/// Pastry's shape parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PastryParams {
    /// Bits per digit (`b`); digits are base `2^b`. Between 1 and 4.
    pub digit_bits: u32,
    /// Leaf-set entries kept on *each* side of the node.
    pub leaf_half: usize,
}

impl Default for PastryParams {
    fn default() -> Self {
        PastryParams {
            digit_bits: 4,
            leaf_half: 8,
        }
    }
}

impl PastryParams {
    /// Number of digit rows (`64 / b`).
    pub fn rows(&self) -> u32 {
        ID_BITS / self.digit_bits
    }

    /// Digits per row (`2^b`).
    pub fn radix(&self) -> u64 {
        1u64 << self.digit_bits
    }

    fn validate(&self) {
        assert!(
            (1..=4).contains(&self.digit_bits),
            "digit_bits must be between 1 and 4, got {}",
            self.digit_bits
        );
        assert!(
            ID_BITS.is_multiple_of(self.digit_bits),
            "digit_bits must divide 64"
        );
        assert!(
            self.leaf_half >= 1,
            "leaf sets need at least one entry per side"
        );
    }
}

/// The digit of `id` at `row` (most significant digit is row 0).
pub fn digit(id: NodeId, row: u32, b: u32) -> u64 {
    (id.raw() >> (ID_BITS - (row + 1) * b)) & ((1u64 << b) - 1)
}

/// Replaces the digit of `id` at `row` with `d` and zeroes all lower bits —
/// the canonical representative of the routing-table cell `(row, d)`.
fn cell_floor(id: NodeId, row: u32, d: u64, b: u32) -> u64 {
    let shift = ID_BITS - (row + 1) * b;
    let prefix_mask = if row == 0 {
        0
    } else {
        !0u64 << (ID_BITS - row * b)
    };
    (id.raw() & prefix_mask) | (d << shift)
}

/// One bit per routing-table cell `(row, d)`, at `row · 2^b + d`: at most
/// 16 rows × 16 digits (`b = 4`), so 256 bits.
type Cells = [u64; 4];

/// The routing-table links Pastry grants `me` over `ring`: the flat,
/// unrestricted table.
///
/// For each row `i` and digit `d` other than `me`'s, the cell holds the
/// ring node sharing `me`'s first `i` digits with digit `d` at row `i`
/// that is XOR-closest to `me` (the deterministic stand-in for Pastry's
/// proximity-based cell choice). Returns `(row, digit, node)` triples.
pub fn routing_table_links(
    ring: &SortedRing,
    me: NodeId,
    params: PastryParams,
) -> Vec<(u32, u64, NodeId)> {
    params.validate();
    fill_cells(ring, me, params, &mut Cells::default())
}

/// [`routing_table_links`] restricted to the cells `filled` does not hold
/// yet; marks each cell it fills.
fn fill_cells(
    ring: &SortedRing,
    me: NodeId,
    params: PastryParams,
    filled: &mut Cells,
) -> Vec<(u32, u64, NodeId)> {
    let b = params.digit_bits;
    let mut out = Vec::new();
    for row in 0..params.rows() {
        let my_digit = digit(me, row, b);
        for d in 0..params.radix() {
            let bit = (u64::from(row) * params.radix() + d) as usize;
            if d == my_digit || filled[bit / 64] & (1 << (bit % 64)) != 0 {
                continue;
            }
            let lo = cell_floor(me, row, d, b);
            let span = 1u64 << (ID_BITS - (row + 1) * b);
            let hi = lo + (span - 1);
            let cell = ring.range(NodeId::new(lo), NodeId::new(hi));
            // XOR-closest within the cell to `me` = closest to the
            // bit-fixed target (me with row digit replaced by d).
            let target = NodeId::new(lo | (me.raw() & (span - 1)));
            let Some(pick) = xor_closest_sorted(cell, target) else {
                continue;
            };
            out.push((row, d, cell[pick]));
            filled[bit / 64] |= 1 << (bit % 64);
        }
        // Rows below the first distinguishing digit of a singleton prefix
        // never fill; keep scanning anyway — cost is bounded by rows*radix.
    }
    out
}

/// The leaf set of `me` over `ring`: `leaf_half` numeric successors and
/// predecessors (circular), excluding `me`.
pub fn leaf_set(ring: &SortedRing, me: NodeId, leaf_half: usize) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut cur = me;
    for _ in 0..leaf_half {
        match ring.strict_successor(cur) {
            Some(s) if s != me && !out.contains(&s) => {
                out.push(s);
                cur = s;
            }
            _ => break,
        }
    }
    let mut cur = me;
    for _ in 0..leaf_half {
        match ring.strict_predecessor(cur) {
            Some(p) if p != me && !out.contains(&p) => {
                out.push(p);
                cur = p;
            }
            _ => break,
        }
    }
    out
}

/// The Canonical Pastry link rule: at each level, the routing-table cells
/// no lower level filled, plus the level's leaf set.
///
/// The cells a node already filled live in the per-node
/// [`LinkRule::NodeState`] bitmap the engine threads through each node's
/// leaf-to-root walk (empty at the leaf), as Kandy's covered buckets do.
/// That is condition (b) read per cell, not per link, so the rule is built
/// by the unaudited walk (see `engine::walk`).
#[derive(Clone, Copy, Debug)]
pub struct PastryRule {
    params: PastryParams,
}

impl PastryRule {
    /// Creates the rule.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn new(params: PastryParams) -> Self {
        params.validate();
        PastryRule { params }
    }
}

impl LinkRule for PastryRule {
    type M = Xor;
    /// Bitmap of the routing-table cells filled at lower levels.
    type NodeState = Cells;

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
        filled: &mut Cells,
        out: &mut Vec<NodeId>,
    ) {
        out.extend(
            fill_cells(ring, me, self.params, filled)
                .into_iter()
                .map(|(_, _, n)| n),
        );
        // Per-level leaf set (Crescendo §2.3 analogue).
        out.extend(leaf_set(ring, me, self.params.leaf_half));
    }
}

/// Builds flat Pastry over `ids`: routing-table links plus leaf-set links —
/// [`build_canonical_pastry`] over one domain. Duplicate identifiers are
/// collapsed; no identifiers give the empty graph.
///
/// Routable with [`Xor`] greedy routing (digit fixing): for any destination
/// `t`, the cell for the first differing digit is non-empty (it contains
/// `t`), so greedy progress is guaranteed.
///
/// # Panics
///
/// Panics if `params` are invalid.
pub fn build_pastry(ids: &[NodeId], params: PastryParams) -> OverlayGraph {
    let rule = PastryRule::new(params);
    let (hierarchy, placement) = one_domain(ids);
    // The rule draws no randomness, so the seed is immaterial.
    walk(&hierarchy, &placement, &rule, Seed(0)).graph
}

/// Builds Canonical Pastry over `hierarchy`/`placement`.
///
/// Each routing-table cell is filled at the lowest ancestor ring able to
/// fill it (the per-cell reading of the merge restriction, as for Kandy);
/// leaf sets are maintained per level, mirroring Crescendo's §2.3.
///
/// # Panics
///
/// Panics if `placement` is empty or `params` are invalid.
pub fn build_canonical_pastry(
    hierarchy: &Hierarchy,
    placement: &Placement,
    params: PastryParams,
) -> CanonicalNetwork {
    let rule = PastryRule::new(params);
    assert!(
        !placement.is_empty(),
        "cannot build a network with no nodes"
    );
    walk(hierarchy, placement, &rule, Seed(0))
}

/// The node responsible for `key` under Pastry semantics: the numerically
/// closest identifier (circular, ties to the lower side).
pub fn responsible(ring: &SortedRing, key: NodeId) -> Option<NodeId> {
    let below = ring.responsible(key)?;
    let above = ring.successor(key)?;
    let d_below = below.clockwise_to(key);
    let d_above = key.clockwise_to(above);
    Some(if d_below <= d_above { below } else { above })
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::{random_ids, Seed};
    use canon_overlay::{route, route_with_filter, stats, NodeIndex};
    use rand::Rng;

    #[test]
    fn digits_round_trip() {
        let id = NodeId::new(0xfedc_ba98_7654_3210);
        assert_eq!(digit(id, 0, 4), 0xf);
        assert_eq!(digit(id, 1, 4), 0xe);
        assert_eq!(digit(id, 15, 4), 0x0);
        assert_eq!(digit(id, 0, 1), 1);
        assert_eq!(digit(id, 63, 1), 0);
    }

    #[test]
    fn cell_floor_fixes_digit_and_zeroes_suffix() {
        let id = NodeId::new(0xffff_ffff_ffff_ffff);
        assert_eq!(cell_floor(id, 0, 0xa, 4), 0xa000_0000_0000_0000);
        assert_eq!(cell_floor(id, 1, 0x3, 4), 0xf300_0000_0000_0000);
    }

    #[test]
    fn routing_table_cells_share_prefix_and_digit() {
        let ids = random_ids(Seed(1), 300);
        let ring = SortedRing::new(ids);
        let me = ring.as_slice()[42];
        let params = PastryParams::default();
        for (row, d, n) in routing_table_links(&ring, me, params) {
            // Shares the first `row` digits with me...
            for r in 0..row {
                assert_eq!(digit(n, r, 4), digit(me, r, 4), "row {row} digit {d}");
            }
            // ...and has digit d at `row`.
            assert_eq!(digit(n, row, 4), d);
            assert_ne!(digit(me, row, 4), d);
        }
    }

    #[test]
    fn every_nonempty_cell_is_filled() {
        let ids = random_ids(Seed(2), 200);
        let ring = SortedRing::new(ids.clone());
        let me = ring.as_slice()[0];
        let params = PastryParams {
            digit_bits: 2,
            leaf_half: 4,
        };
        let links = routing_table_links(&ring, me, params);
        // Brute force: a cell is non-empty iff some id shares the prefix
        // with the substituted digit.
        for row in 0..params.rows() {
            for d in 0..params.radix() {
                if d == digit(me, row, 2) {
                    continue;
                }
                let expect = ids.iter().any(|&x| {
                    (0..row).all(|r| digit(x, r, 2) == digit(me, r, 2)) && digit(x, row, 2) == d
                });
                let got = links.iter().any(|&(r, dd, _)| r == row && dd == d);
                assert_eq!(expect, got, "cell ({row},{d})");
            }
        }
    }

    #[test]
    fn leaf_set_is_balanced_neighborhood() {
        let ids = random_ids(Seed(3), 100);
        let ring = SortedRing::new(ids);
        let me = ring.as_slice()[50];
        let ls = leaf_set(&ring, me, 4);
        assert_eq!(ls.len(), 8);
        // First four are successive successors.
        let mut cur = me;
        for &s in &ls[..4] {
            let succ = ring.strict_successor(cur).unwrap();
            assert_eq!(s, succ);
            cur = s;
        }
    }

    #[test]
    fn flat_pastry_routes_everywhere() {
        let ids = random_ids(Seed(4), 400);
        let g = build_pastry(&ids, PastryParams::default());
        let mut rng = Seed(5).rng();
        for _ in 0..300 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(&g, Xor, a, b).unwrap();
            assert_eq!(r.target(), b);
            // Digit fixing: hops bounded by the digit rows plus leaf hops.
            assert!(r.hops() <= 20, "{} hops", r.hops());
        }
    }

    #[test]
    fn hop_count_scales_with_digit_size() {
        // Larger digits fix more bits per hop: b=4 must beat b=1.
        let ids = random_ids(Seed(6), 512);
        let g1 = build_pastry(
            &ids,
            PastryParams {
                digit_bits: 1,
                leaf_half: 4,
            },
        );
        let g4 = build_pastry(
            &ids,
            PastryParams {
                digit_bits: 4,
                leaf_half: 4,
            },
        );
        let s1 = stats::hop_stats(&g1, Xor, 300, Seed(7)).unwrap();
        let s4 = stats::hop_stats(&g4, Xor, 300, Seed(7)).unwrap();
        assert!(
            s4.mean < s1.mean,
            "b=4 mean {} vs b=1 mean {}",
            s4.mean,
            s1.mean
        );
    }

    #[test]
    fn degree_grows_with_radix() {
        let ids = random_ids(Seed(8), 512);
        let g1 = build_pastry(
            &ids,
            PastryParams {
                digit_bits: 1,
                leaf_half: 4,
            },
        );
        let g4 = build_pastry(
            &ids,
            PastryParams {
                digit_bits: 4,
                leaf_half: 4,
            },
        );
        let d1 = stats::DegreeStats::of(&g1).summary.mean;
        let d4 = stats::DegreeStats::of(&g4).summary.mean;
        // b=4 keeps ~15 entries per populated row vs 1 for b=1.
        assert!(d4 > d1, "degree b=4 {d4} vs b=1 {d1}");
    }

    #[test]
    fn canonical_pastry_routes_and_stays_local() {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::zipf(&h, 400, Seed(9));
        let net = build_canonical_pastry(
            &h,
            &p,
            PastryParams {
                digit_bits: 2,
                leaf_half: 4,
            },
        );
        let g = net.graph();
        let mut rng = Seed(10).rng();
        // Global routing.
        for _ in 0..200 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(g, Xor, a, b).unwrap();
            assert_eq!(r.target(), b);
        }
        // Path locality at depth 1.
        for d in h.domains_at_depth(1) {
            let members: Vec<NodeIndex> = g
                .node_indices()
                .filter(|&i| h.is_ancestor_or_self(d, net.leaf_of(i)))
                .collect();
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
                let fenced = route_with_filter(g, Xor, a, b, |x| set.contains(&x)).unwrap();
                assert_eq!(free, fenced, "route left {d}");
            }
        }
    }

    #[test]
    fn flat_pastry_edge_inputs() {
        for digit_bits in [1, 2, 4] {
            let params = PastryParams {
                digit_bits,
                ..PastryParams::default()
            };
            // The canonical builder rejects an empty placement, and
            // `Placement::from_pairs` duplicate ids; the flat one takes both.
            assert!(build_pastry(&[], params).is_empty());
            let dup = build_pastry(&[7u64, 3, 7].map(NodeId::new), params);
            assert_eq!(dup.ids(), [3u64, 7].map(NodeId::new));
            let one = build_pastry(&[NodeId::new(9)], params);
            assert_eq!((one.len(), one.link_count()), (1, 0));
            let two = build_pastry(&[NodeId::new(10), NodeId::new(1 << 40)], params);
            assert_eq!((two.len(), two.link_count()), (2, 2));
        }
    }

    #[test]
    fn responsible_is_numerically_closest() {
        let ring = SortedRing::new(vec![NodeId::new(10), NodeId::new(20), NodeId::new(100)]);
        assert_eq!(
            responsible(&ring, NodeId::new(14)).unwrap(),
            NodeId::new(10)
        );
        assert_eq!(
            responsible(&ring, NodeId::new(16)).unwrap(),
            NodeId::new(20)
        );
        assert_eq!(
            responsible(&ring, NodeId::new(15)).unwrap(),
            NodeId::new(10)
        ); // tie → lower
        assert_eq!(
            responsible(&ring, NodeId::new(100)).unwrap(),
            NodeId::new(100)
        );
    }

    #[test]
    #[should_panic(expected = "digit_bits")]
    fn invalid_digit_bits_rejected() {
        build_pastry(
            &[NodeId::new(1)],
            PastryParams {
                digit_bits: 5,
                leaf_half: 2,
            },
        );
    }
}
