//! Partition-balanced identifier selection (paper §4.3).
//!
//! Purely random identifiers make the ratio of the largest to the smallest
//! partition (the arc a node owns) `Θ(log² n)` w.h.p. The paper's fix
//! keeps joins at `O(log n)` messages while pinning the ratio at a constant
//! (4 w.h.p.):
//!
//! 1. the joining node picks a random point and finds the node `n'`
//!    responsible for it;
//! 2. among the nodes sharing `n'`'s `B`-bit identifier prefix (`B` chosen
//!    so only a logarithmic number of nodes share it), it locates the
//!    **largest** partition;
//! 3. that partition is **bisected** and the midpoint becomes the new
//!    node's identifier — so partitions and identifiers form a binary
//!    tree.
//!
//! [`BalancedAllocator`] implements that scheme (and departure handling);
//! [`balanced_prefix`] implements the hierarchical refinement sketched at
//! the end of §4.3 — choosing a node's top bits to be as far as possible
//! from the other members of its (leaf) domain so that partitions stay
//! balanced at *every* level of the hierarchy.
//!
//! # Example
//!
//! ```
//! use canon_balance::BalancedAllocator;
//! use canon_id::rng::Seed;
//!
//! let mut alloc = BalancedAllocator::new();
//! let mut rng = Seed(7).rng();
//! for _ in 0..256 {
//!     alloc.join(&mut rng);
//! }
//! assert!(alloc.partition_ratio() <= 8.0);
//! ```

#![forbid(unsafe_code)]

use canon_hierarchy::Placement;
use canon_id::{ring::SortedRing, rng::DetRng, NodeId, ID_BITS, ID_SPACE};
use rand::Rng;

/// Sequential identifier allocator using bisection joins.
#[derive(Clone, Debug, Default)]
pub struct BalancedAllocator {
    ids: Vec<u64>, // sorted
}

impl BalancedAllocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        BalancedAllocator::default()
    }

    /// Number of live identifiers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no identifiers are allocated.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The live identifiers, ascending.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().map(|&r| NodeId::new(r))
    }

    /// The prefix length `B` for the current size: enough bits that an
    /// expected `O(log n)` nodes share a prefix.
    fn prefix_bits(&self) -> u32 {
        let n = self.ids.len().max(2);
        let log = (usize::BITS - n.leading_zeros()) as usize; // ≈ log2(n)+1
        let buckets = (n / log).max(1);
        (usize::BITS - 1 - buckets.leading_zeros()).min(ID_BITS - 1)
    }

    /// Adds a node using the bisection rule and returns its identifier.
    pub fn join<R: Rng>(&mut self, rng: &mut R) -> NodeId {
        let id = if self.ids.is_empty() {
            rng.gen::<u64>()
        } else {
            let probe: u64 = rng.gen();
            // Responsible node for the probe point.
            let pos = match self.ids.binary_search(&probe) {
                Ok(i) => i,
                Err(0) => self.ids.len() - 1,
                Err(i) => i - 1,
            };
            let bits = self.prefix_bits();
            let prefix = if bits == 0 {
                0
            } else {
                self.ids[pos] >> (ID_BITS - bits)
            };
            // Nodes sharing the B-bit prefix form a contiguous index range.
            let lo = if bits == 0 {
                0
            } else {
                self.ids
                    .partition_point(|&x| (x >> (ID_BITS - bits)) < prefix)
            };
            let hi = if bits == 0 {
                self.ids.len()
            } else {
                self.ids
                    .partition_point(|&x| (x >> (ID_BITS - bits)) <= prefix)
            };
            // Largest partition among them; bisect it.
            let (best, size) = (lo..hi)
                .map(|i| (i, self.gap_after(i)))
                .max_by_key(|&(_, g)| g)
                .expect("prefix group nonempty");
            let half = (size / 2) as u64;
            self.ids[best].wrapping_add(half)
        };
        match self.ids.binary_search(&id) {
            // Midpoints can collide only if a partition shrank to one
            // point; nudge (never happens at realistic scales).
            Ok(i) => {
                let nudged = id.wrapping_add(1);
                self.ids.insert(i + 1, nudged);
                return NodeId::new(nudged);
            }
            Err(i) => self.ids.insert(i, id),
        }
        NodeId::new(id)
    }

    /// Removes `id`; its partition merges into its predecessor's.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn leave(&mut self, id: NodeId) {
        let i = self.ids.binary_search(&id.raw()).expect("id is allocated");
        self.ids.remove(i);
    }

    /// Clockwise gap after index `i` (its partition size).
    fn gap_after(&self, i: usize) -> u128 {
        if self.ids.len() == 1 {
            return ID_SPACE;
        }
        let cur = self.ids[i];
        let next = self.ids[(i + 1) % self.ids.len()];
        u128::from(next.wrapping_sub(cur))
            + if i + 1 == self.ids.len() && next == cur {
                ID_SPACE
            } else {
                0
            }
    }

    /// The ratio of the largest to the smallest partition.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two identifiers are allocated.
    pub fn partition_ratio(&self) -> f64 {
        assert!(self.ids.len() >= 2, "ratio needs at least two partitions");
        let gaps: Vec<u128> = (0..self.ids.len()).map(|i| self.gap_after(i)).collect();
        let max = *gaps.iter().max().expect("nonempty");
        let min = *gaps.iter().min().expect("nonempty").max(&1);
        max as f64 / min as f64
    }
}

/// The partition ratio of a plain identifier set (for comparing random
/// assignment against the balanced allocator).
///
/// # Panics
///
/// Panics if fewer than two identifiers are supplied.
pub fn partition_ratio_of(ids: &SortedRing) -> f64 {
    assert!(ids.len() >= 2, "ratio needs at least two partitions");
    let gaps: Vec<u128> = (0..ids.len())
        .map(|i| ids.gap_after_index(i).as_u128())
        .collect();
    let max = *gaps.iter().max().expect("nonempty");
    let min = *gaps.iter().min().expect("nonempty").max(&1);
    max as f64 / min as f64
}

/// Chooses a `bits`-bit prefix for a node joining a domain whose existing
/// members are `members`, picking the least-occupied prefix bucket (ties
/// broken uniformly at random) — the hierarchical balance refinement of
/// §4.3 ("if the first node chose an ID with left-most bit 0, the second
/// should ensure its ID begins with 1", generalized to `log log n` bits).
///
/// # Panics
///
/// Panics if `bits` is 0 or exceeds 16 (the scheme only ever needs
/// `log log n` bits).
pub fn balanced_prefix(members: &[NodeId], bits: u32, rng: &mut DetRng) -> u64 {
    assert!(
        (1..=16).contains(&bits),
        "prefix length {bits} out of range"
    );
    let buckets = 1usize << bits;
    let mut counts = vec![0usize; buckets];
    for m in members {
        counts[m.prefix(bits) as usize] += 1;
    }
    let min = *counts.iter().min().expect("buckets nonempty");
    let candidates: Vec<usize> = (0..buckets).filter(|&b| counts[b] == min).collect();
    candidates[rng.gen_range(0..candidates.len())] as u64
}

/// Draws a full identifier whose top `bits` come from [`balanced_prefix`]
/// and whose remaining bits are uniform.
pub fn balanced_id(members: &[NodeId], bits: u32, rng: &mut DetRng) -> NodeId {
    let prefix = balanced_prefix(members, bits, rng);
    let low: u64 = rng.gen::<u64>() >> bits;
    NodeId::new((prefix << (ID_BITS - bits)) | low)
}

/// Builds a [`Placement`] whose identifiers are *hierarchically balanced*
/// (§4.3, final scheme): nodes join their leaf domains in sequence, each
/// choosing its top `log2 log2 n` bits to be as far as possible from the
/// other members of its leaf domain (least-occupied prefix bucket). The
/// paper's claim — balance in the lowest-level domains suffices for
/// balance all through the hierarchy — is validated by the
/// `hierarchy_balance` experiment binary.
///
/// `leaf_of` assigns each of the `n` nodes a leaf domain (e.g. drawn from
/// a uniform or Zipf distribution beforehand).
///
/// # Panics
///
/// Panics if `leaf_of` is empty, names a non-leaf domain, or produced
/// duplicate identifiers (astronomically unlikely).
pub fn hierarchical_balanced_placement(
    hierarchy: &canon_hierarchy::Hierarchy,
    leaf_of: &[canon_hierarchy::DomainId],
    seed: canon_id::rng::Seed,
) -> Placement {
    assert!(!leaf_of.is_empty(), "placement needs at least one node");
    let n = leaf_of.len();
    // t = ceil(log2 log2 n), clamped into [1, 8].
    let loglog = (n.max(4) as f64).log2().log2().ceil() as u32;
    let bits = loglog.clamp(1, 8);
    let mut rng = seed.derive("hier-balance").rng();
    let mut per_leaf: std::collections::HashMap<canon_hierarchy::DomainId, Vec<NodeId>> =
        Default::default();
    let mut pairs = Vec::with_capacity(n);
    for &leaf in leaf_of {
        let members = per_leaf.entry(leaf).or_default();
        let id = balanced_id(members, bits, &mut rng);
        members.push(id);
        pairs.push((id, leaf));
    }
    Placement::from_pairs(hierarchy, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::{random_ids, Seed};

    #[test]
    fn bisection_keeps_ratio_constant() {
        let mut alloc = BalancedAllocator::new();
        let mut rng = Seed(1).rng();
        for _ in 0..1024 {
            alloc.join(&mut rng);
        }
        let ratio = alloc.partition_ratio();
        // Paper: ratio <= 4 w.h.p.; allow slack for the B-bit approximation.
        assert!(ratio <= 8.0, "balanced ratio {ratio}");
    }

    #[test]
    fn random_ids_have_much_larger_ratio() {
        let ids = SortedRing::new(random_ids(Seed(2), 1024));
        let ratio = partition_ratio_of(&ids);
        // Θ(log² n) in expectation — far above the balanced constant.
        assert!(ratio > 30.0, "random ratio only {ratio}");
    }

    #[test]
    fn joins_grow_monotonically_and_ids_are_unique() {
        let mut alloc = BalancedAllocator::new();
        let mut rng = Seed(3).rng();
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = alloc.join(&mut rng);
            assert!(seen.insert(id), "duplicate id at join {i}");
            assert_eq!(alloc.len(), i + 1);
        }
    }

    #[test]
    fn leave_removes_and_merges() {
        let mut alloc = BalancedAllocator::new();
        let mut rng = Seed(4).rng();
        let ids: Vec<NodeId> = (0..64).map(|_| alloc.join(&mut rng)).collect();
        for id in ids.iter().take(32) {
            alloc.leave(*id);
        }
        assert_eq!(alloc.len(), 32);
        // Ratio degrades after unbalanced departures but stays bounded
        // by the binary-tree structure (facts about arbitrary removals
        // from a bisection tree: gaps are powers of two apart).
        assert!(alloc.partition_ratio() <= 64.0);
    }

    #[test]
    #[should_panic(expected = "id is allocated")]
    fn leave_unknown_id_panics() {
        let mut alloc = BalancedAllocator::new();
        let mut rng = Seed(5).rng();
        alloc.join(&mut rng);
        alloc.leave(NodeId::new(123456));
    }

    #[test]
    fn churn_preserves_reasonable_balance() {
        let mut alloc = BalancedAllocator::new();
        let mut rng = Seed(6).rng();
        let mut live: Vec<NodeId> = (0..256).map(|_| alloc.join(&mut rng)).collect();
        for round in 0..500 {
            if round % 3 == 0 && live.len() > 64 {
                let idx = rng.gen_range(0..live.len());
                alloc.leave(live.swap_remove(idx));
            } else {
                live.push(alloc.join(&mut rng));
            }
        }
        let random_equivalent =
            partition_ratio_of(&SortedRing::new(random_ids(Seed(7), alloc.len())));
        assert!(
            alloc.partition_ratio() < random_equivalent,
            "churned balanced ratio {} not better than random {random_equivalent}",
            alloc.partition_ratio()
        );
    }

    #[test]
    fn balanced_prefix_picks_empty_buckets_first() {
        let mut rng = Seed(8).rng();
        // One existing member with prefix 0 (2 bits): candidates are 1,2,3.
        let members = vec![NodeId::new(0)];
        for _ in 0..20 {
            let p = balanced_prefix(&members, 2, &mut rng);
            assert_ne!(p, 0);
        }
    }

    #[test]
    fn balanced_prefix_spreads_sequential_joins() {
        let mut rng = Seed(9).rng();
        let mut members: Vec<NodeId> = Vec::new();
        for _ in 0..64 {
            members.push(balanced_id(&members, 3, &mut rng));
        }
        let mut counts = [0usize; 8];
        for m in &members {
            counts[m.prefix(3) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 8), "buckets {counts:?}");
    }

    #[test]
    fn balanced_id_prefix_matches_choice() {
        let mut rng = Seed(10).rng();
        let members = vec![NodeId::new(u64::MAX)]; // prefix 1 (1 bit)
        let id = balanced_id(&members, 1, &mut rng);
        assert_eq!(id.prefix(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn balanced_prefix_rejects_zero_bits() {
        let mut rng = Seed(11).rng();
        balanced_prefix(&[], 0, &mut rng);
    }

    #[test]
    fn hierarchical_placement_balances_leaf_prefixes() {
        use canon_hierarchy::Hierarchy;
        let h = Hierarchy::balanced(4, 2);
        let leaves = h.leaves();
        let mut rng = Seed(20).rng();
        let leaf_of: Vec<_> = (0..512)
            .map(|_| leaves[rng.gen_range(0..leaves.len())])
            .collect();
        let p = hierarchical_balanced_placement(&h, &leaf_of, Seed(21));
        assert_eq!(p.len(), 512);
        // Within each leaf, prefix buckets differ by at most one.
        let m = canon_hierarchy::DomainMembership::build(&h, &p);
        let bits = 4u32; // ceil(log2 log2 512) = ceil(log2 9.0) = 4
        for leaf in leaves {
            let ring = m.ring(leaf);
            let mut counts = vec![0usize; 1 << bits];
            for &id in ring.as_slice() {
                counts[id.prefix(bits) as usize] += 1;
            }
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(max - min <= 1, "leaf {leaf} buckets {counts:?}");
        }
    }

    #[test]
    fn hierarchical_placement_tightens_bucket_occupancy_at_all_levels() {
        // The scheme balances *prefix-bucket* occupancy (which drives
        // per-level partition balance and degree variance), not the global
        // max/min arc ratio — lower identifier bits remain random.
        use canon_hierarchy::{DomainMembership, Hierarchy};
        let h = Hierarchy::balanced(4, 2);
        let leaves = h.leaves();
        let mut rng = Seed(22).rng();
        let n = 1024;
        let leaf_of: Vec<_> = (0..n)
            .map(|_| leaves[rng.gen_range(0..leaves.len())])
            .collect();
        let bal = hierarchical_balanced_placement(&h, &leaf_of, Seed(23));
        let bits = 4u32;
        let spread = |ids: &[NodeId]| {
            let mut counts = vec![0isize; 1 << bits];
            for id in ids {
                counts[id.prefix(bits) as usize] += 1;
            }
            counts.iter().max().unwrap() - counts.iter().min().unwrap()
        };
        // Global spread: every leaf is within ±1 per bucket, so the global
        // spread is at most the number of leaves.
        let bal_spread = spread(bal.ids());
        assert!(
            bal_spread <= leaves.len() as isize,
            "global spread {bal_spread}"
        );
        let rnd_spread = spread(&random_ids(Seed(24), n));
        assert!(
            bal_spread < rnd_spread,
            "balanced spread {bal_spread} not tighter than random {rnd_spread}"
        );
        // And per depth-1 domain the spread stays within the leaf bound too.
        let m = DomainMembership::build(&h, &bal);
        for d in h.domains_at_depth(1) {
            let s = spread(m.ring(d).as_slice());
            assert!(s <= 1, "domain {d} spread {s}");
        }
    }

    #[test]
    fn first_join_is_random_point() {
        let mut a = BalancedAllocator::new();
        let mut b = BalancedAllocator::new();
        let ida = a.join(&mut Seed(12).rng());
        let idb = b.join(&mut Seed(13).rng());
        assert_ne!(ida, idb);
        assert!(a.partition_ratio_checked().is_none());
    }

    impl BalancedAllocator {
        fn partition_ratio_checked(&self) -> Option<f64> {
            (self.ids.len() >= 2).then(|| self.partition_ratio())
        }
    }
}
