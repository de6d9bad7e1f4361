//! A sorted identifier ring with the successor/predecessor/gap queries that
//! every static DHT construction in this workspace is built from.
//!
//! All link rules in the paper reduce to a handful of queries over a sorted
//! set of identifiers:
//!
//! * Chord/Crescendo: *successor of a point* ("the closest node at least
//!   distance `2^k` away" is the successor of `m + 2^k`), and the *gap* to
//!   the next node (the own-ring bound of Canon's merge condition (b));
//! * Symphony/Cacophony: successor of a randomly drawn point;
//! * Kademlia/Kandy/CAN: *XOR-closest node* and *XOR bucket ranges* (both
//!   answerable on a sorted array because the element sharing the longest
//!   common prefix with a query point is adjacent to its insertion position).

use crate::{metric::Metric, NodeId, RingDistance, ID_BITS};

/// An immutable, sorted, duplicate-free set of node identifiers arranged on
/// the circular identifier space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedRing {
    ids: Vec<NodeId>,
}

impl SortedRing {
    /// Builds a ring from arbitrary identifiers, sorting and deduplicating.
    pub fn new(mut ids: Vec<NodeId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        SortedRing { ids }
    }

    /// Merges several rings into one (the node set of a parent domain).
    pub fn merged<'a, I>(rings: I) -> Self
    where
        I: IntoIterator<Item = &'a SortedRing>,
    {
        let mut all: Vec<NodeId> = Vec::new();
        for r in rings {
            all.extend_from_slice(&r.ids);
        }
        SortedRing::new(all)
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifiers in sorted order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids
    }

    /// Resident bytes of the ring's identifier array — live entries only
    /// (`len × size_of::<NodeId>()`), not allocator capacity, so overlay
    /// memory accounting stays reproducible.
    pub fn resident_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<NodeId>()
    }

    /// Iterates over the identifiers in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.ids.iter()
    }

    /// Whether `id` is on the ring.
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Index of `id` on the ring, if present.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// A prefix table over the ring for [`RingPositions::of`]: the
    /// position of an identifier in O(1) expected time on uniformly drawn
    /// identifiers, where [`SortedRing::index_of`] searches. Building it
    /// costs one pass over the ring; it borrows the ring, so it lives as
    /// long as the construction that asked for it, and the ring itself
    /// stores nothing more.
    pub fn positions(&self) -> RingPositions<'_> {
        RingPositions::new(&self.ids)
    }

    /// Index of the first identifier `>= point`, wrapping to `0` past the
    /// end. Returns `None` on an empty ring.
    pub fn successor_index(&self, point: NodeId) -> Option<usize> {
        if self.ids.is_empty() {
            return None;
        }
        let idx = self.ids.partition_point(|&id| id < point);
        Some(if idx == self.ids.len() { 0 } else { idx })
    }

    /// The first identifier at clockwise distance `>= 0` from `point`, i.e.
    /// the successor of the point (the point itself if present).
    pub fn successor(&self, point: NodeId) -> Option<NodeId> {
        self.successor_index(point).map(|i| self.ids[i])
    }

    /// The first identifier *strictly* clockwise of `point` (distance `>= 1`).
    ///
    /// For a node on the ring this is its ring successor. On a singleton
    /// ring containing exactly `point`, this returns the point itself (the
    /// node is its own successor after going all the way around).
    pub fn strict_successor(&self, point: NodeId) -> Option<NodeId> {
        self.successor(point.offset(1))
    }

    /// The node responsible for `point` under the paper's convention
    /// (footnote 3): the node with the largest identifier `<= point`,
    /// wrapping counterclockwise past zero.
    pub fn responsible(&self, point: NodeId) -> Option<NodeId> {
        let last = *self.ids.last()?;
        let idx = self.ids.partition_point(|&id| id <= point);
        Some(if idx == 0 { last } else { self.ids[idx - 1] })
    }

    /// The node with the largest identifier strictly counterclockwise of
    /// `point` (its ring predecessor when `point` is on the ring).
    pub fn strict_predecessor(&self, point: NodeId) -> Option<NodeId> {
        let last = *self.ids.last()?;
        let idx = self.ids.partition_point(|&id| id < point);
        Some(if idx == 0 { last } else { self.ids[idx - 1] })
    }

    /// Clockwise distance from `id` to the nearest *other* node on the ring,
    /// or [`RingDistance::FULL_CIRCLE`] if `id` is alone (or the ring is
    /// empty). This is the own-ring bound of Canon merge condition (b) under
    /// the clockwise metric.
    pub fn clockwise_gap(&self, id: NodeId) -> RingDistance {
        match self.strict_successor(id) {
            Some(succ) if succ != id => RingDistance::from_u64(id.clockwise_to(succ)),
            _ => RingDistance::FULL_CIRCLE,
        }
    }

    /// Minimum XOR distance from `id` to any *other* node on the ring, or
    /// [`RingDistance::FULL_CIRCLE`] if `id` is alone. This is the own-ring
    /// bound of Canon merge condition (b) under the XOR metric.
    pub fn xor_gap(&self, id: NodeId) -> RingDistance {
        match self.xor_closest_excluding(id, id) {
            Some(n) => RingDistance::from_u64(id.xor_to(n)),
            None => RingDistance::FULL_CIRCLE,
        }
    }

    /// The own-ring bound for metric `m`: the distance from `id` to the
    /// closest other node of this ring under `m`.
    pub fn own_ring_bound<M: Metric>(&self, m: M, id: NodeId) -> RingDistance {
        // The two supported metrics admit O(log n) answers; dispatch on the
        // symmetry flag, which distinguishes them.
        if m.is_symmetric() {
            self.xor_gap(id)
        } else {
            self.clockwise_gap(id)
        }
    }

    /// The node XOR-closest to `target`, excluding `exclude` (pass an
    /// identifier not on the ring to exclude nothing).
    ///
    /// Implemented as a binary-trie descent over the sorted array: at each
    /// bit the half matching `target`'s bit is preferred, with backtracking
    /// only when a preferred subtree contains nothing but `exclude`. Runs in
    /// O(64 · log n).
    pub fn xor_closest_excluding(&self, target: NodeId, exclude: NodeId) -> Option<NodeId> {
        xor_best(&self.ids, 0, target, Some(exclude))
    }

    /// The node XOR-closest to `target` (the Kademlia notion of the node
    /// responsible for a key).
    pub fn xor_closest(&self, target: NodeId) -> Option<NodeId> {
        xor_best(&self.ids, 0, target, None)
    }

    /// All identifiers in the inclusive value range `[lo, hi]`
    /// (non-circular).
    pub fn range(&self, lo: NodeId, hi: NodeId) -> &[NodeId] {
        if lo > hi {
            return &[];
        }
        let start = self.ids.partition_point(|&id| id < lo);
        let end = self.ids.partition_point(|&id| id <= hi);
        &self.ids[start..end]
    }

    /// The identifiers of `id`'s XOR bucket `k`: nodes at XOR distance in
    /// `[2^k, 2^(k+1))`, i.e. nodes agreeing with `id` on the top `63 - k`
    /// bits and differing at MSB-first bit position `63 - k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    pub fn xor_bucket(&self, id: NodeId, k: u32) -> &[NodeId] {
        assert!(k < ID_BITS, "bucket index {k} out of range");
        let bit_pos = ID_BITS - 1 - k; // MSB-first position of the differing bit
        let flipped = id.flip_bit(bit_pos).raw();
        let mask = if k == 0 { 0 } else { (1u64 << k) - 1 };
        let lo = flipped & !mask;
        let hi = lo | mask;
        self.range(NodeId::new(lo), NodeId::new(hi))
    }

    /// The node in bucket `k` with minimum XOR distance to `id`, if any.
    pub fn xor_bucket_closest(&self, id: NodeId, k: u32) -> Option<NodeId> {
        let bucket = self.xor_bucket(id, k);
        // Bucket members share the top 64-k bits, so the descent starts at
        // bit position 64-k (MSB-first).
        xor_best(bucket, ID_BITS - k, id, None)
    }

    /// Clockwise distance from `id` to its ring successor, as an index-based
    /// query: gap after position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn gap_after_index(&self, idx: usize) -> RingDistance {
        let id = self.ids[idx];
        if self.ids.len() == 1 {
            return RingDistance::FULL_CIRCLE;
        }
        let next = self.ids[(idx + 1) % self.ids.len()];
        RingDistance::from_u64(id.clockwise_to(next))
    }
}

/// Identifier → ring position through a table of prefix buckets (see
/// [`SortedRing::positions`]).
///
/// The identifier space is cut into `2^bits` equal buckets by the top
/// `bits` bits, with `2^bits` the ring size rounded up to a power of two;
/// `starts[b]` is the position of the first identifier in bucket `b` or
/// above. A lookup reads its bucket's bounds and searches the bucket, which
/// holds about one identifier when identifiers are uniform — the ids every
/// placement in this workspace draws — and at worst the whole ring, where
/// the search is the ring's own binary search.
#[derive(Clone, Debug)]
pub struct RingPositions<'a> {
    ids: &'a [NodeId],
    /// `ID_BITS - bits`: an identifier's bucket is `raw >> shift`.
    shift: u32,
    /// `2^bits + 1` bucket starts, the last one `ids.len()`.
    starts: Vec<u32>,
}

impl<'a> RingPositions<'a> {
    /// Bucket length up to which [`RingPositions::of`] scans instead of
    /// searching: a bucket holds about one identifier on uniform ids.
    const SCAN_MAX: usize = 8;

    fn new(ids: &'a [NodeId]) -> Self {
        assert!(ids.len() < u32::MAX as usize, "ring too large to index");
        let bits = ids.len().next_power_of_two().trailing_zeros().max(1);
        let shift = ID_BITS - bits;
        let buckets = 1usize << bits;
        let mut starts = Vec::with_capacity(buckets + 1);
        let mut at = 0usize;
        for b in 0..buckets as u64 {
            while at < ids.len() && ids[at].raw() >> shift < b {
                at += 1;
            }
            starts.push(at as u32);
        }
        starts.push(ids.len() as u32);
        RingPositions { ids, shift, starts }
    }

    /// The position of `id` on the ring, if present: what
    /// [`SortedRing::index_of`] returns.
    #[inline]
    pub fn of(&self, id: NodeId) -> Option<usize> {
        let b = (id.raw() >> self.shift) as usize;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let bucket = &self.ids[lo..hi];
        let found = if bucket.len() <= Self::SCAN_MAX {
            bucket.iter().position(|&x| x == id)
        } else {
            bucket.binary_search(&id).ok()
        };
        found.map(|k| lo + k)
    }
}

/// Position in `sorted` (ascending, duplicate-free) of the identifier
/// minimizing the *XOR* distance to `target`. Returns `None` on an empty
/// slice.
///
/// A sorted-by-id array is simultaneously bucket-ordered under XOR — the
/// members of any bucket relative to any anchor form a contiguous range —
/// so the binary-trie descent of [`SortedRing::xor_closest`] applies
/// directly to neighbor lists too. Runs in O(64 · log n).
pub fn xor_closest_sorted(sorted: &[NodeId], target: NodeId) -> Option<usize> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] < w[1]),
        "ids not strictly sorted"
    );
    let best = xor_best(sorted, 0, target, None)?;
    // The descent returns an element of `sorted`; recover its position.
    sorted.binary_search(&best).ok()
}

/// Trie descent over a sorted, shared-prefix slice: returns the element
/// minimizing XOR distance to `target`, skipping `exclude`.
///
/// All elements of `slice` agree with each other on bits `[0, bit)`
/// (MSB-first). Preferring the half whose bit matches `target`'s is optimal
/// because any element of the other half pays `2^(63-bit)` in XOR distance.
fn xor_best(slice: &[NodeId], bit: u32, target: NodeId, exclude: Option<NodeId>) -> Option<NodeId> {
    if slice.is_empty() {
        return None;
    }
    if slice.len() == 1 || bit >= ID_BITS {
        return slice.iter().copied().find(|&x| Some(x) != exclude);
    }
    let split = slice.partition_point(|&x| !x.bit(bit));
    let (zeros, ones) = slice.split_at(split);
    let (preferred, alternative) = if target.bit(bit) {
        (ones, zeros)
    } else {
        (zeros, ones)
    };
    xor_best(preferred, bit + 1, target, exclude)
        .or_else(|| xor_best(alternative, bit + 1, target, exclude))
}

impl FromIterator<NodeId> for SortedRing {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        SortedRing::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SortedRing {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Clockwise, Xor};

    fn ring(ids: &[u64]) -> SortedRing {
        SortedRing::new(ids.iter().copied().map(NodeId::new).collect())
    }

    #[test]
    fn positions_agree_with_index_of() {
        let dense = SortedRing::new(crate::rng::random_ids(crate::rng::Seed(3), 1000));
        // Clustered ids: twenty in the lowest bucket (past the scan, into
        // the binary search), two in the highest.
        let low: Vec<u64> = (1..=20).chain([u64::MAX - 1, u64::MAX]).collect();
        let clustered = ring(&low);
        for r in [dense, clustered, ring(&[7]), ring(&[])] {
            let pos = r.positions();
            for (k, &id) in r.iter().enumerate() {
                assert_eq!(pos.of(id), Some(k));
                assert_eq!(pos.of(id.offset(1)), r.index_of(id.offset(1)));
            }
            assert_eq!(pos.of(NodeId::new(0)), r.index_of(NodeId::new(0)));
        }
    }

    #[test]
    fn new_sorts_and_dedups() {
        let r = ring(&[5, 1, 5, 3]);
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.as_slice(),
            &[NodeId::new(1), NodeId::new(3), NodeId::new(5)]
        );
    }

    #[test]
    fn successor_wraps_around() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.successor(NodeId::new(10)), Some(NodeId::new(10)));
        assert_eq!(r.successor(NodeId::new(11)), Some(NodeId::new(20)));
        assert_eq!(r.successor(NodeId::new(31)), Some(NodeId::new(10)));
        assert_eq!(r.strict_successor(NodeId::new(30)), Some(NodeId::new(10)));
    }

    #[test]
    fn successor_on_empty_ring_is_none() {
        let r = SortedRing::default();
        assert!(r.successor(NodeId::new(0)).is_none());
        assert!(r.responsible(NodeId::new(0)).is_none());
        assert!(r.strict_predecessor(NodeId::new(0)).is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn responsible_is_floor_predecessor() {
        // Paper footnote 3: responsible for keys >= own id, < next id.
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.responsible(NodeId::new(10)), Some(NodeId::new(10)));
        assert_eq!(r.responsible(NodeId::new(19)), Some(NodeId::new(10)));
        assert_eq!(r.responsible(NodeId::new(20)), Some(NodeId::new(20)));
        assert_eq!(r.responsible(NodeId::new(5)), Some(NodeId::new(30)));
        assert_eq!(r.responsible(NodeId::new(u64::MAX)), Some(NodeId::new(30)));
    }

    #[test]
    fn strict_predecessor_excludes_point() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.strict_predecessor(NodeId::new(20)), Some(NodeId::new(10)));
        assert_eq!(r.strict_predecessor(NodeId::new(10)), Some(NodeId::new(30)));
    }

    #[test]
    fn clockwise_gap_measures_to_next_node() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.clockwise_gap(NodeId::new(10)), RingDistance::from_u64(10));
        assert_eq!(
            r.clockwise_gap(NodeId::new(30)),
            RingDistance::from_u64(NodeId::new(30).clockwise_to(NodeId::new(10)))
        );
    }

    #[test]
    fn singleton_gap_is_full_circle() {
        let r = ring(&[42]);
        assert!(r.clockwise_gap(NodeId::new(42)).is_full_circle());
        assert!(r.xor_gap(NodeId::new(42)).is_full_circle());
    }

    #[test]
    fn gap_works_for_points_not_on_ring() {
        let r = ring(&[10, 20]);
        // A point off the ring still has a well-defined distance to the next node.
        assert_eq!(r.clockwise_gap(NodeId::new(15)), RingDistance::from_u64(5));
    }

    #[test]
    fn xor_closest_finds_longest_common_prefix() {
        let r = ring(&[0b0000, 0b0110, 0b1000, 0b1110]);
        let t = NodeId::new(0b0111);
        assert_eq!(
            r.xor_closest_excluding(t, NodeId::new(u64::MAX)),
            Some(NodeId::new(0b0110))
        );
        // Excluding the best forces the next-best.
        assert_eq!(
            r.xor_closest_excluding(t, NodeId::new(0b0110)),
            Some(NodeId::new(0b0000))
        );
    }

    #[test]
    fn xor_closest_exhaustive_check() {
        // Compare the O(log n) answer against brute force on a fixed set.
        let ids: Vec<u64> = vec![3, 9, 17, 64, 100, 255, 256, 1023, 5000, u64::MAX - 3];
        let r = ring(&ids);
        for t in [0u64, 5, 16, 63, 99, 254, 257, 1024, 4999, u64::MAX] {
            let t = NodeId::new(t);
            let brute = ids
                .iter()
                .map(|&i| NodeId::new(i))
                .min_by_key(|&i| t.xor_to(i))
                .unwrap();
            let fast = r.xor_closest_excluding(t, NodeId::new(1)).unwrap();
            assert_eq!(t.xor_to(fast), t.xor_to(brute), "target {t:?}");
        }
    }

    #[test]
    fn range_query_is_inclusive() {
        let r = ring(&[10, 20, 30, 40]);
        let got = r.range(NodeId::new(20), NodeId::new(30));
        assert_eq!(got, &[NodeId::new(20), NodeId::new(30)]);
        assert!(r.range(NodeId::new(31), NodeId::new(39)).is_empty());
        assert!(r.range(NodeId::new(30), NodeId::new(20)).is_empty());
    }

    #[test]
    fn xor_bucket_contents_match_distance_band() {
        let ids: Vec<u64> = (0..64u64).map(|i| i * 977).collect();
        let r = ring(&ids);
        let me = NodeId::new(977 * 13);
        for k in 0..ID_BITS {
            let bucket = r.xor_bucket(me, k);
            for &b in bucket {
                let d = me.xor_to(b);
                assert!(d >= (1u64 << k));
                assert!(k == 63 || d < (1u64 << (k + 1)));
            }
            // Brute force: every node in the band appears in the bucket.
            let expected = ids
                .iter()
                .filter(|&&i| {
                    let d = me.xor_to(NodeId::new(i));
                    d >= (1u64 << k) && (k == 63 || d < (1u64 << (k + 1)))
                })
                .count();
            assert_eq!(bucket.len(), expected, "bucket {k}");
        }
    }

    #[test]
    fn xor_bucket_closest_matches_brute_force() {
        let ids: Vec<u64> = (1..200u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let r = ring(&ids);
        let me = NodeId::new(ids[7]);
        for k in 0..ID_BITS {
            let fast = r.xor_bucket_closest(me, k);
            let brute = r
                .xor_bucket(me, k)
                .iter()
                .copied()
                .min_by_key(|&b| me.xor_to(b));
            assert_eq!(
                fast.map(|n| me.xor_to(n)),
                brute.map(|n| me.xor_to(n)),
                "bucket {k}"
            );
        }
    }

    #[test]
    fn own_ring_bound_dispatches_by_metric() {
        let r = ring(&[0b0001, 0b0100, 0b1000_0000]);
        let me = NodeId::new(0b0100);
        assert_eq!(
            r.own_ring_bound(Clockwise, me),
            RingDistance::from_u64(0b0111_1100)
        );
        assert_eq!(r.own_ring_bound(Xor, me), RingDistance::from_u64(0b0101));
    }

    #[test]
    fn merged_combines_rings() {
        let a = ring(&[1, 5]);
        let b = ring(&[3, 5, 9]);
        let m = SortedRing::merged([&a, &b]);
        assert_eq!(
            m.as_slice(),
            &[
                NodeId::new(1),
                NodeId::new(3),
                NodeId::new(5),
                NodeId::new(9)
            ]
        );
    }

    #[test]
    fn from_iterator_collects() {
        let r: SortedRing = [NodeId::new(9), NodeId::new(2)].into_iter().collect();
        assert_eq!(r.as_slice(), &[NodeId::new(2), NodeId::new(9)]);
        assert_eq!((&r).into_iter().copied().count(), 2);
    }

    #[test]
    fn gap_after_index_wraps() {
        let r = ring(&[10, 20]);
        assert_eq!(r.gap_after_index(0), RingDistance::from_u64(10));
        assert_eq!(
            r.gap_after_index(1),
            RingDistance::from_u64(NodeId::new(20).clockwise_to(NodeId::new(10)))
        );
    }

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn xor_closest_sorted_matches_scan() {
        let sorted = ids(&[0b0001, 0b0100, 0b0101, 0b1011, 0b1110]);
        for t in 0u64..32 {
            let target = NodeId::new(t);
            let got = xor_closest_sorted(&sorted, target).unwrap();
            let want = sorted
                .iter()
                .enumerate()
                .min_by_key(|(_, &id)| id.xor_to(target))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(got, want, "target {t}");
        }
        assert_eq!(xor_closest_sorted(&[], NodeId::new(7)), None);
    }
}
