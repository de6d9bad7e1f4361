//! Per-graph next-hop index: each node's neighbor ids in metric order.
//!
//! Greedy routing spends its whole life answering one question — "which of
//! my neighbors is closest to the target?" — and the generic engine answers
//! it by enumerating every neighbor into a `Vec` (one random `graph.id()`
//! lookup per neighbor) and sorting. [`NextHopIndex`] answers it from a
//! single precomputed stream: for every node it stores `(neighbor id,
//! neighbor index)` `Entry` pairs sorted ascending by id, interleaved in
//! one flat CSR-style array sharing the graph's offsets, so one hop reads
//! one short forward burst of memory and nothing else.
//!
//! Selection over a *sorted* segment is cheap for both workspace metrics:
//!
//! * **Clockwise**: the closest neighbor is the largest id `<= target`,
//!   wrapping to the overall largest — an early-exit forward scan (typical
//!   segments are finger tables of ~log2 n entries, where a sequential
//!   scan the prefetcher can run ahead of beats a chain of dependent
//!   binary-search probes; oversized segments fall back to
//!   `partition_point`). [`crate::closest_clockwise`] is the executable
//!   specification this scan must agree with.
//! * **XOR**: distances to a fixed target are injective in the id, so one
//!   sequential `min` pass finds the unique closest neighbor
//!   ([`canon_id::ring::xor_closest_sorted`] is the logarithmic
//!   specification; segments are small enough that the streaming pass
//!   wins).
//!
//! The index is built once inside
//! [`GraphBuilder::build`](crate::graph::GraphBuilder::build) and consulted
//! by the engine's fault-free fast path ([`crate::engine::execute`] and
//! [`crate::route::route_to_key_sweep`]) — zero allocation, no sort, per
//! hop.

use crate::graph::NodeIndex;
use canon_id::{metric::Metric, NodeId};

/// Segment length above which clockwise selection switches from the
/// early-exit forward scan to `partition_point`. Finger tables in every
/// evaluated network are far below this.
const LINEAR_SCAN_MAX: usize = 64;

/// One indexed neighbor: its identifier and graph index, interleaved so a
/// segment scan reads a single sequential memory stream.
///
/// Derived ordering sorts by id first; ids are unique within a graph, so
/// the target tie-break is never consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    id: NodeId,
    target: NodeIndex,
}

/// Immutable per-node index over neighbor ids in sorted order.
///
/// Built by [`GraphBuilder::build`](crate::graph::GraphBuilder::build);
/// query it via [`OverlayGraph::next_hop_index`](crate::graph::OverlayGraph::next_hop_index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextHopIndex {
    /// Per-node segment bounds, `len() == n + 1` (same shape as the
    /// graph's CSR offsets).
    offsets: Vec<u32>,
    /// Neighbor entries, ascending by id within each node's segment.
    entries: Vec<Entry>,
}

impl NextHopIndex {
    /// Builds the index from a CSR adjacency (`ids[t]` is the identifier
    /// of node `t`; node `i`'s neighbors are
    /// `targets[offsets[i]..offsets[i+1]]`).
    pub(crate) fn build(ids: &[NodeId], offsets: &[u32], targets: &[NodeIndex]) -> NextHopIndex {
        let mut entries: Vec<Entry> = targets
            .iter()
            .map(|&t| Entry {
                id: ids[t.index()],
                target: t,
            })
            .collect();
        // A row sorted by index is sorted by id already wherever ids
        // ascend with the index, as on a Canon walk's graph.
        for w in offsets.windows(2) {
            let segment = &mut entries[w[0] as usize..w[1] as usize];
            if !segment.is_sorted() {
                segment.sort_unstable();
            }
        }
        NextHopIndex {
            offsets: offsets.to_vec(),
            entries,
        }
    }

    /// Resident bytes of the index's live arrays: per-node segment bounds
    /// plus the interleaved `(id, target)` entries (16 bytes each). Live
    /// entries only — the same accounting convention as
    /// [`OverlayGraph::resident_bytes`](crate::graph::OverlayGraph::resident_bytes).
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<Entry>()
    }

    fn segment(&self, at: NodeIndex) -> (usize, usize) {
        (
            self.offsets[at.index()] as usize,
            self.offsets[at.index() + 1] as usize,
        )
    }

    /// The neighbor ids of `at`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds.
    pub fn neighbor_ids(&self, at: NodeIndex) -> impl Iterator<Item = NodeId> + '_ {
        let (lo, hi) = self.segment(at);
        self.entries[lo..hi].iter().map(|e| e.id)
    }

    /// Touches `at`'s segment bounds and first entries, returning a value
    /// derived from the reads so the loads stay live.
    ///
    /// This is the software-pipelining hook for interleaved sweeps
    /// ([`crate::route::route_to_key_sweep`]): calling it one round before
    /// `next_toward(.., at, ..)` starts the segment's cache-line fills
    /// while other walks are being advanced, so the later selection scan
    /// finds the data resident instead of stalling a full memory latency.
    /// Purely a read — results are unaffected. It pays only on graphs too
    /// large for cache: the sweep is 1.1–1.35× the one-at-a-time rate
    /// from n = 65,536 up and slower than it up to n = 4,096 (measurements
    /// in [`crate::route::route_to_key_sweep`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds.
    #[inline]
    pub fn warm(&self, at: NodeIndex) -> u64 {
        let (lo, hi) = self.segment(at);
        if lo == hi {
            return 0;
        }
        // Two touches — the first line and the line one down (4 entries of
        // 16 bytes per line) — cover what the early-exit scan typically
        // reads; the hardware stream prefetcher follows for the tail of
        // oversized segments. Kept branch-light so a sweep's round stays
        // small enough for many rounds to overlap in the reorder window.
        let second = (lo + 4).min(hi - 1);
        self.entries[lo].id.raw() ^ self.entries[second].id.raw()
    }

    /// The neighbor of `at` minimizing `metric.distance(neighbor_id,
    /// target)`, together with that distance. `None` iff `at` has no
    /// neighbors.
    ///
    /// The minimum is unique — metric distances to a fixed target are
    /// injective in the identifier, and identifiers are unique — so this
    /// is exactly the first candidate of the generic
    /// candidates-then-sort-by-`(rank, next)` path whenever that candidate
    /// set is nonempty.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds.
    pub fn next_toward<M: Metric>(
        &self,
        metric: M,
        at: NodeIndex,
        target: NodeId,
    ) -> Option<(NodeIndex, u64)> {
        let (lo, hi) = self.segment(at);
        let seg = &self.entries[lo..hi];
        let best = if metric.is_symmetric() {
            // XOR: one streaming pass; the minimum is unique.
            seg.iter().min_by_key(|e| metric.distance(e.id, target))?
        } else {
            clockwise_best(seg, target)?
        };
        Some((best.target, metric.distance(best.id, target)))
    }
}

/// The clockwise-closest entry: largest id `<= target`, wrapping to the
/// overall largest when no id qualifies. Agrees with
/// [`crate::closest_clockwise`] on every input.
fn clockwise_best(seg: &[Entry], target: NodeId) -> Option<&Entry> {
    if seg.len() > LINEAR_SCAN_MAX {
        let idx = seg.partition_point(|e| e.id <= target);
        return Some(&seg[if idx == 0 { seg.len() - 1 } else { idx - 1 }]);
    }
    let mut best = seg.last()?;
    for e in seg {
        if e.id > target {
            break;
        }
        best = e;
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::metric::{Clockwise, Xor};

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn graph() -> crate::graph::OverlayGraph {
        let ids: Vec<NodeId> = [7u64, 1, 30, 12, 55].iter().map(|&r| id(r)).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        b.add_link(id(7), id(1));
        b.add_link(id(7), id(30));
        b.add_link(id(7), id(12));
        b.add_link(id(1), id(55));
        b.build()
    }

    #[test]
    fn neighbor_ids_are_sorted_ascending() {
        let g = graph();
        let idx = g.next_hop_index();
        assert_eq!(
            idx.neighbor_ids(NodeIndex(0)).collect::<Vec<_>>(),
            vec![id(1), id(12), id(30)]
        );
        assert_eq!(
            idx.neighbor_ids(NodeIndex(1)).collect::<Vec<_>>(),
            vec![id(55)]
        );
        assert_eq!(idx.neighbor_ids(NodeIndex(4)).count(), 0);
    }

    #[test]
    fn next_toward_matches_exhaustive_scan() {
        let g = graph();
        let idx = g.next_hop_index();
        for at in g.node_indices() {
            for t in [0u64, 1, 7, 11, 12, 13, 31, 54, 55, 56, u64::MAX] {
                let target = id(t);
                for sym in [false, true] {
                    let (got, want) = if sym {
                        (
                            idx.next_toward(Xor, at, target),
                            // audit: allow(greedy-outside-engine)
                            g.neighbors(at)
                                .iter()
                                .map(|&nb| (Xor.distance(g.id(nb), target), nb))
                                .min()
                                .map(|(d, nb)| (nb, d)),
                        )
                    } else {
                        (
                            idx.next_toward(Clockwise, at, target),
                            // audit: allow(greedy-outside-engine)
                            g.neighbors(at)
                                .iter()
                                .map(|&nb| (Clockwise.distance(g.id(nb), target), nb))
                                .min()
                                .map(|(d, nb)| (nb, d)),
                        )
                    };
                    assert_eq!(got, want, "at {at}, target {t}, sym {sym}");
                }
            }
        }
    }

    #[test]
    fn oversized_segments_agree_with_the_scan_specification() {
        // A hub with 200 neighbors exercises the `partition_point` branch
        // (segments past LINEAR_SCAN_MAX) against `closest_clockwise`.
        let ids: Vec<NodeId> = (0u64..=200).map(|r| id(r * 3 + 1)).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 1..=200u64 {
            b.add_link(id(1), id(i * 3 + 1));
        }
        let g = b.build();
        let idx = g.next_hop_index();
        let hub = NodeIndex(0);
        let sorted: Vec<NodeId> = idx.neighbor_ids(hub).collect();
        assert_eq!(sorted.len(), 200);
        for t in [0u64, 1, 3, 4, 5, 299, 300, 301, 601, 602, u64::MAX] {
            let target = id(t);
            let got = idx.next_toward(Clockwise, hub, target);
            let want = crate::closest_clockwise(&sorted, target).expect("nonempty segment");
            assert_eq!(got.map(|(_, d)| d), Some(want.1), "target {t}");
        }
    }
}
