//! Patch-list overlay: O(links) join/leave on top of an immutable
//! [`OverlayGraph`].
//!
//! The flat CSR graph and its [`NextHopIndex`](crate::index::NextHopIndex)
//! are immutable by design — construction-time artifacts with a
//! byte-deterministic layout that audits and goldens pin. Under churn that
//! used to mean rebuilding both from scratch: O(n · links) for a
//! one-node change, minutes of work at 2^20 nodes. [`PatchedOverlay`]
//! instead layers a patch list over the base:
//!
//! * [`PatchedOverlay::apply_join`] and [`PatchedOverlay::apply_leave`]
//!   record membership changes and link-set overrides in O(links),
//!   returning an [`OverlayPatch`] describing the delta;
//! * reads ([`PatchedOverlay::next_toward`], [`PatchedOverlay::links_of`],
//!   [`PatchedOverlay::route_ids`]) merge base and patches on the fly: an
//!   overridden node answers from its patch row, an untouched node answers
//!   from the base next-hop index with departed targets filtered out;
//! * [`PatchedOverlay::compact`] periodically folds the patch list back
//!   into a flat CSR + index. Compaction is *exact*: the result is
//!   byte-identical to a from-scratch
//!   [`GraphBuilder::from_per_node_links`] build of the same membership
//!   and link sets — same ids, permutation, offsets, targets, ring and
//!   next-hop index — so routing state cannot drift under churn.
//!
//! Patch state lives in `BTreeMap`/`BTreeSet` (deterministic iteration;
//! this crate is under the hash-iteration lint) and costs O(patched
//! nodes · links). [`PatchedOverlay::should_compact`] bounds the patch
//! list to a fraction of the membership, so reads stay
//! O(links + log patched) and the amortized churn cost per operation is
//! O(links).

use crate::engine::HOP_LIMIT;
use crate::graph::{GraphBuilder, OverlayGraph};
use canon_id::{metric::Metric, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;

/// The delta one churn operation applied to a [`PatchedOverlay`] — the
/// O(links) cost witness the maintenance paths hand back to callers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverlayPatch {
    /// The node that joined, if the operation was a join.
    pub joined: Option<NodeId>,
    /// The node that left, if the operation was a leave.
    pub left: Option<NodeId>,
    /// Link entries written or retired by the operation.
    pub links_touched: usize,
}

/// An [`OverlayGraph`] plus a patch list of joins, leaves and link
/// rewrites applied since the last compaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatchedOverlay {
    base: OverlayGraph,
    /// Link-set overrides keyed by node id: joiners since the last
    /// compaction, and members whose link sets were rewritten
    /// ([`PatchedOverlay::relink`]). Rows are stored in the base index's
    /// normal form — sorted ascending, deduplicated, self-free.
    overrides: BTreeMap<NodeId, Vec<NodeId>>,
    /// Every id that departed since the last compaction and has not
    /// re-joined. Reads filter link targets against this set, which is
    /// what keeps rows referencing a departed node correct without a
    /// reverse index. Disjoint from `overrides` keys.
    removed: BTreeSet<NodeId>,
}

impl PatchedOverlay {
    /// Wraps `base` with an empty patch list.
    pub fn new(base: OverlayGraph) -> PatchedOverlay {
        PatchedOverlay {
            base,
            overrides: BTreeMap::new(),
            removed: BTreeSet::new(),
        }
    }

    /// An overlay over the empty graph — the starting state of a network
    /// that grows purely by [`PatchedOverlay::apply_join`].
    pub fn empty() -> PatchedOverlay {
        PatchedOverlay::new(GraphBuilder::new().build())
    }

    /// The compacted base (excluding any pending patches).
    pub fn base(&self) -> &OverlayGraph {
        &self.base
    }

    /// Current number of members (base, minus departures, plus joins).
    pub fn len(&self) -> usize {
        let gone = self
            .removed
            .iter()
            .filter(|&&id| self.base.index_of(id).is_some())
            .count();
        let added = self
            .overrides
            .keys()
            .filter(|&&id| self.base.index_of(id).is_none())
            .count();
        self.base.len() - gone + added
    }

    /// Whether the overlay has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is currently a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.overrides.contains_key(&id)
            || (!self.removed.contains(&id) && self.base.index_of(id).is_some())
    }

    /// Number of nodes with pending patch state (overridden rows plus
    /// recorded departures) — the quantity
    /// [`PatchedOverlay::should_compact`] bounds.
    pub fn patched_nodes(&self) -> usize {
        self.overrides.len() + self.removed.len()
    }

    /// All current member ids, sorted ascending — the node order a
    /// compacted graph will use.
    pub fn ids(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::with_capacity(self.base.len() + self.overrides.len());
        out.extend(
            self.base
                .ring()
                .iter()
                .copied()
                .filter(|id| !self.removed.contains(id)),
        );
        out.extend(
            self.overrides
                .keys()
                .copied()
                .filter(|&id| self.base.index_of(id).is_none()),
        );
        out.sort_unstable();
        out
    }

    /// The live links of `id`: its override row or its base row, with
    /// departed targets filtered out. `None` iff `id` is not a member.
    pub fn links_of(&self, id: NodeId) -> Option<Vec<NodeId>> {
        if !self.contains(id) {
            return None;
        }
        Some(self.links_row(id))
    }

    /// Records `id` joining with link set `links` (order-insensitive;
    /// duplicates and self-links are normalized away). O(|links| log n).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already a member.
    pub fn apply_join(&mut self, id: NodeId, links: Vec<NodeId>) -> OverlayPatch {
        assert!(!self.contains(id), "node {id} is already a member");
        let row = normalize(id, links);
        let links_touched = row.len();
        self.removed.remove(&id);
        self.overrides.insert(id, row);
        OverlayPatch {
            joined: Some(id),
            left: None,
            links_touched,
        }
    }

    /// Records `id` leaving. Rows still referencing `id` stay untouched —
    /// reads filter them — so a leave is O(own links), not O(in-degree).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member.
    pub fn apply_leave(&mut self, id: NodeId) -> OverlayPatch {
        assert!(self.contains(id), "node {id} is not a member");
        let links_touched = self.links_row(id).len();
        self.overrides.remove(&id);
        self.removed.insert(id);
        OverlayPatch {
            joined: None,
            left: Some(id),
            links_touched,
        }
    }

    /// Rewrites `id`'s link set (a repair or relink after neighboring
    /// churn). Returns whether the stored links actually changed; an
    /// unchanged rewrite leaves the patch list alone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member.
    pub fn relink(&mut self, id: NodeId, links: Vec<NodeId>) -> bool {
        assert!(self.contains(id), "node {id} is not a member");
        let row = normalize(id, links);
        if self.links_row(id) == row {
            return false;
        }
        self.overrides.insert(id, row);
        true
    }

    /// Whether the patch list has outgrown the compaction threshold
    /// (patched nodes beyond ~1/8 of the membership, with a floor so tiny
    /// overlays do not compact on every operation). Compacting every
    /// n/8 churn operations keeps the amortized fold cost per operation at
    /// O(links) while reads stay O(links + log patched).
    pub fn should_compact(&self) -> bool {
        self.patched_nodes() > 32 + self.len() / 8
    }

    /// Folds the patch list into the base, leaving an empty patch list
    /// over a flat CSR + next-hop index.
    pub fn compact(&mut self) {
        self.base = self.compacted();
        self.overrides.clear();
        self.removed.clear();
    }

    /// The flat graph this overlay denotes — byte-identical to
    /// [`GraphBuilder::from_per_node_links`] on the current membership and
    /// live link sets, because it *is* that call.
    pub fn compacted(&self) -> OverlayGraph {
        let ids = self.ids();
        let per_node: Vec<Vec<NodeId>> = ids.iter().map(|&id| self.links_row(id)).collect();
        GraphBuilder::from_per_node_links(&ids, &per_node)
    }

    /// The live link of `at` minimizing `metric.distance(link, target)`,
    /// with that distance. `None` iff `at` has no live links. The minimum
    /// is unique (metric distances to a fixed target are injective in the
    /// identifier), so this agrees with the base
    /// [`NextHopIndex`](crate::index::NextHopIndex) wherever the base is
    /// exact — and the unpatched case delegates to it directly.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not a member.
    pub fn next_toward<M: Metric>(
        &self,
        metric: M,
        at: NodeId,
        target: NodeId,
    ) -> Option<(NodeId, u64)> {
        assert!(self.contains(at), "node {at} is not a member");
        if let Some(row) = self.overrides.get(&at) {
            return closest(
                metric,
                row.iter().copied().filter(|to| !self.removed.contains(to)),
                target,
            );
        }
        let idx = self.base.index_of(at)?;
        if self.removed.is_empty() {
            // Fast path: no departures, so the base index segment is the
            // exact live link set.
            return self
                .base
                .next_hop_index()
                .next_toward(metric, idx, target)
                .map(|(t, d)| (self.base.id(t), d));
        }
        closest(
            metric,
            self.base
                .next_hop_index()
                .neighbor_ids(idx)
                .filter(|to| !self.removed.contains(to)),
            target,
        )
    }

    /// Greedy strict-progress walk from `from` toward `to` over the merged
    /// view — the id-space mirror of the engine's fast path: hop to the
    /// unique distance-minimizing live link while it is strictly closer
    /// than the current node, stop at the target or a local minimum.
    ///
    /// Returns the visited path (starting at `from`, ending at `to`), or
    /// `None` when the walk terminates elsewhere or exhausts the defensive
    /// [`HOP_LIMIT`] budget.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a member.
    pub fn route_ids<M: Metric>(&self, metric: M, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut cur = from;
        let mut dist = metric.distance(cur, to);
        while dist != 0 {
            let (next, d) = self.next_toward(metric, cur, to)?;
            if d >= dist || path.len() > HOP_LIMIT {
                return None;
            }
            path.push(next);
            cur = next;
            dist = d;
        }
        Some(path)
    }

    /// Resident bytes: the base graph plus the live patch entries
    /// (override keys and rows, departed ids), excluding tree-node and
    /// allocator overhead — the same live-entry convention as
    /// [`OverlayGraph::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self
            .overrides
            .values()
            .map(|row| size_of::<NodeId>() + row.len() * size_of::<NodeId>())
            .sum();
        self.base.resident_bytes() + rows + self.removed.len() * size_of::<NodeId>()
    }

    /// The live row for a known member (callers check membership first).
    fn links_row(&self, id: NodeId) -> Vec<NodeId> {
        match self.overrides.get(&id) {
            Some(row) => row
                .iter()
                .copied()
                .filter(|to| !self.removed.contains(to))
                .collect(),
            None => match self.base.index_of(id) {
                Some(idx) => self
                    .base
                    .next_hop_index()
                    .neighbor_ids(idx)
                    .filter(|to| !self.removed.contains(to))
                    .collect(),
                None => Vec::new(),
            },
        }
    }
}

/// Normalizes a link set into the stored row form: sorted ascending,
/// deduplicated, without `me`.
fn normalize(me: NodeId, mut links: Vec<NodeId>) -> Vec<NodeId> {
    links.sort_unstable();
    links.dedup();
    links.retain(|&to| to != me);
    links
}

/// The id (and distance) among `ids` minimizing the metric distance to
/// `target` — the greedy candidate rule over a bare link set. `None` iff
/// `ids` is empty. The minimum is unique because distances to a fixed
/// target are injective in the id. [`PatchedOverlay::next_toward`] applies
/// it to patched rows; a live node that holds only its own link table
/// (canon-node) applies it to that table directly.
pub fn closest<M: Metric>(
    metric: M,
    ids: impl Iterator<Item = NodeId>,
    target: NodeId,
) -> Option<(NodeId, u64)> {
    ids.map(|id| (metric.distance(id, target), id))
        .min()
        .map(|(d, id)| (id, d))
}

/// [`closest`] under the clockwise metric over an *ordered* link set, as
/// one predecessor query instead of a scan: the largest link at or below
/// `target`, else (every link is past the target, so the nearest one
/// counter-clockwise is reached by wrapping) the largest link — the unique
/// minimiser of `link.clockwise_to(target)`. This is the paper's "link
/// closest to, but not past, the key" (§2.2) on a sorted table.
pub fn closest_clockwise(links: &BTreeSet<NodeId>, target: NodeId) -> Option<(NodeId, u64)> {
    let link = links
        .range(..=target)
        .next_back()
        .or_else(|| links.last())?;
    Some((*link, link.clockwise_to(target)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::metric::{Clockwise, Xor};
    use proptest::prelude::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// A small ring-ish base: 10 → 20 → 30 → 40 → 10, plus a chord.
    fn base() -> OverlayGraph {
        let ids: Vec<NodeId> = [10u64, 20, 30, 40].iter().map(|&r| id(r)).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        b.add_link(id(10), id(20));
        b.add_link(id(20), id(30));
        b.add_link(id(30), id(40));
        b.add_link(id(40), id(10));
        b.add_link(id(10), id(30));
        b.build()
    }

    #[test]
    fn fresh_overlay_mirrors_the_base() {
        let p = PatchedOverlay::new(base());
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.patched_nodes(), 0);
        assert!(p.contains(id(10)));
        assert!(!p.contains(id(15)));
        assert_eq!(p.ids(), vec![id(10), id(20), id(30), id(40)]);
        assert_eq!(p.links_of(id(10)), Some(vec![id(20), id(30)]));
        assert_eq!(p.links_of(id(15)), None);
        assert_eq!(p.compacted(), *p.base());
    }

    #[test]
    fn join_is_visible_before_compaction() {
        let mut p = PatchedOverlay::new(base());
        let patch = p.apply_join(id(25), vec![id(30), id(30), id(25), id(10)]);
        assert_eq!(patch.joined, Some(id(25)));
        assert_eq!(patch.left, None);
        assert_eq!(patch.links_touched, 2, "normalized row: {{10, 30}}");
        assert_eq!(p.len(), 5);
        assert!(p.contains(id(25)));
        assert_eq!(p.links_of(id(25)), Some(vec![id(10), id(30)]));
        assert_eq!(p.ids(), vec![id(10), id(20), id(25), id(30), id(40)]);
    }

    #[test]
    fn leave_filters_stale_references_on_read() {
        let mut p = PatchedOverlay::new(base());
        let patch = p.apply_leave(id(30));
        assert_eq!(patch.left, Some(id(30)));
        assert_eq!(patch.links_touched, 1, "30's own row {{40}} retired");
        assert_eq!(p.len(), 3);
        assert!(!p.contains(id(30)));
        // 10's base row {20, 30} is untouched in storage but filtered on
        // read — the crash-staleness behavior.
        assert_eq!(p.links_of(id(10)), Some(vec![id(20)]));
        assert_eq!(p.links_of(id(30)), None);
    }

    #[test]
    fn departed_joiner_is_filtered_like_a_departed_base_node() {
        let mut p = PatchedOverlay::new(base());
        p.apply_join(id(25), vec![id(10)]);
        p.relink(id(10), vec![id(20), id(25)]);
        p.apply_leave(id(25));
        // 10's override row still stores 25; reads must filter it even
        // though 25 never existed in the base.
        assert_eq!(p.links_of(id(10)), Some(vec![id(20)]));
        assert_eq!(p.compacted().len(), 4);
    }

    #[test]
    fn rejoin_after_leave_round_trips() {
        let mut p = PatchedOverlay::new(base());
        p.apply_leave(id(30));
        p.apply_join(id(30), vec![id(40)]);
        assert!(p.contains(id(30)));
        assert_eq!(p.len(), 4);
        assert_eq!(p.links_of(id(30)), Some(vec![id(40)]));
        // 10's base row sees 30 again once it re-joined.
        assert_eq!(p.links_of(id(10)), Some(vec![id(20), id(30)]));
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn double_join_rejected() {
        let mut p = PatchedOverlay::new(base());
        p.apply_join(id(10), vec![]);
    }

    #[test]
    #[should_panic(expected = "is not a member")]
    fn leave_of_non_member_rejected() {
        let mut p = PatchedOverlay::new(base());
        p.apply_leave(id(15));
    }

    #[test]
    fn relink_reports_and_stores_changes_only() {
        let mut p = PatchedOverlay::new(base());
        assert!(
            !p.relink(id(10), vec![id(30), id(20)]),
            "same set, any order"
        );
        assert_eq!(
            p.patched_nodes(),
            0,
            "no-op relink stays off the patch list"
        );
        assert!(p.relink(id(10), vec![id(20), id(40)]));
        assert_eq!(p.links_of(id(10)), Some(vec![id(20), id(40)]));
    }

    #[test]
    fn compaction_is_byte_identical_to_a_from_scratch_build() {
        let mut p = PatchedOverlay::new(base());
        p.apply_join(id(25), vec![id(30), id(10)]);
        p.apply_leave(id(20));
        p.relink(id(10), vec![id(25), id(40)]);
        let ids = p.ids();
        let rows: Vec<Vec<NodeId>> = ids.iter().map(|&i| p.links_of(i).unwrap()).collect();
        let scratch = GraphBuilder::from_per_node_links(&ids, &rows);
        assert_eq!(p.compacted(), scratch);
        let denoted = p.compacted();
        p.compact();
        assert_eq!(*p.base(), denoted);
        assert_eq!(p.patched_nodes(), 0);
        assert_eq!(p.compacted(), denoted, "compaction is idempotent");
    }

    #[test]
    fn net_zero_churn_compacts_back_to_the_original_graph() {
        let g = base();
        let mut p = PatchedOverlay::new(g.clone());
        let row = p.links_of(id(30)).unwrap();
        p.apply_leave(id(30));
        p.apply_join(id(30), row);
        assert_eq!(p.compacted(), g);
    }

    #[test]
    fn next_toward_merges_base_and_patches() {
        let mut p = PatchedOverlay::new(base());
        // Unpatched fast path agrees with the base index.
        assert_eq!(
            p.next_toward(Clockwise, id(10), id(31)),
            Some((id(30), Clockwise.distance(id(30), id(31))))
        );
        // A joiner answers from its override row.
        p.apply_join(id(25), vec![id(30), id(10)]);
        assert_eq!(
            p.next_toward(Clockwise, id(25), id(29)),
            Some((id(10), Clockwise.distance(id(10), id(29))))
        );
        // A departure is filtered out of an unpatched node's base row.
        p.apply_leave(id(30));
        assert_eq!(
            p.next_toward(Clockwise, id(10), id(31)),
            Some((id(20), Clockwise.distance(id(20), id(31))))
        );
        // ... and out of override rows.
        assert_eq!(
            p.next_toward(Clockwise, id(25), id(31)),
            Some((id(10), Clockwise.distance(id(10), id(31))))
        );
    }

    #[test]
    fn next_toward_agrees_with_the_compacted_graph_everywhere() {
        let mut p = PatchedOverlay::new(base());
        p.apply_join(id(25), vec![id(30), id(10)]);
        p.apply_leave(id(20));
        p.relink(id(40), vec![id(10), id(25)]);
        let g = p.compacted();
        for &at in &p.ids() {
            let gi = g.index_of(at).unwrap();
            for t in [0u64, 9, 10, 24, 25, 26, 39, 40, 41, u64::MAX] {
                let target = id(t);
                let via_patch = p.next_toward(Clockwise, at, target);
                let via_flat = g
                    .next_hop_index()
                    .next_toward(Clockwise, gi, target)
                    .map(|(nb, d)| (g.id(nb), d));
                assert_eq!(via_patch, via_flat, "clockwise at {at} target {t}");
                let via_patch = p.next_toward(Xor, at, target);
                let via_flat = g
                    .next_hop_index()
                    .next_toward(Xor, gi, target)
                    .map(|(nb, d)| (g.id(nb), d));
                assert_eq!(via_patch, via_flat, "xor at {at} target {t}");
            }
        }
    }

    #[test]
    fn route_ids_walks_to_responsible_nodes() {
        let mut p = PatchedOverlay::new(base());
        p.apply_join(id(25), vec![id(30), id(40)]);
        p.relink(id(20), vec![id(25), id(30)]);
        // 10 → 20 → 25 under clockwise greedy (strict progress each hop).
        assert_eq!(
            p.route_ids(Clockwise, id(10), id(25)),
            Some(vec![id(10), id(20), id(25)])
        );
        // Reaching a key owned by someone else terminates short: None.
        assert_eq!(p.route_ids(Clockwise, id(10), id(26)), None);
        // Trivial route: already there.
        assert_eq!(p.route_ids(Clockwise, id(30), id(30)), Some(vec![id(30)]));
    }

    #[test]
    fn growth_from_empty_overlay() {
        let mut p = PatchedOverlay::empty();
        assert!(p.is_empty());
        p.apply_join(id(1), vec![]);
        p.apply_join(id(2), vec![id(1)]);
        p.relink(id(1), vec![id(2)]);
        assert_eq!(p.len(), 2);
        let g = p.compacted();
        assert_eq!(g.len(), 2);
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn should_compact_floors_small_overlays() {
        let mut p = PatchedOverlay::empty();
        for i in 0..32 {
            p.apply_join(id(i), vec![]);
            assert!(!p.should_compact(), "floor covers {} patched nodes", i + 1);
        }
        for i in 32..64 {
            p.apply_join(id(i), vec![]);
        }
        assert!(p.should_compact());
        p.compact();
        assert!(!p.should_compact());
        assert_eq!(p.len(), 64);
    }

    /// The star view canon-node used to keep per actor: `{me} ∪ links`
    /// grown by joins with `me`'s row relinked to the link set.
    fn star_view(me: NodeId, links: &BTreeSet<NodeId>) -> PatchedOverlay {
        let mut view = PatchedOverlay::empty();
        view.apply_join(me, Vec::new());
        for &l in links {
            view.apply_join(l, Vec::new());
        }
        view.relink(me, links.iter().copied().collect());
        view
    }

    proptest! {
        /// `closest` over a bare link set is `next_toward` on the
        /// equivalent star view, under both metrics — including keys that
        /// wrap past every link, keys equal to a link id, and no links.
        #[test]
        fn closest_over_a_link_set_is_next_toward_on_its_star_view(
            me in any::<u64>(),
            raw_links in proptest::collection::btree_set(any::<u64>(), 0..24),
            key in any::<u64>(),
            pick in any::<u16>(),
        ) {
            let me = id(me);
            let links: BTreeSet<NodeId> =
                raw_links.into_iter().map(id).filter(|&l| l != me).collect();
            let view = star_view(me, &links);
            let mut keys = vec![id(key), id(0), id(u64::MAX), me];
            if let Some(&l) = links.iter().nth(pick as usize % links.len().max(1)) {
                keys.extend([l, id(l.raw().wrapping_sub(1)), id(l.raw().wrapping_add(1))]);
            }
            for key in keys {
                prop_assert_eq!(
                    closest(Clockwise, links.iter().copied(), key),
                    view.next_toward(Clockwise, me, key)
                );
                prop_assert_eq!(
                    closest(Xor, links.iter().copied(), key),
                    view.next_toward(Xor, me, key)
                );
            }
            prop_assert_eq!(
                closest(Clockwise, links.iter().copied(), id(key)).is_none(),
                links.is_empty()
            );
        }

        /// The predecessor query is the scan it replaces, for any link set
        /// and key — including a key on a link, one either side of it, and
        /// the two ends of the identifier space.
        #[test]
        fn closest_clockwise_is_the_clockwise_scan(
            raw_links in proptest::collection::btree_set(any::<u64>(), 0..24),
            key in any::<u64>(),
        ) {
            let links: BTreeSet<NodeId> = raw_links.into_iter().map(id).collect();
            let mut keys = vec![key, 0, u64::MAX];
            for l in &links {
                keys.extend([l.raw(), l.raw().wrapping_sub(1), l.raw().wrapping_add(1)]);
            }
            for key in keys {
                prop_assert_eq!(
                    closest_clockwise(&links, id(key)),
                    closest(Clockwise, links.iter().copied(), id(key))
                );
            }
        }
    }

    #[test]
    fn closest_clockwise_edge_cases() {
        let set = |raw: &[u64]| raw.iter().map(|&r| id(r)).collect::<BTreeSet<_>>();
        // No links: no candidate.
        assert_eq!(closest_clockwise(&set(&[]), id(5)), None);
        // One link is the answer wherever the key is, wrapping if need be.
        assert_eq!(closest_clockwise(&set(&[9]), id(9)), Some((id(9), 0)));
        assert_eq!(closest_clockwise(&set(&[9]), id(12)), Some((id(9), 3)));
        assert_eq!(
            closest_clockwise(&set(&[9]), id(8)),
            Some((id(9), u64::MAX))
        );
        let links = set(&[10, 20, 30]);
        // A key equal to a link is at distance zero from it.
        assert_eq!(closest_clockwise(&links, id(20)), Some((id(20), 0)));
        assert_eq!(closest_clockwise(&links, id(29)), Some((id(20), 9)));
        // Below the smallest link: wrap to the largest.
        assert_eq!(
            closest_clockwise(&links, id(3)),
            Some((id(30), id(30).clockwise_to(id(3))))
        );
        assert_eq!(
            closest_clockwise(&links, id(u64::MAX)),
            Some((id(30), u64::MAX - 30))
        );
        assert_eq!(
            closest_clockwise(&set(&[0, u64::MAX]), id(u64::MAX)),
            Some((id(u64::MAX), 0))
        );
    }

    #[test]
    fn resident_bytes_counts_patch_entries() {
        let mut p = PatchedOverlay::new(base());
        let flat = p.base().resident_bytes();
        assert_eq!(p.resident_bytes(), flat);
        p.apply_join(id(25), vec![id(10), id(30)]);
        assert_eq!(p.resident_bytes(), flat + 8 + 2 * 8, "key + 2-id row");
        p.apply_leave(id(20));
        assert_eq!(p.resident_bytes(), flat + 8 + 2 * 8 + 8, "+ departed id");
    }
}
