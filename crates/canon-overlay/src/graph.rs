//! The overlay graph: nodes, directed links and identifier lookup.
//!
//! Links are stored in compressed-sparse-row (CSR) form: one flat
//! `targets` array plus per-node `offsets`, so a node's neighbor list is
//! one contiguous slice and a routing walk touches two cache lines per
//! hop instead of chasing a `Vec<Vec<_>>` double indirection. The public
//! API is unchanged — [`OverlayGraph::neighbors`] still returns a sorted
//! `&[NodeIndex]` — and [`OverlayGraph::link_count`] is O(1).
//!
//! Every array is structure-of-arrays with `u32` entries where the ID
//! space allows (node count and link count are both asserted below
//! `u32::MAX`), and [`OverlayGraph::resident_bytes`] audits the whole
//! footprint so benches can report bytes/node honestly at 2^20 nodes.

use crate::index::NextHopIndex;
use canon_id::{ring::SortedRing, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

/// Index of a node within one [`OverlayGraph`] (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeIndex(pub u32);

impl NodeIndex {
    /// The dense index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable directed overlay graph over node identifiers.
///
/// Out-links model the routing state a node maintains (the paper counts
/// *out*-degree: "the degree of a node refers to its out-degree, and does
/// not count incoming edges", §2.1). Links are stored deduplicated and
/// self-links are dropped, matching how real DHT routing tables behave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayGraph {
    ids: Vec<NodeId>,
    /// Node indices sorted by identifier: [`OverlayGraph::index_of`] is a
    /// binary search over this permutation. 4 bytes per node where the
    /// previous `HashMap<NodeId, NodeIndex>` cost ~48 including table
    /// slack — the difference between a 2^20-node graph fitting in the
    /// resident-bytes budget and blowing it.
    by_id: Vec<NodeIndex>,
    /// CSR row bounds: node `i`'s neighbors are
    /// `targets[offsets[i]..offsets[i + 1]]`. Always `len() == n + 1`.
    offsets: Vec<u32>,
    /// All neighbor lists, concatenated in node order; sorted within each
    /// node's segment.
    targets: Vec<NodeIndex>,
    ring: SortedRing,
    next_hop: NextHopIndex,
}

impl OverlayGraph {
    /// All node identifiers, in index order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifier of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn id(&self, i: NodeIndex) -> NodeId {
        self.ids[i.index()]
    }

    /// The index of identifier `id`, if present. O(log n) binary search
    /// over the id-sorted permutation.
    pub fn index_of(&self, id: NodeId) -> Option<NodeIndex> {
        self.by_id
            .binary_search_by_key(&id, |i| self.ids[i.index()])
            .ok()
            .map(|k| self.by_id[k])
    }

    /// The out-neighbors of node `i`, sorted by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn neighbors(&self, i: NodeIndex) -> &[NodeIndex] {
        &self.targets[self.offsets[i.index()] as usize..self.offsets[i.index() + 1] as usize]
    }

    /// Out-degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn degree(&self, i: NodeIndex) -> usize {
        (self.offsets[i.index() + 1] - self.offsets[i.index()]) as usize
    }

    /// Total number of directed links. O(1).
    pub fn link_count(&self) -> usize {
        self.targets.len()
    }

    /// The per-node sorted-id next-hop index (built once at
    /// [`GraphBuilder::build`] time).
    pub fn next_hop_index(&self) -> &NextHopIndex {
        &self.next_hop
    }

    /// The sorted ring over all node identifiers (for responsibility and
    /// successor queries on the whole network).
    pub fn ring(&self) -> &SortedRing {
        &self.ring
    }

    /// Iterates over all node indices.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIndex> {
        (0..self.ids.len() as u32).map(NodeIndex)
    }

    /// Resident bytes of the graph's live arrays: identifiers, the
    /// id-sorted lookup permutation, CSR offsets and targets, the sorted
    /// ring, and the next-hop index. The accounting counts live entries
    /// (`len × entry size`), not allocator capacity or slack, so it is
    /// reproducible across allocators; the
    /// `resident_bytes_accounts_for_every_array` test pins the sum so a
    /// new field cannot silently escape the budget.
    pub fn resident_bytes(&self) -> usize {
        self.ids.len() * size_of::<NodeId>()
            + self.by_id.len() * size_of::<NodeIndex>()
            + self.offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<NodeIndex>()
            + self.ring.resident_bytes()
            + self.next_hop.resident_bytes()
    }

    /// [`OverlayGraph::resident_bytes`] averaged over the node count (the
    /// figure the million-node bench reports).
    pub fn resident_bytes_per_node(&self) -> f64 {
        self.resident_bytes() as f64 / self.len().max(1) as f64
    }

    /// Iterates over all directed edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex)> + '_ {
        (0..self.ids.len() as u32).flat_map(move |i| {
            let from = NodeIndex(i);
            self.neighbors(from).iter().map(move |&t| (from, t))
        })
    }
}

/// Incremental builder for [`OverlayGraph`].
///
/// Nodes must be added before links referencing them; duplicate links and
/// self-links are silently dropped when the graph is built.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    ids: Vec<NodeId>,
    index_of: HashMap<NodeId, NodeIndex>,
    /// Each node's link targets in insertion order, duplicates and
    /// self-links included: [`GraphBuilder::build`] normalizes the rows.
    links: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates a builder pre-populated with `ids` as nodes.
    ///
    /// # Panics
    ///
    /// Panics if `ids` contains duplicates.
    pub fn with_nodes(ids: &[NodeId]) -> Self {
        let mut b = GraphBuilder::new();
        for &id in ids {
            b.add_node(id);
        }
        b
    }

    /// Adds a node, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added.
    pub fn add_node(&mut self, id: NodeId) -> NodeIndex {
        assert!(self.ids.len() < u32::MAX as usize, "too many nodes");
        let idx = NodeIndex(self.ids.len() as u32);
        let prev = self.index_of.insert(id, idx);
        assert!(prev.is_none(), "duplicate node id {id}");
        self.ids.push(id);
        self.links.push(Vec::new());
        idx
    }

    /// Adds a directed link from `from` to `to` (by identifier). Self-links
    /// and duplicates are dropped at build time.
    ///
    /// # Panics
    ///
    /// Panics if either identifier has not been added as a node.
    pub fn add_link(&mut self, from: NodeId, to: NodeId) {
        let f = self.index_of[&from];
        let t = self.index_of[&to];
        self.add_link_by_index(f, t);
    }

    /// Adds a directed link by node index. Self-links and duplicates are
    /// dropped at build time.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add_link_by_index(&mut self, from: NodeIndex, to: NodeIndex) {
        assert!(from.index() < self.ids.len(), "link source out of bounds");
        assert!(to.index() < self.ids.len(), "link target out of bounds");
        self.links[from.index()].push(self.ids[to.index()]);
    }

    /// Builds a graph directly from per-node link sets, one `Vec` per node
    /// of `ids` in order — the merge step of a simulator's snapshot export
    /// and of [`GraphBuilder::build`]. The result depends only on each
    /// node's set of links, so it is independent of how (and in what
    /// order) the sets were computed.
    ///
    /// This path allocates no hash scratch at all: duplicate-id detection
    /// is one pass over the id-sorted permutation, a link's target is found
    /// through the prefix table of [`SortedRing::positions`], and each row
    /// is normalized (self-links out, sort, dedup) straight into the CSR
    /// arrays.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `per_node` differ in length, `ids` contains
    /// duplicates, or a link targets an identifier not in `ids`.
    pub fn from_per_node_links(ids: &[NodeId], per_node: &[Vec<NodeId>]) -> OverlayGraph {
        assert_eq!(
            ids.len(),
            per_node.len(),
            "one link set per node is required"
        );
        assert!(ids.len() < u32::MAX as usize, "too many nodes");
        let by_id = sorted_permutation(ids);
        for w in by_id.windows(2) {
            assert!(
                ids[w[0].index()] != ids[w[1].index()],
                "duplicate node id {}",
                ids[w[1].index()]
            );
        }
        let ring = SortedRing::new(ids.to_vec());
        let positions = ring.positions();
        let index_of = |id: NodeId| -> NodeIndex {
            let found = positions.of(id);
            assert!(found.is_some(), "link target {id} was not added as a node");
            by_id[found.unwrap_or(0)]
        };
        let total: usize = per_node.iter().map(Vec::len).sum();
        assert!(total < u32::MAX as usize, "too many links for CSR offsets");
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut targets: Vec<NodeIndex> = Vec::with_capacity(total);
        offsets.push(0u32);
        let mut row: Vec<NodeIndex> = Vec::new();
        for (i, links) in per_node.iter().enumerate() {
            let from = NodeIndex(i as u32);
            row.clear();
            row.extend(links.iter().map(|&to| index_of(to)).filter(|&t| t != from));
            row.sort_unstable();
            row.dedup();
            targets.extend_from_slice(&row);
            offsets.push(targets.len() as u32);
        }
        assemble(ids.to_vec(), by_id, ring, offsets, targets)
    }

    /// Builds the graph whose node `i` is position `i` of `ring`, from CSR
    /// rows over those positions: node `i` links to
    /// `targets[offsets[i]..offsets[i + 1]]`. This is how a Canon walk
    /// hands over its overlay — its links leave the walk as positions on
    /// the root ring — so the graph costs no identifier search at all.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` has one more entry than `ring`, starts at 0,
    /// ends at `targets.len()` and never decreases, and every row is
    /// strictly ascending, inside the ring and free of its own node.
    pub fn from_ring_rows(
        ring: &SortedRing,
        offsets: Vec<u32>,
        targets: Vec<NodeIndex>,
    ) -> OverlayGraph {
        let n = ring.len();
        assert!(n < u32::MAX as usize, "too many nodes");
        assert_eq!(
            offsets.len(),
            n + 1,
            "one row per ring position is required"
        );
        assert!(
            offsets[0] == 0 && offsets[n] as usize == targets.len(),
            "rows must cover the targets exactly"
        );
        for (i, w) in offsets.windows(2).enumerate() {
            assert!(w[0] <= w[1], "row {i} ends before it starts");
            let row = &targets[w[0] as usize..w[1] as usize];
            assert!(
                row.windows(2).all(|p| p[0] < p[1])
                    && row.last().is_none_or(|t| t.index() < n)
                    && row.binary_search(&NodeIndex(i as u32)).is_err(),
                "row {i} is not a strictly ascending set of other nodes"
            );
        }
        let by_id = (0..n as u32).map(NodeIndex).collect();
        assemble(
            ring.as_slice().to_vec(),
            by_id,
            ring.clone(),
            offsets,
            targets,
        )
    }

    /// Finalizes the graph through [`GraphBuilder::from_per_node_links`]:
    /// each neighbor list is normalized (self-links out, sorted — for
    /// determinism and for the binary searches the audit relies on —
    /// deduplicated) into CSR form, and the [`NextHopIndex`] is built.
    pub fn build(self) -> OverlayGraph {
        GraphBuilder::from_per_node_links(&self.ids, &self.links)
    }
}

/// The graph over `ids` (with `by_id`, their id-sorted permutation, and
/// `ring`, their sorted ring) and CSR rows over their indices: what both
/// constructors finish with.
fn assemble(
    ids: Vec<NodeId>,
    by_id: Vec<NodeIndex>,
    ring: SortedRing,
    offsets: Vec<u32>,
    targets: Vec<NodeIndex>,
) -> OverlayGraph {
    let next_hop = NextHopIndex::build(&ids, &offsets, &targets);
    OverlayGraph {
        ids,
        by_id,
        offsets,
        targets,
        ring,
        next_hop,
    }
}

/// The identity permutation over `ids`, sorted by identifier — the
/// binary-searchable id→index table of [`OverlayGraph::index_of`].
fn sorted_permutation(ids: &[NodeId]) -> Vec<NodeIndex> {
    let mut by_id: Vec<NodeIndex> = (0..ids.len() as u32).map(NodeIndex).collect();
    by_id.sort_unstable_by_key(|i| ids[i.index()]);
    by_id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn builder_round_trip() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(id(10));
        let c = b.add_node(id(20));
        b.add_link(id(10), id(20));
        let g = b.build();
        assert_eq!(g.len(), 2);
        assert_eq!(g.id(a), id(10));
        assert_eq!(g.index_of(id(20)), Some(c));
        assert_eq!(g.neighbors(a), &[c]);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(c), 0);
        assert_eq!(g.link_count(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn self_links_and_duplicates_dropped() {
        let mut b = GraphBuilder::with_nodes(&[id(1), id(2), id(3)]);
        b.add_link(id(1), id(1));
        b.add_link(id(1), id(3));
        b.add_link(id(1), id(2));
        b.add_link(id(1), id(3));
        b.add_link_by_index(NodeIndex(1), NodeIndex(1));
        let g = b.build();
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.neighbors(NodeIndex(0)), &[NodeIndex(1), NodeIndex(2)]);
        assert_eq!(g.degree(NodeIndex(1)), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_nodes_rejected() {
        let mut b = GraphBuilder::new();
        b.add_node(id(5));
        b.add_node(id(5));
    }

    #[test]
    fn edges_iterator_lists_all_links() {
        let mut b = GraphBuilder::with_nodes(&[id(1), id(2), id(3)]);
        b.add_link(id(1), id(2));
        b.add_link(id(2), id(3));
        b.add_link(id(3), id(1));
        let g = b.build();
        assert_eq!(g.edges().count(), 3);
        assert_eq!(g.node_indices().count(), 3);
    }

    #[test]
    fn ring_reflects_all_ids() {
        let b = GraphBuilder::with_nodes(&[id(30), id(10), id(20)]);
        let g = b.build();
        assert_eq!(g.ring().len(), 3);
        assert_eq!(g.ring().successor(id(15)), Some(id(20)));
    }

    #[test]
    fn per_node_links_drop_self_links_and_duplicates() {
        let ids = [id(5), id(1), id(9)];
        let per_node = vec![vec![id(9), id(1), id(9)], vec![id(1)], vec![id(5), id(5)]];
        let g = GraphBuilder::from_per_node_links(&ids, &per_node);
        assert_eq!(g.neighbors(NodeIndex(0)), &[NodeIndex(1), NodeIndex(2)]);
        assert_eq!(g.neighbors(NodeIndex(1)), &[]);
        assert_eq!(g.neighbors(NodeIndex(2)), &[NodeIndex(0)]);
        assert_eq!(g.index_of(id(9)), Some(NodeIndex(2)));
    }

    #[test]
    #[should_panic(expected = "one link set per node")]
    fn per_node_links_require_matching_lengths() {
        GraphBuilder::from_per_node_links(&[id(1)], &[]);
    }

    #[test]
    #[should_panic(expected = "was not added as a node")]
    fn per_node_links_reject_unknown_targets() {
        GraphBuilder::from_per_node_links(&[id(1)], &[vec![id(2)]]);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn per_node_links_reject_duplicate_ids() {
        GraphBuilder::from_per_node_links(&[id(1), id(1)], &[vec![], vec![]]);
    }

    #[test]
    fn ring_rows_build_the_graph_per_node_links_build() {
        let ring = SortedRing::new(vec![id(1), id(5), id(9)]);
        let g = GraphBuilder::from_ring_rows(
            &ring,
            vec![0, 2, 2, 3],
            vec![NodeIndex(1), NodeIndex(2), NodeIndex(0)],
        );
        let per_node = vec![vec![id(9), id(5)], vec![], vec![id(1)]];
        assert_eq!(
            g,
            GraphBuilder::from_per_node_links(ring.as_slice(), &per_node)
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending set of other nodes")]
    fn ring_rows_reject_self_links() {
        let ring = SortedRing::new(vec![id(1), id(5)]);
        GraphBuilder::from_ring_rows(&ring, vec![0, 1, 1], vec![NodeIndex(0)]);
    }

    #[test]
    fn index_of_works_on_unsorted_ids() {
        let g = GraphBuilder::with_nodes(&[id(30), id(10), id(20)]).build();
        assert_eq!(g.index_of(id(30)), Some(NodeIndex(0)));
        assert_eq!(g.index_of(id(10)), Some(NodeIndex(1)));
        assert_eq!(g.index_of(id(20)), Some(NodeIndex(2)));
        assert_eq!(g.index_of(id(15)), None);
    }

    #[test]
    fn resident_bytes_accounts_for_every_array() {
        let mut b = GraphBuilder::with_nodes(&[id(1), id(2), id(3)]);
        b.add_link(id(1), id(2));
        b.add_link(id(2), id(3));
        let g = b.build();
        // ids: 3×8, by_id: 3×4, offsets: 4×4, targets: 2×4, ring: 3×8,
        // next-hop index: offsets 4×4 + entries 2×16.
        let expected = 3 * 8 + 3 * 4 + 4 * 4 + 2 * 4 + 3 * 8 + (4 * 4 + 2 * 16);
        assert_eq!(g.resident_bytes(), expected);
        let per_node = g.resident_bytes_per_node();
        assert!((per_node - expected as f64 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::with_nodes(&[id(1), id(2), id(3), id(4)]);
        b.add_link(id(1), id(4));
        b.add_link(id(1), id(2));
        b.add_link(id(1), id(3));
        let g = b.build();
        let ns = g.neighbors(NodeIndex(0));
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
    }
}
