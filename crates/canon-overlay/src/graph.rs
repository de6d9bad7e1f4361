//! The overlay graph: nodes, directed links and identifier lookup.
//!
//! Node `i` is position `i` of the ring of identifiers — the one order
//! the paper builds every DHT over — so a graph's ids ascend with its
//! index, are stored once, as the graph's [`SortedRing`], and are looked
//! up by the ring's binary search. The builders enforce the order: an id
//! out of order is rejected, not sorted.
//!
//! Links are stored in compressed-sparse-row (CSR) form: one flat
//! `targets` array cut into rows by the [`NextHopIndex`]'s segment
//! bounds, so a node's neighbor list is one contiguous slice and a
//! routing walk touches two cache lines per hop instead of chasing a
//! `Vec<Vec<_>>` double indirection. [`OverlayGraph::neighbors`] returns a
//! sorted `&[NodeIndex]` and [`OverlayGraph::link_count`] is O(1).
//!
//! Every array is structure-of-arrays with `u32` entries where the ID
//! space allows (node count and link count are both asserted below
//! `u32::MAX`), and [`OverlayGraph::resident_bytes`] audits the whole
//! footprint so benches can report bytes/node honestly at 2^20 nodes.

use crate::index::NextHopIndex;
use canon_id::{ring::SortedRing, NodeId};
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

/// An immutable directed overlay graph over node identifiers, whose node
/// `i` is position `i` of its ring.
///
/// Out-links model the routing state a node maintains (the paper counts
/// *out*-degree: "the degree of a node refers to its out-degree, and does
/// not count incoming edges", §2.1). Links are stored deduplicated and
/// self-links are dropped, matching how real DHT routing tables behave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayGraph {
    /// The identifiers, ascending: node `i`'s id is position `i`.
    ring: SortedRing,
    /// All neighbor lists, concatenated in node order; sorted within each
    /// node's row. Node `i`'s row is `targets[next_hop.row(i)]`.
    targets: Vec<NodeIndex>,
    next_hop: NextHopIndex,
}

impl OverlayGraph {
    /// All node identifiers, in index order — ascending.
    pub fn ids(&self) -> &[NodeId] {
        self.ring.as_slice()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The identifier of node `i`: ring position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn id(&self, i: NodeIndex) -> NodeId {
        self.ids()[i.index()]
    }

    /// The index of identifier `id`, if present: its ring position, by
    /// binary search.
    pub fn index_of(&self, id: NodeId) -> Option<NodeIndex> {
        self.ring.index_of(id).map(|k| NodeIndex(k as u32))
    }

    /// The out-neighbors of node `i`, sorted by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn neighbors(&self, i: NodeIndex) -> &[NodeIndex] {
        &self.targets[self.next_hop.row(i)]
    }

    /// Out-degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn degree(&self, i: NodeIndex) -> usize {
        self.next_hop.row(i).len()
    }

    /// Total number of directed links. O(1).
    pub fn link_count(&self) -> usize {
        self.targets.len()
    }

    /// The per-node sorted-id next-hop index (built once with the graph).
    pub fn next_hop_index(&self) -> &NextHopIndex {
        &self.next_hop
    }

    /// The sorted ring over all node identifiers (for responsibility and
    /// successor queries on the whole network); its position `i` is
    /// node `i`.
    pub fn ring(&self) -> &SortedRing {
        &self.ring
    }

    /// Iterates over all node indices.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIndex> {
        (0..self.len() as u32).map(NodeIndex)
    }

    /// Resident bytes of the graph's live arrays: the ring of
    /// identifiers, the CSR targets and the next-hop index (which holds
    /// the row bounds). The accounting counts live entries
    /// (`len × entry size`), not allocator capacity or slack, so it is
    /// reproducible across allocators; the
    /// `resident_bytes_accounts_for_every_array` test pins the sum so a
    /// new field cannot silently escape the budget.
    pub fn resident_bytes(&self) -> usize {
        self.ring.resident_bytes()
            + self.targets.len() * size_of::<NodeIndex>()
            + self.next_hop.resident_bytes()
    }

    /// [`OverlayGraph::resident_bytes`] averaged over the node count (the
    /// figure the million-node bench reports).
    pub fn resident_bytes_per_node(&self) -> f64 {
        self.resident_bytes() as f64 / self.len().max(1) as f64
    }

    /// Iterates over all directed edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex)> + '_ {
        self.node_indices()
            .flat_map(move |from| self.neighbors(from).iter().map(move |&t| (from, t)))
    }
}

/// Incremental builder for [`OverlayGraph`].
///
/// Nodes are added in ascending id order, and before links referencing
/// them; duplicate links and self-links are silently dropped when the
/// graph is built.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    /// The nodes added so far, ascending.
    ids: Vec<NodeId>,
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
    /// Panics unless `ids` strictly ascend (see [`GraphBuilder::add_node`]).
    pub fn with_nodes(ids: &[NodeId]) -> Self {
        let mut b = GraphBuilder::new();
        for &id in ids {
            b.add_node(id);
        }
        b
    }

    /// Adds a node, returning its index: its ring position.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added, or is below the last id added.
    pub fn add_node(&mut self, id: NodeId) -> NodeIndex {
        assert!(self.ids.len() < u32::MAX as usize, "too many nodes");
        if let Some(&last) = self.ids.last() {
            assert!(id != last, "duplicate node id {id}");
            assert!(id > last, "ids must ascend: {id} after {last}");
        }
        let idx = NodeIndex(self.ids.len() as u32);
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
        let f = self.ids.binary_search(&from);
        assert!(f.is_ok(), "link source {from} was not added as a node");
        assert!(
            self.ids.binary_search(&to).is_ok(),
            "link target {to} was not added as a node"
        );
        self.links[f.unwrap_or(0)].push(to);
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
    /// `ids` are the ring: strictly ascending, so node `i` is ring
    /// position `i`. This path allocates no hash scratch at all: a link's
    /// target is found through the prefix table of
    /// [`SortedRing::positions`], and each row is normalized (self-links
    /// out, sort, dedup) straight into the CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `per_node` differ in length, `ids` do not
    /// strictly ascend, or a link targets an identifier not in `ids`.
    pub fn from_per_node_links(ids: &[NodeId], per_node: &[Vec<NodeId>]) -> OverlayGraph {
        assert_eq!(
            ids.len(),
            per_node.len(),
            "one link set per node is required"
        );
        assert!(ids.len() < u32::MAX as usize, "too many nodes");
        for w in ids.windows(2) {
            assert!(w[0] != w[1], "duplicate node id {}", w[1]);
            assert!(w[0] < w[1], "ids must ascend: {} after {}", w[1], w[0]);
        }
        let ring = SortedRing::new(ids.to_vec());
        let positions = ring.positions();
        let index_of = |id: NodeId| -> NodeIndex {
            let found = positions.of(id);
            assert!(found.is_some(), "link target {id} was not added as a node");
            NodeIndex(found.unwrap_or(0) as u32)
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
        assemble(ring, offsets, targets)
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
        assemble(ring.clone(), offsets, targets)
    }

    /// Finalizes the graph through [`GraphBuilder::from_per_node_links`]:
    /// each neighbor list is normalized (self-links out, sorted — for
    /// determinism and for the binary searches the audit relies on —
    /// deduplicated) into CSR form, and the [`NextHopIndex`] is built.
    pub fn build(self) -> OverlayGraph {
        GraphBuilder::from_per_node_links(&self.ids, &self.links)
    }
}

/// The graph whose node `i` is position `i` of `ring`, with CSR rows over
/// those positions: what both constructors finish with. The next-hop
/// index keeps `offsets` as its segment bounds.
fn assemble(ring: SortedRing, offsets: Vec<u32>, targets: Vec<NodeIndex>) -> OverlayGraph {
    let next_hop = NextHopIndex::build(ring.as_slice(), offsets, &targets);
    OverlayGraph {
        ring,
        targets,
        next_hop,
    }
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
        let b = GraphBuilder::with_nodes(&[id(10), id(20), id(30)]);
        let g = b.build();
        assert_eq!(g.ring().len(), 3);
        assert_eq!(g.ring().successor(id(15)), Some(id(20)));
        assert_eq!(g.index_of(id(30)), Some(NodeIndex(2)));
        assert_eq!(g.index_of(id(15)), None);
    }

    #[test]
    fn per_node_links_drop_self_links_and_duplicates() {
        let ids = [id(1), id(5), id(9)];
        let per_node = vec![vec![id(9), id(5), id(9)], vec![id(5)], vec![id(1), id(1)]];
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
    #[should_panic(expected = "ids must ascend")]
    fn builder_rejects_ids_out_of_order() {
        GraphBuilder::with_nodes(&[id(30), id(10), id(20)]);
    }

    #[test]
    #[should_panic(expected = "ids must ascend")]
    fn per_node_links_reject_ids_out_of_order() {
        GraphBuilder::from_per_node_links(&[id(5), id(1)], &[vec![id(1)], vec![]]);
    }

    #[test]
    fn resident_bytes_accounts_for_every_array() {
        let mut b = GraphBuilder::with_nodes(&[id(1), id(2), id(3)]);
        b.add_link(id(1), id(2));
        b.add_link(id(2), id(3));
        let g = b.build();
        // ring: 3×8, targets: 2×4, next-hop index: offsets 4×4 + entries
        // 2×16.
        let expected = 3 * 8 + 2 * 4 + (4 * 4 + 2 * 16);
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
