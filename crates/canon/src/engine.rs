//! The generic Canon merge engine (paper §2.1, generalized in §3).
//!
//! Construction proceeds per node, walking from its leaf domain to the
//! root. At the leaf the flat link rule applies unrestricted; at every
//! internal domain the same rule applies over the *merged* ring but only
//! links **strictly shorter than the distance to the closest node of the
//! node's own (child) ring** are kept — Canon's condition (b). The bound is
//! the full circle for a node alone in its child ring, so first nodes of a
//! domain link freely, exactly as the paper prescribes.
//!
//! The engine is generic over a [`LinkRule`]; the Canonical DHTs of the
//! paper — Crescendo, Cacophony, Kandy, Can-Can, Canonical Pastry and the
//! proximity-group variants — are rule instantiations in sibling modules,
//! and each flat DHT is the same rule over a single domain
//! ([`build_flat`]). One walk builds them all.
//!
//! # Parallel construction
//!
//! Because the walk is independent per node, the engine computes every
//! node's row in parallel (over [`canon_par`]) and then joins the workers'
//! rows serially in ring order. Determinism is preserved by construction:
//!
//! * a node's random stream comes from [`Seed::derive_node`] — a pure
//!   function of `(seed, node)`, never of scheduling;
//! * a node's mutable scratch ([`LinkRule::NodeState`]) is created fresh
//!   per node and threaded only through that node's own leaf-to-root walk;
//! * each worker writes the rows of a contiguous run of root-ring
//!   positions, and the runs are joined in ring order, so the built graph
//!   is bit-identical for any thread count (including 1).
//!
//! # Where an identifier becomes a graph index
//!
//! Graph node `i` is position `i` of the root ring. A rule appends the
//! identifiers it links to into a buffer the worker owns; the walk maps
//! each through the root ring's prefix table ([`SortedRing::positions`])
//! once, and from there on a link is a position: the walk deduplicates
//! and sorts each node's row as positions and hands the CSR rows to
//! [`GraphBuilder::from_ring_rows`], which searches nothing.

use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::{
    metric::Metric,
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance,
};
use canon_overlay::{GraphBuilder, NodeIndex, OverlayGraph};

/// Where in the hierarchy a link rule is being applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelCtx {
    /// Depth of the domain being processed (root = 0).
    pub depth: u32,
    /// Whether this is the node's leaf domain (the flat base ring).
    pub is_leaf_level: bool,
    /// Levels above the node's leaf domain (0 at the leaf).
    pub levels_above_leaf: u32,
}

/// A flat DHT's per-ring link rule in *bounded* form.
///
/// `links` must append to `out` the links the rule grants `me` over
/// `ring`, restricted to nodes at metric distance strictly below `bound`.
/// Passing [`RingDistance::FULL_CIRCLE`] must yield the flat rule. The
/// walk hands `out` over empty and owns it: one buffer per worker, reused
/// for every level of every node the worker walks, so a rule allocates
/// nothing to report its links. Repeats are allowed (the walk keeps the
/// first); links to `me` are not.
///
/// Rules are shared across worker threads (`&self`, `Sync`); all per-node
/// mutability lives in the explicit `rng` (seeded per node by the engine)
/// and `state` (a fresh [`LinkRule::NodeState`] per node, threaded through
/// that node's leaf-to-root walk) parameters.
pub trait LinkRule: Sync {
    /// The metric the rule (and greedy routing on the result) uses.
    type M: Metric;

    /// Per-node scratch carried across the levels of one node's walk
    /// (e.g. the buckets already covered at lower levels). `()` for
    /// stateless rules.
    type NodeState: Default;

    /// The metric instance.
    fn metric(&self) -> Self::M;

    /// Appends to `out` the links for `me` over `ring` at distance
    /// `< bound`.
    #[allow(
        clippy::too_many_arguments,
        reason = "the rule's whole context, each by reference"
    )]
    fn links(
        &self,
        ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        bound: RingDistance,
        rng: &mut DetRng,
        state: &mut Self::NodeState,
        out: &mut Vec<NodeId>,
    );
}

/// A constructed Canonical (or flat) network: the overlay graph plus each
/// node's position in the hierarchy.
#[derive(Clone, Debug)]
pub struct CanonicalNetwork {
    pub(crate) graph: OverlayGraph,
    leaf_of: Vec<DomainId>,
    links_per_level: Vec<usize>,
}

impl CanonicalNetwork {
    /// The overlay graph (node order: identifiers ascending).
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// The leaf domain of graph node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn leaf_of(&self, i: NodeIndex) -> DomainId {
        self.leaf_of[i.index()]
    }

    /// The ancestor domain of graph node `i` at `depth` (clamped to the
    /// node's leaf depth).
    pub fn domain_at_depth(&self, hierarchy: &Hierarchy, i: NodeIndex, depth: u32) -> DomainId {
        let leaf = self.leaf_of(i);
        hierarchy.ancestor_at_depth(leaf, depth.min(hierarchy.depth(leaf)))
    }

    /// Graph indices of all members of domain `d` (subtree membership).
    pub fn members_of(&self, hierarchy: &Hierarchy, d: DomainId) -> Vec<NodeIndex> {
        self.graph
            .node_indices()
            .filter(|&i| hierarchy.is_ancestor_or_self(d, self.leaf_of(i)))
            .collect()
    }

    /// How many links the construction added at each hierarchy depth
    /// (index = domain depth; root = 0). A link granted at several depths
    /// is counted at the deepest one, where the node first acquired it —
    /// the per-level state breakdown behind the paper's Figure 3.
    ///
    /// Stored as plain per-level counters — the per-node, per-level link
    /// `Vec`s that used to feed this accounting are folded into counts
    /// during the merge and never materialized in the network.
    pub fn links_per_level(&self) -> &[usize] {
        &self.links_per_level
    }

    /// Resident bytes of the network's live state: the overlay graph (see
    /// [`OverlayGraph::resident_bytes`] for the convention — live entries,
    /// not allocator slack) plus the per-node leaf-domain table and the
    /// per-level link counters.
    pub fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes()
            + self.leaf_of.len() * std::mem::size_of::<DomainId>()
            + self.links_per_level.len() * std::mem::size_of::<usize>()
    }

    /// [`CanonicalNetwork::resident_bytes`] averaged over the node count.
    pub fn resident_bytes_per_node(&self) -> f64 {
        self.resident_bytes() as f64 / self.graph.len().max(1) as f64
    }

    /// Swaps in a different graph without touching the metadata, leaving
    /// the network inconsistent on purpose. Exists so audit tests can model
    /// tampering/corruption; never call it from construction code.
    #[doc(hidden)]
    pub fn replace_graph_for_tests(&mut self, graph: OverlayGraph) {
        self.graph = graph;
    }
}

/// One worker's share of the walk: the CSR rows of a contiguous run of
/// root-ring positions, plus the links it added per hierarchy depth.
#[derive(Default)]
struct Rows {
    /// Where each row ends in `targets`, counted from the run's start.
    ends: Vec<u32>,
    /// The run's rows, concatenated; each strictly ascending.
    targets: Vec<NodeIndex>,
    /// Links added at each depth (index = depth).
    per_level: Vec<usize>,
}

/// Builds a Canonical network over `hierarchy`/`placement` with `rule`.
///
/// Nodes keep all links from every level (the paper: "when the two rings
/// are merged, nodes retain all their original links"), so the returned
/// graph is the union of per-level link sets and is routable with the
/// rule's metric.
///
/// Per-node link sets are computed in parallel (thread count from
/// [`canon_par`]); the result is identical for every thread count because
/// each node's randomness is derived from `(seed, node)` alone and the
/// workers' runs of rows are joined in ring order. Debug and test builds
/// then audit
/// the merge invariants ([`crate::audit::verify_structure`]).
///
/// # Panics
///
/// Panics if `placement` is empty.
pub fn build_canonical<R: LinkRule>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    rule: &R,
    seed: Seed,
) -> CanonicalNetwork {
    assert!(
        !placement.is_empty(),
        "cannot build a network with no nodes"
    );
    let net = walk(hierarchy, placement, rule, seed);
    // Release builds skip the audit: another membership build plus a full
    // link walk.
    #[cfg(debug_assertions)]
    {
        let violations = crate::audit::verify_structure(hierarchy, placement, rule.metric(), &net);
        assert!(
            violations.is_empty(),
            "post-build structure audit failed:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    net
}

/// The leaf-to-root walk behind every overlay of the crate:
/// [`build_canonical`] without its audit. Pastry
/// ([`crate::pastry::PastryRule`]) and proximity groups
/// ([`crate::proximity::ProxRule`]) call it directly because they read
/// condition (b) per routing-table cell and per identifier group, coarser
/// than the audit checks. An empty placement gives the empty network.
pub(crate) fn walk<R: LinkRule>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    rule: &R,
    seed: Seed,
) -> CanonicalNetwork {
    let members = DomainMembership::build(hierarchy, placement);
    let all = members.ring(hierarchy.root());
    // The construction's one identifier → graph index mapping: graph node
    // `i` is root-ring position `i`.
    let positions = all.positions();
    let index_of = |id: NodeId| -> NodeIndex {
        #[allow(
            clippy::expect_used,
            reason = "every placed id is in the root ring by DomainMembership::build, \
                      and rules link only to members of the rings they are given"
        )]
        let at = positions.of(id).expect("linked node is in the root ring");
        NodeIndex(at as u32)
    };
    let mut leaf_of = vec![hierarchy.root(); all.len()];
    for (id, leaf) in placement.iter() {
        leaf_of[index_of(id).index()] = leaf;
    }
    let metric = rule.metric();

    // Phase 1 (parallel): each worker walks a contiguous run of root-ring
    // positions and writes their rows straight into CSR form. A link
    // granted at several depths is kept (and counted) at the deepest one,
    // where the walk first produced it — walks run leaf to root. The
    // rule's output buffer is the worker's, reused for every level of
    // every node. Pure per node — nothing observes other nodes' work or
    // the iteration order.
    let runs: Vec<Rows> = canon_par::par_chunks(all.as_slice(), |start, run| {
        let mut rows = Rows {
            ends: Vec::with_capacity(run.len()),
            ..Rows::default()
        };
        let mut level: Vec<NodeId> = Vec::new();
        for (k, &id) in run.iter().enumerate() {
            let me = NodeIndex((start + k) as u32);
            let leaf = leaf_of[me.index()];
            let row_start = rows.targets.len();
            let mut rng = seed.derive_node(id).rng();
            let mut state = R::NodeState::default();
            let mut bound = RingDistance::FULL_CIRCLE;
            let leaf_depth = hierarchy.depth(leaf);
            for domain in hierarchy.ancestors(leaf) {
                let ring = members.ring(domain);
                let depth = hierarchy.depth(domain);
                let ctx = LevelCtx {
                    depth,
                    is_leaf_level: domain == leaf,
                    levels_above_leaf: leaf_depth - depth,
                };
                level.clear();
                rule.links(ctx, ring, id, bound, &mut rng, &mut state, &mut level);
                let mut added = 0;
                for &link in &level {
                    debug_assert_ne!(link, id, "rules must not emit self-links");
                    let to = index_of(link);
                    // Rows are finger-table sized (~log n), so the
                    // linear dedup probe beats hashing here.
                    if to != me && !rows.targets[row_start..].contains(&to) {
                        rows.targets.push(to);
                        added += 1;
                    }
                }
                let d = depth as usize;
                if d >= rows.per_level.len() {
                    rows.per_level.resize(d + 1, 0);
                }
                rows.per_level[d] += added;
                // Condition (b)'s bound for the next (parent) level:
                // distance to the closest node of the ring just processed.
                bound = ring.own_ring_bound(metric, id);
            }
            rows.targets[row_start..].sort_unstable();
            rows.ends.push(rows.targets.len() as u32);
        }
        rows
    });

    // Phase 2 (serial): join the runs in ring order.
    let mut offsets: Vec<u32> = Vec::with_capacity(all.len() + 1);
    offsets.push(0);
    let mut links_per_level: Vec<usize> = Vec::new();
    let mut targets: Vec<NodeIndex> = Vec::new();
    for run in runs {
        let base = targets.len() as u32;
        offsets.extend(run.ends.iter().map(|&end| base + end));
        if targets.is_empty() {
            targets = run.targets;
        } else {
            targets.extend_from_slice(&run.targets);
        }
        if run.per_level.len() > links_per_level.len() {
            links_per_level.resize(run.per_level.len(), 0);
        }
        for (total, added) in links_per_level.iter_mut().zip(run.per_level) {
            *total += added;
        }
    }

    CanonicalNetwork {
        graph: GraphBuilder::from_ring_rows(all, offsets, targets),
        leaf_of,
        links_per_level,
    }
}

/// The one-domain world every flat network is built over: a hierarchy that
/// is only its root, with each distinct identifier of `ids` placed there.
pub(crate) fn one_domain(ids: &[NodeId]) -> (Hierarchy, Placement) {
    let hierarchy = Hierarchy::new();
    // SortedRing::new collapses duplicates, which `from_pairs` rejects.
    let ring = SortedRing::new(ids.to_vec());
    let pairs = ring.iter().map(|&id| (id, hierarchy.root())).collect();
    let placement = Placement::from_pairs(&hierarchy, pairs);
    (hierarchy, placement)
}

/// Builds the flat DHT of `rule` over `ids`: [`build_canonical`] over a
/// single domain, where the walk has one level and the bound stays the full
/// circle. Every flat constructor of the workspace is a call of this, so a
/// flat network is by construction the one-level case of its Canonical
/// sibling. Duplicate identifiers are collapsed; no identifiers give the
/// empty graph.
pub fn build_flat<R: LinkRule>(ids: &[NodeId], rule: &R, seed: Seed) -> OverlayGraph {
    if ids.is_empty() {
        return GraphBuilder::new().build();
    }
    let (hierarchy, placement) = one_domain(ids);
    build_canonical(&hierarchy, &placement, rule, seed).graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::metric::Clockwise;
    use canon_id::rng::Seed;

    /// A toy rule linking each node to its ring successor when within the
    /// bound — enough to exercise the engine mechanics.
    struct SuccessorRule;

    impl LinkRule for SuccessorRule {
        type M = Clockwise;
        type NodeState = ();

        fn metric(&self) -> Clockwise {
            Clockwise
        }

        fn links(
            &self,
            _ctx: LevelCtx,
            ring: &SortedRing,
            me: NodeId,
            bound: RingDistance,
            _rng: &mut DetRng,
            _state: &mut (),
            out: &mut Vec<NodeId>,
        ) {
            out.extend(
                ring.strict_successor(me)
                    .filter(|&s| s != me && (me.clockwise_to(s) as u128) < bound.as_u128()),
            );
        }
    }

    #[test]
    fn engine_walks_levels_bottom_up() {
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "a");
        let b = h.add_domain(h.root(), "b");
        let placement = Placement::from_pairs(
            &h,
            vec![
                (NodeId::new(10), a),
                (NodeId::new(30), a),
                (NodeId::new(20), b),
                (NodeId::new(40), b),
            ],
        );
        let net = build_canonical(&h, &placement, &SuccessorRule, Seed(0));
        let g = net.graph();
        // Leaf level: 10 -> 30 (ring a), 30 -> 10; 20 -> 40, 40 -> 20.
        // Merge level: 10's own-ring bound is 20 (to 30); successor in the
        // union is 20 at distance 10 < 20, so 10 -> 20 is added. 30's bound
        // is (wrap) large; successor 40 at distance 10 → added. Node 20's
        // bound is 20 (to 40): successor 30 at distance 10 → added. 40's
        // bound wraps; successor 10 → added.
        let idx = |raw: u64| g.index_of(NodeId::new(raw)).unwrap();
        let has = |x: u64, y: u64| g.neighbors(idx(x)).contains(&idx(y));
        assert!(has(10, 30) && has(10, 20));
        assert!(has(20, 40) && has(20, 30));
        assert!(has(30, 10) && has(30, 40));
        assert!(has(40, 20) && has(40, 10));
        // Instrumentation: 4 leaf links (depth 1), 4 merge links (depth 0).
        assert_eq!(net.links_per_level(), &[4, 4]);
    }

    #[test]
    fn leaf_and_domain_metadata() {
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "a");
        let b = h.add_domain(h.root(), "b");
        let placement = Placement::from_pairs(&h, vec![(NodeId::new(5), a), (NodeId::new(9), b)]);
        let net = build_canonical(&h, &placement, &SuccessorRule, Seed(0));
        let ia = net.graph().index_of(NodeId::new(5)).unwrap();
        assert_eq!(net.leaf_of(ia), a);
        assert_eq!(net.domain_at_depth(&h, ia, 0), h.root());
        assert_eq!(net.domain_at_depth(&h, ia, 1), a);
        assert_eq!(net.domain_at_depth(&h, ia, 7), a); // clamped
        assert_eq!(net.members_of(&h, a), vec![ia]);
        assert_eq!(net.members_of(&h, h.root()).len(), 2);
    }

    #[test]
    fn singleton_domains_link_freely() {
        // A node alone in its leaf keeps a full-circle bound at the merge,
        // so it gets its successor in the merged ring.
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "a");
        let b = h.add_domain(h.root(), "b");
        let placement =
            Placement::from_pairs(&h, vec![(NodeId::new(100), a), (NodeId::new(200), b)]);
        let net = build_canonical(&h, &placement, &SuccessorRule, Seed(0));
        let g = net.graph();
        let i100 = g.index_of(NodeId::new(100)).unwrap();
        let i200 = g.index_of(NodeId::new(200)).unwrap();
        assert!(g.neighbors(i100).contains(&i200));
        assert!(g.neighbors(i200).contains(&i100));
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn empty_placement_rejected() {
        let h = Hierarchy::balanced(2, 2);
        let placement = Placement::from_pairs(&h, vec![]);
        build_canonical(&h, &placement, &SuccessorRule, Seed(0));
    }

    #[test]
    fn flat_hierarchy_is_single_level() {
        let h = Hierarchy::balanced(10, 1);
        let placement = Placement::uniform(&h, 50, Seed(1));
        let net = build_canonical(&h, &placement, &SuccessorRule, Seed(0));
        // Successor-only rule on a flat hierarchy: a simple cycle.
        assert_eq!(net.graph().link_count(), 50);
        // All 50 links live at the single (leaf = root) level, depth 0.
        assert_eq!(net.links_per_level(), &[50]);
    }

    #[test]
    fn link_counts_sum_to_graph_links() {
        let h = Hierarchy::balanced(3, 3);
        let placement = Placement::uniform(&h, 80, Seed(2));
        let net = build_canonical(&h, &placement, &SuccessorRule, Seed(0));
        let total: usize = net.links_per_level().iter().sum();
        assert_eq!(total, net.graph().link_count());
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let h = Hierarchy::balanced(4, 3);
        let placement = Placement::uniform(&h, 200, Seed(3));
        let serial = canon_par::with_threads(1, || {
            build_canonical(&h, &placement, &SuccessorRule, Seed(9))
        });
        let parallel = canon_par::with_threads(4, || {
            build_canonical(&h, &placement, &SuccessorRule, Seed(9))
        });
        assert_eq!(
            serial.graph().edges().collect::<Vec<_>>(),
            parallel.graph().edges().collect::<Vec<_>>()
        );
        assert_eq!(serial.links_per_level(), parallel.links_per_level());
    }
}
