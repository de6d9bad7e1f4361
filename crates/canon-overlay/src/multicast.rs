//! Rendezvous multicast over a DHT overlay (paper §1, §5.4, Figure 9).
//!
//! The paper motivates Canon with "efficient caching and effective
//! bandwidth usage for multicast": because all routes toward a key from
//! inside a domain converge at the domain's proxy node, the reverse-path
//! multicast tree for a group key crosses few inter-domain links. This
//! module builds that system — a Scribe-style rendezvous multicast on top
//! of any overlay in the workspace:
//!
//! * the *rendezvous* node is the overlay's responsible node for the group
//!   key;
//! * members **subscribe** by routing toward the key and installing
//!   forwarding state along the path, stopping at the first node already on
//!   the tree — [`MulticastGroup::subscribe`] drives the shared engine with
//!   "on the tree" as its stop predicate and [`graft`](MulticastGroup::graft)s
//!   the truncated route; routes recorded by a custom router (e.g.
//!   proximity-adapted networks) are grafted whole, and stop installing
//!   state where they meet the tree;
//! * data **dissemination** flows down the reversed edges; the report
//!   counts messages, tree depth, fan-out and (with a latency oracle)
//!   transmission cost.
//!
//! On a Canonical DHT, subscriptions from one domain merge at the domain
//! proxy, so dissemination into that domain uses one inter-domain link —
//! the effect quantified by Figure 9 (links whose endpoints fall in
//! different domains at a chosen hierarchy level are the expensive,
//! bandwidth-constrained ones) and the `multicast_streaming` example.
//!
//! # Example
//!
//! ```
//! use canon_id::{hash::hash_name, metric::Clockwise, NodeId};
//! use canon_overlay::multicast::MulticastGroup;
//! use canon_overlay::{GraphBuilder, NodeIndex};
//!
//! // A successor ring over ids 0..8.
//! let ids: Vec<NodeId> = (0u64..8).map(NodeId::new).collect();
//! let mut b = GraphBuilder::with_nodes(&ids);
//! for i in 0u64..8 {
//!     b.add_link(NodeId::new(i), NodeId::new((i + 1) % 8));
//! }
//! let g = b.build();
//! let mut group = MulticastGroup::new(&g, Clockwise, hash_name("topic"))?;
//! group.subscribe(&g, Clockwise, NodeIndex(3))?;
//! group.subscribe(&g, Clockwise, NodeIndex(6))?;
//! assert!(group.delivers_to_all_members());
//! # Ok::<(), canon_overlay::RouteError>(())
//! ```

use crate::engine::{drive, DriveConfig};
use crate::graph::{NodeIndex, OverlayGraph};
use crate::policy::Greedy;
use crate::route::{route_to_key, Route, RouteError};
use canon_id::{metric::Metric, Key};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Result of one subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubscribeReport {
    /// Hops traveled before reaching the existing tree (or the rendezvous).
    pub hops_to_tree: usize,
    /// Whether the member was already subscribed (no-op).
    pub already_member: bool,
}

/// Result of one dissemination pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DisseminationReport {
    /// Overlay messages sent (= forwarding edges used).
    pub messages: usize,
    /// Maximum hops from the rendezvous to any member.
    pub depth: usize,
    /// Largest per-node fan-out (children forwarded to by one node).
    pub max_fanout: usize,
    /// Total latency-weighted cost of all transmissions (0 without an
    /// oracle).
    pub total_latency: f64,
}

/// A multicast group anchored at the overlay's responsible node for its
/// key.
#[derive(Clone, Debug)]
pub struct MulticastGroup {
    key: Key,
    rendezvous: NodeIndex,
    /// Forwarding state: children per on-tree node (data flows parent →
    /// child; queries flowed child → parent).
    children: BTreeMap<NodeIndex, BTreeSet<NodeIndex>>,
    /// Parent per non-rendezvous on-tree node.
    parent: BTreeMap<NodeIndex, NodeIndex>,
    members: BTreeSet<NodeIndex>,
}

impl MulticastGroup {
    fn rooted(key: Key, rendezvous: NodeIndex) -> Self {
        MulticastGroup {
            key,
            rendezvous,
            children: BTreeMap::new(),
            parent: BTreeMap::new(),
            members: BTreeSet::new(),
        }
    }

    /// Creates the group for `key` over `graph`, locating the rendezvous by
    /// greedy routing from node 0.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownNode`] on an empty graph (no node is
    /// responsible for the key); otherwise propagates routing failures
    /// (possible only on malformed graphs).
    pub fn new<M: Metric>(graph: &OverlayGraph, metric: M, key: Key) -> Result<Self, RouteError> {
        if graph.is_empty() {
            return Err(RouteError::UnknownNode { id: key.as_point() });
        }
        let probe = route_to_key(graph, metric, NodeIndex(0), key.as_point())?;
        Ok(Self::rooted(key, probe.target()))
    }

    /// Builds the reverse-path tree rooted at `rendezvous` from
    /// pre-computed routes (for DHTs with custom routers, e.g.
    /// proximity-adapted networks): every route's source becomes a member
    /// and its path is [`graft`](Self::graft)ed. The group key is the
    /// rendezvous node's own identifier. All routes must end at
    /// `rendezvous`.
    pub fn from_routes<'a>(
        graph: &OverlayGraph,
        rendezvous: NodeIndex,
        routes: impl IntoIterator<Item = &'a Route>,
    ) -> Self {
        let mut group = Self::rooted(Key::new(graph.id(rendezvous).raw()), rendezvous);
        for r in routes {
            group.graft(r);
        }
        group
    }

    /// The group key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// The rendezvous (tree root).
    pub fn rendezvous(&self) -> NodeIndex {
        self.rendezvous
    }

    /// Current members.
    pub fn members(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        self.members.iter().copied()
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Whether `node` currently carries forwarding state (is on the tree).
    pub fn on_tree(&self, node: NodeIndex) -> bool {
        node == self.rendezvous || self.parent.contains_key(&node)
    }

    /// Subscribes `member`: routes toward the key, installing forwarding
    /// state until the path meets the existing tree.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn subscribe<M: Metric>(
        &mut self,
        graph: &OverlayGraph,
        metric: M,
        member: NodeIndex,
    ) -> Result<SubscribeReport, RouteError> {
        // The engine's stop predicate sees the pre-subscribe tree, so the
        // route ends at the first on-tree node (immediately, for a node
        // already on it) and the graft installs all of it.
        let cfg = DriveConfig {
            alive: |_: NodeIndex| true,
            timeout_cost: 0.0,
            latency: |_: NodeIndex, _: NodeIndex| 0.0,
            stop: |n: NodeIndex| self.on_tree(n),
        };
        let policy = Greedy::new(metric, self.key.as_point());
        let route = drive(graph, &policy, member, cfg)?.route;
        Ok(self.graft(&route))
    }

    /// Grafts a route toward the rendezvous onto the tree: its source
    /// becomes a member, and child → parent forwarding state is installed
    /// hop by hop until the route meets the existing tree. The route must
    /// end on the tree (one responsible node per key guarantees it for
    /// routes toward the group key).
    pub fn graft(&mut self, route: &Route) -> SubscribeReport {
        debug_assert!(
            self.on_tree(route.target()),
            "grafted routes end on the tree"
        );
        if !self.members.insert(route.source()) {
            return SubscribeReport {
                hops_to_tree: 0,
                already_member: true,
            };
        }
        let mut hops = 0usize;
        for (child, parent) in route.edges() {
            if self.on_tree(child) {
                break;
            }
            hops += 1;
            self.children.entry(parent).or_default().insert(child);
            self.parent.insert(child, parent);
        }
        SubscribeReport {
            hops_to_tree: hops,
            already_member: false,
        }
    }

    /// Unsubscribes `member`, pruning forwarding state upward while nodes
    /// have no children and are not members themselves.
    ///
    /// Returns whether the node was a member.
    pub fn unsubscribe(&mut self, member: NodeIndex) -> bool {
        if !self.members.remove(&member) {
            return false;
        }
        let mut cur = member;
        while cur != self.rendezvous
            && !self.members.contains(&cur)
            && self.children.get(&cur).is_none_or(BTreeSet::is_empty)
        {
            let Some(parent) = self.parent.remove(&cur) else {
                break;
            };
            if let Some(siblings) = self.children.get_mut(&parent) {
                siblings.remove(&cur);
            }
            self.children.remove(&cur);
            cur = parent;
        }
        true
    }

    /// Directed tree edges, parent → child (the dissemination direction).
    pub fn tree_edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex)> + '_ {
        self.children
            .iter()
            .flat_map(|(&p, cs)| cs.iter().map(move |&c| (p, c)))
    }

    /// Number of forwarding links in the tree.
    pub fn link_count(&self) -> usize {
        self.children.values().map(BTreeSet::len).sum()
    }

    /// Tree links whose endpoints fall in different domains under
    /// `domain_of` (e.g. the ancestor domain at a fixed hierarchy level).
    pub fn inter_domain_links<D: PartialEq, F: Fn(NodeIndex) -> D>(&self, domain_of: F) -> usize {
        self.tree_edges()
            .filter(|&(a, b)| domain_of(a) != domain_of(b))
            .count()
    }

    /// Tree links carrying traffic into the domain `target`: dissemination
    /// edges whose child endpoint is in `target` but whose parent is not.
    ///
    /// Canon's convergence property bounds this at one for a subscriber
    /// set drawn from a single domain (the proxy link), whereas
    /// [`Self::inter_domain_links`] also counts crossings between
    /// unrelated transit domains on the way to the rendezvous.
    pub fn links_entering<D: PartialEq, F: Fn(NodeIndex) -> D>(
        &self,
        target: &D,
        domain_of: F,
    ) -> usize {
        self.tree_edges()
            .filter(|&(p, c)| domain_of(c) == *target && domain_of(p) != *target)
            .count()
    }

    /// Simulates one dissemination from the rendezvous, optionally weighing
    /// each transmission with `lat`.
    pub fn disseminate<F: Fn(NodeIndex, NodeIndex) -> f64>(&self, lat: F) -> DisseminationReport {
        let mut report = DisseminationReport::default();
        let mut queue = VecDeque::new();
        queue.push_back((self.rendezvous, 0usize));
        while let Some((node, depth)) = queue.pop_front() {
            report.depth = report.depth.max(depth);
            if let Some(kids) = self.children.get(&node) {
                report.max_fanout = report.max_fanout.max(kids.len());
                for &c in kids {
                    report.messages += 1;
                    report.total_latency += lat(node, c);
                    queue.push_back((c, depth + 1));
                }
            }
        }
        report
    }

    /// Whether every member is reachable from the rendezvous along tree
    /// edges (an internal consistency check, used by tests and debug
    /// assertions).
    pub fn delivers_to_all_members(&self) -> bool {
        let mut seen = BTreeSet::new();
        seen.insert(self.rendezvous);
        let mut queue = VecDeque::from([self.rendezvous]);
        while let Some(node) = queue.pop_front() {
            if let Some(kids) = self.children.get(&node) {
                for &c in kids {
                    if seen.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        self.members.iter().all(|m| seen.contains(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::route::route;
    use canon_id::metric::Clockwise;
    use canon_id::rng::{random_ids, Seed};
    use canon_id::NodeId;
    use rand::Rng;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Successor ring over 0..8 with a shortcut 4 → 0.
    fn small_ring() -> OverlayGraph {
        let ids: Vec<NodeId> = (0u64..8).map(id).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 0u64..8 {
            b.add_link(id(i), id((i + 1) % 8));
        }
        b.add_link(id(4), id(0));
        b.build()
    }

    /// The reverse-path tree of full routes from `sources` to node `dest`.
    fn tree_of(g: &OverlayGraph, sources: &[u64], dest: u64) -> MulticastGroup {
        let dest = g.index_of(id(dest)).unwrap();
        let routes: Vec<Route> = sources
            .iter()
            .map(|&s| route(g, Clockwise, g.index_of(id(s)).unwrap(), dest).unwrap())
            .collect();
        MulticastGroup::from_routes(g, dest, &routes)
    }

    #[test]
    fn tree_unions_paths() {
        let g = small_ring();
        let t = tree_of(&g, &[5, 6, 7], 0);
        // Paths 5-6-7-0, 6-7-0, 7-0 share edges: union = {5-6, 6-7, 7-0}.
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.member_count(), 3);
        assert_eq!(t.rendezvous(), g.index_of(id(0)).unwrap());
        assert_eq!(t.key(), Key::new(0));
        assert!(t.delivers_to_all_members());
    }

    #[test]
    fn shared_prefix_counted_once() {
        let g = small_ring();
        let t = tree_of(&g, &[7, 7, 7], 0);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.member_count(), 1);
    }

    #[test]
    fn inter_domain_count_uses_domain_fn() {
        let g = small_ring();
        let t = tree_of(&g, &[5, 6, 7], 0);
        // Domain = id < 6 → edges 5-6 (cross), 6-7 (same), 7-0 (cross).
        let crossings = t.inter_domain_links(|n| g.id(n).raw() < 6);
        assert_eq!(crossings, 2);
        // Everything in one domain → zero crossings.
        assert_eq!(t.inter_domain_links(|_| 0u8), 0);
    }

    #[test]
    fn empty_sources_give_singleton_tree() {
        let g = small_ring();
        let t = tree_of(&g, &[], 3);
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.tree_edges().count(), 0);
        assert!(t.on_tree(g.index_of(id(3)).unwrap()));
        assert!(t.delivers_to_all_members());
    }

    #[test]
    fn graft_stops_where_the_route_meets_the_tree() {
        let g = small_ring();
        let mut t = tree_of(&g, &[6], 0);
        let dest = t.rendezvous();
        let from5 = route(&g, Clockwise, g.index_of(id(5)).unwrap(), dest).unwrap();
        // 5-6-7-0 meets the tree at 6: one new link.
        let rep = t.graft(&from5);
        assert_eq!(rep.hops_to_tree, 1);
        assert!(!rep.already_member);
        assert!(t.graft(&from5).already_member);
        assert_eq!(t.link_count(), 3);
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = GraphBuilder::with_nodes(&[]).build();
        assert_eq!(
            MulticastGroup::new(&g, Clockwise, Key::new(9)).unwrap_err(),
            RouteError::UnknownNode { id: id(9) }
        );
    }

    /// A Chord-like ring: successor + doubling fingers, enough for greedy
    /// clockwise routing.
    fn ring_graph(n: usize) -> OverlayGraph {
        let ring = canon_id::ring::SortedRing::new(random_ids(Seed(1), n));
        let mut b = GraphBuilder::with_nodes(ring.as_slice());
        for &me in ring.as_slice() {
            for k in 0..64u32 {
                if let Some(s) = ring.successor(me.offset(1u64 << k)) {
                    if s != me {
                        b.add_link(me, s);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn subscriptions_build_a_delivering_tree() {
        let g = ring_graph(128);
        let mut grp = MulticastGroup::new(&g, Clockwise, Key::new(0xdead_beef)).unwrap();
        let mut rng = Seed(2).rng();
        for _ in 0..40 {
            let m = NodeIndex(rng.gen_range(0..g.len()) as u32);
            grp.subscribe(&g, Clockwise, m).unwrap();
        }
        assert!(grp.delivers_to_all_members());
        assert!(grp.member_count() <= 40);
        let rep = grp.disseminate(|_, _| 1.0);
        assert_eq!(rep.messages, grp.link_count());
        assert!(rep.depth >= 1);
        assert!((rep.total_latency - rep.messages as f64).abs() < 1e-9);
    }

    #[test]
    fn later_subscribers_join_the_existing_tree_early() {
        let g = ring_graph(256);
        let key = Key::new(42);
        let mut grp = MulticastGroup::new(&g, Clockwise, key).unwrap();
        // Subscribe a first member; its neighbor's join should terminate at
        // the shared path rather than walk all the way to the rendezvous.
        let first = NodeIndex(10);
        let a = grp.subscribe(&g, Clockwise, first).unwrap();
        let again = grp.subscribe(&g, Clockwise, first).unwrap();
        assert!(again.already_member);
        assert!(a.hops_to_tree >= 1);
        // Mean join hops over many members must be below the full route
        // length (tree sharing).
        let mut total = 0usize;
        let mut rng = Seed(3).rng();
        for _ in 0..60 {
            let m = NodeIndex(rng.gen_range(0..g.len()) as u32);
            total += grp.subscribe(&g, Clockwise, m).unwrap().hops_to_tree;
        }
        assert!(grp.delivers_to_all_members());
        assert!(
            total < 60 * 6,
            "joins did not shortcut into the tree: {total}"
        );
    }

    #[test]
    fn rendezvous_member_subscribes_with_zero_hops() {
        let g = ring_graph(64);
        let mut grp = MulticastGroup::new(&g, Clockwise, Key::new(7)).unwrap();
        let rv = grp.rendezvous();
        let rep = grp.subscribe(&g, Clockwise, rv).unwrap();
        assert_eq!(rep.hops_to_tree, 0);
        assert!(!rep.already_member);
        assert!(grp.delivers_to_all_members());
    }

    #[test]
    fn unsubscribe_prunes_exclusive_branches() {
        let g = ring_graph(128);
        let mut grp = MulticastGroup::new(&g, Clockwise, Key::new(9)).unwrap();
        let m = NodeIndex(5);
        grp.subscribe(&g, Clockwise, m).unwrap();
        let links_with = grp.link_count();
        assert!(links_with >= 1);
        assert!(grp.unsubscribe(m));
        assert_eq!(grp.link_count(), 0, "exclusive branch must be fully pruned");
        assert!(!grp.unsubscribe(m), "double unsubscribe is a no-op");
    }

    #[test]
    fn unsubscribe_keeps_shared_branches() {
        let g = ring_graph(256);
        let mut grp = MulticastGroup::new(&g, Clockwise, Key::new(99)).unwrap();
        let mut rng = Seed(4).rng();
        let members: Vec<NodeIndex> = (0..30)
            .map(|_| NodeIndex(rng.gen_range(0..g.len()) as u32))
            .collect();
        for &m in &members {
            grp.subscribe(&g, Clockwise, m).unwrap();
        }
        grp.unsubscribe(members[0]);
        assert!(
            grp.delivers_to_all_members(),
            "remaining members must stay covered"
        );
    }

    #[test]
    fn key_and_rendezvous_are_stable() {
        let g = ring_graph(64);
        let key = Key::new(1234);
        let a = MulticastGroup::new(&g, Clockwise, key).unwrap();
        let b = MulticastGroup::new(&g, Clockwise, key).unwrap();
        assert_eq!(a.rendezvous(), b.rendezvous());
        assert_eq!(a.key(), key);
    }
}
