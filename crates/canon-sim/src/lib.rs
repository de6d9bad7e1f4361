//! Dynamic maintenance for Crescendo (paper §2.3).
//!
//! The static constructions in the `canon` crate build a network from a
//! complete node census; this crate simulates the *protocol* that maintains
//! the same structure under churn, at message granularity:
//!
//! * **join**: the newcomer routes a query for its own identifier through a
//!   bootstrap node in its lowest populated domain; hierarchical greedy
//!   routing visits the predecessor of the identifier at every level, and
//!   the newcomer sets up its per-level links (one message each), informs
//!   its successor at each level, and "erroneous" links at other nodes are
//!   repaired by notification (one message per repaired link);
//! * **leave**: departure notifications repair the links and leaf sets of
//!   every node that pointed at the departed node;
//! * **leaf sets**: each node keeps a successor list *per hierarchy level*,
//!   updated by passing a message along the ring.
//!
//! Because deterministic Crescendo's link set is a pure function of the
//! membership (node set + hierarchy), the simulator can be — and is, in
//! tests — validated exactly: after any churn sequence, the maintained
//! links equal those of [`canon::crescendo::build_crescendo`] on the
//! surviving census, and the total message count per join stays `O(log n)`.
//!
//! # Example
//!
//! ```
//! use canon_hierarchy::Hierarchy;
//! use canon_id::NodeId;
//! use canon_sim::CrescendoSim;
//!
//! let h = Hierarchy::balanced(2, 2);
//! let leaf = h.leaves()[0];
//! let mut sim = CrescendoSim::new(h, 4);
//! let report = sim.join(NodeId::new(42), leaf);
//! assert_eq!(report.lookup_messages, 0); // first node: nobody to ask
//! sim.join(NodeId::new(99), leaf);
//! assert_eq!(sim.len(), 2);
//! ```

#![forbid(unsafe_code)]

use canon_chord::chord_fingers;
use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::{metric::Clockwise, NodeId, RingDistance, ID_BITS};
// audit: full-rebuild — `GraphBuilder` is for `snapshot()`, a one-off export
use canon_overlay::{closest, GraphBuilder, OverlayGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Per-node protocol state.
#[derive(Clone, Debug)]
pub struct SimNode {
    leaf: DomainId,
    links: BTreeSet<NodeId>,
    /// Per ancestor depth (leaf-most first): the next `leaf_set_size`
    /// successors on that level's ring.
    leaf_sets: Vec<(DomainId, Vec<NodeId>)>,
}

impl SimNode {
    /// The node's leaf domain.
    pub fn leaf(&self) -> DomainId {
        self.leaf
    }

    /// The node's current out-links.
    pub fn links(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.links.iter().copied()
    }

    /// The node's leaf set at `domain`, if it is an ancestor of the node.
    pub fn leaf_set(&self, domain: DomainId) -> Option<&[NodeId]> {
        self.leaf_sets
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, v)| v.as_slice())
    }
}

/// Message accounting for one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpReport {
    /// Routing hops spent locating the insertion point.
    pub lookup_messages: u64,
    /// Messages creating or repairing links.
    pub link_messages: u64,
    /// Messages updating leaf sets and notifying successors.
    pub leaf_set_messages: u64,
    /// Nodes whose state was touched (excluding the subject).
    pub nodes_touched: usize,
}

impl OpReport {
    /// Total messages for the operation.
    pub fn total(&self) -> u64 {
        self.lookup_messages + self.link_messages + self.leaf_set_messages
    }
}

/// A live Crescendo network under churn.
#[derive(Clone, Debug)]
pub struct CrescendoSim {
    hierarchy: Hierarchy,
    /// Member identifiers per domain (subtree membership).
    members: Vec<BTreeSet<u64>>,
    nodes: BTreeMap<NodeId, SimNode>,
    leaf_set_size: usize,
}

impl CrescendoSim {
    /// Creates an empty network over `hierarchy` with leaf sets of `r`
    /// successors per level.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn new(hierarchy: Hierarchy, leaf_set_size: usize) -> Self {
        assert!(leaf_set_size > 0, "leaf sets need at least one successor");
        let members = vec![BTreeSet::new(); hierarchy.len()];
        CrescendoSim {
            hierarchy,
            members,
            nodes: BTreeMap::new(),
            leaf_set_size,
        }
    }

    /// The hierarchy this network lives on.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The live node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&SimNode> {
        self.nodes.get(&id)
    }

    /// Live identifiers in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members[self.hierarchy.root().index()]
            .iter()
            .map(|&r| NodeId::new(r))
    }

    // ----- ring queries over a domain's member set -----

    fn ring(&self, d: DomainId) -> &BTreeSet<u64> {
        &self.members[d.index()]
    }

    /// First member at or clockwise-after `point`.
    fn succ_in(&self, d: DomainId, point: NodeId) -> Option<NodeId> {
        let set = self.ring(d);
        set.range(point.raw()..)
            .next()
            .or_else(|| set.iter().next())
            .map(|&r| NodeId::new(r))
    }

    /// Last member strictly counterclockwise of `point`.
    fn pred_in(&self, d: DomainId, point: NodeId) -> Option<NodeId> {
        let set = self.ring(d);
        set.range(..point.raw())
            .next_back()
            .or_else(|| set.iter().next_back())
            .map(|&r| NodeId::new(r))
    }

    /// Clockwise gap from `id` to the nearest *other* member of `d`.
    fn gap_in(&self, d: DomainId, id: NodeId) -> RingDistance {
        match self.succ_in(d, id.offset(1)) {
            Some(s) if s != id => RingDistance::from_u64(id.clockwise_to(s)),
            _ => RingDistance::FULL_CIRCLE,
        }
    }

    /// Crescendo's link set for `id` under the current membership.
    fn compute_links(&self, id: NodeId, leaf: DomainId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut bound = RingDistance::FULL_CIRCLE;
        for d in self.hierarchy.ancestors(leaf) {
            chord_fingers(id, bound, |point| self.succ_in(d, point), &mut out);
            bound = self.gap_in(d, id);
        }
        out
    }

    /// The node's leaf sets under the current membership.
    fn compute_leaf_sets(&self, id: NodeId, leaf: DomainId) -> Vec<(DomainId, Vec<NodeId>)> {
        let path = self.hierarchy.path_from_root(leaf);
        path.iter()
            .rev()
            .map(|&d| {
                let mut succs = Vec::with_capacity(self.leaf_set_size);
                let mut cur = id;
                for _ in 0..self.leaf_set_size {
                    match self.succ_in(d, cur.offset(1)) {
                        Some(s) if s != id => {
                            if succs.contains(&s) {
                                break;
                            }
                            succs.push(s);
                            cur = s;
                        }
                        _ => break,
                    }
                }
                (d, succs)
            })
            .collect()
    }

    /// Greedy clockwise lookup hop count from `from` toward `target` over
    /// the *current* link structure (used to price the join's lookup).
    fn lookup_hops(&self, from: NodeId, target: NodeId) -> u64 {
        let mut cur = from;
        let mut hops = 0u64;
        let mut dist = cur.clockwise_to(target);
        // Strict progress: stop where no link is closer than the current node.
        while let Some((next, d)) =
            closest(Clockwise, self.nodes[&cur].links(), target).filter(|&(_, d)| d < dist)
        {
            cur = next;
            dist = d;
            hops += 1;
        }
        hops
    }

    /// Nodes whose links or bounds may change when `id` appears in (or
    /// disappears from) the rings along `path`.
    fn affected_by(&self, id: NodeId, path: &[DomainId]) -> BTreeSet<NodeId> {
        let mut affected = BTreeSet::new();
        for &d in path {
            let Some(pred) = self.pred_in(d, id) else {
                continue;
            };
            if pred != id {
                affected.insert(pred);
            }
            // The leaf sets of the `leaf_set_size` ring predecessors all
            // contain the position being (in|de)serted.
            let mut back = id;
            for _ in 0..self.leaf_set_size {
                match self.pred_in(d, back) {
                    Some(p) if p != id && p != back => {
                        affected.insert(p);
                        back = p;
                    }
                    _ => break,
                }
            }
            // Nodes x with succ(x + 2^k) possibly = id: x in the wrapped
            // interval (pred - 2^k, id - 2^k].
            let set = self.ring(d);
            for k in 0..ID_BITS {
                let step = 1u64 << k;
                let lo = pred.raw().wrapping_sub(step); // exclusive
                let hi = id.raw().wrapping_sub(step); // inclusive
                collect_wrapped(set, lo, hi, &mut affected);
            }
        }
        affected.remove(&id);
        affected
    }

    /// Inserts `id` at leaf domain `leaf`, returning message accounting.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf of the hierarchy or `id` is already
    /// live.
    pub fn join(&mut self, id: NodeId, leaf: DomainId) -> OpReport {
        assert!(self.hierarchy.is_leaf(leaf), "{leaf} is not a leaf domain");
        assert!(!self.nodes.contains_key(&id), "node {id} already live");
        let mut report = OpReport::default();

        // 1. Lookup through a bootstrap node in the lowest populated
        // ancestor domain (paper: the newcomer knows one node there).
        if !self.nodes.is_empty() {
            let bootstrap_domain = self
                .hierarchy
                .ancestors(leaf)
                .find(|&d| !self.ring(d).is_empty())
                .expect("root ring is nonempty when nodes exist");
            let bootstrap = self
                .succ_in(bootstrap_domain, id)
                .expect("bootstrap domain has members");
            report.lookup_messages = self.lookup_hops(bootstrap, id);
        }

        // 2. Determine whose state the insertion invalidates (the nodes the
        // successor will notify), *before* membership changes.
        let path = self.hierarchy.path_from_root(leaf);
        let affected = self.affected_by(id, &path);

        // 3. Insert into every ancestor ring.
        for &d in &path {
            self.members[d.index()].insert(id.raw());
        }

        // 4. The newcomer sets up its own links and leaf sets.
        let links = self.compute_links(id, leaf);
        report.link_messages += links.len() as u64;
        let leaf_sets = self.compute_leaf_sets(id, leaf);
        report.leaf_set_messages += path.len() as u64; // successor notification per level
        self.nodes.insert(
            id,
            SimNode {
                leaf,
                links,
                leaf_sets,
            },
        );

        // 5. Repair neighbors: recompute state of affected nodes, paying
        // one message per changed link and one per leaf-set refresh.
        report.nodes_touched = affected.len();
        for x in affected {
            report.link_messages += self.refresh_links(x);
            report.leaf_set_messages += self.refresh_leaf_sets(x);
        }
        report
    }

    /// Removes `id`, returning message accounting.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn leave(&mut self, id: NodeId) -> OpReport {
        let node = self
            .nodes
            .remove(&id)
            .unwrap_or_else(|| panic!("node {id} not live"));
        let mut report = OpReport::default();
        let path = self.hierarchy.path_from_root(node.leaf);

        // Whose state mentions the departed node? Links are repaired by the
        // leaf-set fallback (paper: leaf sets exist to survive deletions),
        // and the affected set mirrors the join computation plus everyone
        // holding a link to `id`.
        let mut affected = self.affected_by(id, &path);
        for (x, n) in &self.nodes {
            if n.links.contains(&id) || n.leaf_sets.iter().any(|(_, ls)| ls.contains(&id)) {
                affected.insert(*x);
            }
        }
        affected.remove(&id);

        for &d in &path {
            self.members[d.index()].remove(&id.raw());
        }

        report.nodes_touched = affected.len();
        for x in affected {
            report.link_messages += self.refresh_links(x);
            report.leaf_set_messages += self.refresh_leaf_sets(x);
        }
        report
    }

    /// Introduces new child domains under the leaf domain `leaf` and
    /// reassigns its members among them (paper §2.1: "the hierarchy may
    /// also evolve dynamically with the introduction of new domains").
    ///
    /// `child_of` maps each current member to the index of its new child
    /// (into `names`). Only the members of `leaf` are affected: every other
    /// domain's ring is unchanged, so only their links are recomputed. The
    /// returned report prices the reorganization.
    ///
    /// Returns the new child domains in `names` order.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf, `names` is empty, or `child_of`
    /// returns an out-of-range index.
    pub fn split_domain<F: Fn(NodeId) -> usize>(
        &mut self,
        leaf: DomainId,
        names: &[&str],
        child_of: F,
    ) -> (Vec<DomainId>, OpReport) {
        assert!(self.hierarchy.is_leaf(leaf), "{leaf} is not a leaf domain");
        assert!(!names.is_empty(), "a split needs at least one child domain");
        let children: Vec<DomainId> = names
            .iter()
            .map(|n| self.hierarchy.add_domain(leaf, *n))
            .collect();
        self.members.resize(self.hierarchy.len(), BTreeSet::new());

        let moved: Vec<NodeId> = self.members[leaf.index()]
            .iter()
            .map(|&r| NodeId::new(r))
            .collect();
        for &id in &moved {
            let c = children[child_of(id)];
            self.members[c.index()].insert(id.raw());
            self.nodes.get_mut(&id).expect("member is live").leaf = c;
        }

        // Only the moved nodes gain a level; everyone else's rings are
        // untouched, so recomputing the moved nodes suffices for the
        // structure to equal the static construction on the new hierarchy.
        let mut report = OpReport {
            nodes_touched: moved.len(),
            ..OpReport::default()
        };
        for id in moved {
            report.link_messages += self.refresh_links(id);
            report.leaf_set_messages += self.refresh_leaf_sets(id);
        }
        (children, report)
    }

    /// Crash-fails `id`: the node vanishes *without* notifying anyone.
    /// Other nodes keep their stale links and leaf-set entries until
    /// [`CrescendoSim::repair`] runs; in the meantime lookups must survive
    /// on the redundancy the leaf sets provide
    /// ([`CrescendoSim::lookup_surviving`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn crash(&mut self, id: NodeId) {
        let node = self
            .nodes
            .remove(&id)
            .unwrap_or_else(|| panic!("node {id} not live"));
        for &d in &self.hierarchy.path_from_root(node.leaf) {
            self.members[d.index()].remove(&id.raw());
        }
    }

    /// Greedy clockwise lookup from `from` toward `target` that skips dead
    /// neighbors (simulating per-hop timeouts), using both routing links
    /// and leaf-set entries as next-hop candidates — the leaf sets are
    /// exactly the fallback the paper introduces them for.
    ///
    /// Returns the hop count on success, or `None` when no live,
    /// strictly-closer neighbor exists at some hop.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not live.
    pub fn lookup_surviving(&self, from: NodeId, target: NodeId) -> Option<u64> {
        assert!(self.nodes.contains_key(&from), "source {from} not live");
        let mut cur = from;
        let mut dist = cur.clockwise_to(target);
        let mut hops = 0u64;
        while dist != 0 {
            let node = &self.nodes[&cur];
            // A dead neighbor times out and the next candidate is tried.
            let live = node
                .links()
                .chain(node.leaf_sets.iter().flat_map(|(_, ls)| ls.iter().copied()))
                .filter(|nb| self.nodes.contains_key(nb));
            let (next, d) = closest(Clockwise, live, target).filter(|&(_, d)| d < dist)?;
            cur = next;
            dist = d;
            hops += 1;
        }
        Some(hops)
    }

    /// Fraction of successful [`CrescendoSim::lookup_surviving`] calls over
    /// `pairs` random live source/target pairs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes are live.
    pub fn lookup_success_rate(&self, pairs: usize, seed: canon_id::rng::Seed) -> f64 {
        let ids: Vec<NodeId> = self.ids().collect();
        assert!(ids.len() >= 2, "resilience sampling needs two live nodes");
        let mut rng = seed.rng();
        use rand::Rng;
        let mut ok = 0usize;
        let mut total = 0usize;
        while total < pairs {
            let a = ids[rng.gen_range(0..ids.len())];
            let b = ids[rng.gen_range(0..ids.len())];
            if a == b {
                continue;
            }
            total += 1;
            ok += usize::from(self.lookup_surviving(a, b).is_some());
        }
        ok as f64 / total as f64
    }

    /// Runs a full stabilization pass: every live node recomputes its links
    /// and leaf sets against the true membership, clearing all staleness
    /// left by crashes. Returns the total repair messages (changed links
    /// plus leaf-set refreshes).
    pub fn repair(&mut self) -> u64 {
        let ids: Vec<NodeId> = self.ids().collect();
        let mut messages = 0u64;
        for x in ids {
            messages += self.refresh_links(x);
            messages += self.refresh_leaf_sets(x);
        }
        messages
    }

    /// The number of repair messages a full stabilization pass *would*
    /// send, without mutating any state: exactly the value
    /// [`CrescendoSim::repair`] would return right now. Lets callers probe
    /// accumulated staleness mid-experiment (e.g. between churn rounds)
    /// while the staleness itself keeps evolving — previously that took
    /// cloning the whole simulator just to discard the repaired copy.
    pub fn repair_cost(&self) -> u64 {
        let mut messages = 0u64;
        for (&x, node) in &self.nodes {
            let new_links = self.compute_links(x, node.leaf);
            messages += new_links.symmetric_difference(&node.links).count() as u64;
            messages += u64::from(self.compute_leaf_sets(x, node.leaf) != node.leaf_sets);
        }
        messages
    }

    /// Recomputes `x`'s links; returns the number of changed links.
    fn refresh_links(&mut self, x: NodeId) -> u64 {
        let leaf = self.nodes[&x].leaf;
        let new = self.compute_links(x, leaf);
        let node = self.nodes.get_mut(&x).expect("x is live");
        let changed = new.symmetric_difference(&node.links).count() as u64;
        node.links = new;
        changed
    }

    /// Recomputes `x`'s leaf sets; returns 1 if anything changed.
    fn refresh_leaf_sets(&mut self, x: NodeId) -> u64 {
        let leaf = self.nodes[&x].leaf;
        let new = self.compute_leaf_sets(x, leaf);
        let node = self.nodes.get_mut(&x).expect("x is live");
        if node.leaf_sets != new {
            node.leaf_sets = new;
            1
        } else {
            0
        }
    }

    /// Snapshot of the live nodes' link tables as a flat graph, in
    /// ascending id order — the one place the simulator builds a graph,
    /// through the static builders' own constructor, so after any
    /// notified churn it equals [`canon::crescendo::build_crescendo`] on
    /// the surviving census byte for byte. After uncompensated crashes,
    /// stale links to dead nodes are left out (the graph has no node to
    /// point them at).
    pub fn snapshot(&self) -> OverlayGraph {
        let ids: Vec<NodeId> = self.ids().collect();
        let live = |to: &NodeId| self.nodes.contains_key(to);
        let rows: Vec<Vec<NodeId>> = ids
            .iter()
            .map(|id| self.nodes[id].links().filter(live).collect())
            .collect();
        // audit: full-rebuild — one-off snapshot export, not a churn event
        GraphBuilder::from_per_node_links(&ids, &rows)
    }

    /// The current membership as a [`Placement`] (for comparison with the
    /// static construction).
    pub fn placement(&self) -> Placement {
        let pairs = self.nodes.iter().map(|(&id, n)| (id, n.leaf)).collect();
        Placement::from_pairs(&self.hierarchy, pairs)
    }

    /// Where `replication` copies of `key` go within `domain`, under the
    /// **current** (churned) membership.
    ///
    /// This is the bridge between the maintenance simulator and
    /// canon-store's placement rule ([`canon_store::replica_successors`]):
    /// after any join/leave sequence, the replica set a store built over
    /// [`CrescendoSim::placement`] would use is available directly, without
    /// rebuilding the store — the root `storage_policies` tests use it to
    /// check placement under churn.
    pub fn replica_targets(
        &self,
        key: canon_id::Key,
        domain: DomainId,
        replication: usize,
    ) -> Vec<NodeId> {
        let placement = self.placement();
        let membership = canon_hierarchy::DomainMembership::build(&self.hierarchy, &placement);
        canon_store::replica_successors(membership.ring(domain), key.as_point(), replication)
    }
}

/// Collects the members of `set` in the wrapped half-open interval
/// `(lo, hi]` into `out`.
fn collect_wrapped(set: &BTreeSet<u64>, lo: u64, hi: u64, out: &mut BTreeSet<NodeId>) {
    use std::ops::Bound::{Excluded, Included};
    if lo < hi {
        for &x in set.range((Excluded(lo), Included(hi))) {
            out.insert(NodeId::new(x));
        }
    } else if lo > hi {
        for &x in set.range((Excluded(lo), Included(u64::MAX))) {
            out.insert(NodeId::new(x));
        }
        for &x in set.range(..=hi) {
            out.insert(NodeId::new(x));
        }
    }
    // lo == hi: empty interval.
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon::crescendo::build_crescendo;
    use canon_hierarchy::Hierarchy;
    use canon_id::rng::{random_ids, Seed};
    use canon_overlay::route;
    use rand::Rng;

    fn edges_of(g: &OverlayGraph) -> BTreeSet<(u64, u64)> {
        g.edges()
            .map(|(a, b)| (g.id(a).raw(), g.id(b).raw()))
            .collect()
    }

    /// The central invariant: incremental joins reproduce the static
    /// construction exactly.
    #[test]
    fn joins_reproduce_static_construction() {
        let h = Hierarchy::balanced(3, 3);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 4);
        let ids = random_ids(Seed(91), 120);
        let mut rng = Seed(92).rng();
        let mut pairs = Vec::new();
        for &id in &ids {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            sim.join(id, leaf);
            pairs.push((id, leaf));
        }
        pairs.sort_by_key(|&(id, _)| id);
        let placement = Placement::from_pairs(&h, pairs);
        let static_net = build_crescendo(&h, &placement);
        assert_eq!(
            edges_of(&sim.snapshot()),
            edges_of(static_net.graph()),
            "incremental joins diverged from the static construction"
        );
    }

    #[test]
    fn churn_reproduces_static_construction() {
        let h = Hierarchy::balanced(3, 3);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 4);
        let ids = random_ids(Seed(93), 150);
        let mut rng = Seed(94).rng();
        let mut live: Vec<NodeId> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if i % 4 == 3 && live.len() > 10 {
                let v = live.swap_remove(rng.gen_range(0..live.len()));
                sim.leave(v);
            }
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            sim.join(id, leaf);
            live.push(id);
        }
        let static_net = build_crescendo(&h, &sim.placement());
        assert_eq!(edges_of(&sim.snapshot()), edges_of(static_net.graph()));
    }

    /// The central invariant in its strongest form: the maintained link
    /// tables, exported, are byte-identical to the static construction —
    /// same node order, CSR arrays, ring and next-hop index, not merely
    /// the same edge sets.
    #[test]
    fn snapshot_is_byte_identical_to_static_build() {
        let h = Hierarchy::balanced(3, 3);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 4);
        let ids = random_ids(Seed(201), 180);
        let mut rng = Seed(202).rng();
        let mut live: Vec<NodeId> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 == 2 && live.len() > 8 {
                let v = live.swap_remove(rng.gen_range(0..live.len()));
                sim.leave(v);
            }
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
            live.push(id);
        }
        let static_net = build_crescendo(&h, &sim.placement());
        assert_eq!(sim.snapshot(), *static_net.graph());
    }

    /// Between `crash` and `repair` the link tables still name the dead;
    /// the exported graph must not: exactly the live ids, no edge to a
    /// dead one, and routable as far as the surviving links go.
    #[test]
    fn snapshot_between_crash_and_repair_holds_only_the_living() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 4);
        let ids = random_ids(Seed(120), 160);
        let mut rng = Seed(121).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        let (dead, alive) = ids.split_at(40);
        for &id in dead {
            sim.crash(id);
        }
        let stale = alive
            .iter()
            .flat_map(|&id| sim.node(id).unwrap().links())
            .filter(|l| dead.contains(l))
            .count();
        assert!(stale > 0, "crashes must leave stale links behind");

        let g = sim.snapshot();
        let mut live = alive.to_vec();
        live.sort_unstable();
        assert_eq!(g.ids(), live);
        let survivors: usize = alive
            .iter()
            .map(|&id| sim.node(id).unwrap().links().count())
            .sum();
        assert_eq!(g.link_count(), survivors - stale, "only dead targets drop");
        for (_, to) in g.edges() {
            assert!(sim.node(g.id(to)).is_some(), "edge to dead {}", g.id(to));
        }

        // Wherever the protocol's own lookup gets through, the engine's
        // walk over the snapshot ends too: at the target, or stuck at a
        // live node whose only way on was a leaf-set entry the graph does
        // not carry — never an unknown node or an exhausted hop budget.
        let mut reached = 0;
        for (i, &from) in alive.iter().enumerate().take(60) {
            let to = alive[(i * 37 + 11) % alive.len()];
            if from == to || sim.lookup_surviving(from, to).is_none() {
                continue;
            }
            let (a, b) = (g.index_of(from).unwrap(), g.index_of(to).unwrap());
            match route(&g, Clockwise, a, b) {
                Ok(r) => {
                    assert_eq!(r.target(), b);
                    reached += 1;
                }
                Err(e) => assert!(
                    matches!(e, canon_overlay::RouteError::Stuck { .. }),
                    "{from} -> {to}: {e}"
                ),
            }
        }
        assert!(reached > 0, "some sampled route must get through");
    }

    #[test]
    fn join_messages_are_logarithmic() {
        let h = Hierarchy::balanced(4, 3);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 4);
        let ids = random_ids(Seed(95), 600);
        let mut rng = Seed(96).rng();
        let mut last_hundred = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let rep = sim.join(id, leaf);
            if i >= 500 {
                last_hundred.push(rep.total());
            }
        }
        let mean = last_hundred.iter().sum::<u64>() as f64 / last_hundred.len() as f64;
        // O(log n): generous ceiling of 8 * log2(600) ≈ 74.
        assert!(mean < 8.0 * (600f64).log2(), "mean join messages {mean}");
        assert!(mean > 2.0, "suspiciously few messages: {mean}");
    }

    #[test]
    fn routing_works_after_churn() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 4);
        let ids = random_ids(Seed(97), 100);
        let mut rng = Seed(98).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        for &id in ids.iter().take(30) {
            sim.leave(id);
        }
        let g = sim.snapshot();
        for _ in 0..100 {
            let a = canon_overlay::NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = canon_overlay::NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = route(&g, Clockwise, a, b).unwrap();
            assert_eq!(r.target(), b);
        }
    }

    #[test]
    fn leaf_sets_track_per_level_successors() {
        let h = Hierarchy::balanced(2, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 3);
        let ids = random_ids(Seed(99), 40);
        let mut rng = Seed(100).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        for &id in ids.iter().take(10) {
            let node = sim.node(id).unwrap();
            // Root-level leaf set: the three global successors.
            let ls = node.leaf_set(h.root()).unwrap();
            assert_eq!(ls.len(), 3);
            let mut cur = id;
            for &expected in ls {
                let s = sim.succ_in(h.root(), cur.offset(1)).unwrap();
                assert_eq!(s, expected);
                cur = s;
            }
        }
    }

    #[test]
    fn domain_splits_match_the_static_construction() {
        // Build flat-ish, then split one leaf into three children; the
        // maintained structure must equal build_crescendo on the evolved
        // hierarchy.
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 3);
        let ids = random_ids(Seed(110), 120);
        let mut rng = Seed(111).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        let (children, report) =
            sim.split_domain(leaves[0], &["a", "b", "c"], |id| (id.raw() % 3) as usize);
        assert_eq!(children.len(), 3);
        // A split both adds sub-ring fingers and drops old-leaf links that
        // condition (b) now excludes; either way state changed.
        assert!(report.link_messages > 0, "a split must rewire links");
        // Equivalence with the static construction on the evolved tree.
        let static_net = build_crescendo(sim.hierarchy(), &sim.placement());
        assert_eq!(edges_of(&sim.snapshot()), edges_of(static_net.graph()));
        // And joins keep working against the evolved hierarchy.
        let extra = random_ids(Seed(112), 10);
        for &id in &extra {
            sim.join(id, children[0]);
        }
        let static_net = build_crescendo(sim.hierarchy(), &sim.placement());
        assert_eq!(edges_of(&sim.snapshot()), edges_of(static_net.graph()));
    }

    #[test]
    #[should_panic(expected = "is not a leaf domain")]
    fn splitting_internal_domain_panics() {
        let h = Hierarchy::balanced(2, 2);
        let root = h.root();
        let mut sim = CrescendoSim::new(h, 2);
        sim.split_domain(root, &["x"], |_| 0);
    }

    #[test]
    fn lookups_survive_crashes_via_leaf_sets() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 4);
        let ids = random_ids(Seed(101), 200);
        let mut rng = Seed(102).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        // Crash 15% of the nodes without notification.
        for &id in ids.iter().take(30) {
            sim.crash(id);
        }
        let rate = sim.lookup_success_rate(300, Seed(103));
        assert!(rate > 0.95, "success rate {rate} too low with leaf sets");
    }

    #[test]
    fn repair_restores_the_static_structure() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h.clone(), 4);
        let ids = random_ids(Seed(104), 150);
        let mut rng = Seed(105).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        for &id in ids.iter().take(40) {
            sim.crash(id);
        }
        let repaired = sim.repair();
        assert!(repaired > 0, "crashes must leave something to repair");
        let static_net = build_crescendo(&h, &sim.placement());
        assert_eq!(edges_of(&sim.snapshot()), edges_of(static_net.graph()));
        // A second pass finds nothing left to fix.
        assert_eq!(sim.repair(), 0);
        // And lookups are perfect again.
        assert_eq!(sim.lookup_success_rate(200, Seed(106)), 1.0);
    }

    #[test]
    fn repair_cost_predicts_repair_without_mutating() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut sim = CrescendoSim::new(h, 4);
        let ids = random_ids(Seed(110), 150);
        let mut rng = Seed(111).rng();
        for &id in &ids {
            sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
        }
        for &id in ids.iter().take(40) {
            sim.crash(id);
        }
        let cost = sim.repair_cost();
        assert!(cost > 0, "crashes must leave staleness to measure");
        // Probing is non-destructive: asking twice gives the same answer,
        // and the eventual repair sends exactly the predicted messages.
        assert_eq!(sim.repair_cost(), cost);
        assert_eq!(sim.repair(), cost);
        assert_eq!(sim.repair_cost(), 0);
    }

    #[test]
    fn larger_leaf_sets_improve_crash_resilience() {
        let h = Hierarchy::balanced(3, 2);
        let leaves = h.leaves();
        let mut rates = Vec::new();
        for leaf_set_size in [1usize, 8] {
            let mut sim = CrescendoSim::new(h.clone(), leaf_set_size);
            let ids = random_ids(Seed(107), 250);
            let mut rng = Seed(108).rng();
            for &id in &ids {
                sim.join(id, leaves[rng.gen_range(0..leaves.len())]);
            }
            // Heavy failure: 40% of nodes crash.
            for &id in ids.iter().take(100) {
                sim.crash(id);
            }
            rates.push(sim.lookup_success_rate(400, Seed(109)));
        }
        assert!(
            rates[1] >= rates[0],
            "leaf sets of 8 ({}) should not do worse than 1 ({})",
            rates[1],
            rates[0]
        );
        assert!(rates[1] > 0.9, "rate with big leaf sets {}", rates[1]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn crashing_unknown_node_panics() {
        let h = Hierarchy::balanced(2, 2);
        let mut sim = CrescendoSim::new(h, 2);
        sim.crash(NodeId::new(5));
    }

    #[test]
    fn first_node_joins_with_no_messages() {
        let h = Hierarchy::balanced(2, 2);
        let leaf = h.leaves()[0];
        let mut sim = CrescendoSim::new(h, 2);
        let rep = sim.join(NodeId::new(42), leaf);
        assert_eq!(rep.total(), rep.leaf_set_messages);
        assert_eq!(sim.len(), 1);
        assert!(!sim.is_empty());
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn duplicate_join_panics() {
        let h = Hierarchy::balanced(2, 2);
        let leaf = h.leaves()[0];
        let mut sim = CrescendoSim::new(h, 2);
        sim.join(NodeId::new(1), leaf);
        sim.join(NodeId::new(1), leaf);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn leaving_unknown_node_panics() {
        let h = Hierarchy::balanced(2, 2);
        let mut sim = CrescendoSim::new(h, 2);
        sim.leave(NodeId::new(1));
    }

    #[test]
    fn node_accessors_expose_state() {
        let h = Hierarchy::balanced(2, 2);
        let leaf = h.leaves()[0];
        let mut sim = CrescendoSim::new(h, 2);
        sim.join(NodeId::new(10), leaf);
        sim.join(NodeId::new(20), leaf);
        let n = sim.node(NodeId::new(10)).unwrap();
        assert_eq!(n.leaf(), leaf);
        assert!(n.links().any(|l| l == NodeId::new(20)));
        assert_eq!(sim.ids().count(), 2);
    }

    /// After churn, the simulator's replica targets match what a store
    /// built over the surviving membership would place, for every count
    /// from one copy to more than the root ring holds.
    #[test]
    fn replica_targets_track_the_store_under_churn() {
        use canon_id::hash::hash_name;
        use canon_store::ReplicatedStore;

        let h = Hierarchy::balanced(3, 2);
        let mut sim = CrescendoSim::new(h.clone(), 4);
        let mut rng = Seed(41).derive("churn-targets").rng();
        let leaves = h.leaves();
        for i in 0..60u64 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            sim.join(NodeId::new(Seed(41).derive_index(i).0), leaf);
        }
        let departing: Vec<NodeId> = sim.ids().take(12).collect();
        for id in departing {
            sim.leave(id);
        }

        let placement = sim.placement();
        for replication in [1, 3, 9, 64] {
            let store = ReplicatedStore::new(&h, &placement, replication);
            for i in 0..20 {
                let key = hash_name(&format!("churned-{i}"));
                assert_eq!(
                    sim.replica_targets(key, h.root(), replication),
                    store.replica_set(key, h.root()),
                    "replication {replication} diverged for key {key}"
                );
            }
        }
    }
}
