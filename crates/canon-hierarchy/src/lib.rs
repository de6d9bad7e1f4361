//! Conceptual domain hierarchies (paper §2.1).
//!
//! Canon requires all nodes to form a *conceptual hierarchy* reflecting their
//! real-world organization (Figure 1 of the paper: Stanford → CS → {DB, DS,
//! AI}). Internal vertices of the hierarchy are *domains*; system nodes hang
//! off the leaf domains. No global knowledge of the hierarchy is needed by
//! the protocols — only each node's own root-to-leaf path and the ability to
//! compute lowest common ancestors — but the simulator keeps the full tree so
//! experiments can enumerate domains, place nodes and measure per-level
//! properties.
//!
//! This crate provides:
//!
//! * [`Hierarchy`]: an arena-allocated domain tree with parent/children,
//!   depth, ancestor and LCA queries;
//! * generators for the paper's experimental hierarchies (balanced fan-out-10
//!   trees of 1–5 levels, §5.1);
//! * [`Placement`]: the assignment of DHT nodes to leaf domains, with the two
//!   distributions used in §5.1 (uniform and Zipf `1/k^1.25`);
//! * [`DomainMembership`]: the per-domain sorted member rings that every
//!   Canon construction consumes, computed bottom-up.
//!
//! # Example
//!
//! ```
//! use canon_hierarchy::{Hierarchy, Placement, DomainMembership};
//! use canon_id::rng::Seed;
//!
//! // A 3-level hierarchy with fan-out 4 (root, 4 children, 16 leaves).
//! let h = Hierarchy::balanced(4, 3);
//! let placement = Placement::uniform(&h, 100, Seed(7));
//! let members = DomainMembership::build(&h, &placement);
//! assert_eq!(members.ring(h.root()).len(), 100);
//! ```

#![forbid(unsafe_code)]

use canon_id::{
    ring::SortedRing,
    rng::{random_ids, Seed},
    NodeId,
};
use rand::Rng;
use std::fmt;

/// Identifies a domain within one [`Hierarchy`] (an arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomainId(u32);

impl DomainId {
    /// The arena index of this domain.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Domain {
    parent: Option<DomainId>,
    children: Vec<DomainId>,
    name: String,
    depth: u32,
}

/// An arena-allocated tree of domains.
///
/// Depth 0 is the root (the paper's "top level"); a hierarchy of `L` levels
/// in the paper's terminology has leaves at depth `L - 1` (so `L = 1` is a
/// flat DHT: the root is the only — leaf — domain).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    domains: Vec<Domain>,
}

impl Hierarchy {
    /// Creates a hierarchy consisting of just the root domain.
    pub fn new() -> Self {
        Hierarchy {
            domains: vec![Domain {
                parent: None,
                children: Vec::new(),
                name: "root".to_owned(),
                depth: 0,
            }],
        }
    }

    /// The root domain.
    pub fn root(&self) -> DomainId {
        DomainId(0)
    }

    /// Adds a child domain under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not belong to this hierarchy.
    pub fn add_domain(&mut self, parent: DomainId, name: impl Into<String>) -> DomainId {
        let depth = self.domain(parent).depth + 1;
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.domains.push(Domain {
            parent: Some(parent),
            children: Vec::new(),
            name: name.into(),
            depth,
        });
        self.domains[parent.index()].children.push(id);
        id
    }

    fn domain(&self, id: DomainId) -> &Domain {
        &self.domains[id.index()]
    }

    /// Number of domains (including the root).
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// A hierarchy always contains at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The parent of `id`, or `None` for the root.
    pub fn parent(&self, id: DomainId) -> Option<DomainId> {
        self.domain(id).parent
    }

    /// The children of `id` in insertion order.
    pub fn children(&self, id: DomainId) -> &[DomainId] {
        &self.domain(id).children
    }

    /// The depth of `id` (root = 0).
    pub fn depth(&self, id: DomainId) -> u32 {
        self.domain(id).depth
    }

    /// Whether `id` has no children.
    pub fn is_leaf(&self, id: DomainId) -> bool {
        self.domain(id).children.is_empty()
    }

    /// The local name of the domain.
    pub fn name(&self, id: DomainId) -> &str {
        &self.domain(id).name
    }

    /// The DNS-style fully qualified name, e.g. `"db.cs"`. The root's
    /// segment is omitted unless the domain *is* the root.
    pub fn full_name(&self, id: DomainId) -> String {
        if id == self.root() {
            return self.name(id).to_owned();
        }
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = Some(id);
        while let Some(d) = cur {
            if d == self.root() {
                break;
            }
            parts.push(self.name(d));
            cur = self.parent(d);
        }
        parts.join(".")
    }

    /// All leaf domains, in arena order.
    pub fn leaves(&self) -> Vec<DomainId> {
        (0..self.domains.len())
            .map(|i| DomainId(i as u32))
            .filter(|&d| self.is_leaf(d))
            .collect()
    }

    /// All domains, in arena order (parents precede children).
    pub fn all_domains(&self) -> impl Iterator<Item = DomainId> + '_ {
        (0..self.domains.len()).map(|i| DomainId(i as u32))
    }

    /// Domains at exactly `depth`.
    pub fn domains_at_depth(&self, depth: u32) -> Vec<DomainId> {
        self.all_domains()
            .filter(|&d| self.depth(d) == depth)
            .collect()
    }

    /// The root-to-`id` path (root first, `id` last).
    pub fn path_from_root(&self, id: DomainId) -> Vec<DomainId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Iterates over `id` and its ancestors, leaf-to-root.
    pub fn ancestors(&self, id: DomainId) -> Ancestors<'_> {
        Ancestors {
            hierarchy: self,
            next: Some(id),
        }
    }

    /// Whether `anc` is `id` or an ancestor of `id`.
    pub fn is_ancestor_or_self(&self, anc: DomainId, id: DomainId) -> bool {
        self.ancestors(id).any(|d| d == anc)
    }

    /// The lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: DomainId, b: DomainId) -> DomainId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("non-root has parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("non-root has parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root has parent");
            b = self.parent(b).expect("non-root has parent");
        }
        a
    }

    /// The ancestor of `id` at exactly `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the depth of `id`.
    pub fn ancestor_at_depth(&self, id: DomainId, depth: u32) -> DomainId {
        assert!(
            depth <= self.depth(id),
            "depth {depth} below domain {id} at depth {}",
            self.depth(id)
        );
        let mut cur = id;
        while self.depth(cur) > depth {
            cur = self.parent(cur).expect("non-root has parent");
        }
        cur
    }

    /// Maximum leaf depth plus one: the paper's "number of levels" `l`.
    pub fn levels(&self) -> u32 {
        self.all_domains().map(|d| self.depth(d)).max().unwrap_or(0) + 1
    }

    /// Builds a balanced hierarchy: `levels` levels with `fanout` children
    /// under every internal domain (paper §5.1 uses fan-out 10, levels 1–5).
    ///
    /// `levels == 1` yields the flat hierarchy (root only).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`, or if `fanout == 0` while `levels > 1`.
    pub fn balanced(fanout: usize, levels: u32) -> Self {
        assert!(levels >= 1, "a hierarchy has at least one level");
        assert!(levels == 1 || fanout >= 1, "fan-out must be positive");
        let mut h = Hierarchy::new();
        let mut frontier = vec![h.root()];
        for depth in 1..levels {
            let mut next = Vec::with_capacity(frontier.len() * fanout);
            for &parent in &frontier {
                for c in 0..fanout {
                    next.push(h.add_domain(parent, format!("d{depth}-{c}")));
                }
            }
            frontier = next;
        }
        h
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Hierarchy::new()
    }
}

/// Iterator over a domain and its ancestors (leaf-to-root).
#[derive(Clone, Debug)]
pub struct Ancestors<'a> {
    hierarchy: &'a Hierarchy,
    next: Option<DomainId>,
}

impl Iterator for Ancestors<'_> {
    type Item = DomainId;

    fn next(&mut self) -> Option<DomainId> {
        let cur = self.next?;
        self.next = self.hierarchy.parent(cur);
        Some(cur)
    }
}

/// The assignment of DHT nodes (identifiers) to leaf domains.
///
/// Paper §5.1 evaluates two leaf-assignment distributions: uniformly random,
/// and a Zipf distribution where the `k`-th largest branch within any domain
/// receives a share proportional to `1/k^1.25`. Both produced practically
/// identical results in the paper; both are provided here.
#[derive(Clone, Debug)]
pub struct Placement {
    ids: Vec<NodeId>,
    leaf_of: Vec<DomainId>,
}

impl Placement {
    /// Places nodes with explicit `(id, leaf)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any referenced domain is not a leaf of `hierarchy`, or if
    /// identifiers repeat.
    pub fn from_pairs(hierarchy: &Hierarchy, pairs: Vec<(NodeId, DomainId)>) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(pairs.len());
        for &(id, leaf) in &pairs {
            assert!(hierarchy.is_leaf(leaf), "{leaf} is not a leaf domain");
            assert!(seen.insert(id), "duplicate node id {id}");
        }
        let (ids, leaf_of) = pairs.into_iter().unzip();
        Placement { ids, leaf_of }
    }

    /// Places `n` nodes with fresh random identifiers, each assigned to a
    /// uniformly random leaf.
    pub fn uniform(hierarchy: &Hierarchy, n: usize, seed: Seed) -> Self {
        let ids = random_ids(seed.derive("ids"), n);
        let leaves = hierarchy.leaves();
        let mut rng = seed.derive("uniform-placement").rng();
        let leaf_of = (0..n)
            .map(|_| leaves[rng.gen_range(0..leaves.len())])
            .collect();
        Placement { ids, leaf_of }
    }

    /// Places `n` nodes with fresh random identifiers using the paper's
    /// Zipf branch distribution: each node descends from the root choosing
    /// child `k` (1-based, in a per-run random branch order) with probability
    /// proportional to `1/k^1.25`.
    pub fn zipf(hierarchy: &Hierarchy, n: usize, seed: Seed) -> Self {
        const EXPONENT: f64 = 1.25;
        let ids = random_ids(seed.derive("ids"), n);
        let mut rng = seed.derive("zipf-placement").rng();

        // Fix a random "size order" of children per domain, so "the k-th
        // largest branch" is a stable notion within a run, and precompute
        // the Zipf weights per domain.
        let mut branch_order: Vec<Vec<DomainId>> = Vec::with_capacity(hierarchy.len());
        for d in hierarchy.all_domains() {
            let mut kids = hierarchy.children(d).to_vec();
            // Fisher–Yates shuffle.
            for i in (1..kids.len()).rev() {
                kids.swap(i, rng.gen_range(0..=i));
            }
            branch_order.push(kids);
        }
        let weights: Vec<Vec<f64>> = branch_order
            .iter()
            .map(|kids| {
                (1..=kids.len())
                    .map(|k| (k as f64).powf(-EXPONENT))
                    .collect()
            })
            .collect();
        let totals: Vec<f64> = weights.iter().map(|w| w.iter().sum()).collect();

        let leaf_of = (0..n)
            .map(|_| {
                let mut cur = hierarchy.root();
                while !hierarchy.is_leaf(cur) {
                    let kids = &branch_order[cur.index()];
                    let w = &weights[cur.index()];
                    let mut draw = rng.gen::<f64>() * totals[cur.index()];
                    let mut chosen = kids[kids.len() - 1];
                    for (i, wi) in w.iter().enumerate() {
                        if draw < *wi {
                            chosen = kids[i];
                            break;
                        }
                        draw -= wi;
                    }
                    cur = chosen;
                }
                cur
            })
            .collect();
        Placement { ids, leaf_of }
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no nodes are placed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The node identifiers, in placement order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The leaf domain of the `i`-th node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn leaf_of_index(&self, i: usize) -> DomainId {
        self.leaf_of[i]
    }

    /// Iterates over `(id, leaf)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, DomainId)> + '_ {
        self.ids.iter().copied().zip(self.leaf_of.iter().copied())
    }

    /// The leaf domain of a node id, if placed (linear scan; use
    /// [`Placement::leaf_of_index`] in hot paths).
    pub fn leaf_of(&self, id: NodeId) -> Option<DomainId> {
        self.ids
            .iter()
            .position(|&i| i == id)
            .map(|i| self.leaf_of[i])
    }
}

/// Per-domain sorted member rings, computed bottom-up.
///
/// `ring(d)` contains the identifiers of every node in the subtree rooted at
/// `d` — exactly the paper's "nodes in domain D". The root ring contains all
/// nodes.
#[derive(Clone, Debug)]
pub struct DomainMembership {
    rings: Vec<SortedRing>,
}

impl DomainMembership {
    /// Builds membership rings for `placement` over `hierarchy`.
    pub fn build(hierarchy: &Hierarchy, placement: &Placement) -> Self {
        // One sort of the placement, then each node joins its leaf's ring
        // and every ancestor's in identifier order: every ring comes out
        // sorted, and `SortedRing::new` only checks that it is.
        let mut placed: Vec<(NodeId, DomainId)> = placement.iter().collect();
        placed.sort_unstable_by_key(|&(id, _)| id);
        let mut per_domain: Vec<Vec<NodeId>> = vec![Vec::new(); hierarchy.len()];
        for (id, leaf) in placed {
            for d in hierarchy.ancestors(leaf) {
                per_domain[d.index()].push(id);
            }
        }
        DomainMembership {
            rings: per_domain.into_iter().map(SortedRing::new).collect(),
        }
    }

    /// The sorted ring of all nodes in domain `d`'s subtree.
    pub fn ring(&self, d: DomainId) -> &SortedRing {
        &self.rings[d.index()]
    }

    /// Number of nodes in domain `d`'s subtree.
    pub fn size(&self, d: DomainId) -> usize {
        self.rings[d.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Hierarchy, DomainId, DomainId, DomainId, DomainId, DomainId) {
        // root -> cs -> {db, ai}; root -> ee
        let mut h = Hierarchy::new();
        let cs = h.add_domain(h.root(), "cs");
        let db = h.add_domain(cs, "db");
        let ai = h.add_domain(cs, "ai");
        let ee = h.add_domain(h.root(), "ee");
        let root = h.root();
        (h, cs, db, ai, ee, root)
    }

    #[test]
    fn structure_queries() {
        let (h, cs, db, ai, ee, root) = sample();
        assert_eq!(h.parent(db), Some(cs));
        assert_eq!(h.parent(cs), Some(root));
        assert_eq!(h.parent(root), None);
        assert_eq!(h.children(cs), &[db, ai]);
        assert_eq!(h.depth(root), 0);
        assert_eq!(h.depth(cs), 1);
        assert_eq!(h.depth(db), 2);
        assert!(h.is_leaf(db) && h.is_leaf(ai) && h.is_leaf(ee));
        assert!(!h.is_leaf(cs) && !h.is_leaf(root));
        assert_eq!(h.len(), 5);
        assert_eq!(h.levels(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn full_names() {
        let (h, cs, db, _, _, root) = sample();
        assert_eq!(h.full_name(root), "root");
        assert_eq!(h.full_name(cs), "cs");
        assert_eq!(h.full_name(db), "db.cs");
    }

    #[test]
    fn lca_computation() {
        let (h, cs, db, ai, ee, root) = sample();
        assert_eq!(h.lca(db, ai), cs);
        assert_eq!(h.lca(db, ee), root);
        assert_eq!(h.lca(db, db), db);
        assert_eq!(h.lca(db, cs), cs);
        assert_eq!(h.lca(root, ee), root);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let (h, cs, db, _, _, root) = sample();
        let anc: Vec<DomainId> = h.ancestors(db).collect();
        assert_eq!(anc, vec![db, cs, root]);
        assert!(h.is_ancestor_or_self(cs, db));
        assert!(h.is_ancestor_or_self(db, db));
        assert!(!h.is_ancestor_or_self(db, cs));
    }

    #[test]
    fn path_and_ancestor_at_depth() {
        let (h, cs, db, _, _, root) = sample();
        assert_eq!(h.path_from_root(db), vec![root, cs, db]);
        assert_eq!(h.ancestor_at_depth(db, 0), root);
        assert_eq!(h.ancestor_at_depth(db, 1), cs);
        assert_eq!(h.ancestor_at_depth(db, 2), db);
    }

    #[test]
    #[should_panic(expected = "below domain")]
    fn ancestor_at_depth_rejects_deeper_query() {
        let (h, cs, _, _, _, _) = sample();
        h.ancestor_at_depth(cs, 2);
    }

    #[test]
    fn balanced_tree_shape() {
        let h = Hierarchy::balanced(10, 3);
        assert_eq!(h.len(), 1 + 10 + 100);
        assert_eq!(h.leaves().len(), 100);
        assert_eq!(h.levels(), 3);
        let flat = Hierarchy::balanced(10, 1);
        assert_eq!(flat.len(), 1);
        assert!(flat.is_leaf(flat.root()));
        assert_eq!(flat.levels(), 1);
    }

    #[test]
    fn domains_at_depth_counts() {
        let h = Hierarchy::balanced(3, 4);
        assert_eq!(h.domains_at_depth(0).len(), 1);
        assert_eq!(h.domains_at_depth(1).len(), 3);
        assert_eq!(h.domains_at_depth(2).len(), 9);
        assert_eq!(h.domains_at_depth(3).len(), 27);
    }

    #[test]
    fn uniform_placement_covers_leaves() {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::uniform(&h, 3200, Seed(5));
        assert_eq!(p.len(), 3200);
        // Every leaf should receive roughly 200 nodes; allow wide slack.
        let m = DomainMembership::build(&h, &p);
        for leaf in h.leaves() {
            let sz = m.size(leaf);
            assert!(sz > 100 && sz < 320, "leaf {leaf} got {sz}");
        }
    }

    #[test]
    fn zipf_placement_is_skewed() {
        let h = Hierarchy::balanced(10, 2);
        let p = Placement::zipf(&h, 10_000, Seed(11));
        let m = DomainMembership::build(&h, &p);
        let mut sizes: Vec<usize> = h.leaves().iter().map(|&l| m.size(l)).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // Largest branch should dominate the smallest by roughly
        // (10/1)^1.25 ≈ 17.8; require at least 4x to avoid flakiness.
        assert!(sizes[0] >= sizes[9] * 4, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn membership_rings_nest() {
        let (h, cs, db, ai, ee, root) = sample();
        let pairs = vec![
            (NodeId::new(1), db),
            (NodeId::new(2), db),
            (NodeId::new(3), ai),
            (NodeId::new(4), ee),
        ];
        let p = Placement::from_pairs(&h, pairs);
        let m = DomainMembership::build(&h, &p);
        assert_eq!(m.size(db), 2);
        assert_eq!(m.size(ai), 1);
        assert_eq!(m.size(cs), 3);
        assert_eq!(m.size(ee), 1);
        assert_eq!(m.size(root), 4);
        for &id in m.ring(db).as_slice() {
            assert!(m.ring(cs).contains(id));
            assert!(m.ring(root).contains(id));
        }
    }

    #[test]
    #[should_panic(expected = "not a leaf domain")]
    fn placement_rejects_internal_domains() {
        let (h, cs, _, _, _, _) = sample();
        Placement::from_pairs(&h, vec![(NodeId::new(1), cs)]);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn placement_rejects_duplicate_ids() {
        let (h, _, db, _, _, _) = sample();
        Placement::from_pairs(&h, vec![(NodeId::new(1), db), (NodeId::new(1), db)]);
    }

    #[test]
    fn placement_lookup_by_id() {
        let (h, _, db, ai, _, _) = sample();
        let p = Placement::from_pairs(&h, vec![(NodeId::new(1), db), (NodeId::new(2), ai)]);
        assert_eq!(p.leaf_of(NodeId::new(2)), Some(ai));
        assert_eq!(p.leaf_of(NodeId::new(9)), None);
        assert_eq!(p.leaf_of_index(0), db);
        assert!(!p.is_empty());
    }

    #[test]
    fn placements_are_reproducible() {
        let h = Hierarchy::balanced(5, 3);
        let a = Placement::zipf(&h, 500, Seed(1));
        let b = Placement::zipf(&h, 500, Seed(1));
        assert_eq!(a.ids(), b.ids());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
    }
}
