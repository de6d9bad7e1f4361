//! SkipNet (Harvey et al., USITS 2003) — the related-work system the paper
//! compares against in §6.
//!
//! SkipNet gives every node a *name* (DNS-style, sorted lexicographically)
//! and a random *numeric* identifier. Nodes form a skip graph: the
//! level-`h` rings partition nodes by the first `h` bits of their numeric
//! identifier, and every node keeps a name-order successor in each of its
//! rings (`O(log n)` pointers w.h.p.). Routing by name uses the
//! highest-level pointer that does not overshoot, visiting only nodes whose
//! names lie between source and destination — *explicit path locality* for
//! name-prefix domains. Content can be *constrained-load-balanced* (CLB):
//! a key `domain!suffix` hashes only its suffix and is stored within the
//! name segment of `domain` — at the price of modifying the key, which the
//! paper contrasts with Canon's unmodified-key storage domains (§6).
//!
//! The §6 claims reproduced here and in `canon-bench --bin skipnet_compare`:
//!
//! * SkipNet's name routing has path locality (tested below);
//! * but *inter-domain path convergence* is weaker than Canon's: routes
//!   from one domain to an outside destination spread over many exit
//!   nodes, so Canon-style proxy caching has no single anchor (measured).
//!
//! # Example
//!
//! ```
//! use canon_id::rng::Seed;
//! use canon_skipnet::SkipNet;
//!
//! let names: Vec<String> = (0..32).map(|i| format!("org/h{i:02}")).collect();
//! let net = SkipNet::build(names, Seed(1));
//! let r = net.route_by_name(0, 20)?;
//! // Name routing visits only names between source and destination.
//! assert!(r.path().iter().all(|i| i.index() <= 20));
//! # Ok::<(), canon_overlay::RouteError>(())
//! ```

#![forbid(unsafe_code)]

use canon_id::{rng::Seed, NodeId, ID_BITS};
use canon_overlay::{GraphBuilder, NodeIndex, OverlayGraph, Route, RouteError};
use rand::Rng;

/// A SkipNet overlay over named nodes.
///
/// Node indices (and [`NodeIndex`] in routes) refer to nodes in ascending
/// *name* order.
#[derive(Clone, Debug)]
pub struct SkipNet {
    names: Vec<String>,
    numerics: Vec<NodeId>,
    /// `succ[h][i]` = index of the name-order successor of node `i` within
    /// its level-`h` ring (nodes sharing `h` numeric prefix bits).
    succ: Vec<Vec<usize>>,
    levels: u32,
}

impl SkipNet {
    /// Builds a SkipNet over `names`, assigning random numeric identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty or contains duplicates.
    pub fn build(mut names: Vec<String>, seed: Seed) -> Self {
        assert!(!names.is_empty(), "a SkipNet needs at least one node");
        names.sort();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "node names must be unique"
        );
        let n = names.len();
        let mut rng = seed.derive("skipnet-numeric").rng();
        let numerics: Vec<NodeId> = (0..n).map(|_| NodeId::new(rng.gen())).collect();

        // Ring pointers per level until every ring is a singleton.
        let mut succ: Vec<Vec<usize>> = Vec::new();
        let mut level = 0u32;
        loop {
            let mut s = vec![usize::MAX; n];
            let mut any_ring = false;
            use std::collections::BTreeMap;
            let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            // Walking indices in order yields name order within each group.
            for (i, num) in numerics.iter().enumerate() {
                groups.entry(num.prefix(level)).or_default().push(i);
            }
            for members in groups.values() {
                if members.len() > 1 {
                    any_ring = true;
                }
                for (k, &i) in members.iter().enumerate() {
                    s[i] = members[(k + 1) % members.len()];
                }
            }
            succ.push(s);
            level += 1;
            if !any_ring || level >= ID_BITS {
                break;
            }
        }

        SkipNet {
            names,
            numerics,
            succ,
            levels: level,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// A SkipNet is never empty (construction rejects empty name lists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of ring levels (the level-0 root ring counts as one).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The name of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The numeric identifier of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn numeric(&self, i: usize) -> NodeId {
        self.numerics[i]
    }

    /// The index of the node with exactly `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|x| x.as_str().cmp(name)).ok()
    }

    /// Name-order (clockwise) distance from node `a` to node `b`.
    fn name_distance(&self, a: usize, b: usize) -> usize {
        (b + self.len() - a) % self.len()
    }

    /// Routes from node `from` to node `to` by name, using the highest-
    /// level pointer that does not overshoot (SkipNet's `routeByName`,
    /// restricted to the clockwise direction).
    ///
    /// # Errors
    ///
    /// * [`RouteError::HopLimit`] on malformed structures (cannot occur for
    ///   networks built by [`SkipNet::build`]).
    pub fn route_by_name(&self, from: usize, to: usize) -> Result<Route, RouteError> {
        const HOP_LIMIT: usize = 65536;
        let mut path = vec![NodeIndex(from as u32)];
        let mut cur = from;
        while cur != to {
            let remaining = self.name_distance(cur, to);
            // Highest level whose successor does not overshoot. Level 0 is
            // the full ring whose successor advances by exactly 1, so a
            // qualifying pointer always exists.
            let mut next = None;
            for h in (0..self.succ.len()).rev() {
                let s = self.succ[h][cur];
                if s == usize::MAX || s == cur {
                    continue;
                }
                if self.name_distance(cur, s) <= remaining {
                    next = Some(s);
                    break;
                }
            }
            let next = next.expect("level-0 successor always qualifies");
            path.push(NodeIndex(next as u32));
            cur = next;
            if path.len() > HOP_LIMIT {
                return Err(RouteError::HopLimit { limit: HOP_LIMIT });
            }
        }
        Ok(Route::from_path(path))
    }

    /// Routes from `from` to the node responsible for `name`: the node with
    /// the greatest name `<=` the target, wrapping.
    ///
    /// # Errors
    ///
    /// See [`SkipNet::route_by_name`].
    pub fn route_to_name(&self, from: usize, name: &str) -> Result<Route, RouteError> {
        let idx = match self.names.binary_search_by(|x| x.as_str().cmp(name)) {
            Ok(i) => i,
            Err(0) => self.len() - 1,
            Err(i) => i - 1,
        };
        self.route_by_name(from, idx)
    }

    /// The node storing a constrained-load-balanced key `domain!suffix`:
    /// among the nodes whose names start with `domain_prefix`, the one
    /// whose numeric identifier is XOR-closest to the suffix hash.
    ///
    /// Returns `None` when no node carries the prefix.
    pub fn clb_responsible(&self, domain_prefix: &str, suffix_hash: NodeId) -> Option<usize> {
        let lo = self.names.partition_point(|x| x.as_str() < domain_prefix);
        let hi = lo
            + self.names[lo..]
                .iter()
                .take_while(|x| x.starts_with(domain_prefix))
                .count();
        (lo..hi).min_by_key(|&i| self.numerics[i].xor_to(suffix_hash))
    }

    /// Exports the pointer structure as an [`OverlayGraph`] for degree
    /// statistics. Graph identifiers are the numeric IDs, ascending as
    /// every graph's are, so graph indices are numeric-ID order, not
    /// SkipNet's name order.
    pub fn graph(&self) -> OverlayGraph {
        let mut numerics = self.numerics.clone();
        numerics.sort_unstable();
        let mut b = GraphBuilder::with_nodes(&numerics);
        for level in &self.succ {
            for (i, &s) in level.iter().enumerate() {
                if s != usize::MAX && s != i {
                    b.add_link(self.numerics[i], self.numerics[s]);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::hash::hash_name;

    fn names(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("org/site{:03}/host{:03}", i / 10, i % 10))
            .collect()
    }

    #[test]
    fn build_sorts_names_and_levels_are_logarithmic() {
        let net = SkipNet::build(names(200), Seed(1));
        assert_eq!(net.len(), 200);
        assert!(net.name(0) < net.name(199));
        assert!(
            net.levels() >= 6 && net.levels() <= 24,
            "levels {}",
            net.levels()
        );
        assert!(!net.is_empty());
        assert_eq!(net.index_of("org/site000/host000"), Some(0));
        assert_eq!(net.index_of("zzz"), None);
        let _ = net.numeric(0);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_names_rejected() {
        SkipNet::build(vec!["a".into(), "a".into()], Seed(0));
    }

    #[test]
    fn level0_ring_is_the_full_name_ring() {
        let net = SkipNet::build(names(50), Seed(2));
        for i in 0..50 {
            assert_eq!(net.succ[0][i], (i + 1) % 50);
        }
    }

    #[test]
    fn name_routing_reaches_every_destination() {
        let net = SkipNet::build(names(300), Seed(3));
        for (a, b) in [(0usize, 299), (5, 100), (250, 10), (7, 8)] {
            let r = net.route_by_name(a, b).unwrap();
            assert_eq!(r.target(), NodeIndex(b as u32));
            assert!(r.hops() <= 40, "{} hops", r.hops());
        }
    }

    #[test]
    fn name_routing_is_logarithmic_on_average() {
        let net = SkipNet::build(names(512), Seed(4));
        let mut rng = Seed(5).rng();
        let mut total = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let a = rng.gen_range(0..512);
            let b = rng.gen_range(0..512);
            if a == b {
                continue;
            }
            total += net.route_by_name(a, b).unwrap().hops();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 2.5 * (512f64).log2(), "mean hops {mean}");
    }

    #[test]
    fn name_routing_has_path_locality() {
        // The route from a to b (clockwise by name) visits only nodes in
        // the clockwise name interval [a, b] — SkipNet's locality property.
        let net = SkipNet::build(names(400), Seed(6));
        let n = net.len();
        for (a, b) in [(20usize, 180), (100, 399), (350, 20)] {
            let r = net.route_by_name(a, b).unwrap();
            for w in r.path() {
                let i = w.index();
                let pos = (i + n - a) % n;
                let span = (b + n - a) % n;
                assert!(pos <= span, "route visited {i} outside [{a},{b}]");
            }
        }
    }

    #[test]
    fn intra_domain_routes_stay_in_the_name_prefix() {
        let net = SkipNet::build(names(300), Seed(7));
        let site = "org/site003/";
        let members: Vec<usize> = (0..net.len())
            .filter(|&i| net.name(i).starts_with(site))
            .collect();
        assert!(members.len() >= 2);
        let r = net
            .route_by_name(members[0], *members.last().expect("nonempty"))
            .unwrap();
        for w in r.path() {
            assert!(net.name(w.index()).starts_with(site), "left the site");
        }
    }

    #[test]
    fn route_to_name_finds_responsible() {
        let net = SkipNet::build(names(100), Seed(8));
        let r = net.route_to_name(0, "org/site005/host005").unwrap();
        assert_eq!(net.name(r.target().index()), "org/site005/host005");
        // A name between two nodes maps to its predecessor.
        let r = net.route_to_name(0, "org/site005/host005a").unwrap();
        assert_eq!(net.name(r.target().index()), "org/site005/host005");
        // A name before every node wraps to the last node.
        let r = net.route_to_name(3, "aaa").unwrap();
        assert_eq!(r.target().index(), 99);
    }

    #[test]
    fn clb_stays_inside_the_domain_segment() {
        let net = SkipNet::build(names(300), Seed(9));
        for suffix in ["alpha", "beta", "gamma"] {
            let h = hash_name(suffix).as_point();
            let holder = net.clb_responsible("org/site007/", h).unwrap();
            assert!(net.name(holder).starts_with("org/site007/"));
        }
        assert!(net
            .clb_responsible("org/nonexistent/", NodeId::new(1))
            .is_none());
    }

    #[test]
    fn graph_export_has_logarithmic_degree() {
        let net = SkipNet::build(names(512), Seed(10));
        let g = net.graph();
        let d = canon_overlay::stats::DegreeStats::of(&g);
        // One successor per level the node participates in: ~log2 n.
        assert!(
            d.summary.mean > 4.0 && d.summary.mean < 16.0,
            "mean degree {}",
            d.summary.mean
        );
    }

    #[test]
    fn build_is_reproducible() {
        let a = SkipNet::build(names(100), Seed(11));
        let b = SkipNet::build(names(100), Seed(11));
        assert_eq!(a.numerics, b.numerics);
        assert_eq!(a.succ, b.succ);
    }

    #[test]
    fn singleton_network() {
        let net = SkipNet::build(vec!["only".into()], Seed(12));
        let r = net.route_by_name(0, 0).unwrap();
        assert_eq!(r.hops(), 0);
    }
}
