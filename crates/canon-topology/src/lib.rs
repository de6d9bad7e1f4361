//! A transit-stub internet topology model (paper §5.2).
//!
//! The paper evaluates physical-network properties on a 2040-router
//! GT-ITM graph: routers are grouped into *transit domains* of *transit
//! nodes*; each transit node carries several *stub domains* of *stub
//! nodes*. Link latencies are fixed per type — transit–transit 100 ms,
//! transit–stub 20 ms, stub–stub 5 ms — and a DHT node reaches its stub
//! router in 1 ms. GT-ITM itself is an old C tool, so this crate
//! reimplements the model: the paper only consumes (i) pairwise router
//! latencies and (ii) the induced five-level hierarchy (root / transit
//! domain / transit node / stub domain / stub node), both of which this
//! generator provides with the same latency scales.
//!
//! [`TransitStubTopology::generate`] builds the router graph and runs
//! all-pairs Dijkstra; [`attach`] places DHT nodes uniformly on stub
//! routers and yields the hierarchy, placement and a node-to-node latency
//! oracle used by the Figure 6–9 experiments.
//!
//! # Example
//!
//! ```
//! use canon_id::rng::Seed;
//! use canon_topology::{attach, LatencyModel, TopologyParams, TransitStubTopology};
//!
//! let topo = TransitStubTopology::generate(
//!     TopologyParams::small(), LatencyModel::default(), Seed(1));
//! let att = attach(topo, 50, Seed(2));
//! assert_eq!(att.hierarchy().levels(), 5);
//! let ids = att.placement().ids();
//! assert!(att.latency(ids[0], ids[1]) >= 2.0); // two 1 ms access links
//! ```

#![forbid(unsafe_code)]

pub mod euclidean;

use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::{
    rng::{random_ids, Seed},
    NodeId,
};
use rand::Rng;
use std::collections::HashMap;

/// Latency constants of the model, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Between transit nodes (intra- or inter-domain).
    pub transit_transit: f64,
    /// Between a transit node and a stub node attached to it.
    pub transit_stub: f64,
    /// Between stub nodes within one stub domain.
    pub stub_stub: f64,
    /// From a DHT end node to its stub router.
    pub node_stub: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            transit_transit: 100.0,
            transit_stub: 20.0,
            stub_stub: 5.0,
            node_stub: 1.0,
        }
    }
}

/// Shape parameters of the transit-stub graph.
///
/// The defaults reproduce the paper's scale: `4 × 10 = 40` transit nodes,
/// each with `5` stub domains of `10` nodes → `40 + 2000 = 2040` routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyParams {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes: usize,
    /// Stub domains hanging off each transit node.
    pub stub_domains: usize,
    /// Stub nodes per stub domain.
    pub stub_nodes: usize,
}

impl Default for TopologyParams {
    fn default() -> Self {
        TopologyParams {
            transit_domains: 4,
            transit_nodes: 10,
            stub_domains: 5,
            stub_nodes: 10,
        }
    }
}

impl TopologyParams {
    /// Total router count.
    pub fn router_count(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes;
        transit + transit * self.stub_domains * self.stub_nodes
    }

    /// A small topology for fast tests (2 × 3 transit, 2 × 4 stub = 54
    /// routers).
    pub fn small() -> Self {
        TopologyParams {
            transit_domains: 2,
            transit_nodes: 3,
            stub_domains: 2,
            stub_nodes: 4,
        }
    }
}

/// A router index within one topology.
pub type RouterId = usize;

/// The generated router graph with its all-pairs latency matrix.
#[derive(Clone, Debug)]
pub struct TransitStubTopology {
    params: TopologyParams,
    model: LatencyModel,
    /// Distance matrix, row-major; `f32` halves the footprint at 2040².
    dist: Vec<f32>,
    n_routers: usize,
    stub_routers: Vec<RouterId>,
    /// For each stub router: (transit domain, transit node within domain,
    /// stub domain within transit node).
    stub_coords: Vec<(usize, usize, usize)>,
}

impl TransitStubTopology {
    /// Generates a topology and computes all-pairs shortest-path latencies.
    ///
    /// Each transit domain is a ring of transit nodes plus random chords;
    /// every pair of transit domains is joined by one random edge; each
    /// stub domain is a ring of stub nodes plus random chords, attached to
    /// its transit node through one random member.
    ///
    /// # Panics
    ///
    /// Panics if any shape parameter is zero.
    pub fn generate(params: TopologyParams, model: LatencyModel, seed: Seed) -> Self {
        assert!(
            params.transit_domains > 0
                && params.transit_nodes > 0
                && params.stub_domains > 0
                && params.stub_nodes > 0,
            "all topology parameters must be positive"
        );
        let mut rng = seed.derive("topology").rng();
        let n_transit = params.transit_domains * params.transit_nodes;
        let n = params.router_count();
        let mut adj: Vec<Vec<(RouterId, f32)>> = vec![Vec::new(); n];
        let add_edge = |adj: &mut Vec<Vec<(RouterId, f32)>>, a: RouterId, b: RouterId, w: f64| {
            if a != b && !adj[a].iter().any(|&(x, _)| x == b) {
                adj[a].push((b, w as f32));
                adj[b].push((a, w as f32));
            }
        };

        // Transit domains: ring + one random chord per node.
        let transit_of = |dom: usize, i: usize| dom * params.transit_nodes + i;
        for dom in 0..params.transit_domains {
            let t = params.transit_nodes;
            for i in 0..t {
                if t > 1 {
                    add_edge(
                        &mut adj,
                        transit_of(dom, i),
                        transit_of(dom, (i + 1) % t),
                        model.transit_transit,
                    );
                }
                if t > 2 && rng.gen_bool(0.5) {
                    let j = rng.gen_range(0..t);
                    add_edge(
                        &mut adj,
                        transit_of(dom, i),
                        transit_of(dom, j),
                        model.transit_transit,
                    );
                }
            }
        }
        // Inter-domain transit edges: one per ordered pair of domains.
        for a in 0..params.transit_domains {
            for b in (a + 1)..params.transit_domains {
                let i = rng.gen_range(0..params.transit_nodes);
                let j = rng.gen_range(0..params.transit_nodes);
                add_edge(
                    &mut adj,
                    transit_of(a, i),
                    transit_of(b, j),
                    model.transit_transit,
                );
            }
        }

        // Stub domains.
        let mut stub_routers = Vec::with_capacity(n - n_transit);
        let mut stub_coords = Vec::with_capacity(n - n_transit);
        let mut next = n_transit;
        for dom in 0..params.transit_domains {
            for tn in 0..params.transit_nodes {
                for sd in 0..params.stub_domains {
                    let base = next;
                    let s = params.stub_nodes;
                    next += s;
                    for i in 0..s {
                        stub_routers.push(base + i);
                        stub_coords.push((dom, tn, sd));
                        if s > 1 {
                            add_edge(&mut adj, base + i, base + (i + 1) % s, model.stub_stub);
                        }
                        if s > 2 && rng.gen_bool(0.3) {
                            let j = rng.gen_range(0..s);
                            add_edge(&mut adj, base + i, base + j, model.stub_stub);
                        }
                    }
                    // Attach the stub domain to its transit node.
                    let gw = base + rng.gen_range(0..s);
                    add_edge(&mut adj, gw, transit_of(dom, tn), model.transit_stub);
                }
            }
        }

        // All-pairs Dijkstra.
        let mut dist = vec![f32::INFINITY; n * n];
        let mut heap = std::collections::BinaryHeap::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0.0;
            heap.clear();
            heap.push(std::cmp::Reverse((ordered(0.0), src)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                let d = f32::from_bits(d ^ SIGN_FIX);
                if d > row[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    let nd = d + w;
                    if nd < row[v] {
                        row[v] = nd;
                        heap.push(std::cmp::Reverse((ordered(nd), v)));
                    }
                }
            }
        }

        let topo = TransitStubTopology {
            params,
            model,
            dist,
            n_routers: n,
            stub_routers,
            stub_coords,
        };
        debug_assert!(topo.is_connected(), "generated topology must be connected");
        topo
    }

    /// Shape parameters used to generate this topology.
    pub fn params(&self) -> TopologyParams {
        self.params
    }

    /// Latency constants of this topology.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.n_routers
    }

    /// The stub routers (where DHT nodes may attach).
    pub fn stub_routers(&self) -> &[RouterId] {
        &self.stub_routers
    }

    /// For the `i`-th stub router: its (transit domain, transit node,
    /// stub domain) coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn stub_coords(&self, i: usize) -> (usize, usize, usize) {
        self.stub_coords[i]
    }

    /// Shortest-path latency between two routers, in ms.
    ///
    /// # Panics
    ///
    /// Panics if either router id is out of range.
    pub fn router_latency(&self, a: RouterId, b: RouterId) -> f64 {
        assert!(
            a < self.n_routers && b < self.n_routers,
            "router id out of range"
        );
        f64::from(self.dist[a * self.n_routers + b])
    }

    fn is_connected(&self) -> bool {
        (0..self.n_routers).all(|i| self.dist[i].is_finite())
    }
}

const SIGN_FIX: u32 = 0x8000_0000;

/// Maps a non-negative f32 to a totally ordered u32 key for the heap.
fn ordered(x: f32) -> u32 {
    x.to_bits() ^ SIGN_FIX
}

/// A DHT population attached to a transit-stub topology: the induced
/// five-level hierarchy, the node placement, and the latency oracle.
#[derive(Clone, Debug)]
pub struct Attachment {
    topology: TransitStubTopology,
    hierarchy: Hierarchy,
    placement: Placement,
    router_of_id: HashMap<NodeId, RouterId>,
}

/// Attaches `n` DHT nodes to uniformly random stub routers of `topology`.
///
/// The returned [`Attachment`] owns the topology and exposes:
/// * the induced hierarchy — root (depth 0), transit domains (1), transit
///   nodes (2), stub domains (3), stub routers (4, the leaves);
/// * a [`Placement`] assigning each node to its stub router's leaf domain;
/// * node-to-node latencies: `1 ms + router shortest path + 1 ms`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn attach(topology: TransitStubTopology, n: usize, seed: Seed) -> Attachment {
    assert!(n > 0, "cannot attach zero nodes");
    let mut h = Hierarchy::new();
    let p = topology.params();
    // leaf_domains[i] = leaf DomainId for stub position i (in stub_routers order).
    let mut leaf_domains: Vec<DomainId> = Vec::with_capacity(topology.stub_routers().len());
    for dom in 0..p.transit_domains {
        let d1 = h.add_domain(h.root(), format!("transit{dom}"));
        for tn in 0..p.transit_nodes {
            let d2 = h.add_domain(d1, format!("tnode{tn}"));
            for sd in 0..p.stub_domains {
                let d3 = h.add_domain(d2, format!("stub{sd}"));
                for sn in 0..p.stub_nodes {
                    leaf_domains.push(h.add_domain(d3, format!("r{sn}")));
                }
            }
        }
    }
    debug_assert_eq!(leaf_domains.len(), topology.stub_routers().len());

    let ids = random_ids(seed.derive("attach-ids"), n);
    let mut rng = seed.derive("attach-placement").rng();
    let mut pairs = Vec::with_capacity(n);
    let mut router_of_id = HashMap::with_capacity(n);
    for &id in &ids {
        let pos = rng.gen_range(0..topology.stub_routers().len());
        pairs.push((id, leaf_domains[pos]));
        router_of_id.insert(id, topology.stub_routers()[pos]);
    }
    let placement = Placement::from_pairs(&h, pairs);
    Attachment {
        topology,
        hierarchy: h,
        placement,
        router_of_id,
    }
}

impl Attachment {
    /// The underlying topology.
    pub fn topology(&self) -> &TransitStubTopology {
        &self.topology
    }

    /// The induced five-level hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The node placement over the hierarchy's leaves.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// End-to-end latency between two DHT nodes, in ms: 0 for the same
    /// node, otherwise `1 + shortest-path + 1` (2 ms for two nodes on one
    /// stub router).
    ///
    /// # Panics
    ///
    /// Panics if either identifier is not attached.
    pub fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        let ra = self.router_of_id[&a];
        let rb = self.router_of_id[&b];
        self.topology.model().node_stub * 2.0 + self.topology.router_latency(ra, rb)
    }

    /// Mean node-to-node latency over `samples` random pairs — the
    /// normalizer for the paper's *stretch* metric (Figure 6).
    pub fn mean_direct_latency(&self, samples: usize, seed: Seed) -> f64 {
        let ids = self.placement.ids();
        let mut rng = seed.rng();
        let mut total = 0.0;
        let mut count = 0usize;
        for _ in 0..samples {
            let a = ids[rng.gen_range(0..ids.len())];
            let b = ids[rng.gen_range(0..ids.len())];
            if a == b {
                continue;
            }
            total += self.latency(a, b);
            count += 1;
        }
        total / count.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TransitStubTopology {
        TransitStubTopology::generate(TopologyParams::small(), LatencyModel::default(), Seed(1))
    }

    #[test]
    fn default_params_match_paper_scale() {
        assert_eq!(TopologyParams::default().router_count(), 2040);
    }

    #[test]
    fn topology_is_connected_and_symmetric() {
        let t = small();
        let n = t.router_count();
        for a in (0..n).step_by(7) {
            for b in (0..n).step_by(11) {
                let ab = t.router_latency(a, b);
                assert!(ab.is_finite(), "unreachable pair {a},{b}");
                assert_eq!(ab, t.router_latency(b, a));
            }
        }
        assert_eq!(t.router_latency(3, 3), 0.0);
    }

    #[test]
    fn intra_stub_latency_is_cheap() {
        let t = small();
        // Two routers in the same stub domain: multiples of 5ms, no transit.
        let (a, b) = (t.stub_routers()[0], t.stub_routers()[1]);
        let lat = t.router_latency(a, b);
        assert!((5.0..=5.0 * 4.0).contains(&lat), "intra-stub latency {lat}");
    }

    #[test]
    fn cross_domain_latency_includes_transit() {
        let t = small();
        let first = t.stub_routers()[0];
        let last = *t.stub_routers().last().unwrap();
        // Different transit domains: 2 transit-stub hops + >=1 transit hop.
        let lat = t.router_latency(first, last);
        assert!(lat >= 2.0 * 20.0 + 100.0, "cross-domain latency {lat}");
    }

    #[test]
    fn generation_is_reproducible() {
        let a = small();
        let b = small();
        assert_eq!(a.router_latency(0, 53), b.router_latency(0, 53));
        let c = TransitStubTopology::generate(
            TopologyParams::small(),
            LatencyModel::default(),
            Seed(2),
        );
        // Different seeds: different wiring (latency between far routers
        // almost surely differs). Compare a row fingerprint.
        let fa: f64 = (0..a.router_count()).map(|i| a.router_latency(0, i)).sum();
        let fc: f64 = (0..c.router_count()).map(|i| c.router_latency(0, i)).sum();
        assert_ne!(fa, fc);
    }

    #[test]
    fn attachment_builds_five_level_hierarchy() {
        let att = attach(small(), 100, Seed(3));
        let h = att.hierarchy();
        assert_eq!(h.levels(), 5);
        let p = TopologyParams::small();
        assert_eq!(h.domains_at_depth(1).len(), p.transit_domains);
        assert_eq!(
            h.domains_at_depth(2).len(),
            p.transit_domains * p.transit_nodes
        );
        assert_eq!(
            h.domains_at_depth(4).len(),
            p.transit_domains * p.transit_nodes * p.stub_domains * p.stub_nodes
        );
        assert_eq!(att.placement().len(), 100);
    }

    #[test]
    fn node_latency_adds_access_links() {
        let att = attach(small(), 50, Seed(4));
        let ids = att.placement().ids();
        for i in 1..10 {
            let lat = att.latency(ids[0], ids[i]);
            assert!(lat >= 2.0, "latency {lat} below access cost");
        }
        assert_eq!(att.latency(ids[0], ids[0]), 0.0);
    }

    #[test]
    fn same_stub_nodes_cost_two_ms() {
        // With many nodes on few routers, some pair shares a stub router.
        let att = attach(small(), 300, Seed(5));
        let ids = att.placement().ids();
        let mut found = false;
        'outer: for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if att.router_of_id[&ids[i]] == att.router_of_id[&ids[j]] {
                    assert_eq!(att.latency(ids[i], ids[j]), 2.0);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "expected at least one co-located pair");
    }

    #[test]
    fn mean_direct_latency_is_sane() {
        let att = attach(small(), 200, Seed(6));
        let m = att.mean_direct_latency(500, Seed(7));
        // Bounded by access (2) .. worst path (few hundred ms).
        assert!(m > 2.0 && m < 500.0, "mean direct latency {m}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_params_rejected() {
        TransitStubTopology::generate(
            TopologyParams {
                transit_domains: 0,
                ..TopologyParams::small()
            },
            LatencyModel::default(),
            Seed(0),
        );
    }
}
