//! Greedy metric-decreasing routing with path recording.
//!
//! Routing in every DHT of the paper is *greedy*: a node forwards to the
//! neighbor closest to the destination under the DHT's metric, and only if
//! that neighbor is strictly closer than itself. Under the clockwise metric
//! this is Chord/Crescendo's "greedy clockwise routing" (minimizing the
//! clockwise distance automatically rules out overshooting, since a neighbor
//! past the destination wraps nearly the whole circle). Under XOR it is
//! Kademlia/CAN bit-fixing.
//!
//! Greedy routing is *memoryless and deterministic*: the next hop depends
//! only on the current node and the destination. Two consequences the
//! experiments rely on: routes to the same destination merge and never
//! diverge (path convergence, Figure 8), and a route within a domain of a
//! Canonical DHT never leaves it (path locality, §2.2), which
//! [`route_with_filter`] lets tests verify directly.

use crate::engine::{drive, execute, DriveConfig, HOP_LIMIT};
use crate::graph::{NodeIndex, OverlayGraph};
use crate::policy::{Greedy, RoutingPolicy};
use canon_id::{metric::Metric, NodeId};

/// A recorded route through the overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    path: Vec<NodeIndex>,
}

impl Route {
    /// Builds a route from an explicit node sequence (source first).
    ///
    /// Alternative routers (lookahead, proximity-aware) use this to return
    /// paths through the same analysis machinery.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn from_path(path: Vec<NodeIndex>) -> Route {
        assert!(!path.is_empty(), "a route contains at least its source");
        Route { path }
    }

    /// The full node sequence, source first, destination last.
    pub fn path(&self) -> &[NodeIndex] {
        &self.path
    }

    /// Number of hops (edges) on the route.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }

    /// The source node.
    pub fn source(&self) -> NodeIndex {
        self.path[0]
    }

    /// The node the route terminated at.
    pub fn target(&self) -> NodeIndex {
        self.path[self.path.len() - 1]
    }

    /// Iterates over the directed edges of the route.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex)> + '_ {
        self.path.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total latency of the route under a pairwise latency oracle.
    pub fn latency<F: Fn(NodeIndex, NodeIndex) -> f64>(&self, lat: F) -> f64 {
        self.edges().map(|(a, b)| lat(a, b)).sum()
    }
}

/// Routing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No neighbor was strictly closer to the destination; routing is stuck
    /// at `at` with remaining distance `remaining`.
    Stuck { at: NodeIndex, remaining: u64 },
    /// The hop limit was exceeded (indicates a malformed graph).
    HopLimit { limit: usize },
    /// The source or destination identifier is not in the graph.
    UnknownNode { id: NodeId },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Stuck { at, remaining } => {
                write!(
                    f,
                    "routing stuck at {at} with distance {remaining} remaining"
                )
            }
            RouteError::HopLimit { limit } => write!(f, "hop limit {limit} exceeded"),
            RouteError::UnknownNode { id } => write!(f, "node {id} not in overlay"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Routes from node `from` to node `to` (both must be graph members).
///
/// # Errors
///
/// * [`RouteError::Stuck`] if greedy routing terminates before reaching
///   `to` — a structural defect (or an over-restrictive filter).
/// * [`RouteError::HopLimit`] on malformed graphs.
pub fn route<M: Metric>(
    graph: &OverlayGraph,
    metric: M,
    from: NodeIndex,
    to: NodeIndex,
) -> Result<Route, RouteError> {
    let r = execute(graph, &Greedy::new(metric, graph.id(to)), from)?.route;
    reached(graph, metric, r, to)
}

/// Routes from `from` to `to` using only nodes satisfying `allowed` as
/// intermediate hops.
///
/// This is the fault-isolation primitive: with `allowed` selecting the
/// members of a domain, a Canonical DHT still routes successfully between
/// any two domain members (§2.2, "locality of intra-domain paths") while a
/// flat DHT generally does not.
///
/// # Errors
///
/// See [`route`].
pub fn route_with_filter<M, F>(
    graph: &OverlayGraph,
    metric: M,
    from: NodeIndex,
    to: NodeIndex,
    allowed: F,
) -> Result<Route, RouteError>
where
    M: Metric,
    F: Fn(NodeIndex) -> bool,
{
    // A disallowed candidate is a dead one that costs nothing: the walk
    // skips it and takes the nearest allowed one (the source is always
    // allowed).
    let cfg = DriveConfig {
        alive: allowed,
        timeout_cost: 0.0,
        latency: |_: NodeIndex, _: NodeIndex| 0.0,
        stop: |_: NodeIndex| false,
    };
    let r = drive(graph, &Greedy::new(metric, graph.id(to)), from, cfg)?.route;
    reached(graph, metric, r, to)
}

/// `r` if it ends at `to`, else [`RouteError::Stuck`] at its last node.
fn reached<M: Metric>(
    graph: &OverlayGraph,
    metric: M,
    r: Route,
    to: NodeIndex,
) -> Result<Route, RouteError> {
    let at = r.target();
    if at != to {
        return Err(RouteError::Stuck {
            at,
            remaining: metric.distance(graph.id(at), graph.id(to)),
        });
    }
    Ok(r)
}

/// Routes from `from` toward an arbitrary key point, returning the route to
/// the node where greedy routing terminates (the responsible node).
///
/// # Errors
///
/// * [`RouteError::HopLimit`] on malformed graphs.
pub fn route_to_key<M: Metric>(
    graph: &OverlayGraph,
    metric: M,
    from: NodeIndex,
    key: NodeId,
) -> Result<Route, RouteError> {
    Ok(execute(graph, &Greedy::new(metric, key), from)?.route)
}

/// Number of walks a [`route_to_key_sweep`] keeps in flight at once.
///
/// Large enough to keep several independent cache misses outstanding,
/// small enough that the in-flight state stays in L1.
const SWEEP_WIDTH: usize = 32;

/// Routes a batch of `(origin, key)` lookups in one interleaved sweep,
/// returning the realized routes in query order.
///
/// Each walk takes exactly the hops [`route_to_key`] takes — the same
/// per-hop index selection against the graph's
/// [`NextHopIndex`](crate::index::NextHopIndex) — but up to `SWEEP_WIDTH`
/// (32) walks advance in round-robin lockstep. On graphs too large for cache,
/// a single walk serializes one memory stall per hop (the next segment
/// read depends on the previous selection); interleaving keeps many
/// *independent* reads outstanding. That pays only once the graph
/// outgrows the cache, and then by a fraction, not a multiple: on 2
/// vCPUs, 100,000 lookups ran at 0.77× the one-at-a-time [`route_to_key`]
/// rate at n = 1,024, 0.88× at 4,096, 1.22× at 65,536 and 1.35× at
/// 262,144 (20 alternating repetitions in one process). canon-bench's
/// `construction` rows, which also keep every swept route alive, read
/// `routing/sweep_*` at 0.52×, 0.58× and 1.08× of `routing/indexed_*` at
/// 1,024, 4,096 and 65,536 (medians of 10 runs). Below a few thousand
/// nodes, route one at a time. This is the single-thread analogue of the
/// multi-threaded query sweeps in [`crate::stats`].
///
/// # Errors
///
/// * [`RouteError::HopLimit`] on malformed graphs.
pub fn route_to_key_sweep<M: Metric>(
    graph: &OverlayGraph,
    metric: M,
    queries: &[(NodeIndex, NodeId)],
) -> Result<Vec<Route>, RouteError> {
    struct Walk<M> {
        qi: usize,
        cur: NodeIndex,
        /// The current remaining distance; `u64::MAX` until the first
        /// advance computes it (the origin's id read is warmed during the
        /// fill round, so the computation never stalls).
        key: u64,
        started: bool,
        policy: Greedy<M>,
        path: Vec<NodeIndex>,
    }

    let index = graph.next_hop_index();
    let mut out: Vec<Option<Route>> = Vec::new();
    out.resize_with(queries.len(), || None);
    let mut slots: Vec<Option<Walk<M>>> = Vec::new();
    slots.resize_with(SWEEP_WIDTH.min(queries.len()), || None);
    let mut next_q = 0usize;
    let mut live = 0usize;
    // Accumulates the warming reads so they cannot be dead-code
    // eliminated; consumed by `black_box` below.
    let mut warmth = 0u64;
    while next_q < queries.len() || live > 0 {
        for slot in &mut slots {
            if slot.is_none() {
                if next_q >= queries.len() {
                    continue;
                }
                let (origin, key_id) = queries[next_q];
                let policy = Greedy::new(metric, key_id);
                let mut path = Vec::with_capacity(32);
                path.push(origin);
                // Start the origin's id and segment reads now; the first
                // advance (next round) finds them resident.
                warmth ^= graph.id(origin).raw() ^ index.warm(origin);
                *slot = Some(Walk {
                    qi: next_q,
                    cur: origin,
                    key: u64::MAX,
                    started: false,
                    policy,
                    path,
                });
                next_q += 1;
                live += 1;
                // The fresh walk advances on the next round, after its
                // warming reads have had a full round to complete.
                continue;
            }
            let Some(w) = slot.as_mut() else { continue };
            if !w.started {
                w.key = w.policy.key(graph, w.cur);
                w.started = true;
            }
            // One hop, mirroring `execute`'s fast path exactly.
            let best = if w.policy.is_terminal(w.key) {
                None
            } else {
                w.policy.next_hop(graph, w.cur, w.key)
            };
            if let Some((next, landing)) = best {
                w.path.push(next);
                w.cur = next;
                w.key = landing;
                // Start the next segment's line fills now; they complete
                // while the other walks advance.
                warmth ^= index.warm(next);
                if w.path.len() > HOP_LIMIT {
                    return Err(RouteError::HopLimit { limit: HOP_LIMIT });
                }
            } else {
                out[w.qi] = Some(Route::from_path(std::mem::take(&mut w.path)));
                *slot = None;
                live -= 1;
            }
        }
    }
    std::hint::black_box(warmth);
    let routes: Vec<Route> = out.into_iter().flatten().collect();
    assert!(
        routes.len() == queries.len(),
        "every sweep walk terminates with a route"
    );
    Ok(routes)
}

/// The id (and distance) among `ids` minimizing the metric distance to
/// `target` — the greedy candidate rule over a bare link set, for a node
/// that holds only its own link table (canon-node, canon-sim) rather than
/// a graph. `None` iff `ids` is empty. The minimum is unique because
/// distances to a fixed target are injective in the id, so this agrees
/// with [`NextHopIndex::next_toward`](crate::index::NextHopIndex::next_toward)
/// on a graph row holding the same ids.
pub fn closest<M: Metric>(
    metric: M,
    ids: impl Iterator<Item = NodeId>,
    target: NodeId,
) -> Option<(NodeId, u64)> {
    ids.map(|id| (metric.distance(id, target), id))
        .min()
        .map(|(d, id)| (id, d))
}

/// [`closest`] under the clockwise metric over a link row sorted in
/// ascending order, as one binary search instead of a scan: the largest
/// link at or below `target`, else (every link is past the target, so the
/// nearest one counter-clockwise is reached by wrapping) the largest link
/// — the unique minimiser of `link.clockwise_to(target)`. This is the
/// paper's "link closest to, but not past, the key" (§2.2) on a sorted
/// table.
pub fn closest_clockwise(links: &[NodeId], target: NodeId) -> Option<(NodeId, u64)> {
    debug_assert!(links.is_sorted(), "a link row is sorted");
    let at_or_below = links.partition_point(|&l| l <= target);
    let link = *links
        .get(at_or_below.wrapping_sub(1))
        .or_else(|| links.last())?;
    Some((link, link.clockwise_to(target)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::metric::{Clockwise, Xor};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// The merged example ring from Figure 2 of the paper: ids 0,2,3,5,8,10,12,13.
    fn figure2_graph() -> OverlayGraph {
        let ids: Vec<NodeId> = [0u64, 2, 3, 5, 8, 10, 12, 13]
            .iter()
            .map(|&r| id(r))
            .collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        // Ring A = {0, 5, 10, 12}; Ring B = {2, 3, 8, 13}. 4-bit space in the
        // paper; links below follow the paper's worked example, scaled to our
        // 64-bit space only in that the "wrap" distances differ — we connect
        // successors explicitly to keep the example routable.
        // Intra-ring A links.
        b.add_link(id(0), id(5));
        b.add_link(id(0), id(10));
        b.add_link(id(5), id(10));
        b.add_link(id(5), id(12));
        b.add_link(id(10), id(12));
        b.add_link(id(10), id(0));
        b.add_link(id(12), id(0));
        // Intra-ring B links.
        b.add_link(id(2), id(3));
        b.add_link(id(3), id(8));
        b.add_link(id(8), id(13));
        b.add_link(id(8), id(2));
        b.add_link(id(13), id(2));
        b.add_link(id(2), id(8));
        // Merge links from the paper's example: 0 -> 2, 8 -> 10, 8 -> 12.
        b.add_link(id(0), id(2));
        b.add_link(id(8), id(10));
        b.add_link(id(8), id(12));
        // Successor links across rings (merged-ring successors).
        b.add_link(id(3), id(5));
        b.add_link(id(5), id(8));
        b.add_link(id(12), id(13));
        b.add_link(id(13), id(0));
        b.build()
    }

    #[test]
    fn paper_figure2_route_2_to_12() {
        // Paper §2.2 walks the route 2 → 8 → 10 → 12, but its own link
        // example gives node 8 a merge link directly to node 12 (condition
        // (b) only rules out node 0), so greedy routing takes 2 → 8 → 12.
        let g = figure2_graph();
        let from = g.index_of(id(2)).unwrap();
        let to = g.index_of(id(12)).unwrap();
        let r = route(&g, Clockwise, from, to).unwrap();
        let ids: Vec<u64> = r.path().iter().map(|&i| g.id(i).raw()).collect();
        assert_eq!(ids, vec![2, 8, 12]);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.source(), from);
        assert_eq!(r.target(), to);
    }

    #[test]
    fn route_to_self_is_empty() {
        let g = figure2_graph();
        let n = g.index_of(id(5)).unwrap();
        let r = route(&g, Clockwise, n, n).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.path(), &[n]);
    }

    #[test]
    fn route_records_edges_and_latency() {
        let g = figure2_graph();
        let from = g.index_of(id(2)).unwrap();
        let to = g.index_of(id(12)).unwrap();
        let r = route(&g, Clockwise, from, to).unwrap();
        assert_eq!(r.edges().count(), 2);
        let lat = r.latency(|_, _| 2.5);
        assert!((lat - 5.0).abs() < 1e-9);
    }

    #[test]
    fn key_routing_terminates_at_responsible_node() {
        let g = figure2_graph();
        let from = g.index_of(id(2)).unwrap();
        // Key 11 lies between nodes 10 and 12: responsible node is 10
        // (paper convention: largest id <= key).
        let r = route_to_key(&g, Clockwise, from, id(11)).unwrap();
        assert_eq!(g.id(r.target()), id(10));
    }

    #[test]
    fn filtered_route_fails_when_cut() {
        let g = figure2_graph();
        let from = g.index_of(id(2)).unwrap();
        let to = g.index_of(id(12)).unwrap();
        // Forbid node 8 and 3: ring B's only outbound links from 2 are gone.
        let err = route_with_filter(&g, Clockwise, from, to, |n| {
            g.id(n) != id(8) && g.id(n) != id(3)
        })
        .unwrap_err();
        assert!(matches!(err, RouteError::Stuck { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn xor_routing_on_small_hypercube() {
        // Complete 3-bit hypercube: 8 nodes 0..8, edge iff one differing bit.
        let ids: Vec<NodeId> = (0u64..8).map(id).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for a in 0u64..8 {
            for bit in 0..3 {
                b.add_link(id(a), id(a ^ (1 << bit)));
            }
        }
        let g = b.build();
        for a in 0u64..8 {
            for t in 0u64..8 {
                let r = route(
                    &g,
                    Xor,
                    g.index_of(id(a)).unwrap(),
                    g.index_of(id(t)).unwrap(),
                )
                .unwrap();
                assert_eq!(r.hops(), (a ^ t).count_ones() as usize);
            }
        }
    }

    #[test]
    fn sweep_matches_one_at_a_time_key_routing() {
        let g = figure2_graph();
        // Every (origin, key) pair over a spread of keys — member ids,
        // gaps, wrap points — including duplicates and self-terminating
        // lookups; more queries than SWEEP_WIDTH so slots recycle.
        let mut queries = Vec::new();
        for origin in g.node_indices() {
            for k in [0u64, 1, 4, 7, 11, 12, 13, 14, u64::MAX] {
                queries.push((origin, id(k)));
            }
        }
        let swept = route_to_key_sweep(&g, Clockwise, &queries).unwrap();
        assert_eq!(swept.len(), queries.len());
        for (&(origin, key), got) in queries.iter().zip(&swept) {
            let want = route_to_key(&g, Clockwise, origin, key).unwrap();
            assert_eq!(got, &want, "sweep diverges for {origin} -> {key}");
        }
        assert!(route_to_key_sweep(&g, Clockwise, &[]).unwrap().is_empty());
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = figure2_graph();
        let from = g.index_of(id(3)).unwrap();
        let to = g.index_of(id(0)).unwrap();
        let r1 = route(&g, Clockwise, from, to).unwrap();
        let r2 = route(&g, Clockwise, from, to).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = RouteError::HopLimit { limit: 7 };
        assert!(e.to_string().contains('7'));
        let e = RouteError::UnknownNode { id: id(3) };
        assert!(e.to_string().contains("not in overlay"));
    }

    proptest! {
        /// `closest` over a bare link set is the engine's indexed rule on
        /// the star graph `me -> links`, under both metrics — including
        /// keys that wrap past every link, keys equal to a link id, and no
        /// links.
        #[test]
        fn closest_over_a_link_set_is_next_toward_on_its_star_graph(
            me in any::<u64>(),
            raw_links in proptest::collection::btree_set(any::<u64>(), 0..24),
            key in any::<u64>(),
            pick in any::<u16>(),
        ) {
            let me = id(me);
            let links: BTreeSet<NodeId> =
                raw_links.into_iter().map(id).filter(|&l| l != me).collect();
            let mut b = GraphBuilder::with_nodes(&[me]);
            for &l in &links {
                b.add_node(l);
                b.add_link(me, l);
            }
            let g = b.build();
            let at = g.index_of(me).unwrap();
            let mut keys = vec![id(key), id(0), id(u64::MAX), me];
            if let Some(&l) = links.iter().nth(pick as usize % links.len().max(1)) {
                keys.extend([l, id(l.raw().wrapping_sub(1)), id(l.raw().wrapping_add(1))]);
            }
            for key in keys {
                let indexed = |(nb, d)| (g.id(nb), d);
                prop_assert_eq!(
                    closest(Clockwise, links.iter().copied(), key),
                    g.next_hop_index().next_toward(Clockwise, at, key).map(indexed)
                );
                prop_assert_eq!(
                    closest(Xor, links.iter().copied(), key),
                    g.next_hop_index().next_toward(Xor, at, key).map(indexed)
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
            let links: Vec<NodeId> = raw_links.into_iter().map(id).collect();
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
        // Each case is the binary search, the scan it replaces and the
        // answer, all three equal.
        let check = |raw: &[u64], key: u64, want: Option<(u64, u64)>| {
            let links: Vec<NodeId> = raw.iter().map(|&r| id(r)).collect();
            let want = want.map(|(l, d)| (id(l), d));
            assert_eq!(closest_clockwise(&links, id(key)), want, "{raw:?} -> {key}");
            assert_eq!(
                closest(Clockwise, links.iter().copied(), id(key)),
                want,
                "{raw:?} -> {key}"
            );
        };
        // No links: no candidate.
        check(&[], 5, None);
        // One link is the answer wherever the key is, wrapping if need be.
        check(&[9], 9, Some((9, 0)));
        check(&[9], 12, Some((9, 3)));
        check(&[9], 8, Some((9, u64::MAX)));
        // A key equal to a link is at distance zero from it.
        check(&[10, 20, 30], 20, Some((20, 0)));
        check(&[10, 20, 30], 29, Some((20, 9)));
        // Below the smallest link: wrap to the largest.
        check(&[10, 20, 30], 3, Some((30, id(30).clockwise_to(id(3)))));
        check(&[10, 20, 30], u64::MAX, Some((30, u64::MAX - 30)));
        check(&[0, u64::MAX], u64::MAX, Some((u64::MAX, 0)));
        check(&[0, u64::MAX], 0, Some((0, 0)));
    }
}
