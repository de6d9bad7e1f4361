//! The shared route executor: one greedy walk serving every policy.
//!
//! [`drive`] runs a [`RoutingPolicy`] from a start node: it enumerates the
//! policy's candidates, orders them by `(rank, next)`, tries them in order
//! against a liveness oracle (paying one priced timeout per dead
//! candidate), takes the first live one, and returns the realized route
//! with its timeout count and elapsed time ([`Driven`]). Strict progress is
//! the policy contract (every candidate's landing key is smaller than the
//! current key), so the walk terminates; the hop budget [`HOP_LIMIT`] is a
//! defensive backstop against a policy that violates it.
//!
//! Termination cases, all reported as `Ok`:
//!
//! * the policy's terminal key is reached (destination found);
//! * the stop predicate fires (e.g. multicast reaching its tree);
//! * no candidates exist — the current node is the local minimum, i.e. the
//!   node responsible for the routed key;
//! * every candidate was dead ([`Driven::exhausted`] is set).

use crate::graph::{NodeIndex, OverlayGraph};
use crate::policy::{Candidate, Greedy, RoutingPolicy};
use crate::route::{Route, RouteError};
use canon_id::metric::Metric;

/// Defensive hop budget: no route in any evaluated network comes close,
/// so exceeding it means a policy violated strict progress.
pub const HOP_LIMIT: usize = 4096;

/// What a walk measured: the realized route, whether it stopped because
/// every candidate at the last node was dead, and what it paid for dead
/// candidates and hops.
#[derive(Clone, Debug, PartialEq)]
pub struct Driven {
    /// The realized route (always at least the start node).
    pub route: Route,
    /// True when routing stopped because all candidates timed out.
    pub exhausted: bool,
    /// Dead candidates attempted along the way.
    pub timeouts: usize,
    /// Total time: hop latencies plus timeout costs, summed in walk order.
    pub time: f64,
}

/// Execution environment for [`drive`]: liveness, pricing, and an external
/// stop predicate.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig<A, L, S> {
    /// Liveness oracle; dead candidates cost `timeout_cost` and are
    /// skipped.
    pub alive: A,
    /// Time charged per dead candidate (added to [`Driven::time`]).
    pub timeout_cost: f64,
    /// Latency oracle pricing each successful hop (added to
    /// [`Driven::time`]).
    pub latency: L,
    /// Fires *before* expanding a node to stop routing there (the node is
    /// kept as the route's last hop).
    pub stop: S,
}

/// The [`DriveConfig`] of unpriced, fault-free routing.
pub type Unrestricted =
    DriveConfig<fn(NodeIndex) -> bool, fn(NodeIndex, NodeIndex) -> f64, fn(NodeIndex) -> bool>;

fn always_alive(_: NodeIndex) -> bool {
    true
}

fn free_hop(_: NodeIndex, _: NodeIndex) -> f64 {
    0.0
}

fn never_stop(_: NodeIndex) -> bool {
    false
}

/// Every node alive, hops free, no external stop.
pub fn unrestricted() -> Unrestricted {
    DriveConfig {
        alive: always_alive,
        timeout_cost: 0.0,
        latency: free_hop,
        stop: never_stop,
    }
}

/// Routes greedily from `from` in a fault-free, unpriced environment.
///
/// This is the engine's **fast path**: each hop is selected from the
/// graph's [`NextHopIndex`](crate::index::NextHopIndex) with zero
/// allocation and no sort, and the result is identical to [`drive`] under
/// [`unrestricted`] (no timeouts, zero time) — tested, and asserted per hop
/// in debug builds.
pub fn execute<M: Metric>(
    graph: &OverlayGraph,
    policy: &Greedy<M>,
    from: NodeIndex,
) -> Result<Driven, RouteError> {
    // Sized for the longest route any evaluated network produces
    // (~log2 n hops), so the hot loop never reallocates.
    let mut path = Vec::with_capacity(32);
    path.push(from);
    let mut cur = from;
    let mut cur_key = policy.key(graph, cur);
    while !policy.is_terminal(cur_key) {
        let best = policy.next_hop(graph, cur, cur_key);
        debug_assert!(
            indexed_matches_generic(graph, policy, cur, cur_key, best.map(|(next, _)| next)),
            "indexed next hop diverges from the generic candidate order"
        );
        let Some((next, landing)) = best else {
            break;
        };
        path.push(next);
        cur = next;
        cur_key = landing;
        if path.len() > HOP_LIMIT {
            return Err(RouteError::HopLimit { limit: HOP_LIMIT });
        }
    }
    Ok(Driven {
        route: Route::from_path(path),
        exhausted: false,
        timeouts: 0,
        time: 0.0,
    })
}

/// Debug-build cross-check of the fast path: the indexed selection must
/// equal the `(rank, next)` minimum of the generic candidate enumeration
/// (`None` = the enumeration must be empty).
fn indexed_matches_generic<M: Metric>(
    graph: &OverlayGraph,
    policy: &Greedy<M>,
    at: NodeIndex,
    key: u64,
    chosen: Option<NodeIndex>,
) -> bool {
    let mut cands = Vec::new();
    policy.candidates(graph, at, key, &mut cands);
    cands
        .iter()
        .min_by_key(|c| (c.rank, c.next))
        .map(|c| c.next)
        == chosen
}

/// Drives `policy` from `from` under `cfg`.
///
/// Errors only with [`RouteError::HopLimit`], and only if the policy
/// violates strict progress.
pub fn drive<P, A, L, S>(
    graph: &OverlayGraph,
    policy: &P,
    from: NodeIndex,
    cfg: DriveConfig<A, L, S>,
) -> Result<Driven, RouteError>
where
    P: RoutingPolicy,
    A: Fn(NodeIndex) -> bool,
    L: Fn(NodeIndex, NodeIndex) -> f64,
    S: Fn(NodeIndex) -> bool,
{
    let mut path = vec![from];
    let mut cur = from;
    let mut cur_key = policy.key(graph, cur);
    let mut exhausted = false;
    let mut timeouts = 0;
    let mut time = 0.0;
    let mut cands: Vec<Candidate<P::Key, P::Rank>> = Vec::new();
    loop {
        if policy.is_terminal(cur_key) || (cfg.stop)(cur) {
            break;
        }
        cands.clear();
        policy.candidates(graph, cur, cur_key, &mut cands);
        if cands.is_empty() {
            // Local minimum: `cur` is the node responsible for the key.
            break;
        }
        cands.sort_unstable_by_key(|c| (c.rank, c.next));
        let mut live = None;
        for c in &cands {
            if (cfg.alive)(c.next) {
                live = Some(c);
                break;
            }
            timeouts += 1;
            time += cfg.timeout_cost;
        }
        let Some(c) = live else {
            exhausted = true;
            break;
        };
        time += (cfg.latency)(cur, c.next);
        path.push(c.next);
        cur = c.next;
        cur_key = c.landing;
        if path.len() > HOP_LIMIT {
            return Err(RouteError::HopLimit { limit: HOP_LIMIT });
        }
    }
    Ok(Driven {
        route: Route::from_path(path),
        exhausted,
        timeouts,
        time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::metric::Clockwise;
    use canon_id::NodeId;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn ring() -> OverlayGraph {
        let ids: Vec<NodeId> = (0u64..8).map(id).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 0u64..8 {
            b.add_link(id(i), id((i + 1) % 8));
        }
        b.add_link(id(0), id(2));
        b.add_link(id(0), id(4));
        b.build()
    }

    #[test]
    fn execute_reaches_target_greedily() {
        let g = ring();
        let d = execute(&g, &Greedy::new(Clockwise, id(6)), NodeIndex(0)).expect("routes");
        assert_eq!(d.route.source(), NodeIndex(0));
        assert_eq!(d.route.target(), NodeIndex(6));
        assert!(!d.exhausted);
        // 0 → 4 → 5 → 6 (finger to 4 is the biggest clockwise step).
        assert_eq!(d.route.hops(), 3);
    }

    #[test]
    fn execute_is_drive_unrestricted() {
        let g = ring();
        for target in 0u64..8 {
            let p = Greedy::new(Clockwise, id(target));
            let fast = execute(&g, &p, NodeIndex(0)).expect("routes");
            let generic = drive(&g, &p, NodeIndex(0), unrestricted()).expect("routes");
            assert_eq!(fast, generic);
            assert_eq!((fast.timeouts, fast.time), (0, 0.0));
        }
    }

    #[test]
    fn dead_candidates_cost_timeouts_then_fall_back() {
        let g = ring();
        let cfg = DriveConfig {
            alive: |n: NodeIndex| n != NodeIndex(4),
            timeout_cost: 500.0,
            latency: |_, _| 1.0,
            stop: |_: NodeIndex| false,
        };
        let d = drive(&g, &Greedy::new(Clockwise, id(6)), NodeIndex(0), cfg).expect("routes");
        // Best candidate 4 is dead: a timeout at 0, fall back to 2, hop to
        // 3 — whose only closer neighbor is 4 again (dead), so the walk
        // exhausts there. A finger-poor ring has no other repair path.
        assert!(d.exhausted);
        assert_eq!(d.route.target(), NodeIndex(3));
        assert_eq!(d.timeouts, 2);
        assert_eq!(d.route.hops(), 2);
        assert!((d.time - (2.0 * 500.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn all_dead_candidates_exhaust() {
        let g = ring();
        let cfg = DriveConfig {
            alive: |n: NodeIndex| n == NodeIndex(0),
            timeout_cost: 500.0,
            latency: |_, _| 0.0,
            stop: |_: NodeIndex| false,
        };
        let d = drive(&g, &Greedy::new(Clockwise, id(6)), NodeIndex(0), cfg).expect("terminates");
        assert!(d.exhausted);
        assert_eq!(d.route.hops(), 0);
    }

    #[test]
    fn stop_predicate_truncates_route() {
        let g = ring();
        let cfg = DriveConfig {
            alive: |_: NodeIndex| true,
            timeout_cost: 0.0,
            latency: |_, _| 0.0,
            stop: |n: NodeIndex| n == NodeIndex(4),
        };
        let d = drive(&g, &Greedy::new(Clockwise, id(6)), NodeIndex(0), cfg).expect("routes");
        assert_eq!(d.route.target(), NodeIndex(4));
        assert_eq!(d.route.hops(), 1);
    }

    #[test]
    fn routing_to_self_is_the_empty_walk() {
        let g = ring();
        let d = execute(&g, &Greedy::new(Clockwise, id(3)), NodeIndex(3)).expect("routes");
        assert_eq!(d.route.path(), &[NodeIndex(3)]);
        assert_eq!((d.exhausted, d.timeouts, d.time), (false, 0, 0.0));
    }
}
