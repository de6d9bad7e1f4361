//! The shared route executor: one greedy walk serving every policy.
//!
//! [`drive`] runs a [`RoutingPolicy`] from a start node: it enumerates the
//! policy's candidates, orders them by `(rank, next)`, tries them in order
//! against a liveness oracle (paying one priced timeout per dead
//! candidate), takes the first live one, and streams every step to a
//! [`RouteObserver`]. Strict progress is the policy contract (every
//! candidate's landing key is smaller than the current key), so the walk
//! terminates; the hop budget [`HOP_LIMIT`] is a defensive backstop against
//! a policy that violates it.
//!
//! Termination cases, all reported as `Ok`:
//!
//! * the policy's terminal key is reached (destination found);
//! * the stop predicate fires (e.g. multicast reaching its tree);
//! * no candidates exist — the current node is the local minimum, i.e. the
//!   node responsible for the routed key;
//! * every candidate was dead ([`Driven::exhausted`] is set).

use crate::graph::{NodeIndex, OverlayGraph};
use crate::observe::{HopEvent, RouteObserver};
use crate::policy::{Candidate, IndexedNextHop, RoutingPolicy};
use crate::route::{Route, RouteError};

/// Defensive hop budget: no route in any evaluated network comes close,
/// so exceeding it means a policy violated strict progress.
pub const HOP_LIMIT: usize = 4096;

/// The result of driving a policy: the realized route plus whether the
/// walk stopped early because every candidate at the last node was dead.
#[derive(Clone, Debug)]
pub struct Driven {
    /// The realized route (always at least the start node).
    pub route: Route,
    /// True when routing stopped because all candidates timed out.
    pub exhausted: bool,
}

/// Execution environment for [`drive`]: liveness, pricing, and an external
/// stop predicate.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig<A, L, S> {
    /// Liveness oracle; dead candidates cost `timeout_cost` and are
    /// skipped.
    pub alive: A,
    /// Time charged per dead candidate (reported via
    /// [`HopEvent::Timeout`]).
    pub timeout_cost: f64,
    /// Latency oracle pricing each successful hop (reported via
    /// [`HopEvent::Hop`]).
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

/// Drives `policy` from `from` in a fault-free, unpriced environment.
///
/// This is the engine's **fast path**: when the policy supports indexed
/// next-hop selection ([`RoutingPolicy::indexed_next`], e.g.
/// [`crate::policy::Greedy`] via the graph's
/// [`NextHopIndex`](crate::index::NextHopIndex)), each hop is selected
/// with zero allocation and no sort, and the realized route and observer
/// event stream are identical to [`drive`] under [`unrestricted`] (every
/// hop: one `Attempt`, one `Hop` with latency `0.0`; one `Terminal` at the
/// end) — tested, and asserted per hop in debug builds. Policies that
/// decline indexing fall back to the generic candidates-then-sort path.
pub fn execute<P, O>(
    graph: &OverlayGraph,
    policy: &P,
    from: NodeIndex,
    mut observer: O,
) -> Result<Driven, RouteError>
where
    P: RoutingPolicy,
    O: RouteObserver,
{
    // Sized for the longest route any evaluated network produces
    // (~log2 n hops), so the hot loop never reallocates.
    let mut path = Vec::with_capacity(32);
    path.push(from);
    let mut cur = from;
    let mut cur_key = policy.key(graph, cur);
    loop {
        if policy.is_terminal(cur_key) {
            break;
        }
        match policy.indexed_next(graph, cur, cur_key) {
            IndexedNextHop::Best { next, landing } => {
                debug_assert!(
                    indexed_matches_generic(graph, policy, cur, cur_key, Some(next)),
                    "indexed next hop diverges from the generic candidate order"
                );
                observer.on_event(&HopEvent::Attempt {
                    from: cur,
                    to: next,
                });
                observer.on_event(&HopEvent::Hop {
                    from: cur,
                    to: next,
                    latency: 0.0,
                });
                path.push(next);
                cur = next;
                cur_key = landing;
                if path.len() > HOP_LIMIT {
                    return Err(RouteError::HopLimit { limit: HOP_LIMIT });
                }
            }
            IndexedNextHop::LocalMinimum => {
                debug_assert!(
                    indexed_matches_generic(graph, policy, cur, cur_key, None),
                    "index reports a local minimum but generic candidates exist"
                );
                break;
            }
            IndexedNextHop::Unsupported => {
                // Generic policy: finish the walk on the candidates-and-sort
                // path and splice its route onto the prefix walked so far
                // (for a policy that is uniformly unsupported, the prefix is
                // just `from` and this is the pre-index behavior verbatim).
                let d = drive(graph, policy, cur, unrestricted(), observer)?;
                path.pop();
                path.extend_from_slice(d.route.path());
                return Ok(Driven {
                    route: Route::from_path(path),
                    exhausted: d.exhausted,
                });
            }
        }
    }
    observer.on_event(&HopEvent::Terminal { at: cur });
    Ok(Driven {
        route: Route::from_path(path),
        exhausted: false,
    })
}

/// Debug-build cross-check of the fast path: the indexed selection must
/// equal the `(rank, next)` minimum of the generic candidate enumeration
/// (`None` = the enumeration must be empty).
fn indexed_matches_generic<P: RoutingPolicy>(
    graph: &OverlayGraph,
    policy: &P,
    at: NodeIndex,
    key: P::Key,
    chosen: Option<NodeIndex>,
) -> bool {
    let mut cands: Vec<Candidate<P::Key, P::Rank>> = Vec::new();
    policy.candidates(graph, at, key, &mut cands);
    cands
        .iter()
        .min_by_key(|c| (c.rank, c.next))
        .map(|c| c.next)
        == chosen
}

/// Drives `policy` from `from` under `cfg`, streaming events to
/// `observer`.
///
/// Errors only with [`RouteError::HopLimit`], and only if the policy
/// violates strict progress.
pub fn drive<P, O, A, L, S>(
    graph: &OverlayGraph,
    policy: &P,
    from: NodeIndex,
    cfg: DriveConfig<A, L, S>,
    mut observer: O,
) -> Result<Driven, RouteError>
where
    P: RoutingPolicy,
    O: RouteObserver,
    A: Fn(NodeIndex) -> bool,
    L: Fn(NodeIndex, NodeIndex) -> f64,
    S: Fn(NodeIndex) -> bool,
{
    let mut path = vec![from];
    let mut cur = from;
    let mut cur_key = policy.key(graph, cur);
    let mut exhausted = false;
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
        let mut advanced = false;
        for c in &cands {
            observer.on_event(&HopEvent::Attempt {
                from: cur,
                to: c.next,
            });
            if (cfg.alive)(c.next) {
                let latency = (cfg.latency)(cur, c.next);
                observer.on_event(&HopEvent::Hop {
                    from: cur,
                    to: c.next,
                    latency,
                });
                path.push(c.next);
                cur = c.next;
                cur_key = c.landing;
                advanced = true;
                break;
            }
            observer.on_event(&HopEvent::Timeout {
                from: cur,
                to: c.next,
                cost: cfg.timeout_cost,
            });
        }
        if !advanced {
            exhausted = true;
            break;
        }
        if path.len() > HOP_LIMIT {
            return Err(RouteError::HopLimit { limit: HOP_LIMIT });
        }
    }
    observer.on_event(&HopEvent::Terminal { at: cur });
    Ok(Driven {
        route: Route::from_path(path),
        exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::observe::{EventLog, FaultTally, HopCount, NullObserver};
    use crate::policy::Greedy;
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
        let d = execute(
            &g,
            &Greedy::new(Clockwise, id(6)),
            NodeIndex(0),
            NullObserver,
        )
        .expect("routes");
        assert_eq!(d.route.source(), NodeIndex(0));
        assert_eq!(d.route.target(), NodeIndex(6));
        assert!(!d.exhausted);
        // 0 → 4 → 5 → 6 (finger to 4 is the biggest clockwise step).
        assert_eq!(d.route.hops(), 3);
    }

    #[test]
    fn observer_sees_one_attempt_and_hop_per_step() {
        let g = ring();
        let mut count = HopCount::default();
        let d =
            execute(&g, &Greedy::new(Clockwise, id(6)), NodeIndex(0), &mut count).expect("routes");
        assert_eq!(count.hops, d.route.hops());
        assert_eq!(count.attempts, d.route.hops());
        assert_eq!(count.timeouts, 0);
    }

    #[test]
    fn dead_candidates_cost_timeouts_then_fall_back() {
        let g = ring();
        let mut tally = FaultTally::default();
        let cfg = DriveConfig {
            alive: |n: NodeIndex| n != NodeIndex(4),
            timeout_cost: 500.0,
            latency: |_, _| 1.0,
            stop: |_: NodeIndex| false,
        };
        let d = drive(
            &g,
            &Greedy::new(Clockwise, id(6)),
            NodeIndex(0),
            cfg,
            &mut tally,
        )
        .expect("routes");
        // Best candidate 4 is dead: a timeout at 0, fall back to 2, hop to
        // 3 — whose only closer neighbor is 4 again (dead), so the walk
        // exhausts there. A finger-poor ring has no other repair path.
        assert!(d.exhausted);
        assert_eq!(d.route.target(), NodeIndex(3));
        assert_eq!(tally.timeouts, 2);
        assert_eq!(tally.hops, d.route.hops());
        assert_eq!(tally.hops, 2);
        assert!((tally.time - (2.0 * 500.0 + 2.0)).abs() < 1e-9);
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
        let d = drive(
            &g,
            &Greedy::new(Clockwise, id(6)),
            NodeIndex(0),
            cfg,
            NullObserver,
        )
        .expect("terminates");
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
        let d = drive(
            &g,
            &Greedy::new(Clockwise, id(6)),
            NodeIndex(0),
            cfg,
            NullObserver,
        )
        .expect("routes");
        assert_eq!(d.route.target(), NodeIndex(4));
        assert_eq!(d.route.hops(), 1);
    }

    #[test]
    fn terminal_event_closes_every_stream() {
        let g = ring();
        let mut log = EventLog::default();
        execute(&g, &Greedy::new(Clockwise, id(3)), NodeIndex(3), &mut log).expect("routes");
        assert_eq!(
            log.events(),
            &[HopEvent::Terminal { at: NodeIndex(3) }],
            "routing to self emits only the terminal event"
        );
    }
}
