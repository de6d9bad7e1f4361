//! Time-cost lookup simulation under node failures.
//!
//! Structural experiments (route success true/false) miss the *time* cost
//! of failures: a live system pays a timeout for every dead neighbor it
//! tries before falling back to the next-best candidate. This module runs
//! greedy lookups under a failure mask with per-attempt accounting: each
//! attempted hop to a dead neighbor costs [`FaultModel::timeout`], each
//! successful hop costs the link latency, and candidates at every step are
//! tried in increasing metric distance to the destination.
//!
//! Both lookup styles are the shared executor under a liveness mask: a
//! [`Greedy`] policy [`drive`]n with the fault model's timeout, whose
//! [`Driven`](crate::engine::Driven) result carries the timeout count and
//! elapsed time. [`lookup_with_faults`] is *recursive*
//! routing — the query is forwarded hop by hop and each hop costs its link;
//! [`iterative_lookup`] is Kademlia's deployment style — the origin contacts
//! every intermediate node itself and pays a full round trip per step. The
//! choice interacts with hierarchy: recursive hops inside a domain are
//! cheap under Canon, while iterative steps always pay origin-to-
//! intermediate round trips, so locality benefits shrink (the
//! `iterative_vs_recursive` experiment quantifies the gap).
//!
//! Lookups share no state, so a concurrent workload is just one call per
//! lookup: a lookup's timeline is the sum of its own hops and timeouts.

use crate::engine::{drive, DriveConfig};
use crate::graph::{NodeIndex, OverlayGraph};
use crate::policy::Greedy;
use canon_id::{metric::Metric, NodeId};

/// Timing parameters of the failure model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Time paid per attempt to contact a dead neighbor, in the same unit
    /// as the link latency oracle (ms in the transit-stub model).
    pub timeout: f64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel { timeout: 500.0 }
    }
}

/// Outcome of one lookup under failures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultyLookup {
    /// Whether the lookup reached the responsible node.
    pub completed: bool,
    /// Node where forwarding stopped: the responsible node when
    /// `completed`, otherwise the node whose closer candidates were all
    /// dead. Callers that model the answer travelling back add the
    /// `terminal → from` leg themselves.
    pub terminal: NodeIndex,
    /// Total time spent (hop costs plus timeouts).
    pub time: f64,
    /// Successful hops taken (round trips, for [`iterative_lookup`]).
    pub hops: usize,
    /// Dead neighbors attempted along the way.
    pub timeouts: usize,
}

/// Runs a greedy lookup for `target` from `from`, where `alive(n)` tells
/// whether a node responds and `lat` prices successful hops.
///
/// At each step the candidates strictly closer to the target are tried in
/// increasing distance; every dead candidate costs one timeout. The lookup
/// fails (`completed == false`) when every closer candidate is dead, and
/// succeeds when the current node has no closer neighbor (it is the local
/// responsible node among live ones along the greedy path).
pub fn lookup_with_faults<M, A, L>(
    graph: &OverlayGraph,
    metric: M,
    model: FaultModel,
    from: NodeIndex,
    target: NodeId,
    alive: A,
    lat: L,
) -> FaultyLookup
where
    M: Metric,
    A: Fn(NodeIndex) -> bool,
    L: Fn(NodeIndex, NodeIndex) -> f64,
{
    debug_assert!(alive(from), "lookups start at a live node");
    let cfg = DriveConfig {
        alive,
        timeout_cost: model.timeout,
        latency: lat,
        stop: |_: NodeIndex| false,
    };
    match drive(graph, &Greedy::new(metric, target), from, cfg) {
        Ok(d) => FaultyLookup {
            completed: !d.exhausted,
            terminal: d.route.target(),
            time: d.time,
            hops: d.route.hops(),
            timeouts: d.timeouts,
        },
        // Strict progress makes the hop limit unreachable on any graph the
        // builders produce; treat it as a failed lookup rather than panic.
        Err(_) => FaultyLookup {
            completed: false,
            terminal: from,
            time: 0.0,
            hops: 0,
            timeouts: 0,
        },
    }
}

/// Runs an *iterative* lookup for `target` from `origin`: the same
/// fault-priced walk as [`lookup_with_faults`], but the origin probes
/// every candidate directly, so each successful step costs a round trip
/// `2 × lat(origin, candidate)` instead of a link traversal, and each dead
/// probe costs one timeout. (Strict progress means the walk never returns
/// to the origin, so every probe is a real round trip.)
pub fn iterative_lookup<M, A, L>(
    graph: &OverlayGraph,
    metric: M,
    model: FaultModel,
    origin: NodeIndex,
    target: NodeId,
    alive: A,
    lat: L,
) -> FaultyLookup
where
    M: Metric,
    A: Fn(NodeIndex) -> bool,
    L: Fn(NodeIndex, NodeIndex) -> f64,
{
    lookup_with_faults(graph, metric, model, origin, target, alive, |_, nb| {
        2.0 * lat(origin, nb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::metric::Clockwise;
    use canon_id::NodeId;

    /// Ring 0..8 with fingers from 0: 0→{1,2,4}.
    fn graph() -> OverlayGraph {
        let ids: Vec<NodeId> = (0u64..8).map(NodeId::new).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 0u64..8 {
            b.add_link(NodeId::new(i), NodeId::new((i + 1) % 8));
        }
        b.add_link(NodeId::new(0), NodeId::new(2));
        b.add_link(NodeId::new(0), NodeId::new(4));
        b.build()
    }

    #[test]
    fn no_failures_equals_plain_greedy() {
        let g = graph();
        let r = lookup_with_faults(
            &g,
            Clockwise,
            FaultModel::default(),
            NodeIndex(0),
            NodeId::new(5),
            |_| true,
            |_, _| 1.0,
        );
        assert!(r.completed);
        assert_eq!(r.timeouts, 0);
        // Greedy: 0 → 4 → 5.
        assert_eq!(r.hops, 2);
        assert_eq!(r.terminal, NodeIndex(5));
        assert!((r.time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dead_best_candidate_costs_a_timeout() {
        let g = graph();
        let dead = NodeIndex(4);
        let r = lookup_with_faults(
            &g,
            Clockwise,
            FaultModel { timeout: 10.0 },
            NodeIndex(0),
            NodeId::new(5),
            |n| n != dead,
            |_, _| 1.0,
        );
        // After the timeout at 0 (trying dead node 4), greedy falls back to
        // 0 → 2 → 3; from 3 the only closer neighbor is 4 again (dead), so
        // the lookup stalls: two timeouts, two successful hops, no
        // completion. This is exactly the failure mode leaf sets exist to
        // repair (§2.3) — this ring has none.
        assert!(!r.completed);
        assert_eq!(r.terminal, NodeIndex(3));
        assert_eq!(r.timeouts, 2);
        assert_eq!(r.hops, 2);
        assert!((r.time - (2.0 * 10.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn lookup_fails_when_all_closer_neighbors_are_dead() {
        let g = graph();
        let r = lookup_with_faults(
            &g,
            Clockwise,
            FaultModel { timeout: 7.0 },
            NodeIndex(0),
            NodeId::new(1),
            |n| n == NodeIndex(0),
            |_, _| 1.0,
        );
        assert!(!r.completed);
        assert_eq!(r.hops, 0);
        assert_eq!(r.timeouts, 1); // only node 1 was closer
        assert!((r.time - 7.0).abs() < 1e-9);
    }

    #[test]
    fn reaching_the_exact_target_completes() {
        let g = graph();
        let r = lookup_with_faults(
            &g,
            Clockwise,
            FaultModel::default(),
            NodeIndex(3),
            NodeId::new(3),
            |_| true,
            |_, _| 1.0,
        );
        assert!(r.completed);
        assert_eq!(r.hops, 0);
        assert_eq!(r.time, 0.0);
    }

    #[test]
    fn timeouts_dominate_time_under_heavy_failure() {
        let g = graph();
        // Kill the even nodes except the source.
        let r = lookup_with_faults(
            &g,
            Clockwise,
            FaultModel { timeout: 100.0 },
            NodeIndex(0),
            NodeId::new(7),
            |n| n == NodeIndex(0) || n.index() % 2 == 1,
            |_, _| 1.0,
        );
        if r.timeouts > 0 {
            assert!(r.time > r.hops as f64);
        }
    }
}
