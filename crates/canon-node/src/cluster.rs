//! Cluster construction: seed a [`Runtime`] from a pre-built overlay
//! graph.
//!
//! The runtime itself is graph-agnostic — any [`OverlayGraph`] works. For
//! a Crescendo cluster, build the graph with `canon::crescendo` and hand
//! it here; each node's link table is the graph's adjacency for it, and
//! its successor list and predecessor come from the global ring over the
//! graph's identifiers (the same ring `canon-store`'s successor
//! replication places replicas on, which is what makes the
//! replica-placement equivalence test possible).

use crate::clock::Clock;
use crate::node::row;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::transport::Transport;
use canon_overlay::OverlayGraph;
use std::sync::Arc;

/// Builds a runtime hosting every node of `graph`: links from the graph's
/// adjacency, successor lists and predecessors from the global ring over
/// the graph's identifiers. Node slots follow graph index order.
///
/// # Panics
///
/// Panics, through [`Runtime::new`], if `config.replication` is outside
/// `1..=config.succ_list_len + 1`.
pub fn from_graph(
    graph: &OverlayGraph,
    clock: Arc<dyn Clock>,
    transport: Arc<dyn Transport>,
    config: RuntimeConfig,
) -> Runtime {
    let mut rt = Runtime::new(clock, transport, config);
    rt.reserve(graph.len());
    let ring = graph.ring().as_slice();
    let n = ring.len();
    for idx in graph.node_indices() {
        let id = graph.id(idx);
        let links = row::build(graph.neighbors(idx).iter().map(|&n| graph.id(n)), id);
        // One search for the node's place on the ring; its successors and
        // predecessor are the places around it, wrapping short of itself.
        let at = ring.partition_point(|&r| r < id);
        let succ_list: Vec<_> = (1..n.min(config.succ_list_len + 1))
            .map(|k| ring[(at + k) % n])
            .collect();
        let pred = (n > 1).then(|| ring[(at + n - 1) % n]);
        rt.spawn_inner(id, links, succ_list, pred, true);
    }
    rt
}
