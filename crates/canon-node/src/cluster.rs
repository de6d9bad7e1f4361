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
    let ring = graph.ring();
    for idx in graph.node_indices() {
        let id = graph.id(idx);
        let links = row::build(graph.neighbors(idx).iter().map(|&n| graph.id(n)), id);
        let mut succ_list = Vec::with_capacity(config.succ_list_len);
        let mut cur = id;
        for _ in 0..config.succ_list_len {
            let Some(next) = ring.strict_successor(cur) else {
                break;
            };
            if next == id {
                break;
            }
            succ_list.push(next);
            cur = next;
        }
        let pred = ring.strict_predecessor(id).filter(|&p| p != id);
        rt.spawn_inner(id, links, succ_list, pred, true);
    }
    rt
}
