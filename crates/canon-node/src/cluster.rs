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
/// When identifiers ascend with the index — every graph a Canon walk
/// builds — node `i` is ring position `i` and its row of the graph, sorted
/// by index, is its link row as is, so a node costs no search and no
/// sort. Any other graph pays one ring search and one row sort per node.
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
    let ids = graph.ids();
    let ring = graph.ring().as_slice();
    let n = ring.len();
    let ascending = ids == ring;
    for idx in graph.node_indices() {
        let id = ids[idx.index()];
        let neighbors = graph.neighbors(idx).iter().map(|&t| ids[t.index()]);
        let (links, at) = if ascending {
            (neighbors.collect(), idx.index())
        } else {
            (row::build(neighbors, id), ring.partition_point(|&r| r < id))
        };
        // The node's successors and predecessor are the ring places
        // around its own, wrapping short of itself.
        let succ_list = (1..n.min(config.succ_list_len + 1))
            .map(|k| ring[(at + k) % n])
            .collect();
        let pred = (n > 1).then(|| ring[(at + n - 1) % n]);
        rt.spawn_inner(id, links, succ_list, pred, true);
    }
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelTransport, VirtualClock};
    use canon_hierarchy::{Hierarchy, Placement};
    use canon_id::{rng::Seed, NodeId};
    use canon_overlay::GraphBuilder;

    /// Each node's `(id, links, successors, predecessor)` as a ring search
    /// places them: the row sorted by id, the node found on the ring by a
    /// binary search.
    fn by_ring_search(graph: &OverlayGraph, succ_len: usize) -> Vec<Seat> {
        let ring = graph.ring().as_slice();
        let n = ring.len();
        graph
            .node_indices()
            .map(|idx| {
                let id = graph.id(idx);
                let links = row::build(graph.neighbors(idx).iter().map(|&t| graph.id(t)), id);
                let at = ring.binary_search(&id).expect("every id is on the ring");
                let succ: Vec<_> = (1..n.min(succ_len + 1))
                    .map(|k| ring[(at + k) % n])
                    .collect();
                let pred = (n > 1).then(|| ring[(at + n - 1) % n]);
                (id, links, succ, pred)
            })
            .collect()
    }

    type Seat = (NodeId, Vec<NodeId>, Vec<NodeId>, Option<NodeId>);

    fn spawned(graph: &OverlayGraph) -> Vec<Seat> {
        let rt = from_graph(
            graph,
            Arc::new(VirtualClock::new()),
            Arc::new(ChannelTransport::new(1)),
            RuntimeConfig::default(),
        );
        rt.ids()
            .into_iter()
            .map(|id| rt.with_node(id, |n| (id, n.links.clone(), n.succ_list.clone(), n.pred)))
            .collect()
    }

    fn check(graph: &OverlayGraph) {
        let succ_len = RuntimeConfig::default().succ_list_len;
        assert_eq!(spawned(graph), by_ring_search(graph, succ_len));
    }

    #[test]
    fn nodes_added_out_of_id_order_get_their_ring_places() {
        let raw = [50u64, 10, 90, 30, 70, 20, 80, 60, 40, 100, 5];
        let ids: Vec<NodeId> = raw.map(NodeId::new).to_vec();
        let mut b = GraphBuilder::with_nodes(&ids);
        for (k, &from) in ids.iter().enumerate() {
            for step in [1, 3, 4] {
                b.add_link(from, ids[(k + step) % ids.len()]);
            }
        }
        let shuffled = b.build();
        assert_ne!(shuffled.ids(), shuffled.ring().as_slice());
        check(&shuffled);
        let mut sorted_ids = ids;
        sorted_ids.sort_unstable();
        let ascending = GraphBuilder::from_per_node_links(
            &sorted_ids,
            &(0..sorted_ids.len())
                .map(|k| {
                    vec![
                        sorted_ids[(k + 2) % sorted_ids.len()],
                        sorted_ids[(k + 7) % sorted_ids.len()],
                    ]
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(ascending.ids(), ascending.ring().as_slice());
        check(&ascending);
    }

    #[test]
    fn the_benchmark_cluster_gets_its_ring_places() {
        let h = Hierarchy::balanced(4, 3);
        let net =
            canon::crescendo::build_crescendo(&h, &Placement::uniform(&h, 1024, Seed(0x00ca_9090)));
        check(net.graph());
    }
}
