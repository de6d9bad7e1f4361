//! Path-overlap metrics (Figure 8) and latency evaluation of routes.
//!
//! Paper §5.4 measures how much of a second querier's path coincides with an
//! earlier path to the same destination — the benefit a cached answer along
//! the first path provides to the second querier:
//!
//! * **hop overlap fraction**: the fraction of the second path's *edges*
//!   that also appear on the first path;
//! * **latency overlap fraction**: the same fraction weighted by link
//!   latency (overlapping latency of P′ divided by total latency of P′).

use crate::graph::NodeIndex;
use crate::route::Route;
use std::collections::HashSet;

/// The overlap of route `second` with route `first`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overlap {
    /// Fraction of `second`'s hops shared with `first` (0 when `second` has
    /// no hops).
    pub hop_fraction: f64,
    /// Fraction of `second`'s latency on shared hops (0 when `second` has
    /// zero total latency).
    pub latency_fraction: f64,
}

/// Computes hop and latency overlap of `second` with respect to `first`.
///
/// Greedy routing is deterministic, so once the two paths meet *at a node*
/// while heading to the same destination they coincide; comparing edge sets
/// is therefore exact for same-destination paths and remains meaningful for
/// near-miss workloads.
pub fn overlap<F: Fn(NodeIndex, NodeIndex) -> f64>(
    first: &Route,
    second: &Route,
    lat: F,
) -> Overlap {
    let first_edges: HashSet<(NodeIndex, NodeIndex)> = first.edges().collect();
    let mut shared_hops = 0usize;
    let mut shared_lat = 0.0f64;
    let mut total_lat = 0.0f64;
    let mut total_hops = 0usize;
    for (a, b) in second.edges() {
        let l = lat(a, b);
        total_hops += 1;
        total_lat += l;
        if first_edges.contains(&(a, b)) {
            shared_hops += 1;
            shared_lat += l;
        }
    }
    Overlap {
        hop_fraction: if total_hops == 0 {
            0.0
        } else {
            shared_hops as f64 / total_hops as f64
        },
        latency_fraction: if total_lat == 0.0 {
            0.0
        } else {
            shared_lat / total_lat
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, OverlayGraph};
    use crate::route::route;
    use canon_id::{metric::Clockwise, NodeId};

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// 0 -> 1 -> 2 -> 3 chain plus a shortcut 4 -> 2.
    fn chain() -> OverlayGraph {
        let ids: Vec<NodeId> = [0u64, 1, 2, 3, 4].iter().map(|&r| id(r)).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        b.add_link(id(0), id(1));
        b.add_link(id(1), id(2));
        b.add_link(id(2), id(3));
        b.add_link(id(4), id(2));
        // Close the ring so routing terminates cleanly everywhere.
        b.add_link(id(3), id(0));
        b.build()
    }

    #[test]
    fn full_overlap_for_identical_routes() {
        let g = chain();
        let r = route(
            &g,
            Clockwise,
            g.index_of(id(0)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap();
        let o = overlap(&r, &r, |_, _| 1.0);
        assert_eq!(o.hop_fraction, 1.0);
        assert_eq!(o.latency_fraction, 1.0);
    }

    #[test]
    fn partial_overlap_for_converging_routes() {
        let g = chain();
        let first = route(
            &g,
            Clockwise,
            g.index_of(id(0)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap(); // 0-1-2-3
        let second = route(
            &g,
            Clockwise,
            g.index_of(id(4)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap(); // 4-2-3
        let o = overlap(&first, &second, |_, _| 1.0);
        assert!((o.hop_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_weighting_differs_from_hops() {
        let g = chain();
        let first = route(
            &g,
            Clockwise,
            g.index_of(id(0)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap();
        let second = route(
            &g,
            Clockwise,
            g.index_of(id(4)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap();
        // Shared edge (2,3) is expensive; private edge (4,2) is cheap.
        let lat = |a: NodeIndex, b: NodeIndex| {
            if (g.id(a), g.id(b)) == (id(2), id(3)) {
                9.0
            } else {
                1.0
            }
        };
        let o = overlap(&first, &second, lat);
        assert!((o.hop_fraction - 0.5).abs() < 1e-12);
        assert!((o.latency_fraction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_hop_second_route_has_zero_overlap() {
        let g = chain();
        let n = g.index_of(id(2)).unwrap();
        let first = route(
            &g,
            Clockwise,
            g.index_of(id(0)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap();
        let second = route(&g, Clockwise, n, n).unwrap();
        let o = overlap(&first, &second, |_, _| 1.0);
        assert_eq!(o, Overlap::default());
    }

    #[test]
    fn disjoint_routes_have_zero_overlap() {
        let g = chain();
        let first = route(
            &g,
            Clockwise,
            g.index_of(id(0)).unwrap(),
            g.index_of(id(1)).unwrap(),
        )
        .unwrap(); // 0-1
        let second = route(
            &g,
            Clockwise,
            g.index_of(id(2)).unwrap(),
            g.index_of(id(3)).unwrap(),
        )
        .unwrap(); // 2-3
        let o = overlap(&first, &second, |_, _| 1.0);
        assert_eq!(o.hop_fraction, 0.0);
        assert_eq!(o.latency_fraction, 0.0);
    }
}
