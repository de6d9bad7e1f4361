//! Overlay-network substrate: graphs, the routing engine and path analysis.
//!
//! Every DHT in this workspace — flat or Canonical — reduces, for the
//! purposes of the paper's evaluation (§5), to a directed *overlay graph*
//! over node identifiers plus a *greedy routing* rule under a metric
//! (clockwise or XOR). This crate provides that shared substrate:
//!
//! * [`graph::OverlayGraph`] — an immutable directed graph over
//!   [`canon_id::NodeId`]s in compressed-sparse-row layout with O(1)
//!   neighbor access;
//! * [`index::NextHopIndex`] — per-node neighbor ids in sorted order,
//!   giving the engine's fault-free fast path its logarithmic next-hop
//!   selection (one binary search per hop, zero allocation);
//! * [`policy`] — the three [`policy::RoutingPolicy`] implementations
//!   (greedy, one-hop lookahead, group-aware proximity) describing
//!   candidate enumeration and ranking;
//! * [`engine`] — the single shared route executor: strict-progress walk,
//!   liveness filtering with timeout pricing, deterministic tie-breaking,
//!   hop budget; a walk returns its route plus its timeout count and
//!   elapsed time ([`engine::Driven`]);
//! * [`route`](mod@route) — greedy routing entry points over the engine, with full
//!   path recording, node-filtered routing (for fault-isolation
//!   experiments) and key lookup semantics per metric; plus the same
//!   greedy rule over a bare link set ([`closest`], [`closest_clockwise`])
//!   for nodes that hold a link table and no graph;
//! * [`stats`] — degree and hop-count statistics (Figures 3–5);
//! * [`paths`] — path-overlap metrics (Figure 8) and latency evaluation of
//!   routes (Figures 6–7);
//! * [`multicast`] — rendezvous multicast groups: subscription by
//!   drive-then-graft, reverse-path trees from recorded routes,
//!   dissemination cost and inter-domain link counting (Figure 9);
//! * [`faults`] — timeout-priced recursive and iterative lookups under
//!   node-failure masks.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod engine;
pub mod faults;
pub mod graph;
pub mod index;
pub mod multicast;
pub mod paths;
pub mod policy;
pub mod route;
pub mod stats;

pub use engine::{drive, execute, DriveConfig, Driven};
pub use graph::{GraphBuilder, NodeIndex, OverlayGraph};
pub use index::NextHopIndex;
pub use policy::{Candidate, Greedy, Lookahead1, ProximityAware, RoutingPolicy};
pub use route::{
    closest, closest_clockwise, route, route_to_key, route_to_key_sweep, route_with_filter, Route,
    RouteError,
};
