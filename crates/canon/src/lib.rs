//! Canon: hierarchical DHTs with flat-DHT state and routing costs.
//!
//! This crate is the reproduction of the core contribution of *Canon in G
//! Major: Designing DHTs with Hierarchical Structure* (Ganesan, Gummadi,
//! Garcia-Molina — ICDCS 2004). Canon turns any flat DHT into a
//! hierarchical one:
//!
//! 1. nodes form a conceptual domain hierarchy
//!    ([`canon_hierarchy::Hierarchy`]);
//! 2. the nodes of every **leaf** domain build the flat DHT among
//!    themselves;
//! 3. each **internal** domain's DHT is the *merge* of its children's: every
//!    node adds links to nodes of sibling rings that
//!    * (a) satisfy the flat DHT's link rule applied over the union, and
//!    * (b) are **strictly closer than any node of its own ring**.
//!
//! The merge rule keeps total state at flat-DHT levels (≈ `log n` links,
//! Theorems 2–3) and greedy routing at flat-DHT cost (Theorems 5–6) while
//! adding *path locality* (intra-domain routes never leave the domain) and
//! *path convergence* (all routes from a domain to an outside destination
//! exit through the domain's closest predecessor of the destination).
//!
//! Modules:
//!
//! * [`engine`] — the generic bottom-up merge ([`engine::build_canonical`])
//!   parameterized by a [`engine::LinkRule`], and [`engine::build_flat`]:
//!   the same merge over a single domain, which is how every flat DHT of
//!   the workspace is built;
//! * [`crescendo`] — Canonical Chord and nondeterministic Chord (§2, §3.2),
//!   with flat Chord beside them;
//! * [`cacophony`] — Canonical Symphony (§3.1) and flat Symphony;
//! * [`kandy`] — Canonical Kademlia (§3.3) and flat Kademlia;
//! * [`cancan`] — Canonical CAN in the equal-length-identifier hypercube
//!   form (§3.4); flat CAN is Can-Can over one domain;
//! * [`pastry`] — Canonical Pastry (§3.3: base-`2^b` digit tables, each
//!   cell filled at the lowest level that can fill it, per-level leaf
//!   sets) and flat Pastry;
//! * [`mixed`] — heterogeneous per-level structures (§3.5: e.g. a complete
//!   graph on each LAN at the leaf level);
//! * [`proximity`] — group-based adaptation to physical-network proximity
//!   (§3.6) for both flat Chord and Crescendo.
//!
//! Every builder is the engine's one leaf-to-root walk over its rule.
//!
//! # Example
//!
//! ```
//! use canon::crescendo::build_crescendo;
//! use canon_hierarchy::{Hierarchy, Placement};
//! use canon_id::{metric::Clockwise, rng::Seed};
//! use canon_overlay::route;
//!
//! let h = Hierarchy::balanced(4, 3);
//! let placement = Placement::uniform(&h, 200, Seed(42));
//! let net = build_crescendo(&h, &placement);
//! // Global routing works at Chord cost...
//! let g = net.graph();
//! let r = route(g, Clockwise, canon_overlay::NodeIndex(0),
//!               canon_overlay::NodeIndex(100))?;
//! assert!(r.hops() < 16);
//! # Ok::<(), canon_overlay::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod audit;
pub mod cacophony;
pub mod cancan;
pub mod crescendo;
pub mod engine;
pub mod kandy;
pub mod mixed;
pub mod pastry;
pub mod proximity;

pub use audit::{verify_canonical, verify_structure, AuditReport, Violation};
pub use engine::{build_canonical, build_flat, CanonicalNetwork, LevelCtx, LinkRule};
