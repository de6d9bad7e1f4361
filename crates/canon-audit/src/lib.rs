//! Static analysis for the Canon workspace: a dependency-free source lint
//! pass ([`lint`]), an exhaustive `par_map` schedule-exploration harness
//! ([`loom`]), the figure-graph invariant audit driver ([`graphs`],
//! wrapping [`canon::audit`]), the storage invariant probe ([`storage`],
//! checking replica placement against the policy engine across store,
//! sim and node), and the protocol model checker ([`protocol`],
//! exhaustive interleaving exploration of canon-node's
//! join/leave/handover protocols under a Zave-style ring-invariant
//! auditor).
//!
//! The `canon-audit` binary wires all of them into one CI entry point:
//!
//! ```text
//! cargo run -p canon-audit -- --ci
//! ```
//!
//! See each module's docs for the rules and checks; `DESIGN.md` ("Static
//! analysis & invariants") documents the policy rationale.

#![forbid(unsafe_code)]

pub mod graphs;
pub mod lint;
pub mod loom;
pub mod protocol;
pub mod storage;
