//! Static analysis for the Canon workspace: a dependency-free source lint
//! pass ([`lint`]) and the protocol model checker ([`protocol`],
//! exhaustive interleaving exploration of canon-node's
//! join/leave/handover protocols under a Zave-style ring-invariant
//! auditor).
//!
//! The `canon-audit` binary runs both as one CI entry point:
//!
//! ```text
//! cargo run -p canon-audit -- all
//! ```
//!
//! See each module's docs for the rules and checks; `DESIGN.md` ("Static
//! analysis & invariants") documents the policy rationale. The Canon merge
//! conditions (a)/(b) are checked by `canon::audit`, whose figure-family
//! and property tests live in `crates/canon/tests/audit.rs`.

#![forbid(unsafe_code)]

pub mod lint;
pub mod protocol;
