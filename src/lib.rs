//! Umbrella crate for the Canon reproduction: re-exports every workspace
//! crate so integration tests and examples can use one dependency.

#![forbid(unsafe_code)]

pub use canon;
pub use canon_balance;
pub use canon_chord;
pub use canon_hierarchy;
pub use canon_id;
pub use canon_kademlia;
pub use canon_overlay;
pub use canon_sim;
pub use canon_skipnet;
pub use canon_store;
pub use canon_symphony;
pub use canon_topology;
pub use canon_workloads;
