//! canon-node: a concurrent node runtime that serves live DHT traffic.
//!
//! Everything else in this workspace evaluates Canonical Crescendo
//! *statically* — build a graph, route over it, measure. This crate runs
//! the protocol: every node is an actor with its own mailbox, link table
//! and store shard, executing concurrently over `canon-par` worker threads
//! and communicating **only** through a [`transport::Transport`]. On top
//! of the actor substrate sit a small RPC layer and three protocols:
//!
//! * recursive key lookup, forwarded hop by hop by the same greedy rule
//!   the simulators' routing engine applies ([`canon_overlay::closest`]
//!   plus strict progress) — each node routes from its own link table
//!   and holds no overlay;
//! * replicated GET/PUT: a PUT's `k` copies go to the key's responsible
//!   node and its successors, `canon-store`'s
//!   [`canon_store::replica_successors`] rule walked off the successor
//!   list, with per-key replication status in the RPC table, over
//!   pluggable verified [`shard`] backends;
//! * the join/leave repair protocol of `canon-sim`, as actual messages.
//!
//! The runtime is **deterministic by construction**: time is a capability
//! ([`clock::Clock`]), delivery order is a pure function of send
//! coordinates, and rounds execute in lock-step — so a run under the
//! [`clock::VirtualClock`] is byte-identical across worker-thread counts,
//! while the same code serves the timed benchmark in `bench/` under a
//! wall clock. See [`runtime`] for the full argument.
//!
//! Module map:
//!
//! * [`cache`] — the en-route read cache on the GET path: level-annotated
//!   entries filled along converged routes, owner-driven invalidation,
//!   per-node event counters;
//! * [`clock`] — the [`clock::Clock`] trait and the virtual lock-step
//!   clock;
//! * [`transport`] — envelopes, mailboxes, the in-process channel
//!   transport and the deterministic fault-injecting wrapper;
//! * [`msg`] — the wire vocabulary and completion records;
//! * [`wire`] — canon-wire codec impls pinning the binary layout of the
//!   wire vocabulary, plus size-bound sample generators;
//! * [`framed`] — the framing layer: length-prefixed frames, batching,
//!   per-link byte accounting;
//! * [`rpc`] — request ids, deadlines, bounded retry with exponential
//!   backoff, the in-flight table;
//! * [`node`] — per-node actor state and the protocol state machine;
//! * [`shard`] — the node's store shard over a pluggable canon-store
//!   backend;
//! * [`runtime`] — round-based lock-step execution and cluster-wide
//!   accounting;
//! * [`ledger`] — the work ledger: what the runtime did, counted per
//!   node, mailbox and worker;
//! * [`cluster`] — seeding a runtime from a pre-built overlay graph;
//! * `model` (feature `model`) — single-step delivery, state fingerprints
//!   and fault hooks for canon-audit's protocol model checker.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(missing_docs)]

pub mod cache;
pub mod clock;
pub mod cluster;
pub mod framed;
pub mod ledger;
#[cfg(feature = "model")]
pub mod model;
pub mod msg;
pub mod node;
pub mod rpc;
pub mod runtime;
pub mod shard;
pub mod transport;
pub mod wire;

pub use cache::{CacheConfig, CacheSummary, CacheTally, NodeCache};
pub use clock::{Clock, Tick, VirtualClock};
pub use cluster::from_graph;
pub use framed::{FramedTransport, LinkBytes, WireSummary};
pub use ledger::WorkLedger;
pub use msg::{Command, Completion, JoinGrant, Op, OpKind, Outcome, Payload, RpcResult};
pub use node::NodeStats;
pub use rpc::{RetryDecision, RpcConfig, RpcTable};
pub use runtime::{ReplicationStatus, Runtime, RuntimeConfig, Summary};
pub use shard::{Shard, ShardBackend};
pub use transport::{ChannelTransport, Envelope, FaultyTransport, Mailboxes, Transport};
