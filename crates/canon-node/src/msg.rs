//! The wire vocabulary of the node runtime.
//!
//! Three kinds of traffic share the mailboxes:
//!
//! * [`Command`]s — client work injected by the harness at an origin node
//!   (they do not cross the network and cannot be lost);
//! * routed RPCs — a [`Payload::Request`] forwarded greedily hop by hop
//!   toward the key's responsible node, answered by a single
//!   [`Payload::Response`] sent straight back to the origin;
//! * one-way maintenance messages — replication fan-out and the join/leave
//!   repair notices ported from `canon-sim`'s churn protocol.
//!
//! Every request carries the origin's request id; the origin's RPC table
//! ([`crate::rpc`]) matches responses, detects duplicates, and drives
//! retries. A finished request becomes a [`Completion`] record — the unit
//! of the zero-loss accounting (`injected == completed`, zero duplicates)
//! that the tests and the serving benchmark check.

use crate::clock::Tick;
use canon_id::NodeId;

/// A client operation served by the DHT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Locate the node responsible for `key`.
    Lookup {
        /// The key to locate.
        key: u64,
    },
    /// Store `value` under `key` on the responsible node and its replicas.
    Put {
        /// The key to store under.
        key: u64,
        /// The value to store.
        value: u64,
    },
    /// Fetch the value stored under `key`.
    Get {
        /// The key to fetch.
        key: u64,
    },
    /// Locate the predecessor of `joiner` and obtain a join grant.
    Join {
        /// The joining node.
        joiner: NodeId,
    },
}

impl Op {
    /// The identifier-space point the request is routed toward.
    pub fn key_point(&self) -> NodeId {
        match *self {
            Op::Lookup { key } | Op::Put { key, .. } | Op::Get { key } => NodeId::new(key),
            Op::Join { joiner } => joiner,
        }
    }

    /// The operation's kind tag.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Lookup { .. } => OpKind::Lookup,
            Op::Put { .. } => OpKind::Put,
            Op::Get { .. } => OpKind::Get,
            Op::Join { .. } => OpKind::Join,
        }
    }
}

/// Kind tag for [`Op`] (used in completion records and stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A lookup request.
    Lookup,
    /// A put request.
    Put,
    /// A get request.
    Get,
    /// A join locate request.
    Join,
}

/// The state handed from a predecessor to a joining node: everything the
/// newcomer needs to start serving (the message-level port of the join
/// half of `canon-sim`'s maintenance protocol).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinGrant {
    /// The granting node — the joiner's ring predecessor.
    pub predecessor: NodeId,
    /// The predecessor's link table, for the newcomer to bootstrap its own.
    pub links: Vec<NodeId>,
    /// The predecessor's successor list *before* the join — exactly the
    /// newcomer's successor list, since it sits immediately after the
    /// predecessor.
    pub succ_list: Vec<NodeId>,
    /// Shard entries whose responsibility moves to the newcomer.
    pub shard: Vec<(u64, u64)>,
}

/// The result carried by a [`Payload::Response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcResult {
    /// Lookup: the responsible node.
    Found {
        /// The node responsible for the key.
        responsible: NodeId,
    },
    /// Put: stored on the primary, replicated to `replicas` successors.
    Stored {
        /// The responsible node that stored the value.
        primary: NodeId,
        /// Replicate messages fanned out to successors.
        replicas: u32,
    },
    /// Get: the value (if present) and the serving node.
    Value {
        /// The stored value, if any.
        value: Option<u64>,
        /// The node that answered.
        served_by: NodeId,
    },
    /// Join: the predecessor's grant.
    Granted(JoinGrant),
}

/// Client work injected at an origin node by the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Issue `op` as an RPC owned by this node.
    Issue(Op),
    /// Join the overlay through `bootstrap`.
    Join {
        /// A live node the newcomer knows.
        bootstrap: NodeId,
    },
    /// Leave gracefully: hand the shard to the node inheriting the key
    /// range and notify the neighborhood.
    Leave,
}

/// Everything a mailbox can deliver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Locally injected client work.
    Client(Command),
    /// A routed RPC in flight toward the responsible node.
    Request {
        /// The node that owns the RPC.
        origin: NodeId,
        /// Origin-scoped request id.
        req: u64,
        /// Which (re)transmission this is, 0-based.
        attempt: u32,
        /// Hops taken so far.
        hops: u32,
        /// The operation.
        op: Op,
        /// The nodes the request passed through, in hop order — the
        /// fill fan-out set for en-route caching. Empty unless the op is
        /// a GET and caching is enabled (see [`crate::cache`]); bounded
        /// by the hop limit.
        path: Vec<NodeId>,
    },
    /// The answer, sent directly back to the origin.
    Response {
        /// The request id being answered.
        req: u64,
        /// Hops the request took to reach the responder.
        hops: u32,
        /// The result.
        result: RpcResult,
    },
    /// Replication fan-out from a primary to a successor (one-way: the
    /// primary acks the client without waiting for replicas; durability is
    /// audited by the protocol checker, not acknowledged per copy).
    // audit: fire-and-forget
    Replicate {
        /// The key to store.
        key: u64,
        /// The value to store.
        value: u64,
    },
    /// Join repair notice: `joined` is now live (sent by its predecessor
    /// to the neighborhood; best-effort, no reply expected).
    // audit: fire-and-forget
    RepairJoin {
        /// The newly joined node.
        joined: NodeId,
    },
    /// A leaving node hands its shard to the node inheriting its key range
    /// (its predecessor, under largest-id-≤-key responsibility). The
    /// departing node cannot wait for an ack — it is already dark; the
    /// checker's crash-before-handover-ack scenario probes this window.
    // audit: fire-and-forget
    LeaveHandoff {
        /// The departing node.
        departing: NodeId,
        /// Its shard entries.
        shard: Vec<(u64, u64)>,
    },
    /// Leave repair notice: `departing` is gone; its successor and
    /// predecessor are attached so recipients can mend their tables
    /// (best-effort, no reply expected).
    // audit: fire-and-forget
    LeaveNotice {
        /// The departing node.
        departing: NodeId,
        /// The departing node's ring successor.
        successor: NodeId,
        /// The departing node's ring predecessor.
        predecessor: NodeId,
    },
    /// En-route cache fill: after serving a GET, the responsible node
    /// plants the value at every node the request passed through (§4.2's
    /// response-path population; one-way, best-effort — a lost fill only
    /// costs a future cache miss).
    // audit: fire-and-forget
    CacheFill {
        /// The key the value is stored under.
        key: u64,
        /// The value served.
        value: u64,
        /// The owner's write stamp (version) for the key.
        stamp: u64,
        /// The responsible node issuing the fill.
        owner: NodeId,
        /// Raw content id of the value bytes; the cacher verifies it
        /// before accepting the fill.
        cid: u64,
        /// Hops from the owner at fill time — the entry's eviction level.
        level: u32,
    },
    /// Owner-driven cache invalidation, sent to every registered cacher
    /// when a PUT overwrites the key (one-way: the owner acks the PUT
    /// without waiting for cachers; coherence under races is explored by
    /// the protocol checker's invalidation scenario).
    // audit: fire-and-forget
    CacheInvalidate {
        /// The overwritten key.
        key: u64,
        /// The invalidating owner.
        owner: NodeId,
        /// Fills from this owner stamped below the floor are stale.
        floor: u64,
    },
}

impl Payload {
    /// A stable label per variant, indexed by [`Payload::kind_index`].
    pub const KIND_NAMES: [&'static str; 9] = [
        "client",
        "request",
        "response",
        "replicate",
        "repair-join",
        "leave-handoff",
        "leave-notice",
        "cache-fill",
        "cache-invalidate",
    ];

    /// The variant's position in declaration order — the index the wire
    /// layer's per-payload-kind byte accounting keeps its counters under.
    pub fn kind_index(&self) -> usize {
        match self {
            Payload::Client(_) => 0,
            Payload::Request { .. } => 1,
            Payload::Response { .. } => 2,
            Payload::Replicate { .. } => 3,
            Payload::RepairJoin { .. } => 4,
            Payload::LeaveHandoff { .. } => 5,
            Payload::LeaveNotice { .. } => 6,
            Payload::CacheFill { .. } => 7,
            Payload::CacheInvalidate { .. } => 8,
        }
    }
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered successfully.
    Ok,
    /// Answered: the key had no stored value (gets only).
    NotFound,
    /// Every retry timed out.
    TimedOut,
    /// The origin left the overlay before an answer came.
    Abandoned,
}

/// One finished request, recorded at its origin — the unit of zero-loss
/// accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The origin node.
    pub origin: NodeId,
    /// The origin-scoped request id.
    pub req: u64,
    /// The operation kind.
    pub kind: OpKind,
    /// The routed key point.
    pub key: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// The answering node, if any.
    pub responder: Option<NodeId>,
    /// The fetched value (gets only).
    pub value: Option<u64>,
    /// Hops the answered attempt took.
    pub hops: u32,
    /// Transmissions used (1 = no retries).
    pub attempts: u32,
    /// When the RPC was opened.
    pub issued_at: Tick,
    /// When it completed.
    pub completed_at: Tick,
}

impl Completion {
    /// Round-trip latency in ticks.
    pub fn latency(&self) -> Tick {
        self.completed_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_route_toward_their_key() {
        assert_eq!(Op::Lookup { key: 9 }.key_point(), NodeId::new(9));
        assert_eq!(Op::Put { key: 3, value: 1 }.key_point(), NodeId::new(3));
        assert_eq!(Op::Get { key: 4 }.key_point(), NodeId::new(4));
        let j = NodeId::new(77);
        assert_eq!(Op::Join { joiner: j }.key_point(), j);
        assert_eq!(Op::Join { joiner: j }.kind(), OpKind::Join);
    }

    #[test]
    fn completion_latency_is_ticks_between_issue_and_finish() {
        let c = Completion {
            origin: NodeId::new(1),
            req: 0,
            kind: OpKind::Lookup,
            key: 5,
            outcome: Outcome::Ok,
            responder: Some(NodeId::new(2)),
            value: None,
            hops: 3,
            attempts: 1,
            issued_at: 10,
            completed_at: 25,
        };
        assert_eq!(c.latency(), 15);
    }

    #[test]
    fn every_payload_variant_has_its_own_kind_index_and_label() {
        use crate::wire::samples::sample_payloads;
        let mut seen = [false; Payload::KIND_NAMES.len()];
        for p in sample_payloads(canon_id::rng::Seed(1), 1) {
            let name = Payload::KIND_NAMES[p.kind_index()];
            assert!(!seen[p.kind_index()], "{name} indexed twice");
            seen[p.kind_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "a kind index has no variant");
        let mut names = Payload::KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), seen.len(), "duplicate kind label");
    }
}
