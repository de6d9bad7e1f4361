//! Model-checking support for canon-audit's protocol explorer (only
//! compiled under the `model` feature).
//!
//! The production runtime executes *rounds*: every node with due work
//! drains all its due messages at once, in `(deliver_at, from, seq)`
//! order. The model checker instead wants to pick **one** pending message
//! at a time and explore every delivery order. This module supplies the
//! pieces that make that exploration deterministic and comparable:
//!
//! * the clock and transport are the production ones: a
//!   [`crate::clock::VirtualClock`], which the single-step hook advances
//!   to each delivered message's quoted tick, and a
//!   [`crate::transport::FaultyTransport`] with loss 0 and jitter 0 over a
//!   one-tick channel — fixed latency plus an explicit partition set. The
//!   *only* nondeterminism left in a model run is the checker's choice of
//!   which pending message to deliver next;
//! * [`NodeSnapshot`] — a per-node protocol-state extract used both for
//!   invariant checking and for state fingerprints;
//! * [`fingerprint`] — an order-insensitive, tick-insensitive hash of the
//!   whole cluster state, so the explorer can recognize that two delivery
//!   orders converged and prune the duplicate subtree.
//!
//! Fingerprints deliberately exclude every [`crate::clock::Tick`], every
//! absolute sequence number and every hop count: those vary with the
//! delivery order even when the protocol state is identical. Per-pair FIFO
//! *order* of pending messages is preserved (messages are hashed grouped by
//! `(to, from)` in send order), because it determines which future
//! schedules are possible. Wire vocabulary — payloads, operations, parked
//! requests — is hashed through its codec encoding rather than walked by
//! hand, so a new variant or field is fingerprinted the moment it can be
//! sent.

use crate::msg::{Completion, Payload};
use crate::rpc::Pending;
use crate::transport::Envelope;
use canon_id::hash::Fnv;
use canon_id::NodeId;
use canon_wire::WireEncode;

/// One node's protocol-visible state, extracted by
/// [`crate::runtime::Runtime::model_snapshot`] for invariant checking and
/// fingerprinting.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// The node's identifier.
    pub id: NodeId,
    /// Its link table, sorted by id.
    pub links: Vec<NodeId>,
    /// Its successor list, nearest first.
    pub succ_list: Vec<NodeId>,
    /// Its predecessor, if known.
    pub pred: Option<NodeId>,
    /// Whether the node has left or crashed.
    pub dead: bool,
    /// Whether the node is an acknowledged ring member.
    pub joined: bool,
    /// Shard contents, sorted by key.
    pub shard: Vec<(u64, u64)>,
    /// In-flight RPCs as `(req, pending)`, in id order.
    pub inflight: Vec<(u64, Pending)>,
    /// Request ids ever allocated by this node (monotone, never reused).
    pub allocated: u64,
    /// Routed requests parked until the node joins, in arrival order, as
    /// `(origin, req, attempt, hops, op, path)`.
    pub deferred: Vec<crate::node::RoutedRequest>,
    /// Completion records recorded at this origin.
    pub completions: Vec<Completion>,
    /// Cached en-route entries as
    /// `(key, value, owner, stamp, level, lru_rank)`, sorted by key (see
    /// [`crate::cache::NodeCache::snapshot`]). Empty when caching is
    /// disabled.
    pub cache: Vec<(u64, u64, NodeId, u64, u32, u64)>,
    /// Outstanding invalidation tombstones as `(key, owner, floor)`.
    pub cache_tombstones: Vec<(u64, NodeId, u64)>,
}

/// Feeds `v`'s wire encoding, behind its length. The codec already walks
/// every variant of the wire vocabulary, and what it writes decodes back
/// to `v`, so equal encodings mean equal values.
fn hash_wire<T: WireEncode>(h: &mut Fnv, v: &T) {
    let bytes = canon_wire::to_bytes(v);
    h.word(bytes.len() as u64);
    h.bytes(&bytes);
}

fn hash_id(h: &mut Fnv, id: NodeId) {
    h.word(id.raw());
}

fn hash_opt_id(h: &mut Fnv, id: Option<NodeId>) {
    match id {
        None => h.word(0xA0),
        Some(id) => {
            h.word(0xA1);
            hash_id(h, id);
        }
    }
}

fn hash_completion(h: &mut Fnv, c: &Completion) {
    hash_id(h, c.origin);
    h.word(c.kind as u64);
    h.word(c.key);
    h.word(match c.outcome {
        crate::msg::Outcome::Ok => 1,
        crate::msg::Outcome::NotFound => 2,
        crate::msg::Outcome::TimedOut => 3,
        crate::msg::Outcome::Abandoned => 4,
    });
    hash_opt_id(h, c.responder);
    h.word(c.value.map_or(u64::MAX, |v| v));
    h.word(u64::from(c.value.is_some()));
}

/// An order-insensitive, tick-insensitive fingerprint of the whole cluster
/// state: per-node protocol state plus pending messages grouped by
/// `(destination, sender)` pair in send (FIFO) order. Two explored states
/// with equal fingerprints behave identically under every future schedule,
/// so the explorer prunes one of them.
pub fn fingerprint(snaps: &[NodeSnapshot], pending: &[(usize, Envelope<Payload>)]) -> u64 {
    let mut h = Fnv::default();
    h.word(snaps.len() as u64);
    for s in snaps {
        hash_id(&mut h, s.id);
        h.word(u64::from(s.dead));
        h.word(u64::from(s.joined));
        h.word(s.links.len() as u64);
        for &l in &s.links {
            hash_id(&mut h, l);
        }
        h.word(s.succ_list.len() as u64);
        for &x in &s.succ_list {
            hash_id(&mut h, x);
        }
        hash_opt_id(&mut h, s.pred);
        h.word(s.shard.len() as u64);
        for &(k, v) in &s.shard {
            h.word(k);
            h.word(v);
        }
        h.word(s.allocated);
        h.word(s.inflight.len() as u64);
        for (req, p) in &s.inflight {
            h.word(*req);
            h.word(u64::from(p.attempt));
            hash_wire(&mut h, &p.op);
        }
        h.word(s.deferred.len() as u64);
        for (origin, req, attempt, _hops, op, path) in &s.deferred {
            hash_wire(
                &mut h,
                &Payload::Request {
                    origin: *origin,
                    req: *req,
                    attempt: *attempt,
                    hops: 0,
                    op: op.clone(),
                    path: path.clone(),
                },
            );
        }
        // Cache state shapes future hits, fills and evictions, so it
        // splits states; the LRU *rank* (not the absolute tick) keeps the
        // fingerprint schedule-insensitive for equivalent recency orders.
        h.word(s.cache.len() as u64);
        for &(key, value, owner, stamp, level, lru_rank) in &s.cache {
            h.word(key);
            h.word(value);
            hash_id(&mut h, owner);
            h.word(stamp);
            h.word(u64::from(level));
            h.word(lru_rank);
        }
        h.word(s.cache_tombstones.len() as u64);
        for &(key, owner, floor) in &s.cache_tombstones {
            h.word(key);
            hash_id(&mut h, owner);
            h.word(floor);
        }
        // Completions are write-only output; hash them as a sorted
        // multiset so resolution order (which varies with the schedule
        // without affecting future behavior) does not split states.
        let mut cs: Vec<u64> = s
            .completions
            .iter()
            .map(|c| {
                let mut ch = Fnv::default();
                hash_completion(&mut ch, c);
                ch.finish()
            })
            .collect();
        cs.sort_unstable();
        h.word(cs.len() as u64);
        for c in cs {
            h.word(c);
        }
    }
    // Pending messages: group by (destination slot, sender), preserving
    // per-pair send order, which `(deliver_at, from, seq)` order already
    // gives us within a pair under the model transport's fixed latency.
    h.word(pending.len() as u64);
    let mut keyed: Vec<(usize, u64, u64, &Envelope<Payload>)> = pending
        .iter()
        .map(|(slot, env)| (*slot, env.from.raw(), env.seq, env))
        .collect();
    keyed.sort_by_key(|&(slot, from, seq, _)| (slot, from, seq));
    let mut prev: Option<(usize, u64)> = None;
    let mut pos: u64 = 0;
    for (slot, from, _seq, env) in keyed {
        pos = if prev == Some((slot, from)) {
            pos + 1
        } else {
            0
        };
        prev = Some((slot, from));
        h.word(slot as u64);
        h.word(from);
        h.word(pos);
        let mut payload = env.payload.clone();
        if let Payload::Request { hops, .. } | Payload::Response { hops, .. } = &mut payload {
            *hops = 0;
        }
        hash_wire(&mut h, &payload);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_ticks_and_absolute_seq() {
        let env = |seq, deliver_at| Envelope {
            from: NodeId::new(1),
            to: NodeId::new(2),
            sent_at: 0,
            deliver_at,
            seq,
            payload: Payload::Replicate { key: 7, value: 9 },
        };
        let a = fingerprint(&[], &[(0, env(5, 10))]);
        let b = fingerprint(&[], &[(0, env(99, 3))]);
        assert_eq!(a, b, "seq/tick must not affect the fingerprint");
        let c = fingerprint(
            &[],
            &[(
                0,
                Envelope {
                    payload: Payload::Replicate { key: 8, value: 9 },
                    ..env(5, 10)
                },
            )],
        );
        assert_ne!(a, c, "payload content must affect the fingerprint");
    }

    #[test]
    fn fingerprint_preserves_per_pair_fifo_order() {
        let env = |seq, key| Envelope {
            from: NodeId::new(1),
            to: NodeId::new(2),
            sent_at: 0,
            deliver_at: seq,
            seq,
            payload: Payload::Replicate { key, value: 0 },
        };
        let ab = fingerprint(&[], &[(0, env(1, 10)), (0, env(2, 20))]);
        let ba = fingerprint(&[], &[(0, env(1, 20)), (0, env(2, 10))]);
        assert_ne!(ab, ba, "per-pair message order is behaviorally relevant");
    }
}
