//! Per-node actor state and the protocol state machine.
//!
//! A node owns its identifier, link table, successor list, store shard and
//! RPC table; it reacts to delivered [`Payload`]s and timer expiries, and
//! the only externally visible effect of handling a message is the set of
//! messages it sends — the actor contract the runtime's determinism
//! argument rests on.
//!
//! Routing is *recursive*: a [`Payload::Request`] is forwarded greedily
//! hop by hop, and a node's forwarding decision is a function of its link
//! table alone (paper §2.2: "the link closest to, but not past, the
//! key"). The node holds no overlay and no derived copy of the table:
//! it applies canon-overlay's candidate rule under the clockwise metric
//! ([`closest_clockwise`]: one binary search over `links`, not a scan)
//! and keeps the hop only when it makes strict progress — exactly
//! the greedy rule the shared routing engine applies. No strictly-closer
//! link means this node is the key's responsible node (greedy local
//! minimum = clockwise predecessor), and it answers the origin directly.
//! Because every hop strictly decreases the clockwise distance to the
//! key, requests cannot cycle even across stale link tables mid-churn.
//!
//! The link table is a *row*: a `Vec<NodeId>` kept sorted, without
//! repeats and without the node's own id (the `row` helpers are its only
//! writers). Every hop reads it and churn alone writes it, so it is laid
//! out for the read — a handful of contiguous ids one binary search
//! covers — and a join or leave pays an insert or remove that shifts the
//! row's tail.
//!
//! A served PUT fans its replicas out along the successor list, which
//! the node keeps in clockwise order from itself without repeats: the
//! walk (`fan_out`) starts at the key's responsible member of
//! `{self} ∪ successor list` and takes `replication` members of that ring
//! (all of them, if it is shorter). It is canon-store's
//! [`canon_store::replica_successors`] on that ring, read off the list in
//! place.

use crate::cache::NodeCache;
use crate::clock::Tick;
use crate::framed::{Outbox, WireTally};
use crate::ledger::WorkLedger;
use crate::msg::{Command, Completion, JoinGrant, Op, Outcome, Payload, RpcResult};
use crate::rpc::{Pending, RetryDecision, RpcTable};
use crate::runtime::RuntimeConfig;
use crate::shard::Shard;
use crate::transport::{Envelope, Mailboxes, Transport};
use crate::wire::RequestHead;
use canon_id::NodeId;
use canon_overlay::closest_clockwise;
use canon_overlay::engine::HOP_LIMIT;
use canon_store::ContentId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Cachers the owner tracks per key for invalidation fan-out. A node is
/// never filled without being registered first — the bound trades fill
/// coverage (extra cache misses) for bounded owner memory, never
/// coherence.
const CACHE_REGISTRY_CAP: usize = 32;

/// Per-node message accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Requests forwarded to a next hop.
    pub forwarded: u64,
    /// Request messages sent toward a next hop: first hops and
    /// retransmissions at the origin plus every intermediate forward.
    pub requests_sent: u64,
    /// Requests served as the responsible node.
    pub served: u64,
    /// Replica writes accepted.
    pub replicas_stored: u64,
    /// Responses for unknown request ids (retransmission duplicates).
    pub duplicate_responses: u64,
    /// Sends to identifiers missing from the directory.
    pub undeliverable: u64,
    /// Sends the transport dropped (loss or partition).
    pub network_drops: u64,
    /// Messages discarded because this node has left.
    pub dropped_dead: u64,
    /// Requests dropped at the defensive hop budget.
    pub hop_limit_drops: u64,
    /// Retransmissions sent after a deadline expired.
    pub retransmits: u64,
    /// Shard backend errors: each crash-stopped this node (at most one).
    pub shard_faults: u64,
}

/// One routed request as it travels hop to hop (and as parked in
/// `NodeState::deferred`): `(origin, req, attempt, hops, op, path)`.
pub type RoutedRequest = (NodeId, u64, u32, u32, Op, Vec<NodeId>);

/// Where a routed request goes from this node ([`NodeState::route`]).
enum Step {
    /// Parked until this node's join grant arrives.
    Defer,
    /// On to this link.
    Forward(NodeId),
    /// Nowhere: this node is responsible for its key.
    Serve,
}

/// Identifier → mailbox slot. Only ever looked up, never walked, and its
/// keys are node identifiers — already uniform 64-bit hash outputs — so
/// one multiply ([`IdHasher`]) spreads them as well as SipHash would, at a
/// fraction of the cost of a look-up made on every send.
pub(crate) type Directory = HashMap<u64, usize, BuildHasherDefault<IdHasher>>;

/// Multiply-shift hashing for [`Directory`] keys: the key times an odd
/// constant, whose high bits the table reads as its tag and whose low bits
/// are a bijection of the key's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The network context a node handles messages in: shared mailboxes, the
/// transport, the worker's outbox when the transport frames (resolved once
/// per round), the id → slot directory, and the current tick.
pub(crate) struct Net<'a> {
    pub boxes: &'a Mailboxes<Payload>,
    pub transport: &'a dyn Transport,
    /// Where this round's sends go when [`Transport::framed`] holds for
    /// `transport`: the worker's outbox, which encodes each send and
    /// chains it into one open frame per `(destination slot, delivery
    /// tick)`, flushed at the end of the node's round (see
    /// [`crate::framed`]). `None` on an unframed stack: sends enter the
    /// mailboxes directly.
    pub outbox: Option<&'a RefCell<Outbox>>,
    pub directory: &'a Directory,
    pub now: Tick,
}

/// One node's complete state.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub id: NodeId,
    /// Out-links (the Crescendo link table) — the only routing state:
    /// [`NodeState::next_hop`] reads it directly. A sorted, duplicate-free
    /// row without this node's id, written only through [`row`].
    pub links: Vec<NodeId>,
    /// Global-ring successors, nearest first (the root-level leaf set;
    /// replication targets and leave-repair fallback): in strictly
    /// increasing clockwise distance from this node, so without repeats
    /// or this node's id, which [`fan_out`] relies on.
    pub succ_list: Vec<NodeId>,
    /// Global-ring predecessor.
    pub pred: Option<NodeId>,
    /// The store shard (a verified backend map behind a `u64` façade).
    pub shard: Shard,
    pub rpc: RpcTable,
    /// Armed deadlines as `(tick, req)`.
    timers: BinaryHeap<Reverse<(Tick, u64)>>,
    /// Per-sender message sequence (unique per send).
    seq: u64,
    /// Bootstrap contact, kept so join retransmissions can re-enter the
    /// overlay before any links exist.
    bootstrap: Option<NodeId>,
    /// Set when the node has left: everything delivered is discarded.
    pub dead: bool,
    /// Whether this node is an acknowledged ring member. Seeded nodes
    /// start joined; a blank spawn becomes joined when its join grant
    /// arrives ([`NodeState::apply_grant`]). Until then its link table is
    /// empty, so greedy routing would declare it responsible for *every*
    /// key — routed requests that arrive early are parked in `deferred`
    /// instead of being served from the empty table.
    pub joined: bool,
    /// Routed requests that arrived before this node joined, replayed in
    /// arrival order by [`NodeState::apply_grant`].
    pub deferred: Vec<RoutedRequest>,
    /// Wire accounting for the frames this node sent (all zero unless the
    /// transport stack frames).
    pub wire: WireTally,
    /// This node's share of the work ledger: its rounds, and what its
    /// drains read and its flushes wrote.
    pub ledger: WorkLedger,
    /// Model-checking fault: grant joins but "forget" to attach the
    /// handed-over shard entries (they are still removed locally) — the
    /// seeded lost-key-range bug the protocol checker's regression test
    /// must find, minimize and replay.
    #[cfg(feature = "model")]
    pub broken_handover: bool,
    pub stats: NodeStats,
    /// The en-route read cache ([`crate::cache`]); inert at capacity 0.
    pub cache: NodeCache,
    /// Owner side of cache coherence: per-key write stamps (versions),
    /// bumped on every value-changing PUT this node serves. Only
    /// maintained while caching is enabled.
    write_stamps: BTreeMap<u64, u64>,
    /// Owner side of cache coherence: the cachers registered per key —
    /// the invalidation fan-out set, capped at [`CACHE_REGISTRY_CAP`].
    cache_registry: BTreeMap<u64, BTreeSet<NodeId>>,
    pub completions: Vec<Completion>,
    /// Deterministic event log (only populated when recording).
    pub events: Vec<String>,
    record: bool,
    /// Copies a PUT places, primary included.
    replication: usize,
    succ_len: usize,
}

impl NodeState {
    pub fn new(
        id: NodeId,
        links: Vec<NodeId>,
        succ_list: Vec<NodeId>,
        pred: Option<NodeId>,
        joined: bool,
        cfg: &RuntimeConfig,
    ) -> NodeState {
        NodeState {
            id,
            links,
            succ_list,
            pred,
            shard: cfg.backend.create(id),
            rpc: RpcTable::new(cfg.rpc),
            timers: BinaryHeap::new(),
            seq: 0,
            bootstrap: None,
            dead: false,
            joined,
            deferred: Vec::new(),
            wire: WireTally::default(),
            ledger: WorkLedger::default(),
            #[cfg(feature = "model")]
            broken_handover: false,
            stats: NodeStats::default(),
            cache: NodeCache::new(cfg.cache),
            write_stamps: BTreeMap::new(),
            cache_registry: BTreeMap::new(),
            completions: Vec::new(),
            events: Vec::new(),
            record: cfg.record_events,
            replication: cfg.replication,
            succ_len: cfg.succ_list_len,
        }
    }

    /// Earliest *live* armed timer, if any. Timers for already-answered
    /// requests (and all timers of a departed node) are stale; they are
    /// discarded here so an idle check never waits out a deadline that can
    /// no longer matter.
    pub fn next_timer(&mut self) -> Option<Tick> {
        while let Some(&Reverse((t, req))) = self.timers.peek() {
            if self.dead || !self.rpc.is_inflight(req) {
                self.timers.pop();
                self.ledger.timer_pops += 1;
                continue;
            }
            return Some(t);
        }
        None
    }

    /// Whether a live timer is due at `now` — a stale head is discarded,
    /// never counted: it cannot wake the node.
    pub fn timer_due(&mut self, now: Tick) -> bool {
        self.next_timer().is_some_and(|t| t <= now)
    }

    fn log(&mut self, now: Tick, line: impl FnOnce() -> String) {
        if self.record {
            self.events.push(format!("t={now} {} {}", self.id, line()));
        }
    }

    /// The greedy next hop toward `key`: the distance-minimizing link,
    /// kept only on strict progress — the same rule the shared routing
    /// engine's greedy policy applies. `None` means this node is
    /// responsible.
    fn next_hop(&self, key: NodeId) -> Option<NodeId> {
        match closest_clockwise(&self.links, key) {
            Some((nb, d)) if d < self.id.clockwise_to(key) => Some(nb),
            _ => None,
        }
    }

    /// Sends `payload` to `to`, returning the delivery tick if the message
    /// entered a mailbox (or, framed, the outbox that flushes into one).
    fn send(&mut self, net: &Net<'_>, to: NodeId, payload: Payload) -> Option<Tick> {
        let (slot, deliver_at) = self.schedule(net, to)?;
        if let Some(outbox) = net.outbox {
            // Encoded now, onto the frame for its (destination, tick).
            outbox
                .borrow_mut()
                .stage(slot, to, deliver_at, self.seq, &payload);
        } else {
            let env = Envelope {
                from: self.id,
                to,
                sent_at: net.now,
                deliver_at,
                seq: self.seq,
                payload,
            };
            net.boxes.push(slot, env);
        }
        Some(deliver_at)
    }

    /// Decides the fate of the next message to `to`: its destination slot
    /// and delivery tick, or `None` (counted) if `to` is unknown or the
    /// network drops it. The fate is decided here, with the message's own
    /// sequence number, however the message then travels — encoded from a
    /// value, forwarded as received bytes, or queued unframed — so a
    /// framed run loses and delays exactly what an unframed run would.
    fn schedule(&mut self, net: &Net<'_>, to: NodeId) -> Option<(usize, Tick)> {
        let Some(&slot) = net.directory.get(&to.raw()) else {
            self.stats.undeliverable += 1;
            return None;
        };
        self.seq += 1;
        let Some(deliver_at) = net.transport.schedule(net.now, self.id, to, self.seq) else {
            self.stats.network_drops += 1;
            return None;
        };
        Some((slot, deliver_at))
    }

    /// Handles one delivered request read off a frame as its head.
    pub fn handle_routed(&mut self, net: &Net<'_>, head: &RequestHead<'_>) {
        if self.dead {
            self.stats.dropped_dead += 1;
            return;
        }
        self.route_head(net, head);
        self.crash_on_shard_fault(net);
    }

    /// Handles one delivered message.
    pub fn handle(&mut self, net: &Net<'_>, env: Envelope<Payload>) {
        if self.dead {
            self.stats.dropped_dead += 1;
            return;
        }
        match env.payload {
            Payload::Client(Command::Issue(op)) => self.open_rpc(net, op),
            Payload::Client(Command::Join { bootstrap }) => {
                self.bootstrap = Some(bootstrap);
                self.open_rpc(net, Op::Join { joiner: self.id });
            }
            Payload::Client(Command::Leave) => self.do_leave(net),
            Payload::Request {
                origin,
                req,
                attempt,
                hops,
                op,
                path,
            } => self.route_or_serve(net, (origin, req, attempt, hops, op, path)),
            Payload::Response { req, hops, result } => self.on_response(net, req, hops, result),
            Payload::Replicate { key, value } => {
                self.shard.insert(key, value);
                self.ledger.shard_puts += 1;
                self.stats.replicas_stored += 1;
            }
            Payload::RepairJoin { joined } => self.repair_join(net, joined),
            Payload::LeaveHandoff { departing, shard } => {
                self.log(net.now, || format!("handoff from {departing}"));
                self.ledger.shard_puts += shard.len() as u64;
                self.shard.extend(shard);
            }
            Payload::LeaveNotice {
                departing,
                successor,
                predecessor,
            } => self.repair_leave(net, departing, successor, predecessor),
            Payload::CacheFill {
                key,
                value,
                stamp,
                owner,
                cid,
                level,
            } => {
                let outcome = self.cache.fill(key, value, stamp, owner, cid, level);
                self.log(net.now, || {
                    format!("cache fill key={key} value={value} stamp={stamp} owner={owner} {outcome:?}")
                });
            }
            Payload::CacheInvalidate { key, owner, floor } => {
                self.cache.invalidate(key, owner, floor);
                self.log(net.now, || {
                    format!("cache invalidate key={key} owner={owner} floor={floor}")
                });
            }
        }
        self.crash_on_shard_fault(net);
    }

    /// Crash-stops this node, from inside its own round, if its shard met
    /// a backend error since the last check (the shard I/O policy in
    /// [`crate::shard`]): it goes dark as [`crate::Runtime::crash`] leaves
    /// a node, and the fault is counted. Checked before the node answers
    /// a request and after every message. Returns whether it crashed.
    fn crash_on_shard_fault(&mut self, net: &Net<'_>) -> bool {
        let Some(e) = self.shard.take_fault() else {
            return false;
        };
        self.dead = true;
        self.stats.shard_faults += 1;
        self.log(net.now, || format!("shard fault, crash-stop: {e}"));
        true
    }

    /// Fires every live timer due at or before `now`, returning how many
    /// fired. Deadlines of answered requests and of a departed node are
    /// dropped uncounted: nothing happens when they pass.
    pub fn fire_timers(&mut self, net: &Net<'_>) -> usize {
        let mut fired = 0;
        while self.timer_due(net.now) {
            let Some(Reverse((_, req))) = self.timers.pop() else {
                break;
            };
            self.ledger.timer_pops += 1;
            fired += 1;
            self.on_timer(net, req);
        }
        fired
    }

    // ----- RPC origin side -----

    fn open_rpc(&mut self, net: &Net<'_>, op: Op) {
        let (req, deadline) = self.rpc.open(op.clone(), net.now);
        self.timers.push(Reverse((deadline, req)));
        self.ledger.timer_pushes += 1;
        self.log(net.now, || {
            format!("open req={req} {:?} key={}", op.kind(), op.key_point())
        });
        self.transmit(net, req, 0, op);
    }

    /// Sends (or resends) the first hop of request `req`.
    fn transmit(&mut self, net: &Net<'_>, req: u64, attempt: u32, op: Op) {
        // A GET is answered from the origin's own en-route cache when it
        // holds a fresh copy — no network traffic at all.
        if let Op::Get { key } = op {
            if let Some(value) = self.cache.lookup(key) {
                self.log(net.now, || format!("cache hit key={key} (origin)"));
                let result = RpcResult::Value {
                    value: Some(value),
                    served_by: self.id,
                };
                self.on_response(net, req, 0, result);
                return;
            }
        }
        // A joining node has no links yet: its join request enters the
        // overlay through the bootstrap contact instead of its own links.
        let via_bootstrap = match (&op, self.bootstrap) {
            (Op::Join { .. }, Some(b)) if self.links.is_empty() => Some(b),
            _ => None,
        };
        let next = via_bootstrap.or_else(|| self.next_hop(op.key_point()));
        match next {
            None => {
                // This node is itself responsible: serve without touching
                // the network.
                let result = self.serve(net, op, &[]);
                if self.crash_on_shard_fault(net) {
                    return;
                }
                self.stats.served += 1;
                self.on_response(net, req, 0, result);
            }
            Some(nb) => {
                self.stats.requests_sent += 1;
                let path = if self.grows_path(&op) {
                    vec![self.id]
                } else {
                    Vec::new()
                };
                self.send(
                    net,
                    nb,
                    Payload::Request {
                        origin: self.id,
                        req,
                        attempt,
                        hops: 1,
                        op,
                        path,
                    },
                );
            }
        }
    }

    fn on_timer(&mut self, net: &Net<'_>, req: u64) {
        match self.rpc.retry(req, net.now) {
            RetryDecision::Stale => {}
            RetryDecision::Retry {
                op,
                attempt,
                deadline,
            } => {
                self.timers.push(Reverse((deadline, req)));
                self.ledger.timer_pushes += 1;
                self.stats.retransmits += 1;
                self.log(net.now, || format!("retry req={req} attempt={attempt}"));
                self.transmit(net, req, attempt, op);
            }
            RetryDecision::GiveUp(p) => {
                self.log(net.now, || format!("giveup req={req}"));
                self.complete(net.now, req, p, (Outcome::TimedOut, None, None), 0);
            }
        }
    }

    fn on_response(&mut self, net: &Net<'_>, req: u64, hops: u32, result: RpcResult) {
        let Some(p) = self.rpc.resolve(req) else {
            self.stats.duplicate_responses += 1;
            self.log(net.now, || format!("dup req={req}"));
            return;
        };
        let (outcome, responder, value) = match &result {
            RpcResult::Found { responsible } => (Outcome::Ok, Some(*responsible), None),
            RpcResult::Stored { primary, .. } => (Outcome::Ok, Some(*primary), None),
            RpcResult::Value { value, served_by } => (
                if value.is_some() {
                    Outcome::Ok
                } else {
                    Outcome::NotFound
                },
                Some(*served_by),
                *value,
            ),
            RpcResult::Granted(grant) => (Outcome::Ok, Some(grant.predecessor), None),
        };
        if let RpcResult::Granted(grant) = result {
            self.apply_grant(net, grant);
        }
        self.log(net.now, || {
            format!("done req={req} {outcome:?} hops={hops}")
        });
        self.complete(net.now, req, p, (outcome, responder, value), hops);
    }

    /// Records request `req`'s [`Completion`] at `now`: its outcome,
    /// responder and value, and the hops the answered attempt took.
    fn complete(
        &mut self,
        now: Tick,
        req: u64,
        p: Pending,
        (outcome, responder, value): (Outcome, Option<NodeId>, Option<u64>),
        hops: u32,
    ) {
        self.completions.push(Completion {
            origin: self.id,
            req,
            kind: p.op.kind(),
            key: p.op.key_point().raw(),
            outcome,
            responder,
            value,
            hops,
            attempts: p.attempt + 1,
            issued_at: p.issued_at,
            completed_at: now,
        });
    }

    // ----- server side -----

    /// The routing decision for a request, made once, on the fields every
    /// form of it has — a framed request's head or a typed request: the
    /// hop budget, join deferral, the en-route cache, then the greedy next
    /// hop. A request dropped at the budget or answered from the cache —
    /// both done here — has no next step.
    fn route(
        &mut self,
        net: &Net<'_>,
        origin: NodeId,
        req: u64,
        hops: u32,
        op: &Op,
    ) -> Option<Step> {
        if hops as usize > HOP_LIMIT {
            self.stats.hop_limit_drops += 1;
            return None;
        }
        // A neighbor can learn of a joiner (via `RepairJoin` from the
        // granter) and route to it before the joiner's own grant response
        // has arrived. Serving from the still-empty link table would claim
        // responsibility for every key; park the request until the grant
        // installs real links.
        if !self.joined && origin != self.id {
            return Some(Step::Defer);
        }
        // Path convergence (paper §5) funnels requests for a key through
        // shared intermediate nodes: a fresh en-route copy short-circuits
        // the rest of the route.
        if let Op::Get { key } = *op {
            if origin != self.id {
                if let Some(value) = self.cache.lookup(key) {
                    self.log(net.now, || {
                        format!("cache hit key={key} value={value} for {origin}")
                    });
                    let result = RpcResult::Value {
                        value: Some(value),
                        served_by: self.id,
                    };
                    self.send(net, origin, Payload::Response { req, hops, result });
                    return None;
                }
            }
        }
        Some(match self.next_hop(op.key_point()) {
            Some(nb) => Step::Forward(nb),
            None => Step::Serve,
        })
    }

    /// Routes a typed request: one that arrived unframed, or one parked
    /// until this node joined.
    fn route_or_serve(&mut self, net: &Net<'_>, request: RoutedRequest) {
        let (origin, req, attempt, hops, op, mut path) = request;
        match self.route(net, origin, req, hops, &op) {
            None => {}
            Some(Step::Defer) => self.deferred.push((origin, req, attempt, hops, op, path)),
            Some(Step::Forward(nb)) => {
                self.count_forward();
                self.ledger.forwarded_typed += 1;
                if self.grows_path(&op) {
                    path.push(self.id);
                }
                self.send(
                    net,
                    nb,
                    Payload::Request {
                        origin,
                        req,
                        attempt,
                        hops: hops + 1,
                        op,
                        path,
                    },
                );
            }
            Some(Step::Serve) => self.serve_request(net, origin, req, hops, op, &path),
        }
    }

    /// Routes a request read off a frame as its head. Forwarding it —
    /// what most hops do — passes on the bytes it arrived in (see
    /// [`Outbox::forward`]); only a request this node parks or serves, or
    /// one whose counts would change width, is decoded whole.
    fn route_head(&mut self, net: &Net<'_>, head: &RequestHead<'_>) {
        match self.route(net, head.origin, head.req, head.hops, &head.op) {
            None => {}
            Some(Step::Defer) => {
                self.ledger.decoded += 1;
                self.deferred.push(head.routed());
            }
            Some(Step::Forward(nb)) => {
                self.count_forward();
                let append = self.grows_path(&head.op).then_some(self.id);
                match net.outbox {
                    Some(outbox) if head.forwardable() => {
                        if let Some((slot, deliver_at)) = self.schedule(net, nb) {
                            outbox
                                .borrow_mut()
                                .forward(slot, nb, deliver_at, self.seq, head, append);
                        }
                    }
                    _ => {
                        self.ledger.decoded += 1;
                        self.ledger.forwarded_typed += 1;
                        self.send(net, nb, head.forwarded(append));
                    }
                }
            }
            Some(Step::Serve) => {
                self.ledger.decoded += 1;
                let (origin, req, _, hops, op, path) = head.routed();
                self.serve_request(net, origin, req, hops, op, &path);
            }
        }
    }

    /// Serves a request as its key's responsible node and answers its
    /// origin. `path` is the request's route (origin first).
    fn serve_request(
        &mut self,
        net: &Net<'_>,
        origin: NodeId,
        req: u64,
        hops: u32,
        op: Op,
        path: &[NodeId],
    ) {
        let result = self.serve(net, op, path);
        if self.crash_on_shard_fault(net) {
            return;
        }
        self.stats.served += 1;
        self.log(net.now, || format!("serve req={req} for {origin}"));
        if origin == self.id {
            self.on_response(net, req, hops, result);
        } else {
            self.send(net, origin, Payload::Response { req, hops, result });
        }
    }

    /// Reads `key` from the shard, counted.
    fn shard_get(&mut self, key: u64) -> Option<u64> {
        self.ledger.shard_gets += 1;
        self.shard.get(key)
    }

    /// Counts a request this node forwards.
    fn count_forward(&mut self) {
        self.stats.forwarded += 1;
        self.stats.requests_sent += 1;
    }

    /// Whether a request for `op` collects the path it takes: a GET, with
    /// caching on, so the responsible node can plant fills along it
    /// (paper §4.2).
    fn grows_path(&self, op: &Op) -> bool {
        self.cache.enabled() && matches!(op, Op::Get { .. })
    }

    /// After serving a GET, plants the value at every node the request
    /// passed through (paper §4.2's response-path population: the path
    /// crosses one proxy per level, so filling the path fills the proxy of
    /// every level crossed). A cacher is filled only if it can be
    /// registered for invalidation — never fill without registering, or an
    /// overwrite could leave a stale copy the fan-out cannot reach. The
    /// level annotation is the cacher's hop distance from this owner:
    /// path-convergence makes near-owner copies (small level) the ones
    /// that intercept traffic from everywhere, which is exactly what the
    /// cache's evict-largest-level-first policy keeps longest.
    fn send_cache_fills(&mut self, net: &Net<'_>, key: u64, value: u64, path: &[NodeId]) {
        if !self.cache.enabled() || path.is_empty() {
            return;
        }
        let stamp = self.write_stamps.get(&key).copied().unwrap_or(0);
        let cid = ContentId::of(&value.to_le_bytes()).raw();
        let total = path.len() as u32;
        for (i, &cacher) in path.iter().enumerate() {
            // A path is a handful of hops: a scan finds a repeat sooner
            // than a set could be built.
            if cacher == self.id || path[..i].contains(&cacher) {
                continue;
            }
            {
                let registered = self.cache_registry.entry(key).or_default();
                if !registered.contains(&cacher) {
                    if registered.len() >= CACHE_REGISTRY_CAP {
                        continue;
                    }
                    registered.insert(cacher);
                }
            }
            let level = total - i as u32;
            self.send(
                net,
                cacher,
                Payload::CacheFill {
                    key,
                    value,
                    stamp,
                    owner: self.id,
                    cid,
                    level,
                },
            );
        }
    }

    /// Invalidates every registered cacher of `key`, flooring out every
    /// fill this owner ever stamped — sent when responsibility for the key
    /// moves (join handover, graceful leave), so entries from the old
    /// owner cannot outlive its authority. A *crashed* owner sends
    /// nothing; that window is the protocol checker's
    /// invalidate-racing-crash scenario.
    fn invalidate_cachers(&mut self, net: &Net<'_>, key: u64) {
        let Some(cachers) = self.cache_registry.remove(&key) else {
            return;
        };
        let floor = self.write_stamps.remove(&key).unwrap_or(0) + 1;
        for cacher in cachers {
            self.send(
                net,
                cacher,
                Payload::CacheInvalidate {
                    key,
                    owner: self.id,
                    floor,
                },
            );
        }
    }

    /// Serves `op` as the responsible node. `path` is the request's route
    /// (origin first), the fan-out set for cache fills on GETs.
    fn serve(&mut self, net: &Net<'_>, op: Op, path: &[NodeId]) -> RpcResult {
        match op {
            Op::Lookup { .. } => RpcResult::Found {
                responsible: self.id,
            },
            Op::Put { key, value } => {
                // The old value only matters to cache coherence (a verified
                // read, so not taken when nothing will look at it).
                let caching = self.cache.enabled();
                let prev = if caching { self.shard_get(key) } else { None };
                self.shard.insert(key, value);
                self.ledger.shard_puts += 1;
                if caching && prev != Some(value) {
                    // Bump the key's version; on an overwrite, tell every
                    // registered cacher *before* the Stored ack is sent, so
                    // on a FIFO link the invalidation is never behind the
                    // ack (read-your-writes).
                    let stamp = self.write_stamps.entry(key).or_insert(0);
                    *stamp += 1;
                    let floor = *stamp;
                    if prev.is_some() {
                        for cacher in self.cache_registry.remove(&key).unwrap_or_default() {
                            self.send(
                                net,
                                cacher,
                                Payload::CacheInvalidate {
                                    key,
                                    owner: self.id,
                                    floor,
                                },
                            );
                        }
                    }
                }
                // The walk reads the successor list while `send` needs the
                // whole node: the list is moved out for the loop (no copy,
                // no allocation) and put back.
                let succ_list = std::mem::take(&mut self.succ_list);
                let mut replicas = 0u32;
                for s in fan_out(self.replication, self.id, &succ_list, NodeId::new(key)) {
                    if s != self.id
                        && self
                            .send(net, s, Payload::Replicate { key, value })
                            .is_some()
                    {
                        replicas += 1;
                    }
                }
                self.succ_list = succ_list;
                RpcResult::Stored {
                    primary: self.id,
                    replicas,
                }
            }
            Op::Get { key } => {
                let value = self.shard_get(key);
                if let Some(v) = value {
                    self.send_cache_fills(net, key, v, path);
                }
                RpcResult::Value {
                    value,
                    served_by: self.id,
                }
            }
            Op::Join { joiner } => RpcResult::Granted(self.grant_join(net, joiner)),
        }
    }

    // ----- join/leave repair (the canon-sim churn protocol, as messages) -----

    /// As the joiner's predecessor: hand over state, adopt the newcomer,
    /// and notify the neighborhood.
    fn grant_join(&mut self, net: &Net<'_>, joiner: NodeId) -> JoinGrant {
        // Primary keys in [joiner, old successor) move: those are exactly
        // the keys whose responsible node (largest id ≤ key) becomes the
        // joiner. Replica copies held for other primaries (clockwise
        // distance at or past the old successor) stay put.
        let j_dist = self.id.clockwise_to(joiner);
        let s_dist = self.succ_list.first().map(|&s| self.id.clockwise_to(s));
        let me = self.id;
        let handed: Vec<(u64, u64)> = self
            .shard
            .entries()
            .into_iter()
            .filter(|&(k, _)| {
                let d = me.clockwise_to(NodeId::new(k));
                d >= j_dist && s_dist.is_none_or(|s| d < s)
            })
            .collect();
        for (k, _) in &handed {
            self.shard.remove(*k);
            // Responsibility moves with the key: cached copies stamped by
            // this owner must not outlive its authority (the newcomer's
            // fills carry its own identity and fresh stamps).
            self.invalidate_cachers(net, *k);
        }
        #[allow(unused_mut)]
        let mut grant = JoinGrant {
            predecessor: self.id,
            links: self.links.clone(),
            succ_list: self.succ_list.clone(),
            shard: handed,
        };
        #[cfg(feature = "model")]
        if self.broken_handover {
            // Seeded bug: the handed range was removed above but never
            // reaches the joiner — a lost key range under Fixed(1).
            grant.shard.clear();
        }
        // Adopt the newcomer as immediate successor.
        let notify: BTreeSet<NodeId> = self
            .links
            .iter()
            .chain(self.succ_list.iter())
            .copied()
            .chain(self.pred)
            .filter(|&n| n != self.id && n != joiner)
            .collect();
        // Distance-sorted insertion (not `insert(0, _)`): under concurrent
        // joins of adjacent ids a second grant can arrive after a nearer
        // successor is already known, and the newcomer is then *not* the
        // head of the list.
        self.insert_succ(joiner);
        row::insert(&mut self.links, self.id, joiner);
        self.log(net.now, || format!("grant join {joiner}"));
        for n in notify {
            self.send(net, n, Payload::RepairJoin { joined: joiner });
        }
        grant
    }

    /// As the joiner: install the granted state.
    fn apply_grant(&mut self, net: &Net<'_>, grant: JoinGrant) {
        self.pred = Some(grant.predecessor);
        self.links = row::granted(&grant, self.id);
        // The granter's list is in its own clockwise order; the joiner
        // keeps the list in its own (the order the PUT fan-out walks).
        let me = self.id;
        self.succ_list = grant.succ_list;
        self.succ_list.retain(|&n| n != me);
        self.succ_list.sort_by_key(|&s| me.clockwise_to(s));
        self.succ_list.truncate(self.succ_len);
        self.ledger.shard_puts += grant.shard.len() as u64;
        self.shard.extend(grant.shard);
        self.joined = true;
        self.log(net.now, || format!("joined after {}", grant.predecessor));
        // Replay requests that were routed here before the grant arrived,
        // in arrival order, now that the link table can actually route them.
        for request in std::mem::take(&mut self.deferred) {
            self.route_or_serve(net, request);
        }
    }

    /// A neighbor learned that `joined` is live.
    fn repair_join(&mut self, _net: &Net<'_>, joined: NodeId) {
        if joined == self.id {
            return;
        }
        self.insert_succ(joined);
        let better_pred = match self.pred {
            None => true,
            Some(p) => p != joined && p.clockwise_to(joined) < p.clockwise_to(self.id),
        };
        if better_pred {
            self.pred = Some(joined);
        }
        // If the newcomer became the immediate successor it must be
        // linked, or the ring has a gap.
        if self.succ_list.first() == Some(&joined) {
            row::insert(&mut self.links, self.id, joined);
        }
    }

    /// A neighbor learned that `departing` left; `successor`/`predecessor`
    /// are the departed node's, for table mending.
    fn repair_leave(
        &mut self,
        net: &Net<'_>,
        departing: NodeId,
        successor: NodeId,
        predecessor: NodeId,
    ) {
        self.log(net.now, || format!("leave notice {departing}"));
        if row::remove(&mut self.links, departing) {
            row::insert(&mut self.links, self.id, successor);
        }
        if let Some(pos) = self.succ_list.iter().position(|&s| s == departing) {
            self.succ_list.remove(pos);
            if successor != self.id {
                self.insert_succ(successor);
            }
        }
        if self.pred == Some(departing) {
            self.pred = (predecessor != self.id).then_some(predecessor);
        }
    }

    /// Graceful departure: hand the shard to the predecessor (which
    /// becomes responsible for this node's key range under largest-id-≤-key
    /// responsibility), notify the neighborhood, and go dark.
    fn do_leave(&mut self, net: &Net<'_>) {
        self.dead = true;
        // The node's own open requests can no longer be answered (a dead
        // node discards their responses): each ends here, counted.
        for (req, p) in self.rpc.inflight_entries() {
            self.rpc.resolve(req);
            self.log(net.now, || format!("abandon req={req}"));
            self.complete(net.now, req, p, (Outcome::Abandoned, None, None), 0);
        }
        // Graceful departure keeps the cache coherent: every registered
        // cacher is invalidated before the shard moves to the heir.
        let registered: Vec<u64> = self.cache_registry.keys().copied().collect();
        for key in registered {
            self.invalidate_cachers(net, key);
        }
        let succ = self.succ_list.first().copied();
        if let Some(heir) = self.pred.or(succ) {
            let shard: Vec<(u64, u64)> = self.shard.entries();
            self.shard.clear();
            self.send(
                net,
                heir,
                Payload::LeaveHandoff {
                    departing: self.id,
                    shard,
                },
            );
        }
        let successor = succ.unwrap_or(self.id);
        let predecessor = self.pred.unwrap_or(self.id);
        let targets: BTreeSet<NodeId> = self
            .links
            .iter()
            .chain(self.succ_list.iter())
            .copied()
            .chain(self.pred)
            .filter(|&n| n != self.id)
            .collect();
        self.log(net.now, || "leaving".to_owned());
        for t in targets {
            self.send(
                net,
                t,
                Payload::LeaveNotice {
                    departing: self.id,
                    successor,
                    predecessor,
                },
            );
        }
    }

    /// Inserts `n` into the successor list, keeping it sorted by clockwise
    /// distance from this node and capped at the configured length.
    fn insert_succ(&mut self, n: NodeId) {
        if n == self.id || self.succ_list.contains(&n) {
            return;
        }
        self.succ_list.push(n);
        let me = self.id;
        self.succ_list.sort_by_key(|&s| me.clockwise_to(s));
        self.succ_list.truncate(self.succ_len);
    }
}

/// The replica fan-out of a PUT for `point` served by `me`: the cycle
/// `[me, succ_list[0], succ_list[1], …]` from the key's responsible member
/// on that mini ring, `replication` members long (capped at the ring).
///
/// `succ_list` is in clockwise order from `me`, so the cycle *is* the
/// ring `{me} ∪ succ_list` read from `me`, and its responsible member for
/// `point` is the last one no farther clockwise from `me` than `point`:
/// one binary search on distance finds it. That is
/// [`canon_store::replica_successors`] on that ring, walked in place — no
/// ring built, nothing sorted, nothing allocated. The responsible node for the
/// key is usually `me` (the walk then starts at `me`), but a successor
/// the node has learnt of can already cover the key mid-churn.
pub(crate) fn fan_out(
    replication: usize,
    me: NodeId,
    succ_list: &[NodeId],
    point: NodeId,
) -> impl Iterator<Item = NodeId> + '_ {
    debug_assert!(
        succ_list
            .iter()
            .try_fold(0, |prev, &s| {
                let d = me.clockwise_to(s);
                (d > prev).then_some(d)
            })
            .is_some(),
        "successor list of {me} not strictly clockwise from it: {succ_list:?}"
    );
    let to_point = me.clockwise_to(point);
    let start = succ_list.partition_point(|&s| me.clockwise_to(s) <= to_point);
    std::iter::once(me)
        .chain(succ_list.iter().copied())
        .cycle()
        .skip(start)
        .take(replication.min(succ_list.len() + 1))
}

/// The link row's writers. Each keeps the row sorted, free of repeats and
/// free of the owning node's id, which is what
/// [`closest_clockwise`]'s binary search and the grant a node hands a
/// joiner rely on.
pub(crate) mod row {
    use crate::msg::JoinGrant;
    use canon_id::NodeId;

    /// The row holding `ids` (in any order, repeats allowed) less `me`.
    pub fn build(ids: impl IntoIterator<Item = NodeId>, me: NodeId) -> Vec<NodeId> {
        let mut row: Vec<NodeId> = ids.into_iter().filter(|&n| n != me).collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    /// A joiner's row from its grant: the granter's links plus the granter
    /// itself, in order.
    pub fn granted(grant: &JoinGrant, me: NodeId) -> Vec<NodeId> {
        build(
            grant
                .links
                .iter()
                .copied()
                .chain(std::iter::once(grant.predecessor)),
            me,
        )
    }

    /// Adds `n` in order, unless it is `me` or already present.
    pub fn insert(row: &mut Vec<NodeId>, me: NodeId, n: NodeId) {
        if n == me {
            return;
        }
        if let Err(at) = row.binary_search(&n) {
            row.insert(at, n);
        }
    }

    /// Removes `n`, returning whether it was present.
    pub fn remove(row: &mut Vec<NodeId>, n: NodeId) -> bool {
        match row.binary_search(&n) {
            Ok(at) => {
                row.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{fan_out, row};
    use crate::msg::JoinGrant;
    use canon_id::ring::SortedRing;
    use canon_id::NodeId;
    use canon_store::replica_successors;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// A PUT's fan-out walked off the successor list is canon-store's
        /// successor placement on the ring `{me} ∪ succ_list`, for counts
        /// below and above the ring size, successor lists of 0–12 ids in
        /// clockwise order from `me`, and keys anywhere: before `me`, on a
        /// member, and past a successor that already covers them.
        #[test]
        fn the_fan_out_is_the_successor_placement_on_the_successor_ring(
            count in 0usize..15,
            me in any::<u64>(),
            succ in vec(any::<u64>(), 0..13),
            on_member in any::<bool>(),
            key in any::<u64>(),
        ) {
            let me = NodeId::new(me);
            let mut succ_list: Vec<NodeId> =
                succ.into_iter().map(NodeId::new).filter(|&s| s != me).collect();
            succ_list.sort_by_key(|&s| me.clockwise_to(s));
            succ_list.dedup();
            let point = match succ_list.get(key as usize % (succ_list.len() + 1)) {
                Some(&member) if on_member => member,
                _ => NodeId::new(key),
            };
            let walked: Vec<NodeId> = fan_out(count, me, &succ_list, point).collect();
            let ring = SortedRing::new(succ_list.iter().copied().chain([me]).collect());
            prop_assert_eq!(walked, replica_successors(&ring, point, count));
        }

        /// Random inserts, removes and rebuilds from a grant over a small
        /// id universe (so they collide, and often name the node itself):
        /// after each, the row is the ascending walk of a `BTreeSet`
        /// model — sorted, without repeats, without `me` — and a rebuilt
        /// row holds the granter.
        #[test]
        fn the_link_row_tracks_its_set_model(
            me in 0u64..12,
            ops in vec((0u8..3, 0u64..12, vec(0u64..12, 0..6)), 0..48),
        ) {
            let me = NodeId::new(me);
            let mut links = Vec::new();
            let mut model = BTreeSet::new();
            for (op, n, granted) in ops {
                let n = NodeId::new(n);
                match op {
                    0 => {
                        row::insert(&mut links, me, n);
                        if n != me {
                            model.insert(n);
                        }
                    }
                    1 => prop_assert_eq!(row::remove(&mut links, n), model.remove(&n)),
                    _ => {
                        let grant = JoinGrant {
                            predecessor: n,
                            links: granted.into_iter().map(NodeId::new).collect(),
                            succ_list: Vec::new(),
                            shard: Vec::new(),
                        };
                        links = row::granted(&grant, me);
                        model = grant.links.iter().copied().chain([n]).collect();
                        model.remove(&me);
                        prop_assert!(n == me || links.binary_search(&n).is_ok());
                    }
                }
                prop_assert!(links.windows(2).all(|w| w[0] < w[1]), "{:?}", links);
                prop_assert!(!links.contains(&me));
                prop_assert_eq!(&links, &model.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
