//! The concurrent node runtime: round-based lock-step execution of a whole
//! cluster of actors over worker threads.
//!
//! # Execution model
//!
//! The runtime repeatedly executes **rounds**. One round, at tick *t*:
//! every node with due work — in parallel over `canon-par` workers —
//! drains the messages due at or before *t* from its mailbox, reads them
//! in delivery order (a frame whole or not at all, a framed request only
//! as far as its head, which is all a hop that routes it on needs), handles
//! them, and fires its due RPC timers; on a framed stack the frames the
//! round's nodes flushed are then exchanged into mailboxes in one pass
//! (see [`crate::framed`]). Between rounds the runtime finds
//! the earliest pending event (mailbox delivery or timer) and advances the
//! [`Clock`] to it, so a virtual clock jumps straight from event to event
//! while a real clock waits out the gap.
//!
//! Which nodes have due work, and when the next event is, are read off a
//! **wake-up index** rather than asked of every node. Its mail half is the
//! mailboxes' tick calendar (see [`crate::transport`]): per delivery tick,
//! the slots holding a bucket due then, entered once per bucket when the
//! bucket is created. Its timer half is one `(tick, slot)` entry per node
//! with a live RPC deadline, republished whenever a node's round (or a
//! crash) moves it. A round takes every calendar tick at or before *t*
//! whole — one map removal per tick, not one per bucket — adds the
//! deadlines due by *t*, sorts, and visits those slots; each visited slot
//! then takes its due buckets without touching the calendar again. The
//! next event is the earlier of the two fronts. So a round costs what it
//! delivers, per node as much as per cluster — a node round's share of the
//! index is one list append when its mail's bucket is created — and an
//! idle round costs two map look-ups, whatever the cluster's size. Debug
//! builds check both answers against a scan of every node, so every test
//! run is a differential test of the index.
//!
//! # Why this is deterministic
//!
//! Four properties make a run a pure function of its inputs, independent
//! of the number of worker threads:
//!
//! 1. transports quote delivery at least one tick in the future, so the
//!    set of messages due in round *t* is fixed before the round starts —
//!    no worker can add same-round work;
//! 2. mailboxes drain in the arrival-order-independent key order
//!    `(deliver_at, from, seq)`, so a node drains the same messages in the
//!    same order no matter how unframed sends interleaved (see
//!    [`crate::transport`]);
//! 3. nodes share no state — each is locked by exactly one worker per
//!    round, and everything it does is a function of its own state and the
//!    drained messages. On a framed stack a node writes nothing outside
//!    itself during the round but its worker's round buffer, and framed
//!    mail needs no arrival-order argument at all: it reaches mailboxes
//!    only after every node of the round is done, from one thread, in
//!    `(slot, deliver_at, from, first seq)` order — a function of the
//!    frames alone — so even the bytes of a mailbox are the same on any
//!    worker count;
//! 4. the list of nodes a round visits is a sorted function of mailbox
//!    contents and published deadlines at the start of the round — both
//!    fixed by (1) to (3), the framed mail by the previous round's
//!    exchange — never of the order entries arrived in the index (a
//!    calendar tick's slots are in arrival order, and sorted once taken)
//!    or of the worker count. Which emptied bucket the exchange reuses for
//!    a new one changes its capacity, never its contents.
//!
//! `tests/determinism.rs` checks the consequence: the same seed produces a
//! byte-identical event log on 1, 4 and 8 worker threads.

use crate::cache::{CacheConfig, CacheSummary};
use crate::clock::{Clock, Tick};
use crate::framed::{self, LinkBytes, Outbox, RoundBuffer, WireSummary};
use crate::ledger::WorkLedger;
use crate::msg::{Command, Completion, Outcome, Payload};
use crate::node::{row, Directory, Net, NodeState, NodeStats};
use crate::rpc::RpcConfig;
use crate::shard::ShardBackend;
use crate::transport::{lock_unpoisoned, Envelope, Key, Mailboxes, Transport};
use crate::wire::{self, RequestHead};
use canon_id::ring::SortedRing;
use canon_id::NodeId;
use canon_par::par_chunks;
use canon_store::replica_successors;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

thread_local! {
    /// The outbox of the worker thread running a node's round, which the
    /// node's framed sends go into (see [`crate::framed`] for why it is the
    /// worker's and not the node's).
    static OUTBOX: RefCell<Outbox> = RefCell::default();
    /// The worker's round buffer: the frames its nodes flush in a round,
    /// until the exchange that ends the round queues them (see
    /// [`crate::framed`]).
    static ROUND: Cell<RoundBuffer> = Cell::default();
    /// The worker's buffer for the messages a node's round drains, reused
    /// from round to round; framed mail is decoded into it, all but the
    /// requests, which go to [`HEADS`].
    static DRAINED: Cell<Vec<Envelope<Payload>>> = Cell::default();
    /// The worker's buffer for the framed requests a node's round drains,
    /// read as their heads, with their keys (see [`recycle`]).
    static HEADS: Cell<Vec<(Key, RequestHead<'static>)>> = Cell::default();
}

/// An empty vector in `heads`' allocation, whatever the lifetime its
/// items borrow for: the worker keeps its buffer past the bucket whose
/// bytes a round's heads borrow. Collecting an emptied vector's iterator
/// into a vector of a type of the same layout reuses the allocation.
#[allow(
    clippy::unnecessary_filter_map,
    reason = "the map is what changes the lifetime; `filter` keeps it"
)]
fn recycle<'b>(mut heads: Vec<(Key, RequestHead<'_>)>) -> Vec<(Key, RequestHead<'b>)> {
    heads.clear();
    heads.into_iter().filter_map(|_| None).collect()
}

/// Cluster-wide node parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Per-node RPC retry/deadline policy.
    pub rpc: RpcConfig,
    /// Copies of every stored key, primary included (default 3: the
    /// primary and 2 successor replicas). A PUT places them on the
    /// responsible node and its successors, so a node can place, and later
    /// repair, at most `succ_list_len + 1` of them: [`Runtime::new`]
    /// rejects more.
    pub replication: usize,
    /// Storage backend for each node's shard.
    pub backend: ShardBackend,
    /// Successor-list length (the root-ring leaf set).
    pub succ_list_len: usize,
    /// En-route read cache per node (the default, capacity 0, disables
    /// caching: no path accumulation, no fill or invalidation traffic).
    pub cache: CacheConfig,
    /// Record a per-node event log (for determinism checks; off for
    /// throughput runs).
    pub record_events: bool,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            rpc: RpcConfig::default(),
            replication: 3,
            backend: ShardBackend::Memory,
            succ_list_len: 8,
            cache: CacheConfig::default(),
            record_events: false,
        }
    }
}

/// Ground truth about one key's replication across the cluster, computed
/// by [`Runtime::replication_status`].
#[derive(Clone, Debug)]
pub struct ReplicationStatus {
    /// The key inspected.
    pub key: u64,
    /// The `replication` nodes expected to hold the key on the current
    /// live ring (responsible node first).
    pub expected: Vec<NodeId>,
    /// Live nodes actually holding the key.
    pub holders: Vec<NodeId>,
    /// Whether every expected replica holds the key.
    pub satisfied: bool,
}

/// Cluster-wide accounting, aggregated over every node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Client requests injected (each owes exactly one completion).
    pub injected: u64,
    /// Completions recorded at origins.
    pub completed: u64,
    /// Completions that succeeded.
    pub ok: u64,
    /// Gets answered with no stored value.
    pub not_found: u64,
    /// Requests whose every retry timed out.
    pub timed_out: u64,
    /// Requests whose origin left the overlay before an answer came.
    pub abandoned: u64,
    /// Duplicate responses detected (must be zero on a loss-free
    /// transport).
    pub duplicates: u64,
    /// Requests forwarded (intermediate hops).
    pub forwarded: u64,
    /// Requests served by responsible nodes.
    pub served: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Messages the transport dropped.
    pub network_drops: u64,
    /// Messages discarded by departed nodes.
    pub dropped_dead: u64,
    /// Sends to unknown identifiers.
    pub undeliverable: u64,
    /// Requests dropped at the hop budget.
    pub hop_limit_drops: u64,
    /// Nodes crash-stopped by a shard backend error.
    pub shard_faults: u64,
}

impl Summary {
    /// The zero-loss invariant: every injected request completed exactly
    /// once and nothing completed twice.
    pub fn zero_loss(&self) -> bool {
        self.injected == self.completed && self.duplicates == 0
    }
}

/// A cluster of node actors sharing a [`Clock`], a [`Transport`] and a set
/// of mailboxes.
pub struct Runtime {
    clock: Arc<dyn Clock>,
    transport: Arc<dyn Transport>,
    config: RuntimeConfig,
    states: Vec<Mutex<NodeState>>,
    boxes: Mailboxes<Payload>,
    /// Identifier → mailbox slot, asked once per message sent. Hashed, and
    /// outside the determinism argument above all the same: it is only
    /// ever looked up (`get`, `contains_key`, `insert`), never iterated, so
    /// no order can leak out of it, and it is not part of the model
    /// checker's snapshot.
    directory: Directory,
    /// Each node's earliest live RPC deadline as `(tick, slot)` — the
    /// timer half of the wake-up index (the mail half is inside
    /// [`Mailboxes`]). Kept equal to [`NodeState::next_timer`] by
    /// [`Runtime::republishing`].
    deadlines: Mutex<BTreeSet<(Tick, usize)>>,
    /// The workers' share of the work ledger, handed over by each round's
    /// exchange.
    worker_ledger: Mutex<WorkLedger>,
    /// Sequence counter for injected client envelopes.
    client_seq: u64,
    /// Client requests injected so far.
    injected: u64,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.states.len())
            .field("now", &self.clock.now())
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// An empty runtime; add nodes with [`Runtime::spawn`] or build a whole
    /// cluster with [`crate::cluster::from_graph`].
    ///
    /// # Panics
    ///
    /// Panics if `config.replication` is outside
    /// `1..=config.succ_list_len + 1`: a node places its copies on itself
    /// and its successor list, so it could not store more, and
    /// [`Runtime::replication_status`] would never be satisfied.
    pub fn new(
        clock: Arc<dyn Clock>,
        transport: Arc<dyn Transport>,
        config: RuntimeConfig,
    ) -> Runtime {
        assert!(
            (1..=config.succ_list_len + 1).contains(&config.replication),
            "replication {} is outside 1..={}: a node stores copies on itself and \
             its {} successors only",
            config.replication,
            config.succ_list_len + 1,
            config.succ_list_len
        );
        Runtime {
            clock,
            transport,
            config,
            states: Vec::new(),
            boxes: Mailboxes::new(0),
            directory: Default::default(),
            deadlines: Mutex::default(),
            worker_ledger: Mutex::default(),
            client_seq: 0,
            injected: 0,
        }
    }

    /// The cluster's clock.
    pub fn clock(&self) -> &dyn Clock {
        self.clock.as_ref()
    }

    /// The cluster configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Number of nodes ever hosted (departed nodes keep their slot).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the runtime hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Every hosted identifier, in slot order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.states.iter().map(|s| lock_unpoisoned(s).id).collect()
    }

    /// Client requests injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Adds a blank node (no links, no data) with the given identifier and
    /// returns its slot. The node participates once it joins through
    /// [`Command::Join`] or is seeded directly via
    /// [`Runtime::spawn_seeded`].
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already hosted.
    pub fn spawn(&mut self, id: NodeId) -> usize {
        self.spawn_inner(id, Vec::new(), Vec::new(), None, false)
    }

    /// Adds a node with pre-seeded links, successor list and predecessor
    /// (cluster construction), returning its slot.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already hosted.
    pub fn spawn_seeded(
        &mut self,
        id: NodeId,
        links: BTreeSet<NodeId>,
        succ_list: Vec<NodeId>,
        pred: Option<NodeId>,
    ) -> usize {
        self.spawn_inner(id, row::build(links, id), succ_list, pred, true)
    }

    /// Adds a node whose link table is `links`, a row as [`row`] writes
    /// them, returning its slot.
    pub(crate) fn spawn_inner(
        &mut self,
        id: NodeId,
        links: Vec<NodeId>,
        succ_list: Vec<NodeId>,
        pred: Option<NodeId>,
        joined: bool,
    ) -> usize {
        #[allow(clippy::panic, reason = "the documented `# Panics` contract")]
        let Entry::Vacant(seat) = self.directory.entry(id.raw()) else {
            panic!("node {id} already hosted")
        };
        let slot = self.boxes.grow();
        seat.insert(slot);
        let mut state = NodeState::new(id, links, succ_list, pred, joined, &self.config);
        if self.transport.framed() {
            // A seeded node's first frames go to its links and successors.
            state
                .wire
                .reserve(state.links.len() + state.succ_list.len());
        }
        self.states.push(Mutex::new(state));
        slot
    }

    /// Makes room for `more` nodes to be spawned without the node table,
    /// mailboxes or directory growing on the way.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.states.reserve(more);
        self.boxes.reserve(more);
        self.directory.reserve(more);
    }

    /// Injects a client command at `origin`, due in the next round.
    /// Injection bypasses the transport: client work cannot be lost.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not hosted.
    pub fn inject(&mut self, origin: NodeId, cmd: Command) {
        #[allow(clippy::panic, reason = "the documented `# Panics` contract")]
        let slot = *self
            .directory
            .get(&origin.raw())
            // Injecting at an unhosted node is harness misuse, not a runtime state.
            .unwrap_or_else(|| panic!("unknown origin {origin}"));
        if matches!(cmd, Command::Issue(_) | Command::Join { .. }) {
            self.injected += 1;
        }
        self.client_seq += 1;
        let now = self.clock.now();
        self.boxes.push(
            slot,
            Envelope {
                from: origin,
                to: origin,
                sent_at: now,
                deliver_at: now,
                seq: self.client_seq,
                payload: Payload::Client(cmd),
            },
        );
    }

    /// Executes one round at the current tick: every node with due work,
    /// in parallel, drains its due messages and fires its due timers; then
    /// the frames the round's nodes flushed are exchanged into mailboxes.
    /// Returns the number of events processed.
    pub fn step(&self) -> usize {
        let now = self.clock.now();
        // The calendar's due ticks, taken whole: the round drains every
        // slot they list (`take_woken`).
        let mut active = Vec::new();
        self.boxes.take_due_slots(now, &mut active);
        active.extend(
            lock_unpoisoned(&self.deadlines)
                .range(..=(now, usize::MAX))
                .map(|&(_, slot)| slot),
        );
        active.sort_unstable();
        active.dedup();
        #[cfg(debug_assertions)]
        self.assert_active_is_exact(&active, now);
        let (events, mut rounds): (Vec<usize>, Vec<RoundBuffer>) =
            par_chunks(&active, |_, slots| {
                let mut round = ROUND.take();
                let events = slots
                    .iter()
                    .map(|&slot| self.process_cell(slot, now, &mut round))
                    .sum::<usize>();
                (events, round)
            })
            .into_iter()
            .unzip();
        let grown = framed::exchange(&self.boxes, &mut rounds);
        if grown != WorkLedger::default() {
            lock_unpoisoned(&self.worker_ledger).add(&grown);
        }
        // One buffer stays with this thread, the worker of a one-worker run.
        ROUND.set(rounds.swap_remove(0));
        events.into_iter().sum()
    }

    /// One node's round: its due mail, taken out of its mailbox and read —
    /// each frame whole or not at all, a framed request as its head — then
    /// handled in `(deliver_at, from, seq)` order, and then its due
    /// timers. A framed stack's emptied bucket goes back to `round` for
    /// the exchange to reuse.
    fn process_cell(&self, slot: usize, now: Tick, round: &mut RoundBuffer) -> usize {
        let mut due = self.boxes.take_woken(slot, now);
        let mut state = lock_unpoisoned(&self.states[slot]);
        state.ledger.node_rounds += 1;
        let events = self.node_round(slot, &mut state, now, round, |state, net| {
            let Some(due) = &mut due else {
                return state.fire_timers(net);
            };
            let (mut envs, mut heads) = (DRAINED.take(), HEADS.take());
            let (failed, decoded) = due.read_into(&mut envs, &mut heads, wire::read_framed);
            state.wire.record_decode_errors(failed);
            state.ledger.decoded += decoded;
            state.ledger.heads_read += heads.len() as u64;
            let handled = envs.len() + heads.len();
            if heads.is_empty() {
                // All of an unframed stack's mail: nothing to merge, and
                // the loop stays as lean as the handling it repeats.
                for env in envs.drain(..) {
                    state.handle(net, env);
                }
            } else {
                // Each buffer is in key order; merged, they are the order.
                let mut routed = heads.iter().peekable();
                for env in envs.drain(..) {
                    let key = env.key();
                    while let Some((_, head)) = routed.next_if(|(at, _)| *at < key) {
                        state.handle_routed(net, head);
                    }
                    state.handle(net, env);
                }
                for (_, head) in routed {
                    state.handle_routed(net, head);
                }
            }
            DRAINED.set(envs);
            HEADS.set(recycle(heads));
            handled + state.fire_timers(net)
        });
        if let Some(due) = due {
            round.recycle(due);
        }
        events
    }

    /// Runs `body` on a locked node as one atomic unit. With a framing
    /// transport in the stack the node's sends are encoded into the
    /// worker's outbox ([`Net::outbox`]), one open frame per destination
    /// and tick, instead of entering mailboxes; when `body` returns each
    /// frame is written into `round` as bytes — all while the caller holds
    /// the node's lock. No mailbox sees the frames until the caller passes
    /// `round` to [`framed::exchange`].
    fn node_round<R>(
        &self,
        slot: usize,
        state: &mut NodeState,
        now: Tick,
        round: &mut RoundBuffer,
        body: impl FnOnce(&mut NodeState, &Net<'_>) -> R,
    ) -> R {
        let net = Net {
            boxes: &self.boxes,
            transport: self.transport.as_ref(),
            outbox: None,
            directory: &self.directory,
            now,
        };
        self.republishing(slot, state, |state| {
            if !self.transport.framed() {
                return body(state, &net);
            }
            OUTBOX.with(|outbox| {
                let net = Net {
                    outbox: Some(outbox),
                    ..net
                };
                let out = body(state, &net);
                framed::flush_outbox(now, state, &mut outbox.borrow_mut(), round);
                out
            })
        })
    }

    /// Runs `change` on a locked node and, if it moved the node's earliest
    /// live deadline, moves the node's entry in `deadlines` with it. Every
    /// path that can arm, answer or kill a timer goes through here (a
    /// node's round, and the model checker's crash), so between calls the
    /// published deadline *is* [`NodeState::next_timer`].
    fn republishing<R>(
        &self,
        slot: usize,
        state: &mut NodeState,
        change: impl FnOnce(&mut NodeState) -> R,
    ) -> R {
        let before = state.next_timer();
        let out = change(state);
        let after = state.next_timer();
        if before != after {
            let mut deadlines = lock_unpoisoned(&self.deadlines);
            if let Some(t) = before {
                deadlines.remove(&(t, slot));
            }
            if let Some(t) = after {
                deadlines.insert((t, slot));
            }
        }
        out
    }

    /// The earliest pending event (mailbox delivery or armed timer) across
    /// the cluster, or `None` if the cluster is idle: the earlier front of
    /// the wake-up index's two halves.
    pub fn next_event(&self) -> Option<Tick> {
        let timer = lock_unpoisoned(&self.deadlines).first().map(|&(t, _)| t);
        let next = self.boxes.earliest_due().into_iter().chain(timer).min();
        #[cfg(debug_assertions)]
        assert_eq!(next, self.scan_next_event(), "wake-up index out of date");
        next
    }

    /// The reference [`Runtime::step`] is checked against in debug builds:
    /// scanning every node, exactly the members of `active` have mail or a
    /// live timer due at `now`.
    #[cfg(debug_assertions)]
    fn assert_active_is_exact(&self, active: &[usize], now: Tick) {
        for (slot, state) in self.states.iter().enumerate() {
            let due = self.boxes.next_due(slot).is_some_and(|t| t <= now)
                || lock_unpoisoned(state).timer_due(now);
            assert_eq!(
                due,
                active.binary_search(&slot).is_ok(),
                "slot {slot} at tick {now}: wake-up index disagrees with the scan"
            );
        }
    }

    /// The reference [`Runtime::next_event`] is checked against in debug
    /// builds: the earliest mailbox delivery or live timer found by asking
    /// every node.
    #[cfg(debug_assertions)]
    fn scan_next_event(&self) -> Option<Tick> {
        self.states
            .iter()
            .enumerate()
            .flat_map(|(slot, state)| {
                let timer = lock_unpoisoned(state).next_timer();
                self.boxes.next_due(slot).into_iter().chain(timer)
            })
            .min()
    }

    /// Runs rounds, advancing the clock between them, until no message is
    /// queued and no live timer is armed — the graceful-shutdown drain.
    /// Returns the number of rounds in which anything happened.
    pub fn run_until_idle(&self) -> u64 {
        let mut rounds = 0;
        loop {
            if self.step() > 0 {
                rounds += 1;
            }
            match self.next_event() {
                Some(t) => {
                    let now = self.clock.now();
                    self.clock.advance_to(t.max(now + 1));
                }
                None => break,
            }
        }
        rounds
    }

    /// All completion records, in slot order then per-origin issue order.
    pub fn completions(&self) -> Vec<Completion> {
        self.states
            .iter()
            .flat_map(|s| lock_unpoisoned(s).completions.clone())
            .collect()
    }

    /// The concatenated per-node event logs (slot order). Only populated
    /// when [`RuntimeConfig::record_events`] is set; under a virtual clock
    /// this log is byte-identical for a given seed across worker-thread
    /// counts.
    pub fn event_log(&self) -> Vec<String> {
        self.states
            .iter()
            .flat_map(|s| lock_unpoisoned(s).events.clone())
            .collect()
    }

    /// Request messages sent toward a next hop across the cluster
    /// ([`NodeStats::requests_sent`]), as `(attempts, hops)`. The two are
    /// equal: a live node only ever attempts hops over links it holds, so
    /// there is no dead-candidate attempt to tell apart from a hop taken.
    pub fn hop_totals(&self) -> (usize, usize) {
        let sent: u64 = self
            .states
            .iter()
            .map(|s| lock_unpoisoned(s).stats.requests_sent)
            .sum();
        (sent as usize, sent as usize)
    }

    /// Aggregates the cluster-wide [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut sum = Summary {
            injected: self.injected,
            ..Summary::default()
        };
        for s in &self.states {
            let state = lock_unpoisoned(s);
            let NodeStats {
                forwarded,
                requests_sent: _,
                served,
                replicas_stored: _,
                duplicate_responses,
                undeliverable,
                network_drops,
                dropped_dead,
                hop_limit_drops,
                retransmits,
                shard_faults,
            } = state.stats;
            sum.forwarded += forwarded;
            sum.served += served;
            sum.duplicates += duplicate_responses;
            sum.undeliverable += undeliverable;
            sum.network_drops += network_drops;
            sum.dropped_dead += dropped_dead;
            sum.hop_limit_drops += hop_limit_drops;
            sum.retransmits += retransmits;
            sum.shard_faults += shard_faults;
            sum.completed += state.completions.len() as u64;
            for c in &state.completions {
                match c.outcome {
                    Outcome::Ok => sum.ok += 1,
                    Outcome::NotFound => sum.not_found += 1,
                    Outcome::TimedOut => sum.timed_out += 1,
                    Outcome::Abandoned => sum.abandoned += 1,
                }
            }
        }
        sum
    }

    /// Aggregates cluster-wide cache accounting from every node's
    /// [`crate::cache::CacheTally`]. Kept out of [`Summary`] (like
    /// [`Runtime::wire_summary`]) so cached and uncached runs of the same
    /// workload produce byte-identical core summaries.
    pub fn cache_summary(&self) -> CacheSummary {
        let mut sum = CacheSummary::default();
        for s in &self.states {
            let state = lock_unpoisoned(s);
            let t = state.cache.tally();
            sum.entries += state.cache.len() as u64;
            sum.tally.hits += t.hits;
            sum.tally.misses += t.misses;
            sum.tally.fills += t.fills;
            sum.tally.stale_fills += t.stale_fills;
            sum.tally.corrupt_fills += t.corrupt_fills;
            sum.tally.invalidations += t.invalidations;
            sum.tally.evictions += t.evictions;
        }
        sum
    }

    /// The work ledger: what the cluster's nodes, mailboxes and workers
    /// did so far, counted (see [`crate::ledger`]). Kept out of
    /// [`Summary`] like [`Runtime::wire_summary`]: it counts the
    /// implementation's work, not the protocol's outcome.
    pub fn work_ledger(&self) -> WorkLedger {
        let mut sum = self.boxes.ledger();
        sum.add(&lock_unpoisoned(&self.worker_ledger));
        for s in &self.states {
            let state = lock_unpoisoned(s);
            sum.add(&state.ledger);
            sum.tally_growth += state.wire.grown;
            let cache = state.cache.tally();
            sum.cache_probes += cache.hits + cache.misses;
            sum.cache_fills += cache.fills;
            sum.cache_evictions += cache.evictions;
        }
        sum
    }

    /// Per-node forwarding load (requests forwarded as an intermediate
    /// hop), in slot order — the hot-spot measurement: its
    /// maximum is the node a flash crowd funnels through.
    pub fn forwarding_loads(&self) -> Vec<u64> {
        self.states
            .iter()
            .map(|s| lock_unpoisoned(s).stats.forwarded)
            .collect()
    }

    /// Aggregated wire-layer accounting when the transport stack frames
    /// (see [`crate::framed`]), or `None` for an unframed stack: the sum of
    /// every node's tally of the frames it sent, as
    /// [`Runtime::cache_summary`] sums cache tallies. Kept out of
    /// [`Summary`] so framed and unframed runs of the same workload
    /// produce byte-identical summaries.
    pub fn wire_summary(&self) -> Option<WireSummary> {
        if !self.transport.framed() {
            return None;
        }
        let states: Vec<_> = self.states.iter().map(lock_unpoisoned).collect();
        Some(WireSummary::sum(states.iter().map(|state| &state.wire)))
    }

    /// Per-link wire byte counters when the transport stack frames, keyed
    /// by directed `(from, to)` node pairs — each sender's per-destination
    /// tally under its own identifier; `None` for an unframed stack.
    pub fn link_bytes(&self) -> Option<BTreeMap<(NodeId, NodeId), LinkBytes>> {
        if !self.transport.framed() {
            return None;
        }
        let mut links = BTreeMap::new();
        for s in &self.states {
            let state = lock_unpoisoned(s);
            links.extend(state.wire.links().map(|(to, link)| ((state.id, to), link)));
        }
        Some(links)
    }

    pub(crate) fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&mut NodeState) -> R) -> R {
        #[allow(clippy::panic, reason = "the documented `# Panics` contract")]
        let slot = *self
            .directory
            .get(&id.raw())
            // Asking about an unhosted id is harness misuse (see `# Panics`).
            .unwrap_or_else(|| panic!("unknown node {id}"));
        f(&mut lock_unpoisoned(&self.states[slot]))
    }

    /// A node's current link table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted (as do the other per-node inspectors).
    pub fn links_of(&self, id: NodeId) -> BTreeSet<NodeId> {
        self.with_node(id, |n| n.links.iter().copied().collect())
    }

    /// A node's current predecessor.
    pub fn pred_of(&self, id: NodeId) -> Option<NodeId> {
        self.with_node(id, |n| n.pred)
    }

    /// A node's store shard contents.
    pub fn shard_of(&self, id: NodeId) -> BTreeMap<u64, u64> {
        self.with_node(id, |n| n.shard.entries().into_iter().collect())
    }

    /// Whether the node has left the overlay.
    pub fn is_dead(&self, id: NodeId) -> bool {
        self.with_node(id, |n| n.dead)
    }

    /// Crash-stops a node: it goes dark with no handoff and no notices
    /// (unlike the graceful [`Command::Leave`]). Pending messages to the
    /// node remain queued; delivering them is counted as `dropped_dead`.
    /// An unhosted `id` is ignored.
    pub fn crash(&self, id: NodeId) {
        if let Some(&slot) = self.directory.get(&id.raw()) {
            let mut state = lock_unpoisoned(&self.states[slot]);
            // A dead node's timers are all stale: its deadline goes too.
            self.republishing(slot, &mut state, |state| state.dead = true);
        }
    }

    /// Ground truth for one key: the `replication` nodes expected to hold
    /// it on the current live ring, the live nodes actually holding
    /// the key, and whether expectation is met. This is the
    /// cluster-level `replication_status(key)` the storage tests call after
    /// a run settles.
    pub fn replication_status(&self, key: u64) -> ReplicationStatus {
        let mut live = Vec::with_capacity(self.states.len());
        let mut holders = Vec::new();
        for s in &self.states {
            let mut state = lock_unpoisoned(s);
            if state.dead {
                continue;
            }
            live.push(state.id);
            if state.shard.contains(key) {
                holders.push(state.id);
            }
        }
        let ring = SortedRing::new(live);
        let expected = replica_successors(&ring, NodeId::new(key), self.config.replication);
        let satisfied = !expected.is_empty() && expected.iter().all(|e| holders.contains(e));
        ReplicationStatus {
            key,
            expected,
            holders,
            satisfied,
        }
    }
}

/// Model-checking hooks: single-step message delivery, fault actions and
/// state snapshots for canon-audit's protocol explorer. Nothing here runs
/// on the production path — the whole block is feature-gated.
#[cfg(feature = "model")]
impl Runtime {
    /// Every queued envelope across the cluster as `(slot, envelope)`
    /// pairs, slot-major, each slot in `(deliver_at, from, seq)` order.
    pub fn model_pending(&self) -> Vec<(usize, Envelope<Payload>)> {
        let mut out = Vec::new();
        for slot in 0..self.states.len() {
            for env in self.boxes.peek_all(slot) {
                out.push((slot, env));
            }
        }
        out
    }

    /// Delivers exactly the message identified by `(slot, from, seq)`,
    /// advancing the clock to its quoted delivery tick first, and lets the
    /// destination handle it. Returns `false` if no such message is
    /// queued. Timers are deliberately *not* fired: a checker-driven
    /// runtime uses RPC deadlines far beyond any explored trace, so no
    /// timer can ever be due.
    pub fn model_deliver(&self, slot: usize, from: NodeId, seq: u64) -> bool {
        let Some(env) = self.boxes.take(slot, from, seq) else {
            return false;
        };
        self.clock.advance_to(env.deliver_at);
        // A framing transport stages sends; `node_round` flushes them and
        // the exchange queues them, so the checker sees the handler's
        // outgoing messages queued, same as after a stepped round.
        let mut round = RoundBuffer::default();
        let mut state = lock_unpoisoned(&self.states[slot]);
        self.node_round(
            slot,
            &mut state,
            self.clock.now(),
            &mut round,
            |state, net| state.handle(net, env),
        );
        drop(state);
        let grown = framed::exchange(&self.boxes, std::slice::from_mut(&mut round));
        lock_unpoisoned(&self.worker_ledger).add(&grown);
        true
    }

    /// Removes the message identified by `(slot, from, seq)` without
    /// delivering it — the checker's message-loss / partition-cut action.
    /// Returns whether the message was queued.
    pub fn model_drop(&self, slot: usize, from: NodeId, seq: u64) -> bool {
        self.boxes.take(slot, from, seq).is_some()
    }

    /// Arms the seeded broken-handover fault at `id`: its join grants
    /// "forget" the handed-over shard entries. This is the deliberately
    /// planted bug the checker's counterexample-replay regression test
    /// must find, minimize and replay.
    pub fn model_break_handover(&self, id: NodeId) {
        if let Some(&slot) = self.directory.get(&id.raw()) {
            lock_unpoisoned(&self.states[slot]).broken_handover = true;
        }
    }

    /// Per-node protocol snapshots, in slot order.
    pub fn model_snapshot(&self) -> Vec<crate::model::NodeSnapshot> {
        self.states
            .iter()
            .map(|s| {
                let mut state = lock_unpoisoned(s);
                crate::model::NodeSnapshot {
                    id: state.id,
                    links: state.links.clone(),
                    succ_list: state.succ_list.clone(),
                    pred: state.pred,
                    dead: state.dead,
                    joined: state.joined,
                    shard: {
                        let mut entries = state.shard.entries();
                        entries.sort_unstable();
                        entries
                    },
                    inflight: state.rpc.inflight_entries(),
                    allocated: state.rpc.allocated(),
                    deferred: state.deferred.clone(),
                    completions: state.completions.clone(),
                    cache: state.cache.snapshot(),
                    cache_tombstones: state.cache.tombstones(),
                }
            })
            .collect()
    }

    /// The cluster-state fingerprint over [`Runtime::model_snapshot`] and
    /// [`Runtime::model_pending`] (see [`crate::model::fingerprint`]).
    pub fn model_fingerprint(&self) -> u64 {
        crate::model::fingerprint(&self.model_snapshot(), &self.model_pending())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::framed::{decode_frame, encode_frame, FramedTransport};
    use crate::msg::Op;
    use crate::transport::ChannelTransport;
    use canon_id::rng::Seed;
    use canon_wire::WireError;

    /// A queued message with every field laid out (an envelope's own
    /// equality compares only its key), tagged with its slot.
    type Queued = (usize, NodeId, NodeId, Tick, Tick, u64, Payload);

    fn queued(slot: usize, e: Envelope<Payload>) -> Queued {
        (
            slot,
            e.from,
            e.to,
            e.sent_at,
            e.deliver_at,
            e.seq,
            e.payload,
        )
    }

    /// Every message queued in `rt`, slot by slot in drain order.
    fn pending(rt: &Runtime) -> Vec<Queued> {
        (0..rt.len())
            .flat_map(|slot| {
                let mail = rt.boxes.peek_all(slot).into_iter();
                mail.map(move |e| queued(slot, e))
            })
            .collect()
    }

    #[test]
    fn a_paused_framed_cluster_queues_what_the_channel_cluster_queues() {
        let h = canon_hierarchy::Hierarchy::balanced(4, 2);
        let p = canon_hierarchy::Placement::uniform(&h, 48, Seed(42));
        let net = canon::crescendo::build_crescendo(&h, &p);
        let cluster = |transport: Arc<dyn Transport>| {
            let mut rt = crate::cluster::from_graph(
                net.graph(),
                Arc::new(VirtualClock::new()),
                transport,
                RuntimeConfig::default(),
            );
            let ids = rt.ids();
            let base = Seed(3).derive("paused-storm");
            for i in 0..200u64 {
                let r = base.derive_index(i).0;
                let key = base.derive_index(i).derive("key").0;
                let op = match i % 3 {
                    0 => Op::Lookup { key },
                    1 => Op::Put { key, value: r },
                    _ => Op::Get { key },
                };
                rt.inject(ids[(r % ids.len() as u64) as usize], Command::Issue(op));
            }
            rt
        };
        let channel = cluster(Arc::new(ChannelTransport::new(1)));
        let framed = cluster(Arc::new(FramedTransport::new(ChannelTransport::new(1))));
        // Paused after every round until both go idle: the framed cluster's
        // mail, waiting as frame bytes, reads out as the channel cluster's
        // envelopes do.
        let mut framed_mail = 0;
        loop {
            assert_eq!(framed.boxes.queued(), channel.boxes.queued());
            let want = pending(&channel);
            assert_eq!(pending(&framed), want);
            #[cfg(feature = "model")]
            {
                let model = framed.model_pending().into_iter();
                let got: Vec<_> = model.map(|(slot, e)| queued(slot, e)).collect();
                assert_eq!(got, want);
            }
            framed_mail += framed.boxes.queued();
            assert_eq!(framed.step(), channel.step());
            let next = framed.next_event();
            assert_eq!(next, channel.next_event());
            let Some(t) = next else { break };
            for rt in [&framed, &channel] {
                rt.clock.advance_to(t.max(rt.clock.now() + 1));
            }
        }
        assert!(
            framed_mail > 1000,
            "only {framed_mail} messages were queued"
        );
        assert_eq!(framed.wire_summary().map(|w| w.decode_errors), Some(0));
    }

    /// A jittered framed run: mail for one slot is spread over several
    /// ticks, and the clock jumps one to three ticks a round, so drains
    /// take several ticks' buckets at once (`Bucket::absorb`). Between
    /// rounds the model checker's `take` pops a message that is alone in
    /// its bucket, emptying the bucket. After every step and every take,
    /// the wake-up index is exactly what a scan of every slot finds.
    #[test]
    fn a_jittered_run_keeps_the_index_exact_through_multi_tick_drains_and_takes() {
        use crate::transport::FaultyTransport;
        let h = canon_hierarchy::Hierarchy::balanced(4, 2);
        let p = canon_hierarchy::Placement::uniform(&h, 48, Seed(42));
        let net = canon::crescendo::build_crescendo(&h, &p);
        let jittered = FaultyTransport::new(ChannelTransport::new(1), Seed(9), 0, 3);
        let mut rt = crate::cluster::from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            Arc::new(FramedTransport::new(jittered)),
            RuntimeConfig::default(),
        );
        let ids = rt.ids();
        let base = Seed(5).derive("jittered-storm");
        for i in 0..300u64 {
            let r = base.derive_index(i).0;
            let op = match i % 3 {
                0 => Op::Lookup { key: r >> 3 },
                1 => Op::Put {
                    key: r >> 3,
                    value: r,
                },
                _ => Op::Get { key: r >> 3 },
            };
            rt.inject(ids[(r % ids.len() as u64) as usize], Command::Issue(op));
        }
        let (mut multi_tick, mut emptied) = (0, 0);
        for round in 0u64.. {
            let now = rt.clock.now();
            let index = rt.boxes.index();
            assert_eq!(index, rt.boxes.scan(), "round {round}");
            let mut due: Vec<usize> = index.iter().filter(|e| e.0 <= now).map(|e| e.1).collect();
            due.sort_unstable();
            multi_tick += due.windows(2).filter(|w| w[0] == w[1]).count();
            rt.step();
            assert_eq!(rt.boxes.index(), rt.boxes.scan(), "round {round}");
            // Every fifth round, take a message that is its bucket's only
            // one, as the model checker's loss action does.
            if round % 5 == 0 {
                let lone = (0..rt.len()).find_map(|slot| {
                    let mail = rt.boxes.peek_all(slot);
                    let alone = |e: &Envelope<Payload>| {
                        mail.iter().filter(|o| o.deliver_at == e.deliver_at).count() == 1
                    };
                    Some((slot, mail.iter().find(|e| alone(e))?.clone()))
                });
                if let Some((slot, e)) = lone {
                    assert!(rt.boxes.take(slot, e.from, e.seq).is_some());
                    assert_eq!(rt.boxes.index(), rt.boxes.scan(), "take in round {round}");
                    emptied += 1;
                }
            }
            let Some(t) = rt.next_event() else { break };
            rt.clock.advance_to(t.max(now + 1 + round % 3));
        }
        assert!(multi_tick > 0, "no drain took several ticks");
        assert!(emptied > 0, "no take emptied a bucket");
        let summary = rt.summary();
        assert!(summary.zero_loss(), "{summary:?}");
        assert!(rt.boxes.index().is_empty());
    }

    /// The receiver of [`marked`] messages.
    const RECEIVER: u64 = 1;

    /// A message to [`RECEIVER`] whose handling logs a line naming it:
    /// `key = 1000 × from + seq`.
    fn marked(from: u64, seq: u64) -> Envelope<Payload> {
        Envelope {
            from: NodeId::new(from),
            to: NodeId::new(RECEIVER),
            sent_at: 0,
            deliver_at: 0,
            seq,
            payload: Payload::CacheInvalidate {
                key: 1000 * from + seq,
                owner: NodeId::new(from),
                floor: 0,
            },
        }
    }

    /// The node [`RECEIVER`] links to, and the key past it that a request
    /// [`routed`] to the receiver is forwarded toward.
    const NEXT: u64 = 2;

    /// A request that [`RECEIVER`] only routes: on to [`NEXT`], as the
    /// bytes it arrived in.
    fn routed(from: u64, seq: u64) -> Envelope<Payload> {
        Envelope {
            payload: Payload::Request {
                origin: NodeId::new(from),
                req: 1,
                attempt: 0,
                hops: 1,
                op: Op::Lookup { key: NEXT + 1 },
                path: Vec::new(),
            },
            ..marked(from, seq)
        }
    }

    #[test]
    fn a_recycled_head_buffer_keeps_its_allocation() {
        let request = canon_wire::to_bytes(&routed(30, 1).payload);
        let header = crate::framed::FrameHeader {
            from: NodeId::new(30),
            to: NodeId::new(RECEIVER),
            sent_at: 0,
            deliver_at: 0,
        };
        let Ok(crate::transport::Read::Head(head)) = wire::read_framed(&header, 1, &request) else {
            panic!("a request reads as its head");
        };
        let mut heads = Vec::with_capacity(16);
        heads.push(((0, 30, 1), head));
        let at = heads.as_ptr() as usize;
        let recycled: Vec<(Key, RequestHead<'static>)> = recycle(heads);
        assert!(recycled.is_empty());
        assert_eq!((recycled.as_ptr() as usize, recycled.capacity()), (at, 16));
    }

    #[test]
    fn a_damaged_frame_delivers_nothing_and_counts_one_decode_error() {
        // Where the first payload's tag byte sits in a frame of small
        // fields: length prefix, two identifiers, three one-byte varints
        // (sent_at, deliver_at, count), then the message's sequence number
        // and payload length.
        const PAYLOAD_TAG: usize = 4 + 8 + 8 + 3 + 2;
        // Where the last payload's tag byte sits, from the end: a marked
        // message's payload is a tag, two identifiers and a one-byte floor.
        const LAST_PAYLOAD: usize = 1 + 8 + 8 + 1;
        type Damage = fn(&mut Vec<u8>);
        type Expected = fn(&WireError) -> bool;
        // The intact run is the control: the same frames, every message
        // delivered and the request forwarded.
        let cases: [(&str, Option<(Damage, Expected)>); 5] = [
            ("intact", None),
            (
                "truncated",
                Some((|f| f.truncate(f.len() - 1), |e| *e == WireError::Truncated)),
            ),
            (
                "bad payload tag",
                Some((
                    |f| f[PAYLOAD_TAG] = 0xff,
                    |e| matches!(e, WireError::BadTag { ty: "Payload", .. }),
                )),
            ),
            (
                "bad last payload tag",
                Some((
                    |f| {
                        let at = f.len() - LAST_PAYLOAD;
                        f[at] = 0xff;
                    },
                    |e| matches!(e, WireError::BadTag { ty: "Payload", .. }),
                )),
            ),
            (
                "trailing byte",
                Some((|f| f.push(0), |e| *e == WireError::TrailingBytes)),
            ),
        ];
        for (what, damage) in cases {
            let mut rt = Runtime::new(
                Arc::new(VirtualClock::new()),
                Arc::new(FramedTransport::new(ChannelTransport::new(1))),
                RuntimeConfig {
                    record_events: true,
                    ..RuntimeConfig::default()
                },
            );
            let links = BTreeSet::from([NodeId::new(NEXT)]);
            let slot = rt.spawn_seeded(NodeId::new(RECEIVER), links, Vec::new(), None);
            rt.spawn_seeded(NodeId::new(NEXT), BTreeSet::new(), Vec::new(), None);
            // One bucket, tick 0: frames arriving out of key order, two of
            // them from one sender (as under jitter), the damaged one in
            // the middle, and a plain envelope among them. The damaged
            // frame opens with a request the receiver would forward: the
            // damage is found only after it has been read, and it must
            // not leave all the same.
            let frames = [
                (vec![marked(40, 1), marked(40, 2)], false),
                (vec![marked(20, 5), marked(20, 6)], false),
                (vec![routed(30, 3), marked(30, 4)], true),
                (vec![marked(20, 9)], false),
                (vec![marked(10, 7)], false),
            ];
            for (envs, damaged) in &frames {
                let mut frame = Vec::new();
                encode_frame(envs, &mut frame);
                if let (true, Some((damage, expected))) = (damaged, damage) {
                    damage(&mut frame);
                    let err = decode_frame(&frame, &mut Vec::new()).expect_err(what);
                    assert!(expected(&err), "{what}: {err:?}");
                }
                let group = (envs[0].from, envs[0].seq, envs.len(), &frame[..]);
                rt.boxes
                    .push_frames(slot, 0, std::iter::once(group), &mut Default::default());
            }
            rt.boxes.push(slot, marked(15, 1));
            assert_eq!(rt.boxes.queued(), 9, "{what}");

            let intact = damage.is_none();
            assert_eq!(rt.step(), if intact { 9 } else { 7 }, "{what}: handled");
            let handled: Vec<u64> = rt
                .event_log()
                .iter()
                .filter_map(|line| line.split("key=").nth(1)?.split(' ').next()?.parse().ok())
                .collect();
            let mut want = vec![10_007, 15_001, 20_005, 20_006, 20_009, 40_001, 40_002];
            if intact {
                want.insert(5, 30_004);
            }
            assert_eq!(handled, want, "{what}");
            let wire = rt.wire_summary().expect("framed stack");
            let damaged = u64::from(!intact);
            assert_eq!(wire.decode_errors, damaged, "{what}");
            // Forwarded or not: one frame out, queued at the next node.
            let forwarded = 1 - damaged;
            assert_eq!(wire.frames, forwarded, "{what}: frames sent");
            assert_eq!(rt.summary().forwarded, forwarded, "{what}: forwarded");
            assert_eq!(rt.boxes.queued() as u64, forwarded, "{what}");
            if intact {
                continue;
            }
            assert_eq!(rt.next_event(), None, "{what}");
        }
    }
}
