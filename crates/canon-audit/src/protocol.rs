//! The protocol model checker: exhaustive interleaving exploration of
//! canon-node's join/leave/handover protocols with a Zave-style
//! ring-invariant auditor.
//!
//! The explored state is *distributed protocol* state: a small cluster
//! (3–8 nodes) built over canon-node's `model` feature is driven through
//! **every** message delivery order a FIFO network permits, and
//! machine-checkable invariants are evaluated after every single delivery
//! ("How to Make Chord Correct", Zave 2015, is the blueprint: these
//! protocols hide bugs that surface only under adversarial orderings).
//!
//! # Execution model
//!
//! A model run replaces the production round loop with single-step
//! delivery: the only nondeterminism is which pending message the
//! adversary delivers next. The network is FIFO per ordered node pair
//! (matching `ChannelTransport`), so the *enabled* actions of a state are
//! the lowest-sequence pending message of each `(destination, sender)`
//! pair. RPC deadlines are set far beyond any explored trace — timers
//! never fire, exactly like a network that is slow but not silent.
//!
//! # Exploration
//!
//! Depth-first search over delivery choices with three accelerations,
//! each individually switchable (the cross-check tests rely on that):
//!
//! * **state-fingerprint dedup** — two delivery orders that converge to
//!   the same cluster fingerprint (tick- and seq-insensitive, see
//!   `canon-node`'s `model::fingerprint`) share their future, so the
//!   second arrival is pruned;
//! * **dynamic partial-order reduction** via sleep sets — deliveries to
//!   *different* receivers commute (actor state is per-node, sends are
//!   identified by `(from, seq)` not arrival time), so one order per
//!   commuting pair suffices; per-receiver orders are still permuted.
//!   While a scenario still has unfired fault triggers every pair is
//!   conservatively treated as dependent, because a trigger mutates
//!   global state (crash/partition/heal);
//! * **bounded-depth fallback** — `max_states`/`max_depth` caps with
//!   explicit coverage reporting (`complete = false`) instead of silent
//!   truncation.
//!
//! # Counterexamples
//!
//! A violation yields the exact delivery trace that produced it. The
//! trace is **minimized** — greedy deletion (right to left, repeated to
//! fixpoint), then delivery-order canonicalization (adjacent swaps toward
//! the canonical `(slot, from, seq)` order while the violation persists)
//! — and is **replayable byte-identically**: steps name messages by
//! `(destination slot, sender, sequence)`, which a fresh scenario run
//! reproduces deterministically.

use canon_chord::chord_links;
use canon_id::ring::SortedRing;
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::model::NodeSnapshot;
use canon_node::{
    CacheConfig, ChannelTransport, Command, Envelope, FaultyTransport, Op, OpKind, Outcome,
    Payload, RpcConfig, RpcResult, Runtime, RuntimeConfig, ShardBackend, VirtualClock,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A deadline far beyond any explored trace: RPC timers exist but can
/// never become due, so retransmission logic stays out of the state space.
const MODEL_TIMEOUT: u64 = 1 << 40;

/// The kind of a delivered message, used by fault triggers to anchor
/// "crash/partition at exactly this protocol moment".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryKind {
    /// An injected client command.
    Client,
    /// A routed RPC request carrying the given operation kind.
    Request(OpKind),
    /// An RPC response.
    Response,
    /// A replication fan-out message.
    Replicate,
    /// A join repair notice.
    RepairJoin,
    /// A leave shard handoff.
    LeaveHandoff,
    /// A leave repair notice.
    LeaveNotice,
    /// An en-route cache fill riding a GET response path.
    CacheFill,
    /// An owner-driven cache invalidation.
    CacheInvalidate,
}

fn classify(p: &Payload) -> DeliveryKind {
    match p {
        Payload::Client(_) => DeliveryKind::Client,
        Payload::Request { op, .. } => DeliveryKind::Request(op.kind()),
        Payload::Response { .. } => DeliveryKind::Response,
        Payload::Replicate { .. } => DeliveryKind::Replicate,
        Payload::RepairJoin { .. } => DeliveryKind::RepairJoin,
        Payload::LeaveHandoff { .. } => DeliveryKind::LeaveHandoff,
        Payload::LeaveNotice { .. } => DeliveryKind::LeaveNotice,
        Payload::CacheFill { .. } => DeliveryKind::CacheFill,
        Payload::CacheInvalidate { .. } => DeliveryKind::CacheInvalidate,
    }
}

/// A fault action a trigger injects mid-protocol.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Crash-stop the node (no handoff, no notices).
    Crash(u64),
    /// Sever every link between the two groups, both directions.
    Partition(Vec<u64>, Vec<u64>),
    /// Remove every partition.
    Heal,
}

/// Fires `action` immediately after the `count`-th delivery matching
/// `kind` (`None` = any delivery). Triggers are predicates on the trace,
/// not extra exploration branches: within one trace the firing point is
/// determined, and across traces the same protocol moment is hit under
/// every delivery order — which is how crash/partition *timing* gets
/// explored without multiplying the action set.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// The delivery kind to count, or `None` for every delivery.
    pub kind: Option<DeliveryKind>,
    /// Fire after this many matching deliveries (1-based).
    pub count: u64,
    /// The fault to inject.
    pub action: FaultAction,
}

/// One scripted churn scenario: a seeded cluster, blank joiners, injected
/// client work, and fault triggers.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (stable; used in reports and regression tests).
    pub name: &'static str,
    /// Seeded ring members (raw ids, ascending).
    pub members: Vec<u64>,
    /// Whether a member's seeded links are every Chord finger over the
    /// members (`canon_chord::chord_links`), so that it links members that
    /// are not its neighbours, or its ring successor alone, so that routes
    /// walk clockwise and interleave with repair.
    pub fingers: bool,
    /// Blank (unjoined) spawns that participate via `Command::Join`.
    pub blanks: Vec<u64>,
    /// Copies of every stored key, primary included.
    pub replication: usize,
    /// Successor-list length.
    pub succ_len: usize,
    /// Client commands injected before exploration starts.
    pub injections: Vec<(u64, Command)>,
    /// Fault triggers (see [`Trigger`]).
    pub triggers: Vec<Trigger>,
    /// Per-node en-route cache capacity (0 = caching disabled, the
    /// default for scenarios that predate the cache).
    pub cache_capacity: usize,
    /// Arm the seeded broken-handover fault at this node (regression-test
    /// scenarios only; the shipped scenarios never set it).
    pub broken_handover_at: Option<u64>,
    /// Whether every injected RPC must be resolved once the network is
    /// quiescent (true for fault-free scenarios; crashes and partitions
    /// legitimately strand requests, whose deadlines lie beyond the
    /// model horizon).
    pub expect_quiescent_completion: bool,
}

/// One delivery step of a (counter)example trace: the message is named by
/// coordinates a fresh scenario run reproduces deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Step {
    /// Destination mailbox slot.
    pub slot: usize,
    /// Sender id (raw).
    pub from: u64,
    /// Sender-scoped sequence number.
    pub seq: u64,
}

/// Explorer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Enable sleep-set dynamic partial-order reduction.
    pub dpor: bool,
    /// Enable state-fingerprint deduplication.
    pub dedup: bool,
    /// Stop (reporting `complete = false`) after this many explored
    /// states.
    pub max_states: usize,
    /// Do not expand states deeper than this many deliveries.
    pub max_depth: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            dpor: true,
            dedup: true,
            max_states: 400_000,
            max_depth: 64,
        }
    }
}

/// A minimized, replayable counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The scenario that produced it.
    pub scenario: &'static str,
    /// The minimized delivery trace.
    pub steps: Vec<Step>,
    /// Human-readable labels for `steps` (same order).
    pub labels: Vec<String>,
    /// Length of the originally discovered (unminimized) trace.
    pub discovered_len: usize,
    /// The invariant violations observed at the end of the trace.
    pub violations: Vec<String>,
    /// Cluster fingerprint after replaying `steps` — replays must
    /// reproduce this byte-identically.
    pub fingerprint: u64,
}

/// Exploration result for one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario name.
    pub scenario: &'static str,
    /// States expanded (each is one delivery prefix).
    pub explored: usize,
    /// Terminal states reached (network quiescent).
    pub terminals: usize,
    /// States pruned by fingerprint dedup.
    pub deduped: usize,
    /// Actions skipped by sleep-set reduction.
    pub sleep_pruned: usize,
    /// Deepest trace reached.
    pub max_depth_seen: usize,
    /// Whether the state space was exhausted within the bounds.
    pub complete: bool,
    /// The first invariant violation, minimized — `None` on a clean pass.
    pub violation: Option<Counterexample>,
}

/// Result of replaying a trace against a scenario.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Steps successfully executed (a step whose message is not pending
    /// aborts the replay).
    pub executed: usize,
    /// Violations at the first step where any were observed.
    pub violations: Vec<String>,
    /// Cluster fingerprint after the last executed step.
    pub fingerprint: u64,
}

// ---------------------------------------------------------------------
// Scenario runs
// ---------------------------------------------------------------------

/// A live scenario instance: the cluster plus trigger bookkeeping.
struct Run<'a> {
    scenario: &'a Scenario,
    rt: Runtime,
    /// One-tick channel, no loss, no jitter: only its partitions are used,
    /// so the checker's delivery choice is the one source of nondeterminism.
    transport: Arc<FaultyTransport<ChannelTransport>>,
    /// Per-trigger matching-delivery counters.
    counts: Vec<u64>,
    /// Per-trigger fired flags.
    fired: Vec<bool>,
}

impl<'a> Run<'a> {
    fn start(scenario: &'a Scenario) -> Run<'a> {
        let transport = Arc::new(FaultyTransport::new(
            ChannelTransport::new(1),
            Seed(0),
            0,
            0,
        ));
        let clock = Arc::new(VirtualClock::new());
        let config = RuntimeConfig {
            rpc: RpcConfig {
                timeout: MODEL_TIMEOUT,
                max_retries: 0,
            },
            replication: scenario.replication,
            backend: ShardBackend::Memory,
            succ_list_len: scenario.succ_len,
            record_events: false,
            cache: CacheConfig::with_capacity(scenario.cache_capacity),
        };
        let mut rt = Runtime::new(clock, transport.clone(), config);
        let n = scenario.members.len();
        let ring = SortedRing::new(scenario.members.iter().map(|&m| NodeId::new(m)).collect());
        for (i, &raw) in scenario.members.iter().enumerate() {
            let id = NodeId::new(raw);
            let succ: Vec<NodeId> = (1..=scenario.succ_len.min(n - 1))
                .map(|k| NodeId::new(scenario.members[(i + k) % n]))
                .collect();
            let pred = NodeId::new(scenario.members[(i + n - 1) % n]);
            let links: BTreeSet<NodeId> = if scenario.fingers {
                chord_links(&ring, id).into_iter().collect()
            } else {
                succ.first().copied().into_iter().collect()
            };
            rt.spawn_seeded(id, links, succ, (n > 1).then_some(pred));
        }
        for &raw in &scenario.blanks {
            rt.spawn(NodeId::new(raw));
        }
        if let Some(raw) = scenario.broken_handover_at {
            rt.model_break_handover(NodeId::new(raw));
        }
        for (origin, cmd) in &scenario.injections {
            rt.inject(NodeId::new(*origin), cmd.clone());
        }
        let mut run = Run {
            scenario,
            rt,
            transport,
            counts: vec![0; scenario.triggers.len()],
            fired: vec![false; scenario.triggers.len()],
        };
        run.cleanup();
        run
    }

    /// Silently drops messages destined to dead nodes: delivering to a
    /// dead node is a stats-only no-op, so branching on it would only
    /// multiply equivalent schedules.
    fn cleanup(&mut self) {
        let snaps = self.rt.model_snapshot();
        for (slot, env) in self.rt.model_pending() {
            if snaps[slot].dead {
                self.rt.model_drop(slot, env.from, env.seq);
            }
        }
    }

    /// The enabled actions: the lowest-sequence pending message of every
    /// `(destination, sender)` pair, in canonical `(slot, from)` order.
    fn enabled(&self) -> Vec<Step> {
        let mut heads: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for (slot, env) in self.rt.model_pending() {
            let head = heads.entry((slot, env.from.raw())).or_insert(env.seq);
            *head = (*head).min(env.seq);
        }
        heads
            .into_iter()
            .map(|((slot, from), seq)| Step { slot, from, seq })
            .collect()
    }

    /// A display label for a pending step, e.g.
    /// `->150 from=100 Request(Join)`.
    fn label(&self, step: Step) -> String {
        let kind = self
            .rt
            .model_pending()
            .into_iter()
            .find(|(slot, env)| {
                *slot == step.slot && env.from.raw() == step.from && env.seq == step.seq
            })
            .map(|(_, env)| format!("{:?}", classify(&env.payload)));
        let to = self
            .rt
            .model_snapshot()
            .get(step.slot)
            .map_or(0, |s| s.id.raw());
        format!(
            "->{to} from={} {}",
            step.from,
            kind.unwrap_or_else(|| "?".to_owned())
        )
    }

    /// Delivers one enabled step and fires any due triggers. Returns
    /// `false` if the message was not pending (invalid replay step).
    fn step(&mut self, step: Step) -> bool {
        let kind = self
            .rt
            .model_pending()
            .into_iter()
            .find(|(slot, env)| {
                *slot == step.slot && env.from.raw() == step.from && env.seq == step.seq
            })
            .map(|(_, env)| classify(&env.payload));
        let Some(kind) = kind else {
            return false;
        };
        if !self
            .rt
            .model_deliver(step.slot, NodeId::new(step.from), step.seq)
        {
            return false;
        }
        for (i, t) in self.scenario.triggers.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if t.kind.is_none() || t.kind == Some(kind) {
                self.counts[i] += 1;
                if self.counts[i] >= t.count {
                    self.fired[i] = true;
                    self.apply(&self.scenario.triggers[i].action.clone());
                }
            }
        }
        self.cleanup();
        true
    }

    fn apply(&mut self, action: &FaultAction) {
        match action {
            FaultAction::Crash(raw) => self.rt.crash(NodeId::new(*raw)),
            FaultAction::Partition(a, b) => {
                let a: Vec<NodeId> = a.iter().map(|&r| NodeId::new(r)).collect();
                let b: Vec<NodeId> = b.iter().map(|&r| NodeId::new(r)).collect();
                self.transport.partition(&a, &b);
            }
            FaultAction::Heal => self.transport.heal(),
        }
    }

    /// Whether every trigger has fired (actions commute only once the
    /// global fault state is settled).
    fn triggers_settled(&self) -> bool {
        self.fired.iter().all(|&f| f)
    }

    /// Dedup key: cluster fingerprint plus the trigger-fired mask (the
    /// partition/crash state is a deterministic function of the mask).
    fn fpkey(&self) -> (u64, u64) {
        let mask = self
            .fired
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &f)| m | (u64::from(f) << i));
        (self.rt.model_fingerprint(), mask)
    }

    /// Evaluates every invariant at the current state.
    fn check(&self, quiescent: bool) -> Vec<String> {
        let snaps = self.rt.model_snapshot();
        let pending = self.rt.model_pending();
        check_invariants(self.scenario, &snaps, &pending, quiescent)
    }
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

/// Evaluates the full invariant battery over a cluster snapshot:
///
/// * **Zave ring invariant** — the first-live-member successor graph over
///   joined live nodes forms exactly one cycle, the cycle is ordered
///   (a rotation of the sorted member ids), every member has a live
///   successor, and each cycle member has at most one appendage hanging
///   off it; live *unjoined* nodes must be accounted appendages (an
///   in-flight or still-queued join);
/// * **acknowledged-write durability** — every acked PUT's key/value is
///   readable from at least one live node, counting bytes in flight
///   inside `Replicate`, `LeaveHandoff` and `Granted` messages to live
///   destinations (a handover legitimately holds the only copy while the
///   grant is in the air);
/// * **RPC-id sanity** — per node, allocated ids = in-flight + completed
///   (never reused, never lost), completion ids are unique, and no
///   in-flight entry has been retried (deadlines beyond the horizon);
/// * **cache coherence** — at quiescent states, every en-route cache
///   entry whose filling owner is still live and still stores the key
///   agrees with the owner's stored value (invalidations have settled,
///   so a surviving stale copy is a protocol bug; entries stranded by a
///   crashed or handed-off owner are exempt — their owner no longer
///   vouches for them);
/// * **link liveness** — at quiescent states of scenarios that crash no
///   node, every live node links only live, joined members (a graceful
///   leave must reach every node that links the leaver);
/// * at **quiescent** states of fault-free scenarios, every injected RPC
///   has completed.
pub fn check_invariants(
    scenario: &Scenario,
    snaps: &[NodeSnapshot],
    pending: &[(usize, Envelope<Payload>)],
    quiescent: bool,
) -> Vec<String> {
    let mut v = Vec::new();
    ring_invariant(snaps, pending, &mut v);
    durability(scenario, snaps, pending, &mut v);
    rpc_sanity(snaps, &mut v);
    if quiescent {
        cache_coherence(snaps, &mut v);
    }
    let crashes = scenario
        .triggers
        .iter()
        .any(|t| matches!(t.action, FaultAction::Crash(_)));
    if quiescent && !crashes {
        link_liveness(snaps, &mut v);
    }
    if quiescent && scenario.expect_quiescent_completion {
        for s in snaps {
            if !s.inflight.is_empty() {
                v.push(format!(
                    "completion: {} still has {} unresolved RPC(s) at quiescence",
                    s.id,
                    s.inflight.len()
                ));
            }
        }
    }
    v
}

fn ring_invariant(
    snaps: &[NodeSnapshot],
    pending: &[(usize, Envelope<Payload>)],
    v: &mut Vec<String>,
) {
    let members: Vec<&NodeSnapshot> = snaps.iter().filter(|s| s.joined && !s.dead).collect();
    let member_ids: BTreeSet<u64> = members.iter().map(|m| m.id.raw()).collect();
    // succ(m): the first live joined member in m's successor list.
    let mut succ: BTreeMap<u64, u64> = BTreeMap::new();
    for m in &members {
        match m.succ_list.iter().find(|s| member_ids.contains(&s.raw())) {
            Some(s) => {
                succ.insert(m.id.raw(), s.raw());
            }
            None if members.len() > 1 => {
                v.push(format!("ring: member {} has no live successor", m.id));
            }
            None => {}
        }
    }
    if members.len() > 1 && succ.len() == members.len() {
        // Find the cycles of the functional graph.
        let mut color: BTreeMap<u64, u8> = BTreeMap::new(); // 1 = on path, 2 = done
        let mut cycles: Vec<Vec<u64>> = Vec::new();
        for &start in member_ids.iter() {
            if color.contains_key(&start) {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            while !color.contains_key(&cur) {
                color.insert(cur, 1);
                path.push(cur);
                cur = succ[&cur];
            }
            if color[&cur] == 1 {
                // Found a new cycle: the path suffix from `cur`.
                let pos = path.iter().position(|&x| x == cur).unwrap_or(0);
                cycles.push(path[pos..].to_vec());
            }
            for x in path {
                color.insert(x, 2);
            }
        }
        match cycles.len() {
            1 => {
                let cycle = &cycles[0];
                // Ordered: the cycle must be a rotation of its sorted ids.
                let min_pos = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, id)| id)
                    .map_or(0, |(i, _)| i);
                let rotated: Vec<u64> = cycle
                    .iter()
                    .cycle()
                    .skip(min_pos)
                    .take(cycle.len())
                    .copied()
                    .collect();
                if !rotated.windows(2).all(|w| w[0] < w[1]) {
                    v.push(format!("ring: cycle not in id order: {rotated:?}"));
                }
                // At most one appendage (non-cycle member pointing at a
                // cycle member) per node.
                let on_cycle: BTreeSet<u64> = cycle.iter().copied().collect();
                let mut hanging: BTreeMap<u64, u64> = BTreeMap::new();
                for (&m, &s) in &succ {
                    if !on_cycle.contains(&m) && on_cycle.contains(&s) {
                        *hanging.entry(s).or_insert(0) += 1;
                    }
                }
                for (m, count) in hanging {
                    if count > 1 {
                        v.push(format!("ring: member {m} has {count} appendages (max 1)"));
                    }
                }
            }
            n => v.push(format!(
                "ring: successor graph has {n} cycles (ring split): {cycles:?}"
            )),
        }
    }
    // Live unjoined nodes must be accounted appendages: an in-flight join
    // RPC, or a join command / join grant still queued for them.
    for s in snaps.iter().filter(|s| !s.joined && !s.dead) {
        let inflight_join = s
            .inflight
            .iter()
            .any(|(_, p)| matches!(p.op, Op::Join { .. }));
        let queued_join = pending.iter().any(|(_, env)| {
            env.to == s.id
                && matches!(
                    &env.payload,
                    Payload::Client(Command::Join { .. })
                        | Payload::Response {
                            result: RpcResult::Granted(_),
                            ..
                        }
                )
        });
        if !inflight_join && !queued_join && (s.allocated > 0 || !s.deferred.is_empty()) {
            v.push(format!(
                "ring: unjoined node {} has no in-flight or queued join \
                 (orphaned appendage with {} deferred request(s))",
                s.id,
                s.deferred.len()
            ));
        }
    }
}

/// The values injected as PUTs, per key, for value-exact durability.
/// A key PUT more than once (overwrite scenarios) accepts any of its
/// injected values: mid-trace, which overwrite has been applied depends
/// on the delivery order, and per-pair FIFO already fixes the final one.
fn injected_puts(scenario: &Scenario) -> BTreeMap<u64, BTreeSet<u64>> {
    let mut puts: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (_, cmd) in &scenario.injections {
        if let Command::Issue(Op::Put { key, value }) = cmd {
            puts.entry(*key).or_default().insert(*value);
        }
    }
    puts
}

fn durability(
    scenario: &Scenario,
    snaps: &[NodeSnapshot],
    pending: &[(usize, Envelope<Payload>)],
    v: &mut Vec<String>,
) {
    let puts = injected_puts(scenario);
    let acked: BTreeSet<u64> = snaps
        .iter()
        .flat_map(|s| &s.completions)
        .filter(|c| c.kind == OpKind::Put && c.outcome == Outcome::Ok)
        .map(|c| c.key)
        .collect();
    for key in acked {
        let want = puts.get(&key);
        let held = |k: u64, val: u64| key == k && want.is_none_or(|w| w.contains(&val));
        let on_disk = snaps
            .iter()
            .filter(|s| !s.dead)
            .any(|s| s.shard.iter().any(|&(k, val)| held(k, val)));
        // Bytes legitimately in the air toward a live node still count:
        // a join grant or leave handoff can hold the only copy in flight.
        let in_flight = pending.iter().any(|(slot, env)| {
            !snaps[*slot].dead
                && match &env.payload {
                    Payload::Replicate { key: k, value } => held(*k, *value),
                    Payload::LeaveHandoff { shard, .. } => {
                        shard.iter().any(|&(k, val)| held(k, val))
                    }
                    Payload::Response {
                        result: RpcResult::Granted(g),
                        ..
                    } => g.shard.iter().any(|&(k, val)| held(k, val)),
                    _ => false,
                }
        });
        if !on_disk && !in_flight {
            v.push(format!(
                "durability: acked PUT key={key} readable from no live replica \
                 (replication {})",
                scenario.replication
            ));
        }
    }
}

/// At quiescence every invalidation has been delivered, so any cache
/// entry whose filling owner is still live and still stores the key must
/// hold the owner's current value. Entries whose owner died or handed the
/// key off are exempt: the owner no longer vouches for them, and the
/// tombstone/registry machinery (exercised by the same schedules) is what
/// keeps them from being refreshed stale.
fn cache_coherence(snaps: &[NodeSnapshot], v: &mut Vec<String>) {
    for s in snaps.iter().filter(|s| !s.dead) {
        for &(key, value, owner, stamp, _level, _rank) in &s.cache {
            let Some(o) = snaps.iter().find(|o| o.id == owner && !o.dead) else {
                continue;
            };
            let Some(&(_, want)) = o.shard.iter().find(|&&(k, _)| k == key) else {
                continue;
            };
            if value != want {
                v.push(format!(
                    "cache: {} holds stale key={key} value={value} (stamp {stamp}) \
                     while live owner {} stores {want} at quiescence",
                    s.id, o.id
                ));
            }
        }
    }
}

fn link_liveness(snaps: &[NodeSnapshot], v: &mut Vec<String>) {
    let members: BTreeSet<NodeId> = snaps
        .iter()
        .filter(|s| s.joined && !s.dead)
        .map(|s| s.id)
        .collect();
    for s in snaps.iter().filter(|s| !s.dead) {
        for l in s.links.iter().filter(|l| !members.contains(l)) {
            v.push(format!(
                "links: {} still links {l}, not a live joined member, at quiescence",
                s.id
            ));
        }
    }
}

fn rpc_sanity(snaps: &[NodeSnapshot], v: &mut Vec<String>) {
    for s in snaps {
        let mut seen = BTreeSet::new();
        for c in &s.completions {
            if !seen.insert(c.req) {
                v.push(format!("rpc: {} completed req {} twice", s.id, c.req));
            }
        }
        for (req, p) in &s.inflight {
            if seen.contains(req) {
                v.push(format!(
                    "rpc: {} req {req} both in-flight and completed",
                    s.id
                ));
            }
            if p.attempt != 0 {
                v.push(format!(
                    "rpc: {} req {req} retried (attempt {}) inside the model horizon",
                    s.id, p.attempt
                ));
            }
        }
        let accounted = s.inflight.len() as u64 + s.completions.len() as u64;
        if s.allocated != accounted {
            v.push(format!(
                "rpc: {} allocated {} ids but accounts for {accounted} \
                 (in-flight + completed); ids were lost or reused",
                s.id, s.allocated
            ));
        }
    }
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

fn independent(a: Step, b: Step, settled: bool) -> bool {
    settled && a.slot != b.slot
}

fn sleep_hash(sleep: &[Step]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sleep {
        for w in [s.slot as u64, s.from, s.seq] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Explores a scenario's delivery orders depth-first under `cfg`,
/// checking every invariant after every delivery. Stops at the first
/// violation (returned minimized) or when the space is exhausted or a
/// bound is hit (`complete` reports which).
pub fn explore(scenario: &Scenario, cfg: &ExploreConfig) -> ScenarioReport {
    let mut report = ScenarioReport {
        scenario: scenario.name,
        explored: 0,
        terminals: 0,
        deduped: 0,
        sleep_pruned: 0,
        max_depth_seen: 0,
        complete: true,
        violation: None,
    };
    // Fully-explored states (visited with an empty sleep set) and states
    // visited with a specific non-empty sleep set.
    let mut visited: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut visited_sleepy: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
    // DFS over (trace, sleep-set) frames; each frame replays its trace
    // from scratch — states are cheap (3–8 tiny actors) and replay keeps
    // counterexamples byte-identically reproducible by construction.
    let mut stack: Vec<(Vec<Step>, Vec<Step>)> = vec![(Vec::new(), Vec::new())];
    while let Some((trace, sleep)) = stack.pop() {
        if report.explored >= cfg.max_states {
            report.complete = false;
            break;
        }
        report.explored += 1;
        report.max_depth_seen = report.max_depth_seen.max(trace.len());
        let mut run = Run::start(scenario);
        let mut ok = true;
        for &s in &trace {
            if !run.step(s) {
                ok = false;
                break;
            }
        }
        if !ok {
            // Cannot happen for explorer-generated traces; guard anyway.
            continue;
        }
        let enabled = run.enabled();
        let quiescent = enabled.is_empty();
        // Invariants: only the newly reached state needs checking — every
        // proper prefix was checked when its own frame was expanded.
        let violations = run.check(quiescent);
        if !violations.is_empty() {
            report.violation = Some(minimize(scenario, &trace, violations));
            report.complete = false;
            break;
        }
        if quiescent {
            report.terminals += 1;
            continue;
        }
        if trace.len() >= cfg.max_depth {
            report.complete = false;
            continue;
        }
        if cfg.dedup {
            let (fp, mask) = run.fpkey();
            if visited.contains(&(fp, mask)) {
                report.deduped += 1;
                continue;
            }
            if sleep.is_empty() {
                visited.insert((fp, mask));
            } else if !visited_sleepy.insert((fp, mask, sleep_hash(&sleep))) {
                report.deduped += 1;
                continue;
            }
        }
        let settled = run.triggers_settled();
        let expandable: Vec<Step> = if cfg.dpor {
            let skipped = enabled.iter().filter(|a| sleep.contains(a)).count();
            report.sleep_pruned += skipped;
            enabled
                .iter()
                .copied()
                .filter(|a| !sleep.contains(a))
                .collect()
        } else {
            enabled
        };
        // Children pushed in reverse so canonical order pops first. Child
        // i sleeps on every earlier-explored sibling (and inherited sleep
        // entry) it is independent of.
        let mut children = Vec::with_capacity(expandable.len());
        for (i, &a) in expandable.iter().enumerate() {
            let mut child_sleep = Vec::new();
            if cfg.dpor {
                for &b in &expandable[..i] {
                    if independent(a, b, settled) {
                        child_sleep.push(b);
                    }
                }
                for &b in &sleep {
                    if independent(a, b, settled) {
                        child_sleep.push(b);
                    }
                }
            }
            let mut t = trace.clone();
            t.push(a);
            children.push((t, child_sleep));
        }
        stack.extend(children.into_iter().rev());
    }
    report
}

/// Replays `steps` against a fresh instance of `scenario`, checking
/// invariants after every delivery.
pub fn replay(scenario: &Scenario, steps: &[Step]) -> Replay {
    let mut run = Run::start(scenario);
    let mut executed = 0;
    let mut violations = Vec::new();
    for &s in steps {
        if !run.step(s) {
            break;
        }
        executed += 1;
        if violations.is_empty() {
            let quiescent = run.enabled().is_empty();
            violations = run.check(quiescent);
        }
    }
    if violations.is_empty() && executed == steps.len() {
        // A trace can end just short of quiescence; check the final state
        // once more (covers the empty trace).
        violations = run.check(run.enabled().is_empty());
    }
    Replay {
        executed,
        violations,
        fingerprint: run.fpkey().0,
    }
}

fn replay_violates(scenario: &Scenario, steps: &[Step]) -> bool {
    let r = replay(scenario, steps);
    r.executed == steps.len() && !r.violations.is_empty()
}

/// Shrinks a violating trace: greedy deletion right-to-left to fixpoint,
/// then delivery-order canonicalization (adjacent swaps toward ascending
/// `(slot, from, seq)` while the violation persists).
pub fn minimize(scenario: &Scenario, trace: &[Step], violations: Vec<String>) -> Counterexample {
    let discovered_len = trace.len();
    let mut cur: Vec<Step> = trace.to_vec();
    // Deletion passes.
    loop {
        let mut changed = false;
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            let mut candidate = cur.clone();
            candidate.remove(i);
            if replay_violates(scenario, &candidate) {
                cur = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Order canonicalization: bubble toward canonical order.
    loop {
        let mut changed = false;
        for i in 0..cur.len().saturating_sub(1) {
            if cur[i + 1] < cur[i] {
                let mut candidate = cur.clone();
                candidate.swap(i, i + 1);
                if replay_violates(scenario, &candidate) {
                    cur = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Labels and the final fingerprint come from one last replay.
    let mut run = Run::start(scenario);
    let mut labels = Vec::with_capacity(cur.len());
    for &s in &cur {
        labels.push(run.label(s));
        run.step(s);
    }
    let final_violations = {
        let quiescent = run.enabled().is_empty();
        let v = run.check(quiescent);
        if v.is_empty() {
            violations
        } else {
            v
        }
    };
    Counterexample {
        scenario: scenario.name,
        steps: cur,
        labels,
        discovered_len,
        violations: final_violations,
        fingerprint: run.fpkey().0,
    }
}

// ---------------------------------------------------------------------
// The shipped scenarios
// ---------------------------------------------------------------------

fn issue(origin: u64, op: Op) -> (u64, Command) {
    (origin, Command::Issue(op))
}

fn join(origin: u64, bootstrap: u64) -> (u64, Command) {
    (
        origin,
        Command::Join {
            bootstrap: NodeId::new(bootstrap),
        },
    )
}

/// The six scripted churn scenarios the `protocol` stage explores.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // A node joins between 100 and 200 while a lookup for a key in
        // the moving range [150, 200) races through the ring. Depending
        // on the order, the lookup is served by the old owner, forwarded
        // to the joiner after the grant, or reaches the joiner before its
        // grant response and must be deferred, not served from an empty
        // view.
        Scenario {
            name: "join-during-lookup",
            members: vec![100, 200, 300],
            fingers: false,
            blanks: vec![150],
            replication: 2,
            succ_len: 3,
            injections: vec![join(150, 100), issue(200, Op::Lookup { key: 160 })],
            triggers: vec![],
            cache_capacity: 0,
            broken_handover_at: None,
            expect_quiescent_completion: true,
        },
        // Two joiners with adjacent ids in the same gap. The second join
        // request can be routed *through* the first joiner before it has
        // applied its own grant — the deferred-request path.
        Scenario {
            name: "concurrent-joins-adjacent",
            members: vec![100, 200, 300],
            fingers: false,
            blanks: vec![130, 160],
            replication: 2,
            succ_len: 3,
            injections: vec![join(130, 100), join(160, 300)],
            triggers: vec![],
            cache_capacity: 0,
            broken_handover_at: None,
            expect_quiescent_completion: true,
        },
        // A PUT races a graceful leave of the key's primary: the request
        // can arrive before the leave (stored, replicated, handed off) or
        // after (delivered to a dead node, stranding the client RPC —
        // allowed, its deadline lies beyond the model horizon).
        Scenario {
            name: "leave-during-put",
            members: vec![100, 200, 300, 400],
            fingers: false,
            blanks: vec![],
            replication: 2,
            succ_len: 3,
            injections: vec![
                issue(100, Op::Put { key: 250, value: 9 }),
                (200, Command::Leave),
            ],
            triggers: vec![],
            cache_capacity: 0,
            broken_handover_at: None,
            expect_quiescent_completion: false,
        },
        // The granter crashes immediately after granting a join — the
        // grant, the repair notices and the replicas of an acked PUT are
        // all still in the air when it goes dark.
        Scenario {
            name: "crash-before-handover-ack",
            members: vec![100, 200, 300],
            fingers: false,
            blanks: vec![110],
            replication: 3,
            succ_len: 3,
            injections: vec![issue(100, Op::Put { key: 120, value: 5 }), join(110, 100)],
            triggers: vec![Trigger {
                kind: Some(DeliveryKind::Request(OpKind::Join)),
                count: 1,
                action: FaultAction::Crash(100),
            }],
            cache_capacity: 0,
            broken_handover_at: None,
            expect_quiescent_completion: false,
        },
        // A partition cuts the granter off mid-join (dropping its repair
        // notices toward one side), then heals after the grant lands. The
        // ring must stay a single ordered cycle throughout, with the
        // joiner accounted as an appendage until its grant arrives.
        Scenario {
            name: "partition-heal-mid-join",
            members: vec![100, 200, 300],
            fingers: false,
            blanks: vec![150],
            replication: 2,
            succ_len: 3,
            injections: vec![join(150, 300)],
            triggers: vec![
                Trigger {
                    kind: Some(DeliveryKind::Request(OpKind::Join)),
                    count: 2,
                    action: FaultAction::Partition(vec![100], vec![300]),
                },
                Trigger {
                    kind: Some(DeliveryKind::Response),
                    count: 1,
                    action: FaultAction::Heal,
                },
            ],
            cache_capacity: 0,
            broken_handover_at: None,
            expect_quiescent_completion: false,
        },
        // En-route caching under churn: a GET for key 150 routes
        // 200 -> 300 -> 100, filling caches at both forwarders; an
        // overwrite PUT at the owner then fires invalidations — and the
        // owner crash-stops the moment the first invalidation lands.
        // Depending on the order, the fills carry the old or new value,
        // race the invalidations, or are dropped with the owner; the
        // coherence invariant must hold at every quiescent state.
        Scenario {
            name: "invalidate-racing-crash",
            members: vec![100, 200, 300],
            fingers: false,
            blanks: vec![],
            replication: 2,
            succ_len: 3,
            injections: vec![
                issue(100, Op::Put { key: 150, value: 7 }),
                issue(200, Op::Get { key: 150 }),
                issue(100, Op::Put { key: 150, value: 9 }),
            ],
            triggers: vec![Trigger {
                kind: Some(DeliveryKind::CacheInvalidate),
                count: 1,
                action: FaultAction::Crash(100),
            }],
            cache_capacity: 4,
            broken_handover_at: None,
            expect_quiescent_completion: false,
        },
    ]
}

/// The deliberately broken variant for the counterexample-replay
/// regression tests: single-copy placement, an acked PUT into the range a
/// joiner takes over, and a granter whose handover "forgets" the shard.
/// The checker must find the lost key range, minimize the trace, and
/// replay it byte-identically.
pub fn broken_handover_scenario() -> Scenario {
    Scenario {
        name: "broken-handover",
        members: vec![100, 200, 300],
        fingers: false,
        blanks: vec![140],
        replication: 1,
        succ_len: 3,
        injections: vec![issue(100, Op::Put { key: 150, value: 7 }), join(140, 100)],
        triggers: vec![],
        cache_capacity: 0,
        broken_handover_at: Some(100),
        expect_quiescent_completion: true,
    }
}

/// Renders scenario reports as a JSON array: the shipped scenarios'
/// rendering is committed as `results/protocol_states.json`.
pub fn reports_to_json(reports: &[ScenarioReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"scenario\":\"{}\",\"explored\":{},\"terminals\":{},\
             \"deduped\":{},\"sleep_pruned\":{},\"max_depth\":{},\
             \"complete\":{},\"violations\":{}}}",
            r.scenario,
            r.explored,
            r.terminals,
            r.deduped,
            r.sleep_pruned,
            r.max_depth_seen,
            r.complete,
            r.violation.as_ref().map_or(0, |c| c.violations.len()),
        ));
    }
    out.push(']');
    out
}
