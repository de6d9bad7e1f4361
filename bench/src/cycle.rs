//! One cycle on a fresh cluster: set-up, the *lo*, *hi* and *burst*
//! segments with a host-yardstick reading before and after each, settled
//! reads, and the read-outs the metrics are made from.
//!
//! One thread drives everything through `canon-node`'s public API:
//! `Runtime::inject`, `step` and `next_event` in the loop, `summary`,
//! `completions`, `cache_summary`, `wire_summary`, `hop_totals`,
//! `forwarding_loads` and `shard_of` between segments.

use crate::clock::{DriveClock, WallClock};
use crate::host;
use crate::oracle::{owner_of, Issued, Phase};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{draw, Cmd, Schedule, Shape, Spec, OVERLAY_SEED, SEG_NAMES};
use canon::crescendo::build_crescendo;
use canon::engine::CanonicalNetwork;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::{
    from_graph, CacheConfig, CacheSummary, ChannelTransport, Clock, Command, Completion,
    FramedTransport, Op, RpcConfig, Runtime, RuntimeConfig, Summary, Transport, WireSummary,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The cluster configuration every cycle and the count pass share:
/// deadlines are a safety net only (a loss-free transport never needs a
/// retransmission), as in `node_throughput`.
pub fn runtime_config(spec: &Spec) -> RuntimeConfig {
    RuntimeConfig {
        rpc: RpcConfig {
            timeout: 1 << 40,
            max_retries: 1,
        },
        cache: CacheConfig::with_capacity(spec.cache),
        ..RuntimeConfig::default()
    }
}

/// The workload's transport stack: bare channels, or the same channels
/// under the framing layer.
pub fn transport(spec: &Spec) -> Arc<dyn Transport> {
    if spec.framed {
        Arc::new(FramedTransport::new(ChannelTransport::new(1)))
    } else {
        Arc::new(ChannelTransport::new(1))
    }
}

/// Builds the benchmark's Crescendo overlay: a balanced 4-ary, 3-level
/// hierarchy with `n` uniformly placed nodes.
pub fn build_overlay(n: usize) -> CanonicalNetwork {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::uniform(&h, n, OVERLAY_SEED);
    build_crescendo(&h, &p)
}

/// One drive-loop iteration.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// The tick the round ran at.
    pub tick: u64,
    /// When `step` returned, ns since the epoch: completions recorded in
    /// this round became visible to the driver then.
    pub end_ns: u64,
    /// Time inside `step`.
    pub step_ns: u64,
    /// Events `step` handled.
    pub events: u32,
}

/// What the driver measured around one segment.
#[derive(Clone, Debug, Default)]
pub struct SegLog {
    /// When the segment started (its commands' due times count from here).
    pub start_ns: u64,
    /// When the cluster went idle after the last command.
    pub end_ns: u64,
    /// The segment's commands, as a range of [`CycleOut::issued`].
    pub issued: Range<usize>,
    /// The segment's iterations, as a range of [`CycleOut::rounds`].
    pub rounds: Range<usize>,
    /// Time spent latching the clock and injecting commands.
    pub inject_ns: u64,
    /// Time inside `step`.
    pub step_ns: u64,
    /// Time inside `next_event`.
    pub next_event_ns: u64,
    /// Time spent waiting for the next event or due command.
    pub wait_ns: u64,
}

impl CycleOut {
    /// How much slower than the reference the host ran during stage
    /// `stage` (0 = set-up, 1 = lo, 2 = hi, 3 = burst).
    pub fn slowdown(&self, stage: usize) -> f64 {
        host::slowdown(self.yard_ns[stage], self.yard_ns[stage + 1])
    }
}

impl SegLog {
    /// Wall time from the first due command to idle.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Cumulative read-outs taken at a segment boundary.
#[derive(Clone, Debug)]
pub struct Readout {
    /// `Runtime::summary`.
    pub summary: Summary,
    /// `Runtime::cache_summary`.
    pub cache: CacheSummary,
    /// `Runtime::wire_summary` (all zero on an unframed stack).
    pub wire: WireSummary,
    /// `Runtime::hop_totals().1`: request messages sent.
    pub hops: u64,
}

/// A live cluster plus the driver's bookkeeping for it. The timed cycles
/// drive it on a [`WallClock`], the count pass on virtual time.
pub struct Cluster<C> {
    /// The runtime under test.
    pub rt: Runtime,
    /// Its clock.
    pub clock: Arc<C>,
    /// Node identifiers in slot order.
    pub ids: Vec<NodeId>,
    /// Next request id per origin slot.
    next_req: Vec<u64>,
    /// Every command issued so far.
    pub issued: Vec<Issued>,
    /// Every drive-loop iteration so far.
    pub rounds: Vec<Round>,
}

impl<C: DriveClock + 'static> Cluster<C> {
    /// Spawns a cluster over `net` for `spec` on `clock` and `transport`.
    pub fn spawn(
        net: &CanonicalNetwork,
        spec: &Spec,
        clock: C,
        transport: Arc<dyn Transport>,
    ) -> Cluster<C> {
        let clock = Arc::new(clock);
        let rt = from_graph(
            net.graph(),
            clock.clone() as Arc<dyn Clock>,
            transport,
            runtime_config(spec),
        );
        let ids = rt.ids();
        Cluster {
            rt,
            clock,
            next_req: vec![0; ids.len()],
            ids,
            issued: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Takes the cumulative read-outs.
    pub fn readout(&self) -> Readout {
        Readout {
            summary: self.rt.summary(),
            cache: self.rt.cache_summary(),
            wire: self.rt.wire_summary().unwrap_or_default(),
            hops: self.rt.hop_totals().1 as u64,
        }
    }

    /// Drives one segment open loop: each iteration injects every command
    /// whose due time has passed, runs one round, then waits for the
    /// earlier of the next pending event and the next due command — and
    /// at least for the next tick, so every round runs at its own tick.
    /// Returns when all commands are in and the cluster is idle.
    pub fn drive(
        &mut self,
        name: &'static str,
        cmds: &[Cmd],
        phase: Phase,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> SegLog {
        let start_ns = self.clock.now_ns();
        let span = tracer.open(name, start_ns, parent);
        let mut log = SegLog {
            start_ns,
            issued: self.issued.len()..self.issued.len(),
            rounds: self.rounds.len()..self.rounds.len(),
            ..SegLog::default()
        };
        let mut next = 0usize;
        let mut t0 = start_ns;
        loop {
            let round = (self.rounds.len() - log.rounds.start) as u32;
            let (_, tick) = self.clock.latch();
            let first = next;
            while let Some(c) = cmds.get(next).filter(|c| start_ns + c.due_ns <= t0) {
                let slot = c.origin as usize;
                self.rt.inject(self.ids[slot], Command::Issue(c.op.clone()));
                self.issued.push(Issued {
                    slot: c.origin,
                    req: self.next_req[slot],
                    op: c.op.clone(),
                    due_ns: start_ns + c.due_ns,
                    inject_ns: t0,
                    phase,
                });
                self.next_req[slot] += 1;
                next += 1;
            }
            let t1 = self.clock.now_ns();
            let events = self.rt.step() as u32;
            let t2 = self.clock.now_ns();
            let pending = self.rt.next_event();
            let t3 = self.clock.now_ns();
            self.rounds.push(Round {
                tick,
                end_ns: t2,
                step_ns: t2 - t1,
                events,
            });
            log.inject_ns += t1 - t0;
            log.step_ns += t2 - t1;
            log.next_event_ns += t3 - t2;
            tracer.record("runtime.inject", t0, t1, span, round, (next - first) as u32);
            tracer.record("runtime.step", t1, t2, span, round, events);
            tracer.record("runtime.next_event", t2, t3, span, round, 0);
            let due = cmds.get(next).map(|c| start_ns + c.due_ns);
            let event = pending.map(|t| self.clock.tick_start_ns(t));
            let Some(target) = due.into_iter().chain(event).min() else {
                log.end_ns = t3;
                break;
            };
            t0 = self
                .clock
                .wait_until_ns(target.max(self.clock.tick_start_ns(tick + 1)));
            log.wait_ns += t0 - t3;
            tracer.record("clock.wait", t3, t0, span, round, 0);
        }
        tracer.close(span, log.end_ns);
        log.issued.end = self.issued.len();
        log.rounds.end = self.rounds.len();
        log
    }
}

/// Set-up times of one cycle, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Drawing the schedule.
    pub draw_s: f64,
    /// `build_crescendo`.
    pub build_s: f64,
    /// `from_graph`.
    pub spawn_s: f64,
    /// Injecting the preload PUTs and draining them.
    pub preload_s: f64,
}

impl SetupTimes {
    /// The `setup_s` metric: everything before the first timed segment.
    pub fn total_s(&self) -> f64 {
        self.draw_s + self.build_s + self.spawn_s + self.preload_s
    }
}

/// Everything one cycle produced.
pub struct CycleOut {
    /// The schedule the cycle replayed.
    pub schedule: Schedule,
    /// The overlay it ran on (kept for the static-route check and probes).
    pub net: CanonicalNetwork,
    /// Node identifiers in slot order.
    pub ids: Vec<NodeId>,
    /// Set-up times.
    pub setup: SetupTimes,
    /// Host-yardstick readings, ns: before set-up, then before *lo*,
    /// *hi*, *burst*, and after *burst* — stage `s` of set-up, lo, hi,
    /// burst ran between readings `s` and `s + 1`.
    pub yard_ns: [u64; 5],
    /// Logs of the *lo*, *hi* and *burst* segments.
    pub segs: [SegLog; 3],
    /// Read-outs after set-up and after each timed segment.
    pub readouts: [Readout; 4],
    /// Every command issued: preload, segments, settled reads.
    pub issued: Vec<Issued>,
    /// Every drive-loop iteration, ascending in tick.
    pub rounds: Vec<Round>,
    /// Every completion record.
    pub completions: Vec<Completion>,
    /// Per-node forwarding load after the burst.
    pub forwarding_loads: Vec<u64>,
    /// Shard entries across the cluster after the burst.
    pub shard_entries: u64,
    /// For each key read in the settle phase, its owner's shard value.
    pub settled: HashMap<u64, Option<u64>>,
    /// The cycle's span, for later probe spans to hang under.
    pub span: SpanId,
}

/// Runs one cycle of `spec` at `shape` with the schedule drawn from `seed`.
pub fn run_cycle(
    spec: &Spec,
    shape: &Shape,
    seed: Seed,
    epoch: Instant,
    tracer: &mut Tracer,
) -> CycleOut {
    let now = || epoch.elapsed().as_nanos() as u64;
    let secs = |a: u64, b: u64| (b - a) as f64 / 1e9;
    let span = tracer.open("cycle", now(), NO_PARENT);
    let mut yard_ns = Vec::with_capacity(5);
    let mut yardstick = |tracer: &mut Tracer| {
        let t0 = now();
        std::hint::black_box(host::yardstick());
        let t1 = now();
        tracer.record("host.yardstick", t0, t1, span, 0, 0);
        yard_ns.push(t1 - t0);
    };

    yardstick(tracer);
    let t0 = now();
    let schedule = draw(spec, shape, seed);
    let t1 = now();
    tracer.record(
        "workloads.draw",
        t0,
        t1,
        span,
        0,
        schedule.timed_len() as u32,
    );
    let net = build_overlay(shape.n);
    let t2 = now();
    tracer.record("canon.build", t1, t2, span, 0, shape.n as u32);
    let mut cluster = Cluster::spawn(&net, spec, WallClock::new(epoch), transport(spec));
    let t3 = now();
    tracer.record("cluster.spawn", t2, t3, span, 0, shape.n as u32);
    cluster.drive(
        "cluster.preload",
        &schedule.preload,
        Phase::Preload,
        tracer,
        span,
    );
    let t4 = now();
    let setup = SetupTimes {
        draw_s: secs(t0, t1),
        build_s: secs(t1, t2),
        spawn_s: secs(t2, t3),
        preload_s: secs(t3, t4),
    };

    let mut readouts = vec![cluster.readout()];
    yardstick(tracer);
    let segs = [0usize, 1, 2].map(|s| {
        let log = cluster.drive(SEG_NAMES[s], &schedule.segs[s], Phase::Seg(s), tracer, span);
        readouts.push(cluster.readout());
        yardstick(tracer);
        log
    });
    let forwarding_loads = cluster.rt.forwarding_loads();

    // Settled reads: with the cluster drained, every written key is read
    // from two origins and must match what its owner's shard holds.
    let mut sorted = cluster.ids.clone();
    sorted.sort_unstable();
    let written: BTreeSet<u64> = schedule
        .segs
        .iter()
        .flatten()
        .filter_map(|c| match c.op {
            Op::Put { key, .. } => Some(key),
            _ => None,
        })
        .collect();
    let mut shards: BTreeMap<NodeId, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut shard_entries = 0u64;
    for &id in &cluster.ids {
        let shard = cluster.rt.shard_of(id);
        shard_entries += shard.len() as u64;
        shards.insert(id, shard);
    }
    let n = shape.n as u64;
    let mut settled = HashMap::with_capacity(written.len());
    let mut reads = Vec::with_capacity(2 * written.len());
    for (i, &key) in written.iter().enumerate() {
        settled.insert(key, shards[&owner_of(&sorted, key)].get(&key).copied());
        for origin in [(7 * i as u64 + 1) % n, (13 * i as u64 + 5) % n] {
            reads.push(Cmd {
                origin: origin as u32,
                op: Op::Get { key },
                due_ns: 0,
            });
        }
    }
    cluster.drive("settle", &reads, Phase::Settle, tracer, span);
    tracer.close(span, now());

    let completions = cluster.rt.completions();
    let Ok(readouts) = <[Readout; 4]>::try_from(readouts) else {
        unreachable!("one read-out after set-up and one per segment");
    };
    let Ok(yard_ns) = <[u64; 5]>::try_from(yard_ns) else {
        unreachable!("one yardstick reading before set-up and one after each stage");
    };
    CycleOut {
        schedule,
        net,
        ids: cluster.ids,
        setup,
        yard_ns,
        segs,
        readouts,
        issued: cluster.issued,
        rounds: cluster.rounds,
        completions,
        forwarding_loads,
        shard_entries,
        settled,
        span,
    }
}
