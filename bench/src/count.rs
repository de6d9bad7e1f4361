//! The count pass: one cycle's schedule replayed under the virtual clock.
//!
//! Under `VirtualClock` a run is a pure function of its inputs, so the
//! message and byte counts it yields repeat exactly for a seed. The replay
//! always frames (also for `uniform_channel`, whose timed cycles do not),
//! because the frame ledger is the only place messages are counted.

use crate::clock::CountClock;
use crate::cycle::{build_overlay, Cluster};
use crate::oracle::Phase;
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{Schedule, Shape, Spec, SEG_NAMES};
use canon_node::{CacheTally, ChannelTransport, FramedTransport, Op, WireSummary};
use std::sync::Arc;

/// Deterministic per-run counts over the three timed segments.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Commands replayed.
    pub cmds: u64,
    /// PUTs among them.
    pub puts: u64,
    /// GETs among them.
    pub gets: u64,
    /// Messages sent between nodes.
    pub msgs: u64,
    /// Framed bytes those messages took.
    pub bytes: u64,
    /// `Replicate` messages.
    pub replicates: u64,
    /// Request messages sent (one next-hop selection each).
    pub hops: u64,
    /// Requests served by their responsible node.
    pub served: u64,
    /// Cache events.
    pub cache: CacheTally,
    /// Completions that were not a plain success or a GET of an absent
    /// key (must be 0).
    pub failed: u64,
}

impl Counts {
    /// `v` per replayed command.
    pub fn per_req(&self, v: u64) -> f64 {
        v as f64 / self.cmds.max(1) as f64
    }
}

/// Messages of payload kind `kind` in a wire summary.
pub fn kind_msgs(wire: &WireSummary, kind: &str) -> u64 {
    wire.per_kind
        .iter()
        .find(|(k, _, _)| k == kind)
        .map_or(0, |&(_, msgs, _)| msgs)
}

/// Replays `schedule` on a fresh framed cluster under the virtual clock,
/// with the drive loop of the timed cycles: each command goes in at the
/// first count tick at or after its due time.
pub fn count_pass(spec: &Spec, shape: &Shape, schedule: &Schedule) -> Counts {
    let net = build_overlay(shape.n);
    let framed = Arc::new(FramedTransport::new(ChannelTransport::new(1)));
    let mut cluster = Cluster::spawn(&net, spec, CountClock::default(), framed);
    let mut off = Tracer::new(false);
    cluster.drive(
        "cluster.preload",
        &schedule.preload,
        Phase::Preload,
        &mut off,
        NO_PARENT,
    );
    let r0 = cluster.readout();
    for (s, seg) in schedule.segs.iter().enumerate() {
        cluster.drive(SEG_NAMES[s], seg, Phase::Seg(s), &mut off, NO_PARENT);
    }
    let r = cluster.readout();

    let timed = || schedule.segs.iter().flatten();
    let cmds = schedule.timed_len() as u64;
    let completed = r.summary.completed - r0.summary.completed;
    let answered = (r.summary.ok + r.summary.not_found) - (r0.summary.ok + r0.summary.not_found);
    Counts {
        cmds,
        puts: timed().filter(|c| matches!(c.op, Op::Put { .. })).count() as u64,
        gets: timed().filter(|c| matches!(c.op, Op::Get { .. })).count() as u64,
        msgs: r.wire.msgs - r0.wire.msgs,
        bytes: r.wire.bytes - r0.wire.bytes,
        replicates: kind_msgs(&r.wire, "replicate") - kind_msgs(&r0.wire, "replicate"),
        hops: r.hops - r0.hops,
        served: r.summary.served - r0.summary.served,
        cache: CacheTally {
            hits: r.cache.tally.hits - r0.cache.tally.hits,
            misses: r.cache.tally.misses - r0.cache.tally.misses,
            fills: r.cache.tally.fills - r0.cache.tally.fills,
            stale_fills: r.cache.tally.stale_fills - r0.cache.tally.stale_fills,
            corrupt_fills: r.cache.tally.corrupt_fills - r0.cache.tally.corrupt_fills,
            invalidations: r.cache.tally.invalidations - r0.cache.tally.invalidations,
            evictions: r.cache.tally.evictions - r0.cache.tally.evictions,
        },
        failed: cmds.abs_diff(completed)
            + (completed - answered)
            + (r.summary.duplicates + r.summary.retransmits + r.wire.decode_errors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{draw, SPECS};
    use canon_id::rng::Seed;

    #[test]
    fn counts_repeat_for_a_seed_and_see_the_cache() {
        let shape = Shape::SMOKE;
        for spec in &SPECS {
            let s = draw(spec, &shape, Seed(4));
            let a = count_pass(spec, &shape, &s);
            let b = count_pass(spec, &shape, &s);
            assert_eq!((a.msgs, a.bytes, a.hops), (b.msgs, b.bytes, b.hops));
            assert_eq!(a.failed, 0, "{}", spec.name);
            assert_eq!(a.cmds, s.timed_len() as u64);
            assert!(a.msgs > a.cmds, "most commands cross the network");
            assert_eq!(spec.cache == 0, a.cache == CacheTally::default());
            assert!(a.replicates >= a.puts, "each PUT fans out to its replicas");
        }
    }

    #[test]
    fn channel_and_framed_count_the_same() {
        let shape = Shape::SMOKE;
        let s = draw(&SPECS[0], &shape, Seed(4));
        let a = count_pass(&SPECS[0], &shape, &s);
        let b = count_pass(&SPECS[1], &shape, &s);
        assert_eq!((a.msgs, a.bytes), (b.msgs, b.bytes));
    }
}
