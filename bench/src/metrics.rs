//! Turns one cycle's logs and read-outs into named metric values, and
//! checks the cycle with the oracle on the way.

use crate::count::{kind_msgs, Counts};
use crate::cycle::{CycleOut, Readout, SegLog};
use crate::oracle::{self, Failures};
use crate::probes::Probes;
use crate::stats::percentile;
use crate::trace::{self_time_by_name, Span};
use crate::workloads::{Spec, SEG_NAMES};
use canon_id::metric::Clockwise;
use canon_node::{Op, WireSummary};
use canon_overlay::{route_to_key_sweep, NodeIndex};
use std::collections::BTreeMap;

/// A backlog that grows by more than this factor over a paced window
/// (median over the run's cycles) marks that segment saturated.
pub const BACKLOG_LIMIT: f64 = 1.5;

/// What a request that never completed counts as, µs: beyond any bound.
const NEVER_US: f64 = 1e12;

/// Named values of one cycle.
pub type Values = BTreeMap<&'static str, f64>;

/// One cycle, evaluated.
pub struct Evaluated {
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer metric values (probes and attribution excluded).
    pub layer: Values,
    /// Failed operations.
    pub failures: Failures,
    /// Backlog growth over the *lo* and the *hi* window.
    pub backlog_growth: [f64; 2],
    /// Operations attempted: every command issued, settled reads included.
    pub attempted: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Backlog growth over a paced window: the median latency of the
/// commands due in its last fifth over that of the commands due in its
/// 5–25 % stretch (`samples` holds `(due, latency)` pairs). At a fixed
/// offered rate the backlog is proportional to latency, so a queue that
/// keeps up reads ≈ 1 and one that falls behind grows with the window.
/// Both stretches lie outside the flash spike (the middle half), so like
/// is compared with like; medians, so that one stall of the host does not
/// read as saturation.
pub fn backlog_growth(samples: &[(u64, f64)], start_ns: u64, window_ns: u64) -> f64 {
    let at = |share: f64| start_ns + (window_ns as f64 * share) as u64;
    let median_in = |from: u64, to: u64| {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|&&(due, _)| (from..to).contains(&due))
            .map(|&(_, l)| l)
            .collect();
        lat.sort_by(f64::total_cmp);
        percentile(&lat, 0.5)
    };
    let early = median_in(at(0.05), at(0.25));
    let late = median_in(at(0.80), at(1.0));
    if early == 0.0 {
        1.0
    } else {
        late / early
    }
}

/// Evaluates one cycle of `spec`: oracle first, then the metrics.
pub fn evaluate(spec: &Spec, window_ns: u64, out: &CycleOut, counts: &Counts) -> Evaluated {
    let checked = oracle::check(&out.issued, &out.completions, &out.ids, &out.settled);
    let mut failures = checked.failures;

    // When each command's completion became visible: the end of the round
    // that recorded it (rounds ascend in tick, one round per tick).
    let done_ns = |i: usize| -> Option<u64> {
        let c = &out.completions[checked.completion_of[i]? as usize];
        let r = out
            .rounds
            .binary_search_by_key(&c.completed_at, |r| r.tick)
            .ok()?;
        Some(out.rounds[r].end_ns)
    };

    // The three timings a client sees — set-up, capacity, latency — are
    // scaled to the reference host speed by the yardstick readings around
    // their stage; everything per layer stays as measured.
    let mut e2e = Values::new();
    let mut layer = Values::new();
    e2e.insert("setup_s", out.setup.total_s() / out.slowdown(0));
    let burst = &out.segs[2];
    let capacity = ratio(burst.issued.len() as f64, burst.wall_ns() as f64 / 1e9);
    e2e.insert("capacity_rps", capacity * out.slowdown(3));
    e2e.insert("msgs_per_req", counts.per_req(counts.msgs));
    e2e.insert("wire_bytes_per_req", counts.per_req(counts.bytes));
    let mut yard_us: Vec<f64> = out.yard_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    yard_us.sort_by(f64::total_cmp);
    layer.insert("host.probe_us", percentile(&yard_us, 0.5));

    // Paced segments: latency from the due time, never the inject time.
    // p99, and p90 at `rate_hi`, move too much between identical runs to
    // bound: per layer.
    let mut late_us: Vec<f64> = Vec::new();
    let mut backlog = [0.0; 2];
    let names = [
        [
            (true, "lat_lo_p50_us"),
            (true, "lat_lo_p90_us"),
            (false, "node.lat_lo_p99_us"),
        ],
        [
            (true, "lat_hi_p50_us"),
            (false, "node.lat_hi_p90_us"),
            (false, "node.lat_hi_p99_us"),
        ],
    ];
    for (s, names) in names.iter().enumerate() {
        let seg = &out.segs[s];
        let slowdown = out.slowdown(s + 1);
        let mut lat_us = Vec::with_capacity(seg.issued.len());
        let mut samples = Vec::with_capacity(seg.issued.len());
        for i in seg.issued.clone() {
            let q = &out.issued[i];
            late_us.push((q.inject_ns - q.due_ns) as f64 / 1e3);
            let us = done_ns(i).map_or(NEVER_US, |done| (done - q.due_ns) as f64 / 1e3);
            lat_us.push(us);
            samples.push((q.due_ns, us));
        }
        lat_us.sort_by(f64::total_cmp);
        for (&(end_to_end, name), p) in names.iter().zip([0.50, 0.90, 0.99]) {
            let values = if end_to_end { &mut e2e } else { &mut layer };
            values.insert(name, percentile(&lat_us, p) / slowdown);
        }
        backlog[s] = backlog_growth(&samples, seg.start_ns, window_ns);
    }
    late_us.sort_by(f64::total_cmp);
    layer.insert("gen.late_p99_us", percentile(&late_us, 0.99));
    layer.insert("gen.backlog_growth", backlog[0].max(backlog[1]));

    // Differences of the cumulative read-outs over the timed segments.
    let [r0, .., r3] = &out.readouts;
    let timed = out.segs[0].issued.start..burst.issued.end;
    let timed_cmds = timed.len() as f64;
    let count_ops = |is: fn(&Op) -> bool| {
        out.issued[timed.clone()]
            .iter()
            .filter(|q| is(&q.op))
            .count() as f64
    };
    let puts = count_ops(|op| matches!(op, Op::Put { .. }));
    let gets = count_ops(|op| matches!(op, Op::Get { .. }));
    let live_hops: u64 = timed
        .clone()
        .filter_map(|i| checked.completion_of[i])
        .map(|ci| u64::from(out.completions[ci as usize].hops))
        .sum();

    // Cache off: the live routes are the static greedy routes, hop for hop.
    if spec.cache == 0 {
        let queries: Vec<_> = out.issued[timed.clone()]
            .iter()
            .map(|q| (NodeIndex(q.slot), q.op.key_point()))
            .collect();
        let static_hops: usize = route_to_key_sweep(out.net.graph(), Clockwise, &queries)
            .map_or(0, |routes| routes.iter().map(|r| r.hops()).sum());
        if static_hops as u64 != live_hops {
            failures.hop_mismatch += 1;
        }
    }

    layer.insert(
        "workloads.draw_ns_per_cmd",
        ratio(out.setup.draw_s * 1e9, timed_cmds),
    );
    layer.insert("canon.build_s", out.setup.build_s);
    layer.insert("cluster.spawn_s", out.setup.spawn_s);
    layer.insert("cluster.preload_s", out.setup.preload_s);

    // runtime: from the drive loop's own timestamps.
    let lo = &out.segs[0];
    let hi = &out.segs[1];
    let rounds = |seg: &SegLog| &out.rounds[seg.rounds.clone()];
    layer.insert(
        "runtime.inject_ns_per_cmd",
        ratio(burst.inject_ns as f64, burst.issued.len() as f64),
    );
    layer.insert(
        "runtime.step_share",
        ratio(burst.step_ns as f64, burst.wall_ns() as f64),
    );
    let burst_events: u64 = rounds(burst).iter().map(|r| u64::from(r.events)).sum();
    layer.insert(
        "runtime.step_us_per_msg",
        ratio(burst.step_ns as f64 / 1e3, burst_events as f64),
    );
    layer.insert("runtime.rounds_burst", rounds(burst).len() as f64);
    layer.insert(
        "runtime.next_event_us_per_round",
        ratio(lo.next_event_ns as f64 / 1e3, rounds(lo).len() as f64),
    );
    let mut idle: Vec<f64> = rounds(lo)
        .iter()
        .filter(|r| r.events <= 1)
        .map(|r| r.step_ns as f64 / 1e3)
        .collect();
    idle.sort_by(f64::total_cmp);
    layer.insert("runtime.idle_round_us", percentile(&idle, 0.5));
    let hi_events: u64 = rounds(hi).iter().map(|r| u64::from(r.events)).sum();
    layer.insert(
        "runtime.events_per_round_hi",
        ratio(hi_events as f64, rounds(hi).len() as f64),
    );
    layer.insert(
        "clock.wait_share",
        ratio(hi.wait_ns as f64, hi.wall_ns() as f64),
    );

    // node and rpc: from `summary`, `hop_totals`, `forwarding_loads`.
    layer.insert("node.mean_hops", ratio(live_hops as f64, timed_cmds));
    layer.insert(
        "node.forwards_per_req",
        ratio((r3.hops - r0.hops) as f64, timed_cmds),
    );
    layer.insert(
        "node.replicas_per_put",
        ratio(counts.replicates as f64, counts.puts as f64),
    );
    let peak = out.forwarding_loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = ratio(
        out.forwarding_loads.iter().sum::<u64>() as f64,
        out.forwarding_loads.len() as f64,
    );
    layer.insert("node.forward_peak_over_mean", ratio(peak, mean));
    layer.insert("rpc.retransmits", r3.summary.retransmits as f64);
    layer.insert("rpc.timeouts", r3.summary.timed_out as f64);
    layer.insert("shard.entries_total", out.shard_entries as f64);

    // framed: `wire_summary` of the timed segments (zero when unframed).
    let wire = |f: fn(&WireSummary) -> u64| (f(&r3.wire) - f(&r0.wire)) as f64;
    let msgs = wire(|w| w.msgs);
    let bytes = wire(|w| w.bytes);
    layer.insert(
        "framed.frames_per_req",
        ratio(wire(|w| w.frames), timed_cmds),
    );
    layer.insert("framed.msgs_per_frame", ratio(msgs, wire(|w| w.frames)));
    layer.insert("framed.bytes_per_msg", ratio(bytes, msgs));
    layer.insert(
        "framed.header_share",
        ratio(wire(|w| w.header_bytes), bytes),
    );
    layer.insert(
        "framed.batch_saving",
        if bytes == 0.0 {
            0.0
        } else {
            1.0 - ratio(bytes, wire(|w| w.unbatched_bytes))
        },
    );
    layer.insert("framed.decode_errors", r3.wire.decode_errors as f64);
    for (name, kind) in [
        ("framed.kind_share.request", "request"),
        ("framed.kind_share.response", "response"),
        ("framed.kind_share.replicate", "replicate"),
        ("framed.kind_share.cache-fill", "cache-fill"),
        ("framed.kind_share.cache-invalidate", "cache-invalidate"),
    ] {
        let n = kind_msgs(&r3.wire, kind) - kind_msgs(&r0.wire, kind);
        layer.insert(name, ratio(n as f64, msgs));
    }

    // cache: `cache_summary` of the timed segments (zero with caching off).
    let tally = |f: fn(&Readout) -> u64| (f(r3) - f(r0)) as f64;
    let hits = tally(|r| r.cache.tally.hits);
    let fills = tally(|r| r.cache.tally.fills);
    layer.insert(
        "cache.hit_ratio",
        ratio(hits, hits + tally(|r| r.cache.tally.misses)),
    );
    layer.insert("cache.fills_per_get", ratio(fills, gets));
    layer.insert(
        "cache.invalidations_per_put",
        ratio(tally(|r| r.cache.tally.invalidations), puts),
    );
    layer.insert(
        "cache.evictions_per_fill",
        ratio(tally(|r| r.cache.tally.evictions), fills),
    );
    layer.insert("cache.stale_fills", tally(|r| r.cache.tally.stale_fills));
    layer.insert("cache.entries", r3.cache.entries as f64);

    let attempted = out.issued.len() as u64;
    Evaluated {
        e2e,
        layer,
        failures,
        backlog_growth: backlog,
        attempted,
    }
}

/// Probe costs and the attribution they give: probe cost × the count
/// pass's per-request counts, against the measured time per request.
pub fn attribute(spec: &Spec, p: &Probes, counts: &Counts, capacity_rps: f64) -> Values {
    let mut v = Values::new();
    v.insert("rpc.open_resolve_ns", p.rpc_open_resolve_ns);
    v.insert("transport.push_drain_ns_per_msg", p.transport_push_drain_ns);
    v.insert("wire.encode_ns_per_msg", p.wire_encode_ns);
    v.insert("wire.decode_ns_per_msg", p.wire_decode_ns);
    v.insert("overlay.route_ns_per_hop", p.route_ns_per_hop);
    v.insert("overlay.static_mean_hops", p.static_mean_hops);
    v.insert("overlay.mean_degree", p.mean_degree);
    v.insert("store.put_ns", p.store_put_ns);
    v.insert("store.get_ns", p.store_get_ns);
    v.insert("cache.lookup_ns", p.cache_lookup_ns);
    v.insert("cache.fill_ns", p.cache_fill_ns);

    let c = &counts.cache;
    let us = |ns: f64, n: u64| ns * counts.per_req(n) / 1e3;
    // Unframed stacks never touch the codec: the bypass is real.
    let wire = if spec.framed {
        us(p.wire_encode_ns + p.wire_decode_ns, counts.msgs)
    } else {
        0.0
    };
    // One next-hop selection per request message sent, one more (finding
    // no closer link) where the request is served.
    let overlay = us(p.route_ns_per_hop, counts.hops + counts.served);
    // A PUT reads then writes at its owner and writes at each replica; a
    // GET that misses every cache reads at its owner.
    let store = us(p.store_put_ns, counts.puts + counts.replicates)
        + us(
            p.store_get_ns,
            counts.puts + counts.gets.saturating_sub(c.hits),
        );
    let cache = us(p.cache_lookup_ns, c.hits + c.misses)
        + us(p.cache_fill_ns, c.fills + c.stale_fills + c.invalidations);
    // Every message crosses a mailbox, and so does the client command.
    let transport = us(p.transport_push_drain_ns, counts.msgs + counts.cmds);
    let rpc = us(p.rpc_open_resolve_ns, counts.cmds);
    let sum = wire + overlay + store + cache + transport + rpc;
    let per_req_us = ratio(1e6, capacity_rps);
    v.insert("attrib.wire_us_per_req", wire);
    v.insert("attrib.overlay_us_per_req", overlay);
    v.insert("attrib.store_us_per_req", store);
    v.insert("attrib.cache_us_per_req", cache);
    v.insert("attrib.transport_us_per_req", transport);
    v.insert("attrib.rpc_us_per_req", rpc);
    v.insert("attrib.residual_us_per_req", per_req_us - sum);
    v.insert("attrib.coverage", ratio(sum, per_req_us));
    v
}

/// Share of each segment's wall time that the self times of its
/// drive-loop spans account for, as the minimum over the cycle's segments.
pub fn span_coverage(spans: &[Span], cycle: u32) -> f64 {
    const LOOP: [&str; 4] = [
        "runtime.inject",
        "runtime.step",
        "runtime.next_event",
        "clock.wait",
    ];
    let mut worst: f64 = 1.0;
    for (i, seg) in spans.iter().enumerate() {
        let is_segment = seg.cycle == cycle && SEG_NAMES.contains(&seg.name);
        if !is_segment {
            continue;
        }
        let own = self_time_by_name(spans, |s| s.parent == i as u32);
        let covered: u64 = LOOP.iter().filter_map(|n| own.get(n)).sum();
        worst = worst.min(ratio(covered as f64, (seg.end_ns - seg.start_ns) as f64));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_queue_reads_one_and_a_growing_one_more() {
        // 100 commands over the window, each 10 long: steady.
        let steady: Vec<(u64, f64)> = (0..100).map(|i| (i * 100, 10.0)).collect();
        assert_eq!(backlog_growth(&steady, 0, 10_000), 1.0);
        // Latency grows with the due time: the backlog builds.
        let growing: Vec<(u64, f64)> = (0..100).map(|i| (i * 100, 10.0 + i as f64)).collect();
        assert!(backlog_growth(&growing, 0, 10_000) > BACKLOG_LIMIT);
        // One stall late in the window does not read as saturation.
        let mut stalled = steady.clone();
        for s in &mut stalled[85..90] {
            s.1 = 5_000.0;
        }
        assert_eq!(backlog_growth(&stalled, 0, 10_000), 1.0);
        assert_eq!(backlog_growth(&[], 0, 10_000), 1.0);
    }

    /// One real cycle at smoke scale per workload: the driver's due-time
    /// bookkeeping holds and the oracle finds nothing.
    #[test]
    fn a_smoke_cycle_is_clean_and_times_from_the_due_time() {
        use crate::workloads::{draw, Shape, SPECS};
        use canon_id::rng::Seed;
        let shape = Shape::SMOKE;
        for spec in &SPECS {
            let counts = crate::count::count_pass(spec, &shape, &draw(spec, &shape, Seed(2)));
            let mut tracer = crate::trace::Tracer::new(false);
            let epoch = std::time::Instant::now();
            let out = crate::cycle::run_cycle(spec, &shape, Seed(2), epoch, &mut tracer);
            for (s, seg) in out.segs.iter().enumerate() {
                for (q, c) in out.issued[seg.issued.clone()]
                    .iter()
                    .zip(&out.schedule.segs[s])
                {
                    assert_eq!(q.due_ns, seg.start_ns + c.due_ns);
                    assert!(q.inject_ns >= q.due_ns, "never injected before it is due");
                }
            }
            assert!(
                out.rounds.windows(2).all(|w| w[0].tick < w[1].tick),
                "one round per tick"
            );
            let ev = evaluate(spec, shape.window_ns, &out, &counts);
            assert_eq!(ev.failures, Failures::default(), "{}", spec.name);
            assert_eq!(ev.attempted, out.issued.len() as u64);
            let p50 = ev.e2e["lat_lo_p50_us"];
            assert!(p50 > 0.0 && p50 < 1e6, "{}: {p50}", spec.name);
            assert!(ev.e2e["lat_lo_p90_us"] >= p50);
            assert!(ev.layer["node.lat_hi_p90_us"] >= ev.e2e["lat_hi_p50_us"]);
            assert!(ev.layer["node.lat_hi_p99_us"] >= ev.layer["node.lat_hi_p90_us"]);
            assert_eq!(spec.cache == 0, ev.layer["cache.entries"] == 0.0);
            assert_eq!(spec.framed, ev.layer["framed.bytes_per_msg"] > 0.0);
        }
    }

    #[test]
    fn span_coverage_is_the_worst_segment() {
        use crate::trace::{Tracer, NO_PARENT};
        let mut t = Tracer::new(true);
        t.start_cycle(1, true);
        let lo = t.open("lo", 0, NO_PARENT);
        t.record("runtime.step", 0, 600, lo, 0, 0);
        t.record("clock.wait", 600, 990, lo, 0, 0);
        t.close(lo, 1000);
        let hi = t.open("hi", 1000, NO_PARENT);
        t.record("runtime.step", 1000, 1900, hi, 0, 0);
        t.close(hi, 2000);
        assert_eq!(span_coverage(t.spans(), 1), 0.9);
        assert_eq!(
            span_coverage(t.spans(), 2),
            1.0,
            "no segments, nothing uncovered"
        );
    }
}
