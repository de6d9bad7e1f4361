//! The framing equivalence guarantee: wrapping the transport stack in
//! [`FramedTransport`] — so every message round-trips through the wire
//! codec and is delivered from decoded frames — changes *nothing*
//! observable. Event logs, completions, summaries and hop totals are
//! byte-identical to the unframed run, clean and under deterministic
//! faults, across 1, 3, 4 and 8 worker threads — on the 96-node storm of
//! `tests/determinism.rs` and, clean, at the serving benchmark's own
//! scale ([`BENCH_SCALE`]).

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::{
    from_graph, ChannelTransport, Command, Completion, FaultyTransport, FramedTransport, LinkBytes,
    Op, RuntimeConfig, Summary, VirtualClock, WireSummary,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The cluster and command stream one storm runs.
struct Shape {
    /// `Hierarchy::balanced(4, levels)`.
    levels: u32,
    nodes: usize,
    requests: u64,
    /// Request `i` is a Lookup, Put or Get as `mix[i % mix.len()]` is
    /// 0, 1 or 2.
    mix: &'static [u8],
    /// Keys are drawn from this many hashed points, so Gets find what
    /// Puts stored; `None` gives every request a fresh 64-bit key.
    universe: Option<u64>,
    /// Whether the digest carries the per-node event logs.
    record_events: bool,
}

/// The storm of `tests/determinism.rs`.
const SMALL: Shape = Shape {
    levels: 2,
    nodes: 96,
    requests: 600,
    mix: &[0, 1, 2],
    universe: None,
    record_events: true,
};

/// The cluster `bench/` serves — `Hierarchy::balanced(4, 3)` × 1,024
/// nodes — under its uniform mix (50% Lookup, 25% Put, 25% Get) over
/// hashed keys, which spread ownership over the whole ring.
const BENCH_SCALE: Shape = Shape {
    levels: 3,
    nodes: 1024,
    requests: 10 * 1024,
    mix: &[0, 0, 1, 2],
    universe: Some(16 * 1024),
    record_events: false,
};

/// Everything observable about one storm.
struct Run {
    /// Event log, completions, summary and hop totals as one string.
    digest: String,
    completions: Vec<Completion>,
    summary: Summary,
    /// Wire accounting, total and per directed link; `None` for unframed
    /// stacks.
    wire: Option<WireSummary>,
    links: Option<BTreeMap<(NodeId, NodeId), LinkBytes>>,
}

/// Runs `shape`'s storm over a transport stack chosen by
/// `framed`/`lossy`.
fn storm(shape: &Shape, threads: usize, framed: bool, lossy: bool) -> Run {
    canon_par::with_threads(threads, || {
        let h = Hierarchy::balanced(4, shape.levels);
        let p = Placement::uniform(&h, shape.nodes, Seed(42));
        let net = build_crescendo(&h, &p);
        // The faulty wrapper sits *inside* the framer so loss and jitter
        // are decided per message with the same seeds and sequence numbers
        // as the unframed stack — that is what makes the runs comparable.
        let faulty = || FaultyTransport::new(ChannelTransport::new(2), Seed(1234), 80, 3);
        let transport: Arc<dyn canon_node::Transport> = match (framed, lossy) {
            (false, false) => Arc::new(ChannelTransport::new(1)),
            (false, true) => Arc::new(faulty()),
            (true, false) => Arc::new(FramedTransport::new(ChannelTransport::new(1))),
            (true, true) => Arc::new(FramedTransport::new(faulty())),
        };
        let config = RuntimeConfig {
            record_events: shape.record_events,
            ..RuntimeConfig::default()
        };
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            transport,
            config,
        );
        let ids = rt.ids();
        let base = Seed(7).derive("determinism-storm");
        for i in 0..shape.requests {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let fresh = base.derive_index(i).derive("key").0;
            let key = match shape.universe {
                Some(u) => base.derive("universe").derive_index(fresh % u).0,
                None => fresh,
            };
            let op = match shape.mix[i as usize % shape.mix.len()] {
                0 => Op::Lookup { key },
                1 => Op::Put { key, value: r },
                _ => Op::Get { key },
            };
            rt.inject(origin, Command::Issue(op));
        }
        rt.run_until_idle();

        let completions = rt.completions();
        let summary = rt.summary();
        let mut digest = String::new();
        for line in rt.event_log() {
            digest.push_str(&line);
            digest.push('\n');
        }
        for c in &completions {
            digest.push_str(&format!("{c:?}\n"));
        }
        digest.push_str(&format!("{summary:?}\n"));
        digest.push_str(&format!("hops={:?}\n", rt.hop_totals()));
        Run {
            digest,
            completions,
            summary,
            wire: rt.wire_summary(),
            links: rt.link_bytes(),
        }
    })
}

/// [`SMALL`]'s digest and wire accounting.
fn small(threads: usize, framed: bool, lossy: bool) -> (String, Option<WireSummary>) {
    let run = storm(&SMALL, threads, framed, lossy);
    (run.digest, run.wire)
}

#[test]
fn framed_clean_run_matches_channel_byte_for_byte() {
    let (channel, no_wire) = small(1, false, false);
    assert!(no_wire.is_none(), "unframed stack reported wire accounting");
    let (framed, wire) = small(1, true, false);
    assert_eq!(channel, framed, "framing changed the observable run");
    let wire = wire.expect("framed stack must report wire accounting");
    assert!(wire.frames > 0, "no frames were accounted");
    assert!(wire.msgs >= wire.frames);
    assert_eq!(wire.decode_errors, 0, "codec round-trip failed in-run");
    assert!(wire.bytes > 0 && wire.bytes <= wire.unbatched_bytes);
}

#[test]
fn framed_clean_run_is_byte_identical_across_worker_counts() {
    let (one, wire_one) = small(1, true, false);
    // Three workers split a round's active nodes into uneven chunks.
    let (three, wire_three) = small(3, true, false);
    let (four, wire_four) = small(4, true, false);
    let (eight, wire_eight) = small(8, true, false);
    assert_eq!(one, three, "1-thread and 3-thread framed runs diverged");
    assert_eq!(one, four, "1-thread and 4-thread framed runs diverged");
    assert_eq!(one, eight, "1-thread and 8-thread framed runs diverged");
    // The ledger aggregates commutatively, so even the wire accounting is
    // thread-count independent.
    assert_eq!(
        wire_one, wire_three,
        "wire accounting diverged at 3 threads"
    );
    assert_eq!(wire_one, wire_four, "wire accounting diverged at 4 threads");
    assert_eq!(
        wire_one, wire_eight,
        "wire accounting diverged at 8 threads"
    );
}

#[test]
fn framed_matches_channel_at_the_benchmark_scale() {
    let channel = storm(&BENCH_SCALE, 1, false, false);
    let framed = storm(&BENCH_SCALE, 1, true, false);
    for run in [&channel, &framed] {
        assert!(run.summary.zero_loss(), "lost requests: {:?}", run.summary);
    }
    assert!(
        channel.completions.iter().any(|c| c.value.is_some()),
        "no Get met a Put: the key universe is not exercising values"
    );
    assert_eq!(
        channel.summary, framed.summary,
        "framing changed the cluster summary"
    );
    assert_eq!(channel.completions.len(), framed.completions.len());
    for (c, f) in channel.completions.iter().zip(&framed.completions) {
        assert_eq!(c, f, "framing changed a completion record");
    }
    assert!(
        channel.digest == framed.digest,
        "framing changed the hop totals"
    );
    let wire = framed
        .wire
        .expect("framed stack must report wire accounting");
    assert!(wire.frames > 0, "no frames were accounted");
    assert_eq!(wire.decode_errors, 0, "codec round-trip failed in-run");

    let four = storm(&BENCH_SCALE, 4, true, false);
    assert!(
        framed.digest == four.digest,
        "1-thread and 4-thread framed runs diverged"
    );
    assert_eq!(
        Some(wire),
        four.wire,
        "wire accounting diverged at 4 threads"
    );
}

#[test]
fn framed_lossy_run_matches_faulty_channel_byte_for_byte() {
    let (channel, _) = small(1, false, true);
    let (framed, wire) = small(1, true, true);
    assert!(
        channel.contains("retransmits"),
        "summary missing from digest"
    );
    assert_eq!(channel, framed, "framing changed the observable lossy run");
    let wire = wire.expect("framed stack must report wire accounting");
    assert!(wire.frames > 0);
    assert_eq!(wire.decode_errors, 0);
}

#[test]
fn framed_lossy_run_is_byte_identical_across_worker_counts() {
    let (one, wire_one) = small(1, true, true);
    let (three, wire_three) = small(3, true, true);
    let (four, wire_four) = small(4, true, true);
    let (eight, wire_eight) = small(8, true, true);
    assert_eq!(
        one, three,
        "1-thread and 3-thread framed lossy runs diverged"
    );
    assert_eq!(
        one, four,
        "1-thread and 4-thread framed lossy runs diverged"
    );
    assert_eq!(
        one, eight,
        "1-thread and 8-thread framed lossy runs diverged"
    );
    assert_eq!(wire_one, wire_three);
    assert_eq!(wire_one, wire_four);
    assert_eq!(wire_one, wire_eight);
}

#[test]
fn per_link_counters_cover_the_wire_totals() {
    let run = storm(&SMALL, 2, true, false);
    let sum = run.wire.expect("wire accounting");
    let links = run.links.expect("link counters");
    assert_eq!(sum.links as usize, links.len());
    let (mut frames, mut msgs, mut bytes) = (0u64, 0u64, 0u64);
    for lb in links.values() {
        frames += lb.frames;
        msgs += lb.msgs;
        bytes += lb.bytes;
    }
    // Link counters partition the totals exactly.
    assert_eq!((frames, msgs, bytes), (sum.frames, sum.msgs, sum.bytes));
    // And the recorded storm saw more than one distinct link.
    assert!(sum.links > 1);
}
