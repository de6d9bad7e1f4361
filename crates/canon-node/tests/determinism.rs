//! The determinism guarantee: under the virtual clock, a full lookup/PUT
//! storm over a live cluster is a pure function of its seed —
//! byte-identical event logs, completions and summaries across 1, 4 and 8
//! worker threads.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_node::{
    from_graph, ChannelTransport, Command, FaultyTransport, Op, RuntimeConfig, VirtualClock,
};
use std::sync::Arc;

/// Runs a mixed lookup/PUT/GET storm on `threads` workers and returns the
/// full observable outcome as one string.
fn storm_digest(threads: usize, lossy: bool) -> String {
    canon_par::with_threads(threads, || {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 96, Seed(42));
        let net = build_crescendo(&h, &p);
        let transport: Arc<dyn canon_node::Transport> = if lossy {
            Arc::new(FaultyTransport::new(
                ChannelTransport::new(2),
                Seed(1234),
                80,
                3,
            ))
        } else {
            Arc::new(ChannelTransport::new(1))
        };
        let config = RuntimeConfig {
            record_events: true,
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
        for i in 0..600u64 {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = base.derive_index(i).derive("key").0;
            let cmd = match i % 3 {
                0 => Command::Issue(Op::Lookup { key }),
                1 => Command::Issue(Op::Put { key, value: r }),
                _ => Command::Issue(Op::Get { key }),
            };
            rt.inject(origin, cmd);
        }
        rt.run_until_idle();

        let mut out = String::new();
        for line in rt.event_log() {
            out.push_str(&line);
            out.push('\n');
        }
        for c in rt.completions() {
            out.push_str(&format!("{c:?}\n"));
        }
        out.push_str(&format!("{:?}\n", rt.summary()));
        out.push_str(&format!("hops={:?}\n", rt.hop_totals()));
        out
    })
}

#[test]
fn lookup_storm_is_byte_identical_across_worker_counts() {
    let one = storm_digest(1, false);
    let four = storm_digest(4, false);
    let eight = storm_digest(8, false);
    assert!(!one.is_empty());
    assert_eq!(one, four, "1-thread and 4-thread runs diverged");
    assert_eq!(one, eight, "1-thread and 8-thread runs diverged");
}

#[test]
fn faulty_storm_is_byte_identical_across_worker_counts() {
    // Loss, jitter and retries all derive from seeds, so even a degraded
    // network replays exactly.
    let one = storm_digest(1, true);
    let four = storm_digest(4, true);
    let eight = storm_digest(8, true);
    assert!(one.contains("retransmits"), "summary missing from digest");
    assert_eq!(one, four, "1-thread and 4-thread faulty runs diverged");
    assert_eq!(one, eight, "1-thread and 8-thread faulty runs diverged");
}
