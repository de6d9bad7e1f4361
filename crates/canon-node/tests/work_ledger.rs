//! The work ledger's golden: what the runtime does per request, counted,
//! at the serving benchmark's shape — 1,024 Crescendo nodes on
//! `Hierarchy::balanced(4, 3)`, the benchmark's overlay seed, its four
//! workloads' transports, caches and operation mixes.
//!
//! Each workload runs its phases under the virtual clock, each phase
//! injected at once and run until idle: the cached workloads' preload (a
//! PUT of every universe key), then one burst of [`BURST`] commands drawn
//! as the benchmark draws its burst. Per phase, every counter of
//! [`WorkLedger`] divided by the phase's requests is pinned in
//! `results/work_ledger.json`, from a one-worker run on a fresh thread
//! (the growth counters count a worker's buffers, and those start empty
//! there). The counters that are the same on any worker count must also
//! be so at 4 and 8 workers, and the counters both stacks define (node
//! rounds, buckets created) must be the same on the uniform burst over
//! bare channels and over frames.
//!
//! A change that moves a value on purpose regenerates the file: the
//! failure message prints its new contents.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::{splitmix64, Seed};
use canon_node::{
    from_graph, CacheConfig, ChannelTransport, Command, FramedTransport, Op, RpcConfig, Runtime,
    RuntimeConfig, Transport, VirtualClock, WorkLedger,
};
use canon_workloads::{FlashCrowd, ZipfKeys};
use rand::Rng;
use std::sync::Arc;

const NODES: usize = 1024;
/// The benchmark's overlay, key-universe and burst seeds.
const OVERLAY_SEED: Seed = Seed(0x00ca_9090);
const UNIVERSE_SEED: Seed = Seed(0x6b65_7973);
const BURST_SEED: Seed = Seed(46);
const ZIPF_S: f64 = 0.9;
/// Ten commands per node: the benchmark's burst is a hundred, which a
/// debug build would take minutes over.
const BURST: usize = 10 * NODES;

#[derive(Clone, Copy, Debug)]
enum Mix {
    Uniform,
    Flash,
    WriteHeavy,
}

/// The benchmark's four workloads: name, framed, cache capacity, mix.
const WORKLOADS: [(&str, bool, usize, Mix); 4] = [
    ("uniform_channel", false, 0, Mix::Uniform),
    ("uniform_framed", true, 0, Mix::Uniform),
    ("flash_cached", true, 64, Mix::Flash),
    ("write_heavy", true, 64, Mix::WriteHeavy),
];

/// The preload: one PUT of every universe key, origin by rank.
fn preload(universe: &ZipfKeys) -> Vec<(usize, Op)> {
    (0..NODES)
        .map(|r| {
            let key = universe.key(r).raw();
            let value = splitmix64(key);
            (r, Op::Put { key, value })
        })
        .collect()
}

/// One burst of the mix, drawn as the benchmark draws a segment.
fn burst(mix: Mix) -> Vec<(usize, Op)> {
    let mut rng = BURST_SEED.rng();
    let len = BURST as u64;
    let crowd = FlashCrowd::new(
        NODES,
        ZIPF_S,
        NODES / 2,
        len / 4,
        len / 2,
        0.9,
        UNIVERSE_SEED,
    );
    (0..BURST)
        .map(|i| {
            let origin = rng.gen_range(0..NODES);
            let value: u64 = rng.gen();
            let pick: f64 = rng.gen();
            let op = match mix {
                Mix::Uniform => {
                    let key = splitmix64(rng.gen_range(0..16 * NODES as u64) + 1);
                    if pick < 0.5 {
                        Op::Lookup { key }
                    } else if pick < 0.75 {
                        Op::Put { key, value }
                    } else {
                        Op::Get { key }
                    }
                }
                Mix::Flash if pick < 0.95 => Op::Get {
                    key: crowd.draw_at(i as u64, &mut rng).raw(),
                },
                Mix::Flash | Mix::WriteHeavy => {
                    let key = crowd.base().draw(&mut rng).raw();
                    if matches!(mix, Mix::Flash) || pick < 0.7 {
                        Op::Put { key, value }
                    } else {
                        Op::Get { key }
                    }
                }
            };
            (origin, op)
        })
        .collect()
}

/// Runs one workload's phases, returning each phase's name, requests and
/// ledger.
fn phases(framed: bool, cache: usize, mix: Mix) -> Vec<(&'static str, usize, WorkLedger)> {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::uniform(&h, NODES, OVERLAY_SEED);
    let net = build_crescendo(&h, &p);
    let transport: Arc<dyn Transport> = if framed {
        Arc::new(FramedTransport::new(ChannelTransport::new(1)))
    } else {
        Arc::new(ChannelTransport::new(1))
    };
    let config = RuntimeConfig {
        rpc: RpcConfig {
            timeout: 1 << 40,
            max_retries: 1,
        },
        cache: CacheConfig::with_capacity(cache),
        ..RuntimeConfig::default()
    };
    let mut rt = from_graph(
        net.graph(),
        Arc::new(VirtualClock::new()),
        transport,
        config,
    );
    let ids = rt.ids();
    let run = |rt: &mut Runtime, cmds: Vec<(usize, Op)>| {
        let before = rt.work_ledger();
        let requests = cmds.len();
        for (origin, op) in cmds {
            rt.inject(ids[origin], Command::Issue(op));
        }
        rt.run_until_idle();
        (requests, rt.work_ledger().since(&before))
    };
    let mut out = Vec::new();
    if cache > 0 {
        let (requests, ledger) = run(
            &mut rt,
            preload(&ZipfKeys::new(NODES, ZIPF_S, UNIVERSE_SEED)),
        );
        out.push(("preload", requests, ledger));
    }
    let (requests, ledger) = run(&mut rt, burst(mix));
    out.push(("burst", requests, ledger));
    assert!(rt.summary().zero_loss());
    assert_eq!(
        rt.summary().ok,
        rt.summary().injected - rt.summary().not_found
    );
    out
}

/// One golden line per phase: every counter per request.
fn line(workload: &str, phase: &str, requests: usize, ledger: &WorkLedger) -> String {
    let mut line =
        format!("{{\"workload\": \"{workload}\", \"phase\": \"{phase}\", \"requests\": {requests}");
    for (name, count) in ledger.fields() {
        line.push_str(&format!(
            ", \"{name}\": {:.4}",
            count as f64 / requests as f64
        ));
    }
    line.push('}');
    line
}

#[test]
fn the_ledger_matches_its_golden_and_its_invariant_part_every_worker_count() {
    let mut lines = Vec::new();
    let mut uniform_bursts = Vec::new();
    for (workload, framed, cache, mix) in WORKLOADS {
        // A fresh thread: the worker's buffers start empty.
        let one = std::thread::scope(|s| {
            s.spawn(|| canon_par::with_threads(1, || phases(framed, cache, mix)))
                .join()
                .expect("the one-worker run")
        });
        for threads in [4, 8] {
            let many = canon_par::with_threads(threads, || phases(framed, cache, mix));
            let invariant = |runs: &[(&'static str, usize, WorkLedger)]| -> Vec<_> {
                runs.iter()
                    .map(|(phase, _, ledger)| (*phase, ledger.thread_invariant()))
                    .collect()
            };
            assert_eq!(
                invariant(&one),
                invariant(&many),
                "{workload} at {threads} workers"
            );
        }
        for (phase, requests, ledger) in &one {
            lines.push(line(workload, phase, *requests, ledger));
        }
        if matches!(mix, Mix::Uniform) {
            // No preload: the one phase is the burst.
            let (_, _, burst) = &one[0];
            uniform_bursts.push((burst.node_rounds, burst.buckets_created));
        }
    }
    assert_eq!(
        uniform_bursts[0], uniform_bursts[1],
        "channel and framed uniform bursts differ in (node_rounds, buckets_created)"
    );
    let got = lines.join("\n") + "\n";
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/work_ledger.json"
    );
    let want = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        got == want,
        "the work ledger moved; if on purpose, write this to results/work_ledger.json:\n{got}"
    );
}
