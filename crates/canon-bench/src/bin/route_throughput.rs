//! Routing hot-path microbenchmark: lookups per second through three
//! executors on one Crescendo network —
//!
//! * **generic**: the candidates-then-sort executor `drive` (per hop,
//!   collect every neighbor into a candidate vector, sort, take the best
//!   on strict progress) — the in-run route-equality reference;
//! * **indexed**: the fast-path executor `execute`, one binary/linear
//!   probe of the graph's `NextHopIndex` per hop;
//! * **sweep**: `route_to_key_sweep`, the indexed fast path with a window
//!   of lookups interleaved so their per-hop cache misses overlap
//!   (single-thread memory-level parallelism).
//!
//! All three are driven over the *same* pre-drawn `(origin, key)` lookup
//! set and must realize identical routes — the run fails if any terminal
//! or hop count diverges, so the speedups are measured on provably
//! equivalent work. Construction cost is excluded; only the routing loops
//! are timed, each as the best of [`PASSES`] repeats (the standard guard
//! against scheduler noise, applied identically to every executor).
//! `speedup_generic` is sweep vs generic and `speedup_indexed` is indexed
//! vs generic.
//!
//! `--json` emits one machine-readable JSON object (the committed baseline
//! `results/BENCH_route_throughput.json`); the default is an aligned
//! table. The committed baseline is a single-thread run (`--threads 1`) —
//! the executors themselves are serial; thread count only affects
//! construction.

#![allow(
    clippy::disallowed_types,
    reason = "the timing harness reads the wall clock"
)]

use canon::crescendo::build_crescendo;
use canon_bench::{banner, emit_row, row, BenchConfig, PhaseTimer};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::NodeId;
use canon_overlay::engine::unrestricted;
use canon_overlay::{drive, execute, route_to_key_sweep, Greedy, NodeIndex};
use rand::Rng;
use std::time::Instant;

/// Lookups timed per executor.
const LOOKUPS: usize = 100_000;

/// Timing repeats per executor; the fastest pass is reported, so a
/// scheduler spike in one pass cannot skew an executor's number. The
/// executors are cycled generic → indexed → sweep within each repeat
/// (rather than all repeats of one executor back to back) so a noisy
/// stretch of wall clock degrades every executor alike instead of
/// whichever one happened to be running.
const PASSES: usize = 7;

/// Times one call of `f`, folding the duration into the running best.
fn timed<T>(best: &mut std::time::Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *best = (*best).min(start.elapsed());
    out
}

fn main() {
    let cfg = BenchConfig::from_args(65536, 1);
    let n = cfg.max_n;
    if !cfg.json {
        banner(
            "route_throughput",
            "lookups/sec: indexed fast path vs generic candidates-then-sort",
            &cfg,
        );
    }

    let mut times = PhaseTimer::default();
    let seed = cfg.trial_seed("route-throughput", 0);
    let net = times.construct(|| {
        let h = Hierarchy::balanced(10, 3);
        let p = Placement::zipf(&h, n, seed);
        build_crescendo(&h, &p)
    });
    let graph = net.graph();

    // Pre-draw every lookup so all timed loops route identical work and
    // RNG cost stays outside the measurement.
    let mut rng = seed.derive("lookups").rng();
    let drawn: Vec<(NodeIndex, NodeId)> = (0..LOOKUPS)
        .map(|_| {
            (
                NodeIndex(rng.gen_range(0..n) as u32),
                NodeId::new(rng.gen()),
            )
        })
        .collect();

    let mut generic = Vec::new();
    let mut indexed = Vec::new();
    let mut sweep = Vec::new();
    let mut generic_time = std::time::Duration::MAX;
    let mut indexed_time = std::time::Duration::MAX;
    let mut sweep_time = std::time::Duration::MAX;
    for _ in 0..PASSES {
        // Generic path: the pre-index engine — per hop, collect candidates
        // into a Vec, sort by (rank, next), probe in order.
        generic = timed(&mut generic_time, || {
            drawn
                .iter()
                .map(|&(origin, key)| {
                    let d = drive(graph, &Greedy::new(Clockwise, key), origin, unrestricted())
                        .expect("generic route");
                    (
                        *d.route.path().last().expect("nonempty route"),
                        d.route.hops(),
                    )
                })
                .collect::<Vec<(NodeIndex, usize)>>()
        });

        // Indexed path: one probe of the graph's `NextHopIndex` per hop,
        // no allocation, no sort.
        indexed = timed(&mut indexed_time, || {
            drawn
                .iter()
                .map(|&(origin, key)| {
                    let d = execute(graph, &Greedy::new(Clockwise, key), origin)
                        .expect("indexed route");
                    (
                        *d.route.path().last().expect("nonempty route"),
                        d.route.hops(),
                    )
                })
                .collect::<Vec<(NodeIndex, usize)>>()
        });

        // Interleaved sweep: same fast path, many lookups in flight.
        let swept = timed(&mut sweep_time, || {
            route_to_key_sweep(graph, Clockwise, &drawn)
        });
        sweep = swept
            .expect("sweep routes")
            .iter()
            .map(|r| (*r.path().last().expect("nonempty route"), r.hops()))
            .collect();
    }

    assert_eq!(
        generic, indexed,
        "fast path must realize the same routes as the generic executor"
    );
    assert_eq!(
        generic, sweep,
        "sweep must realize the same routes as the generic executor"
    );
    let mean_hops =
        indexed.iter().map(|&(_, h)| h as f64).sum::<f64>() / indexed.len().max(1) as f64;
    let generic_lps = LOOKUPS as f64 / generic_time.as_secs_f64();
    let indexed_lps = LOOKUPS as f64 / indexed_time.as_secs_f64();
    let sweep_lps = LOOKUPS as f64 / sweep_time.as_secs_f64();

    let pairs = [
        ("nodes", n.to_string()),
        ("lookups", LOOKUPS.to_string()),
        ("mean_hops", format!("{mean_hops:.2}")),
        ("generic_lps", format!("{generic_lps:.0}")),
        ("indexed_lps", format!("{indexed_lps:.0}")),
        ("sweep_lps", format!("{sweep_lps:.0}")),
        ("speedup_generic", format!("{:.2}", sweep_lps / generic_lps)),
        (
            "speedup_indexed",
            format!("{:.2}", indexed_lps / generic_lps),
        ),
        (
            "construct_s",
            format!("{:.3}", times.construct.as_secs_f64()),
        ),
        ("generic_s", format!("{:.3}", generic_time.as_secs_f64())),
        ("indexed_s", format!("{:.3}", indexed_time.as_secs_f64())),
        ("sweep_s", format!("{:.3}", sweep_time.as_secs_f64())),
        ("routes_match", "pass".to_string()),
    ];
    if !cfg.json {
        row(&pairs.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>());
    }
    emit_row(&cfg, &pairs);
}
