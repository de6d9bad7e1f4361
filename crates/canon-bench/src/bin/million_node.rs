//! Million-node scale validation: construction, memory and routing at
//! n = 2^20 on one machine.
//!
//! The memory-compact refactor (SoA node tables, u32 indices) exists so a
//! full-size Canon network fits comfortably in RAM and keeps its
//! logarithmic shape at the paper's "millions of nodes" scale (§1). This
//! binary measures, on a 3-level fan-out-10 Crescendo network at sizes
//! doubling up to `--max-n` (default 2^20):
//!
//! * **construct_s** — from-scratch build time (placement excluded);
//! * **bytes_per_node** — audited resident bytes per node from
//!   `CanonicalNetwork::resident_bytes_per_node()`: CSR arrays, sorted
//!   ring, next-hop index, leaf table and per-level counters — live
//!   entries only, no allocator slack;
//! * **mean_degree / mean_hops** — the O(log n) shape checks (Theorems
//!   1–2): both must grow linearly in log2(n), not in n;
//! * **routes_per_s** — interleaved-sweep lookup throughput over
//!   [`LOOKUPS`] pre-drawn `(origin, key)` pairs.
//!
//! `--json` emits one object per size (the committed
//! `results/BENCH_million_node.json`); the default is an aligned table.
//! CI runs the same binary at a smoke size (`--max-n 16384`); the
//! committed baseline is a full `--threads 1` run at 2^20.

#![allow(
    clippy::disallowed_types,
    reason = "the timing harness reads the wall clock"
)]

use canon::crescendo::build_crescendo;
use canon_bench::{banner, emit_row, f, row, BenchConfig, PhaseTimer};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::NodeId;
use canon_overlay::stats::DegreeStats;
use canon_overlay::{route_to_key_sweep, NodeIndex};
use rand::Rng;
use std::time::Instant;

/// Routed lookups per size (pre-drawn; RNG cost stays untimed).
const LOOKUPS: usize = 50_000;

fn main() {
    let cfg = BenchConfig::from_args(1 << 20, 1);
    if !cfg.json {
        banner(
            "million-node",
            "construction, resident bytes/node and routing at 2^20",
            &cfg,
        );
        row(&[
            "n".into(),
            "construct_s".into(),
            "bytes/node".into(),
            "mean_deg".into(),
            "mean_hops".into(),
            "log2(n)".into(),
            "routes/s".into(),
        ]);
    }

    for n in cfg.sizes((cfg.max_n / 8).max(1024)) {
        let seed = cfg.trial_seed("million-node", 0);
        let mut times = PhaseTimer::default();
        let net = times.construct(|| {
            let h = Hierarchy::balanced(10, 3);
            let p = Placement::uniform(&h, n, seed);
            build_crescendo(&h, &p)
        });
        let graph = net.graph();
        let bytes_per_node = net.resident_bytes_per_node();
        let mean_degree = DegreeStats::of(graph).summary.mean;

        // Pre-drawn lookups, routed through the interleaved sweep (the
        // hot path `canon-node` drives).
        let mut rng = seed.derive("lookups").rng();
        let drawn: Vec<(NodeIndex, NodeId)> = (0..LOOKUPS)
            .map(|_| {
                (
                    NodeIndex(rng.gen_range(0..n) as u32),
                    NodeId::new(rng.gen()),
                )
            })
            .collect();
        let start = Instant::now();
        let routes = times.measure(|| route_to_key_sweep(graph, Clockwise, &drawn));
        let route_s = start.elapsed().as_secs_f64();
        let routes = routes.expect("sweep routes");
        let mean_hops =
            routes.iter().map(|r| r.hops() as f64).sum::<f64>() / routes.len().max(1) as f64;
        let routes_per_s = LOOKUPS as f64 / route_s;

        let pairs = [
            ("n", n.to_string()),
            ("construct_s", f(times.construct.as_secs_f64())),
            ("bytes_per_node", f(bytes_per_node)),
            ("mean_degree", f(mean_degree)),
            ("mean_hops", f(mean_hops)),
            ("log2_n", f((n as f64).log2())),
            ("routes_per_s", format!("{routes_per_s:.0}")),
        ];
        emit_row(&cfg, &pairs);
    }
}
