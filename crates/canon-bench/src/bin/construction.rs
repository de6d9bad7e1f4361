//! The workspace's one offline timing binary. No figure reads a clock;
//! every wall-clock number of the offline experiments is a row here, and
//! the rows go to `results/history/CONSTRUCTION.jsonl`. Four row families:
//!
//! * `construction/*` — the flat DHTs and their Canonical versions at
//!   n = 2,048 on a 3-level fan-out-10 hierarchy: the §2–§3 claim that a
//!   Canonical DHT costs about what its flat rule costs.
//! * `setup/*_n1024` — the public steps of the serving benchmark's set-up
//!   at its shape (`Hierarchy::balanced(4, 3)`, 1,024 uniformly placed
//!   nodes, overlay seed `0x00ca_9090`): `overlay` is `Placement::uniform`
//!   plus `build_crescendo`, `membership` is `DomainMembership::build`,
//!   `csr` is `GraphBuilder::from_per_node_links` over the overlay's own
//!   link sets, and `spawn` is `canon_node::from_graph` on a framed
//!   transport. The walk's per-node phase is `overlay` less the next two.
//! * `parallelism/crescendo_n{n}_{serial,parallel}` — Crescendo built on
//!   one thread and on all cores, n ∈ {4,096, 16,384} up to `--max-n`.
//! * `routing/{generic,indexed,sweep}_n{n}` — [`ROUTING_LOOKUPS`]
//!   pre-drawn lookups on one Crescendo network of n = min(65,536,
//!   `--max-n`) through the three route executors: `drive` (per hop,
//!   collect and sort every candidate), `execute` (one probe of the
//!   graph's `NextHopIndex` per hop) and `route_to_key_sweep` (the indexed
//!   path with a window of lookups interleaved). Each row reduces every
//!   route to its (terminal, hops) inside the timed span, so all three
//!   route, reduce and free their paths there. The run panics unless all
//!   three realize the same (terminal, hops) list.
//! * `scale/{build,sweep}_n{n}` — the §1 "millions of nodes" check:
//!   Crescendo on uniform placement at sizes doubling from 16,384 to
//!   `--max-n`, then [`SCALE_LOOKUPS`] lookups through the sweep. Each
//!   build row also carries the untimed `bytes_per_node` (the audited
//!   resident bytes of `resident_bytes_per_node`), `mean_degree`,
//!   `mean_hops` and `log2_n`: degree and hops must grow with log2(n).
//!
//! Every row times one routine: one untimed warmup call, then [`SAMPLES`]
//! timed calls, reported as min, median (the upper median,
//! `sorted[len / 2]`) and mean in milliseconds. A call's output is dropped
//! outside the timed span. Seeds are fixed per row, not taken from
//! `--seed`, so rows compare across changes. `--json` prints one object
//! per row; `--max-n` (default 65,536; `--quick` caps it at 4,096) drops
//! the sized rows above the cap.

#![allow(
    clippy::disallowed_types,
    reason = "the timing harness reads the wall clock"
)]

use canon::cacophony::{build_cacophony, build_symphony};
use canon::cancan::build_cancan;
use canon::crescendo::{build_chord, build_crescendo};
use canon::kandy::{build_kademlia, build_kandy};
use canon::pastry::{build_canonical_pastry, build_pastry, PastryParams};
use canon_bench::{banner, emit_row, f, row, BenchConfig};
use canon_hierarchy::{DomainMembership, Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_kademlia::BucketChoice;
use canon_node::{from_graph, ChannelTransport, FramedTransport, RuntimeConfig, VirtualClock};
use canon_overlay::engine::unrestricted;
use canon_overlay::stats::DegreeStats;
use canon_overlay::{drive, execute, route_to_key_sweep, GraphBuilder, Greedy, NodeIndex, Route};
use canon_skipnet::SkipNet;
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed calls per row.
const SAMPLES: usize = 10;

/// Lookups per `routing/*` row.
const ROUTING_LOOKUPS: usize = 100_000;

/// Largest network of the `routing/*` rows.
const ROUTING_MAX_N: usize = 65_536;

/// Lookups per `scale/sweep_*` row.
const SCALE_LOOKUPS: usize = 50_000;

/// Smallest network of the `scale/*` rows.
const SCALE_FROM: usize = 16_384;

/// Nodes of the serving benchmark's cluster (the `setup/*` rows).
const SETUP_N: usize = 1024;

/// The serving benchmark's overlay seed.
const SETUP_SEED: Seed = Seed(0x00ca_9090);

/// The `setup/*` rows, in order.
const SETUP_STEPS: [&str; 4] = ["overlay", "membership", "csr", "spawn"];

/// Calls `routine` once untimed, then [`SAMPLES`] times timed; returns
/// the sample durations in ascending order and the last call's output.
fn sample<O>(mut routine: impl FnMut() -> O) -> (Vec<Duration>, O) {
    let mut out = black_box(routine());
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        drop(out);
        let start = Instant::now();
        let next = routine();
        samples.push(start.elapsed());
        out = black_box(next);
    }
    samples.sort_unstable();
    (samples, out)
}

/// `(min, median, mean)` of ascending, nonempty samples; the median is
/// the upper one, `sorted[len / 2]`.
fn summarize(sorted: &[Duration]) -> (Duration, Duration, Duration) {
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    (sorted[0], sorted[sorted.len() / 2], mean)
}

/// The sizes of the sized row families under a `--max-n` cap.
struct Plan {
    parallelism: Vec<usize>,
    routing: usize,
    scale: Vec<usize>,
}

impl Plan {
    fn new(cfg: &BenchConfig) -> Plan {
        Plan {
            parallelism: [4096, 16384]
                .into_iter()
                .filter(|&n| n <= cfg.max_n)
                .collect(),
            routing: cfg.max_n.min(ROUTING_MAX_N),
            scale: cfg.sizes(SCALE_FROM),
        }
    }

    /// Every row name a run prints, in order.
    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = [
            "chord_flat",
            "crescendo_3level",
            "symphony_flat",
            "cacophony_3level",
            "kademlia_flat",
            "kandy_3level",
            "cancan_3level",
            "pastry_flat_b2",
            "canonical_pastry_3level_b2",
            "skipnet",
        ]
        .iter()
        .map(|b| format!("construction/{b}"))
        .collect();
        names.extend(SETUP_STEPS.map(|step| format!("setup/{step}_n{SETUP_N}")));
        for n in &self.parallelism {
            names.push(format!("parallelism/crescendo_n{n}_serial"));
            names.push(format!("parallelism/crescendo_n{n}_parallel"));
        }
        for executor in ["generic", "indexed", "sweep"] {
            names.push(format!("routing/{executor}_n{}", self.routing));
        }
        for n in &self.scale {
            names.push(format!("scale/build_n{n}"));
            names.push(format!("scale/sweep_n{n}"));
        }
        names
    }
}

/// Prints rows and remembers their names.
struct Report<'a> {
    cfg: &'a BenchConfig,
    printed: Vec<String>,
}

impl Report<'_> {
    /// Prints the row of `samples`, followed by untimed `extra` fields.
    fn emit(&mut self, name: &str, samples: &[Duration], extra: &[(&str, String)]) {
        let (min, median, mean) = summarize(samples);
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut pairs = vec![
            ("min_ms", ms(min)),
            ("median_ms", ms(median)),
            ("mean_ms", ms(mean)),
            ("samples", SAMPLES.to_string()),
            ("bench", name.to_string()),
        ];
        for (k, v) in extra {
            let v = if self.cfg.json {
                v.clone()
            } else {
                format!("{k}={v}")
            };
            pairs.push((k, v));
        }
        emit_row(self.cfg, &pairs);
        self.printed.push(name.to_string());
    }

    /// Times `routine`, prints its row and returns its last output.
    fn bench<O>(&mut self, name: &str, routine: impl FnMut() -> O) -> O {
        let (samples, out) = sample(routine);
        self.emit(name, &samples, &[]);
        out
    }
}

/// `count` pre-drawn `(origin, key)` lookups on an `n`-node network, so
/// every timed call routes the same work and the RNG stays untimed.
fn lookups(n: usize, count: usize, seed: Seed) -> Vec<(NodeIndex, NodeId)> {
    let mut rng = seed.rng();
    (0..count)
        .map(|_| {
            (
                NodeIndex(rng.gen_range(0..n) as u32),
                NodeId::new(rng.gen()),
            )
        })
        .collect()
}

/// A route's terminal and hop count, the executors' equality key.
fn ends(route: &Route) -> (NodeIndex, usize) {
    (*route.path().last().expect("nonempty route"), route.hops())
}

/// The `routing/*` rows.
fn routing(report: &mut Report, h: &Hierarchy, n: usize) {
    let net = build_crescendo(h, &Placement::zipf(h, n, Seed(1)));
    let graph = net.graph();
    let drawn = lookups(n, ROUTING_LOOKUPS, Seed(5));
    let generic = report.bench(&format!("routing/generic_n{n}"), || {
        drawn
            .iter()
            .map(|&(origin, key)| {
                let d = drive(graph, &Greedy::new(Clockwise, key), origin, unrestricted())
                    .expect("generic route");
                ends(&d.route)
            })
            .collect::<Vec<_>>()
    });
    let indexed = report.bench(&format!("routing/indexed_n{n}"), || {
        drawn
            .iter()
            .map(|&(origin, key)| {
                let d =
                    execute(graph, &Greedy::new(Clockwise, key), origin).expect("indexed route");
                ends(&d.route)
            })
            .collect::<Vec<_>>()
    });
    // Every row reduces its routes to their ends inside the timed span,
    // so each frees its paths there too.
    let sweep = report.bench(&format!("routing/sweep_n{n}"), || {
        let routes = route_to_key_sweep(graph, Clockwise, &drawn).expect("sweep routes");
        routes.iter().map(ends).collect::<Vec<_>>()
    });
    for (executor, routes) in [("indexed", indexed), ("sweep", sweep)] {
        let len = generic.len().max(routes.len());
        if let Some(i) = (0..len).find(|&i| generic.get(i) != routes.get(i)) {
            panic!(
                "lookup {i}: the generic executor realizes {:?}, the {executor} one {:?}",
                generic.get(i),
                routes.get(i)
            );
        }
    }
}

/// The `setup/*` rows: the serving benchmark's set-up, step by step.
fn setup(report: &mut Report) {
    let h = Hierarchy::balanced(4, 3);
    let net = report.bench(&format!("setup/overlay_n{SETUP_N}"), || {
        build_crescendo(&h, &Placement::uniform(&h, SETUP_N, SETUP_SEED))
    });
    let p = Placement::uniform(&h, SETUP_N, SETUP_SEED);
    report.bench(&format!("setup/membership_n{SETUP_N}"), || {
        DomainMembership::build(&h, &p)
    });
    let graph = net.graph();
    let rows: Vec<Vec<NodeId>> = graph
        .node_indices()
        .map(|i| graph.neighbors(i).iter().map(|&t| graph.id(t)).collect())
        .collect();
    let csr = report.bench(&format!("setup/csr_n{SETUP_N}"), || {
        GraphBuilder::from_per_node_links(graph.ids(), &rows)
    });
    assert!(csr == *graph, "the CSR row rebuilt a different graph");
    report.bench(&format!("setup/spawn_n{SETUP_N}"), || {
        from_graph(
            graph,
            Arc::new(VirtualClock::new()),
            Arc::new(FramedTransport::new(ChannelTransport::new(1))),
            RuntimeConfig::default(),
        )
    });
}

/// The `scale/*` rows of one size.
fn scale(report: &mut Report, h: &Hierarchy, n: usize) {
    let p = Placement::uniform(h, n, Seed(1));
    let (build, net) = sample(|| build_crescendo(h, &p));
    let graph = net.graph();
    let drawn = lookups(n, SCALE_LOOKUPS, Seed(6));
    let (sweep, routes) = sample(|| route_to_key_sweep(graph, Clockwise, &drawn));
    let routes = routes.expect("sweep routes");
    let mean_hops = routes.iter().map(|r| r.hops() as f64).sum::<f64>() / routes.len() as f64;
    report.emit(
        &format!("scale/build_n{n}"),
        &build,
        &[
            ("bytes_per_node", f(net.resident_bytes_per_node())),
            ("mean_degree", f(DegreeStats::of(graph).summary.mean)),
            ("mean_hops", f(mean_hops)),
            ("log2_n", f((n as f64).log2())),
        ],
    );
    report.emit(&format!("scale/sweep_n{n}"), &sweep, &[]);
}

fn main() {
    let cfg = BenchConfig::from_args(65536, 1);
    if !cfg.json {
        banner(
            "construction",
            "wall clock of construction, route executors and scale",
            &cfg,
        );
        row(&["min_ms", "median_ms", "mean_ms", "samples", "bench"].map(String::from));
    }
    let plan = Plan::new(&cfg);
    let mut report = Report {
        cfg: &cfg,
        printed: Vec::new(),
    };
    let r = &mut report;

    let n = 2048;
    let h = Hierarchy::balanced(10, 3);
    let p = Placement::zipf(&h, n, Seed(1));
    let params = PastryParams {
        digit_bits: 2,
        leaf_half: 4,
    };
    let names: Vec<String> = (0..n).map(|i| format!("org/h{i:05}")).collect();
    r.bench("construction/chord_flat", || build_chord(p.ids()));
    r.bench("construction/crescendo_3level", || build_crescendo(&h, &p));
    r.bench("construction/symphony_flat", || {
        build_symphony(p.ids(), Seed(2))
    });
    r.bench("construction/cacophony_3level", || {
        build_cacophony(&h, &p, Seed(2))
    });
    r.bench("construction/kademlia_flat", || {
        build_kademlia(p.ids(), BucketChoice::Closest, Seed(3))
    });
    r.bench("construction/kandy_3level", || {
        build_kandy(&h, &p, BucketChoice::Closest, Seed(3))
    });
    r.bench("construction/cancan_3level", || build_cancan(&h, &p));
    r.bench("construction/pastry_flat_b2", || {
        build_pastry(p.ids(), params)
    });
    r.bench("construction/canonical_pastry_3level_b2", || {
        build_canonical_pastry(&h, &p, params)
    });
    r.bench("construction/skipnet", || {
        SkipNet::build(names.clone(), Seed(4))
    });
    setup(r);

    // The same Crescendo network built on one thread and on all cores:
    // the graphs are identical (`canon/tests/determinism.rs`), only the
    // wall clock differs.
    for &n in &plan.parallelism {
        let p = Placement::zipf(&h, n, Seed(1));
        for (mode, threads) in [("serial", 1), ("parallel", 0)] {
            r.bench(&format!("parallelism/crescendo_n{n}_{mode}"), || {
                canon_par::with_threads(threads, || build_crescendo(&h, &p))
            });
        }
    }

    routing(r, &h, plan.routing);
    for &n in &plan.scale {
        scale(r, &h, n);
    }
    assert_eq!(report.printed, plan.names(), "rows printed off the plan");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_warmup_then_ten_timed_samples() {
        let mut calls = 0u32;
        let (samples, last) = sample(|| {
            calls += 1;
            calls
        });
        assert_eq!(last, 1 + SAMPLES as u32);
        assert_eq!(calls, 1 + SAMPLES as u32);
        assert_eq!(samples.len(), SAMPLES);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn median_is_the_upper_one() {
        let sorted: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let (min, median, mean) = summarize(&sorted);
        assert_eq!(min, Duration::from_millis(1));
        assert_eq!(median, Duration::from_millis(6));
        assert_eq!(mean, Duration::from_micros(5500));
    }

    #[test]
    fn the_plan_pins_every_row_name_once() {
        let quick_rows = [
            "construction/chord_flat",
            "construction/crescendo_3level",
            "construction/symphony_flat",
            "construction/cacophony_3level",
            "construction/kademlia_flat",
            "construction/kandy_3level",
            "construction/cancan_3level",
            "construction/pastry_flat_b2",
            "construction/canonical_pastry_3level_b2",
            "construction/skipnet",
            "setup/overlay_n1024",
            "setup/membership_n1024",
            "setup/csr_n1024",
            "setup/spawn_n1024",
            "parallelism/crescendo_n4096_serial",
            "parallelism/crescendo_n4096_parallel",
        ];
        let quick = [
            &quick_rows[..],
            &[
                "routing/generic_n4096",
                "routing/indexed_n4096",
                "routing/sweep_n4096",
            ],
        ]
        .concat();
        let default = [
            &quick_rows[..],
            &[
                "parallelism/crescendo_n16384_serial",
                "parallelism/crescendo_n16384_parallel",
                "routing/generic_n65536",
                "routing/indexed_n65536",
                "routing/sweep_n65536",
                "scale/build_n16384",
                "scale/sweep_n16384",
                "scale/build_n32768",
                "scale/sweep_n32768",
                "scale/build_n65536",
                "scale/sweep_n65536",
            ],
        ]
        .concat();
        let million = [
            &default[..],
            &[
                "scale/build_n131072",
                "scale/sweep_n131072",
                "scale/build_n262144",
                "scale/sweep_n262144",
                "scale/build_n524288",
                "scale/sweep_n524288",
                "scale/build_n1048576",
                "scale/sweep_n1048576",
            ],
        ]
        .concat();
        // `--quick` caps `--max-n` at 4,096; the default is 65,536.
        for (max_n, want) in [(4096, quick), (65536, default), (1 << 20, million)] {
            let cfg = BenchConfig {
                max_n,
                seeds: 1,
                base_seed: 42,
                threads: 0,
                json: true,
            };
            let names = Plan::new(&cfg).names();
            assert_eq!(names, want, "--max-n {max_n}");
            let unique: std::collections::BTreeSet<&String> = names.iter().collect();
            assert_eq!(
                unique.len(),
                names.len(),
                "a name repeats at --max-n {max_n}"
            );
        }
    }
}
