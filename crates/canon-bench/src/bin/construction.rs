//! Construction cost: the flat DHTs and their Canonical versions at
//! n = 2,048 on a 3-level fan-out-10 hierarchy, plus serial (one thread)
//! vs parallel (all cores) Crescendo at n ∈ {4,096, 16,384}. This is the
//! §2–§3 claim that a Canonical DHT costs about what its flat rule costs,
//! as wall clock; the rows go to `results/history/CONSTRUCTION.jsonl`.
//!
//! Every row times one builder: one untimed warmup build, then
//! [`SAMPLES`] timed builds, reported as min, median (the upper median,
//! `sorted[len / 2]`) and mean in milliseconds. A build's output is
//! dropped outside the timed span. Seeds are fixed per builder, not taken
//! from `--seed`, so rows compare across changes. `--json` prints one
//! object per row; `--quick` (or `--max-n`) drops the parallelism rows
//! above the cap.

#![allow(
    clippy::disallowed_types,
    reason = "the timing harness reads the wall clock"
)]

use canon::cacophony::{build_cacophony, build_symphony};
use canon::cancan::build_cancan;
use canon::crescendo::{build_chord, build_crescendo};
use canon::kandy::{build_kademlia, build_kandy};
use canon::pastry::{build_canonical_pastry, build_pastry, PastryParams};
use canon_bench::{banner, emit_row, row, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_kademlia::BucketChoice;
use canon_skipnet::SkipNet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed builds per row.
const SAMPLES: usize = 10;

/// Calls `routine` once untimed, then [`SAMPLES`] times timed; returns
/// the sample durations in ascending order.
fn sample<O>(mut routine: impl FnMut() -> O) -> Vec<Duration> {
    black_box(routine());
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let out = routine();
            let elapsed = start.elapsed();
            black_box(out);
            elapsed
        })
        .collect();
    samples.sort_unstable();
    samples
}

/// `(min, median, mean)` of ascending, nonempty samples; the median is
/// the upper one, `sorted[len / 2]`.
fn summarize(sorted: &[Duration]) -> (Duration, Duration, Duration) {
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    (sorted[0], sorted[sorted.len() / 2], mean)
}

/// Times `routine` and prints its row.
fn bench<O>(cfg: &BenchConfig, name: &str, routine: impl FnMut() -> O) {
    let (min, median, mean) = summarize(&sample(routine));
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    emit_row(
        cfg,
        &[
            ("min_ms", ms(min)),
            ("median_ms", ms(median)),
            ("mean_ms", ms(mean)),
            ("samples", SAMPLES.to_string()),
            ("bench", name.to_string()),
        ],
    );
}

fn main() {
    let cfg = BenchConfig::from_args(16384, 1);
    if !cfg.json {
        banner("construction", "static construction wall clock", &cfg);
        row(&["min_ms", "median_ms", "mean_ms", "samples", "bench"].map(String::from));
    }

    let n = 2048;
    let h = Hierarchy::balanced(10, 3);
    let p = Placement::zipf(&h, n, Seed(1));
    let params = PastryParams {
        digit_bits: 2,
        leaf_half: 4,
    };
    let names: Vec<String> = (0..n).map(|i| format!("org/h{i:05}")).collect();
    let c = &cfg;
    bench(c, "construction/chord_flat", || build_chord(p.ids()));
    bench(c, "construction/crescendo_3level", || {
        build_crescendo(&h, &p)
    });
    bench(c, "construction/symphony_flat", || {
        build_symphony(p.ids(), Seed(2))
    });
    bench(c, "construction/cacophony_3level", || {
        build_cacophony(&h, &p, Seed(2))
    });
    bench(c, "construction/kademlia_flat", || {
        build_kademlia(p.ids(), BucketChoice::Closest, Seed(3))
    });
    bench(c, "construction/kandy_3level", || {
        build_kandy(&h, &p, BucketChoice::Closest, Seed(3))
    });
    bench(c, "construction/cancan_3level", || build_cancan(&h, &p));
    bench(c, "construction/pastry_flat_b2", || {
        build_pastry(p.ids(), params)
    });
    bench(c, "construction/canonical_pastry_3level_b2", || {
        build_canonical_pastry(&h, &p, params)
    });
    bench(c, "construction/skipnet", || {
        SkipNet::build(names.clone(), Seed(4))
    });

    // The same Crescendo network built on one thread and on all cores:
    // the graphs are identical (`canon/tests/determinism.rs`), only the
    // wall clock differs.
    for n in [4096usize, 16384].into_iter().filter(|&n| n <= cfg.max_n) {
        let p = Placement::zipf(&h, n, Seed(1));
        for (mode, threads) in [("serial", 1), ("parallel", 0)] {
            bench(c, &format!("parallelism/crescendo_n{n}_{mode}"), || {
                canon_par::with_threads(threads, || build_crescendo(&h, &p))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_warmup_then_ten_timed_samples() {
        let mut calls = 0u32;
        let samples = sample(|| calls += 1);
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
}
