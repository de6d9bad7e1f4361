//! Criterion micro-benches: static construction cost of the flat DHTs and
//! their Canonical versions (n = 2048, 3-level fan-out-10 hierarchy), plus
//! a serial-vs-parallel comparison of the construction pipeline at
//! n ∈ {4096, 16384} (threads pinned to 1 vs all available cores).

use canon::cacophony::{build_cacophony, build_symphony};
use canon::cancan::build_cancan;
use canon::crescendo::{build_chord, build_crescendo};
use canon::kandy::{build_kademlia, build_kandy};
use canon::pastry::{build_canonical_pastry, build_pastry, PastryParams};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_kademlia::BucketChoice;
use canon_skipnet::SkipNet;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let n = 2048;
    let h = Hierarchy::balanced(10, 3);
    let p = Placement::zipf(&h, n, Seed(1));
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);

    g.bench_function("chord_flat", |b| {
        b.iter(|| black_box(build_chord(p.ids())));
    });
    g.bench_function("crescendo_3level", |b| {
        b.iter(|| black_box(build_crescendo(&h, &p)));
    });
    g.bench_function("symphony_flat", |b| {
        b.iter(|| black_box(build_symphony(p.ids(), Seed(2))));
    });
    g.bench_function("cacophony_3level", |b| {
        b.iter(|| black_box(build_cacophony(&h, &p, Seed(2))));
    });
    g.bench_function("kademlia_flat", |b| {
        b.iter(|| black_box(build_kademlia(p.ids(), BucketChoice::Closest, Seed(3))));
    });
    g.bench_function("kandy_3level", |b| {
        b.iter(|| black_box(build_kandy(&h, &p, BucketChoice::Closest, Seed(3))));
    });
    g.bench_function("cancan_3level", |b| {
        b.iter(|| black_box(build_cancan(&h, &p)));
    });
    let params = PastryParams {
        digit_bits: 2,
        leaf_half: 4,
    };
    g.bench_function("pastry_flat_b2", |b| {
        b.iter(|| black_box(build_pastry(p.ids(), params)));
    });
    g.bench_function("canonical_pastry_3level_b2", |b| {
        b.iter(|| black_box(build_canonical_pastry(&h, &p, params)));
    });
    let names: Vec<String> = (0..n).map(|i| format!("org/h{i:05}")).collect();
    g.bench_function("skipnet", |b| {
        b.iter(|| black_box(SkipNet::build(names.clone(), Seed(4))));
    });
    g.finish();
}

/// Serial (threads=1) vs parallel (threads=all cores) construction of the
/// same Crescendo network, at the two sizes the issue tracks. The graphs
/// are identical by construction (see `canon/tests/determinism.rs`); only
/// the wall clock should differ.
fn bench_parallelism(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallelism");
    g.sample_size(10);
    for n in [4096usize, 16384] {
        let h = Hierarchy::balanced(10, 3);
        let p = Placement::zipf(&h, n, Seed(1));
        g.bench_function(&format!("crescendo_n{n}_serial"), |b| {
            b.iter(|| canon_par::with_threads(1, || black_box(build_crescendo(&h, &p))));
        });
        g.bench_function(&format!("crescendo_n{n}_parallel"), |b| {
            b.iter(|| canon_par::with_threads(0, || black_box(build_crescendo(&h, &p))));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_construction, bench_parallelism);
criterion_main!(benches);
