//! Criterion micro-benches: greedy routing throughput on flat and
//! Canonical networks (n = 4096), plus the Symphony lookahead router.

use canon::cacophony::build_symphony;
use canon::crescendo::{build_chord, build_crescendo};
use canon::kandy::build_kandy;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::{Clockwise, Xor};
use canon_id::rng::Seed;
use canon_kademlia::BucketChoice;
use canon_overlay::faults::{lookup_with_faults, FaultModel};
use canon_overlay::{route, NodeIndex};
use canon_symphony::route_with_lookahead;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use std::hint::black_box;

fn pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeIndex, NodeIndex)> {
    let mut rng = Seed(seed).rng();
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (NodeIndex(a as u32), NodeIndex(b as u32))
        })
        .collect()
}

fn bench_routing(c: &mut Criterion) {
    let n = 4096;
    let h = Hierarchy::balanced(10, 3);
    let p = Placement::zipf(&h, n, Seed(1));
    let chord = build_chord(p.ids());
    let cresc = build_crescendo(&h, &p);
    let kandy = build_kandy(&h, &p, BucketChoice::Closest, Seed(2));
    let symphony = build_symphony(p.ids(), Seed(3));
    let ps = pairs(n, 256, 9);

    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    g.bench_function("chord_greedy_256routes", |b| {
        b.iter(|| {
            for &(x, y) in &ps {
                black_box(route(&chord, Clockwise, x, y).unwrap());
            }
        });
    });
    g.bench_function("crescendo_greedy_256routes", |b| {
        b.iter(|| {
            for &(x, y) in &ps {
                black_box(route(cresc.graph(), Clockwise, x, y).unwrap());
            }
        });
    });
    g.bench_function("kandy_xor_256routes", |b| {
        b.iter(|| {
            for &(x, y) in &ps {
                black_box(route(kandy.graph(), Xor, x, y).unwrap());
            }
        });
    });
    g.bench_function("symphony_lookahead_256routes", |b| {
        b.iter(|| {
            for &(x, y) in &ps {
                black_box(route_with_lookahead(&symphony, x, y).unwrap());
            }
        });
    });
    g.bench_function("timed_256lookups", |b| {
        b.iter(|| {
            for (i, &(x, _)) in ps.iter().enumerate() {
                let key = cresc.graph().id(ps[(i + 7) % ps.len()].1);
                black_box(lookup_with_faults(
                    cresc.graph(),
                    Clockwise,
                    FaultModel::default(),
                    x,
                    key,
                    |_| true,
                    |_, _| 1.0,
                ));
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
