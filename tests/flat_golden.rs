//! Golden edge-list digests of every flat family, captured from the six
//! hand-rolled flat builders at the commit before they became one-domain
//! calls of the hierarchical constructors (PR 17; only the `use` lines
//! below differ from the file that ran there). A flat graph is a pure
//! function of `(ids, parameters, seed)`; these digests pin its bytes for
//! n ∈ {1, 2, 3, 257, 2048} × seeds {1, 7, 42} at 1, 4 and 13 threads.
//!
//! If a seeded construction path changes on purpose, the failure message
//! prints the whole table in source form: paste it over `GOLDEN`.

use canon::cacophony::build_symphony;
use canon::crescendo::{build_chord, build_nondet_chord};
use canon::kandy::build_kademlia;
use canon::pastry::{build_pastry, PastryParams};
use canon::proximity::{build_chord_prox, ProxParams};
use canon_id::rng::{random_ids, splitmix64, Seed};
use canon_id::NodeId;
use canon_kademlia::BucketChoice;
use canon_overlay::OverlayGraph;

const SIZES: [usize; 5] = [1, 2, 3, 257, 2048];
const SEEDS: [u64; 3] = [1, 7, 42];
const FAMILIES: [&str; 9] = [
    "chord",
    "nondet-chord",
    "symphony",
    "kademlia-closest",
    "kademlia-random",
    "pastry-b1",
    "pastry-b2",
    "pastry-b4",
    "chord-prox",
];

/// A deterministic synthetic latency: uniform in [0, 1) per ordered pair.
fn synth_lat(a: NodeId, b: NodeId) -> f64 {
    let h = splitmix64(a.raw() ^ splitmix64(b.raw()));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn pastry(ids: &[NodeId], digit_bits: u32) -> OverlayGraph {
    build_pastry(
        ids,
        PastryParams {
            digit_bits,
            ..PastryParams::default()
        },
    )
}

fn build(family: &str, ids: &[NodeId], seed: Seed) -> OverlayGraph {
    match family {
        "chord" => build_chord(ids),
        "nondet-chord" => build_nondet_chord(ids, seed),
        "symphony" => build_symphony(ids, seed),
        "kademlia-closest" => build_kademlia(ids, BucketChoice::Closest, seed),
        "kademlia-random" => build_kademlia(ids, BucketChoice::Random, seed),
        "pastry-b1" => pastry(ids, 1),
        "pastry-b2" => pastry(ids, 2),
        "pastry-b4" => pastry(ids, 4),
        "chord-prox" => build_chord_prox(ids, &synth_lat, ProxParams::default(), seed)
            .graph()
            .clone(),
        other => unreachable!("unknown family {other}"),
    }
}

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over the node identifiers (graph order) and every directed edge.
fn digest(g: &OverlayGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, g.len() as u64);
    for i in g.node_indices() {
        fnv1a(&mut h, g.id(i).raw());
    }
    for (a, b) in g.edges() {
        fnv1a(&mut h, (a.index() as u64) << 32 | b.index() as u64);
    }
    h
}

type Row = (&'static str, usize, [u64; 3]);

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let per_seed = SEEDS.map(|s| {
                let ids = random_ids(Seed(s).derive("ids"), n);
                digest(&build(family, &ids, Seed(s)))
            });
            rows.push((family, n, per_seed));
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(f, n, d)| {
            format!(
                "    (\"{f}\", {n}, [{:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2]
            )
        })
        .collect()
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("chord", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("chord", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("chord", 3, [0xda43fcb753a9dc46, 0xe51fa2cb5f3a9f37, 0x7c210b688201814a]),
    ("chord", 257, [0x82fe57aec83e58cf, 0x82f88e14783ac30b, 0xe8c8c65ed178fc50]),
    ("chord", 2048, [0x437fef084329bf44, 0xfac80b887497cd0e, 0x9ad4ce71874127bf]),
    ("nondet-chord", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("nondet-chord", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("nondet-chord", 3, [0xda43fcb753a9dc46, 0x155232864b92a8d4, 0x7c210b688201814a]),
    ("nondet-chord", 257, [0x01e3fd3691ee3298, 0x0c6e950063a04bf3, 0x7d60bb832d100c96]),
    ("nondet-chord", 2048, [0x4e44bdd75ab3d6c4, 0x693ea4067913c090, 0x36943bed9fd921e6]),
    ("symphony", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("symphony", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("symphony", 3, [0xc8f7fa83d6b226a5, 0x7c84761b42427f24, 0x38321f85d90c4e08]),
    ("symphony", 257, [0x7ac25e2067e7337f, 0x389f1baedfc3ea13, 0x91fb01c020cd849e]),
    ("symphony", 2048, [0x83876154f2d92b40, 0xfaa379f647e7597b, 0xaa52bb1e03a41a26]),
    ("kademlia-closest", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("kademlia-closest", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("kademlia-closest", 3, [0xc8f7fa83d6b226a5, 0xe51fa2cb5f3a9f37, 0x9b1bd2718cf0cb6b]),
    ("kademlia-closest", 257, [0x42a267c0ac7d2861, 0xd63f88e2551d972d, 0xe6cbffcf4d082244]),
    ("kademlia-closest", 2048, [0x848bf75bfb5e919b, 0x2637c71dc262b711, 0x485b5240dea92133]),
    ("kademlia-random", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("kademlia-random", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("kademlia-random", 3, [0xa9fd337acbc2dc84, 0xe51fa2cb5f3a9f37, 0x9b1bd2718cf0cb6b]),
    ("kademlia-random", 257, [0x1b958d7d0e1e5313, 0x4d72b73d0a148d9f, 0x2ca43e8da2eb5f01]),
    ("kademlia-random", 2048, [0xeede4a03da2c89bd, 0xff448c9355ad0658, 0x6a261bbbe17777ed]),
    ("pastry-b1", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("pastry-b1", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("pastry-b1", 3, [0xda43fcb753a9dc46, 0x155232864b92a8d4, 0xd40b9d14282adf89]),
    ("pastry-b1", 257, [0xdaee8050dad64673, 0xf316d7fa21a00950, 0x7a2b2e80971c9f4d]),
    ("pastry-b1", 2048, [0x9d2a59e951d1c24e, 0x3b92f1b96434b385, 0x7779a4508d16f8dc]),
    ("pastry-b2", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("pastry-b2", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("pastry-b2", 3, [0xda43fcb753a9dc46, 0x155232864b92a8d4, 0xd40b9d14282adf89]),
    ("pastry-b2", 257, [0xa6e8360574bd846e, 0xcc602b9fc052bd82, 0xea8b6c79424b1ff0]),
    ("pastry-b2", 2048, [0xdf9941d9f29d3f95, 0xe41246197d628534, 0x2799ff58ce6122c7]),
    ("pastry-b4", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("pastry-b4", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("pastry-b4", 3, [0xda43fcb753a9dc46, 0x155232864b92a8d4, 0xd40b9d14282adf89]),
    ("pastry-b4", 257, [0x33a5d6650f9b8654, 0x6dbd68d94230e762, 0x19ee914c487a1954]),
    ("pastry-b4", 2048, [0xfb9d8c72e8662a8b, 0x6f74a5889e44e74c, 0xdd76a2e158a98044]),
    ("chord-prox", 1, [0xc192b715c64ddad6, 0x4a5a2d8c71d80a07, 0xe8aa55dc29fb9ea4]),
    ("chord-prox", 2, [0x07cc421c8de2c9c9, 0x3db52a845bbfd5e0, 0x7c633bb38a5a17e9]),
    ("chord-prox", 3, [0xda43fcb753a9dc46, 0x155232864b92a8d4, 0xd40b9d14282adf89]),
    ("chord-prox", 257, [0x726850aa491c4108, 0x0ebed84a7d34ff66, 0x25289cb2d2e42985]),
    ("chord-prox", 2048, [0x21f276bca1cc8311, 0x109c22c495d8a2bc, 0xecee1ed21a541287]),
];

#[test]
fn flat_families_match_their_golden_digests_at_every_thread_count() {
    for threads in [1, 4, 13] {
        let got = canon_par::with_threads(threads, table);
        assert!(
            got.as_slice() == GOLDEN,
            "flat graphs moved at threads={threads}; actual table:\n{}",
            render(&got)
        );
    }
}
