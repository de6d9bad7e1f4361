//! Golden edge-list digests of the hierarchical constructions that do not
//! go through the audited `build_canonical`: Canonical Pastry (b ∈ {1, 2,
//! 4}) and Crescendo (Prox.), over a 3-level hierarchy. The sibling of
//! `flat_golden.rs`: a Canonical graph is a pure function of `(hierarchy,
//! placement, parameters, seed)`, and these digests pin its bytes for
//! n ∈ {1, 2, 300, 2048} × seeds {1, 7, 42} at 1, 4 and 13 threads.
//!
//! If a seeded construction path changes on purpose, the failure message
//! prints the whole table in source form: paste it over `GOLDEN`.

use canon::pastry::{build_canonical_pastry, PastryParams};
use canon::proximity::{build_crescendo_prox, ProxParams};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::{splitmix64, Seed};
use canon_id::NodeId;
use canon_overlay::OverlayGraph;

const SIZES: [usize; 4] = [1, 2, 300, 2048];
const SEEDS: [u64; 3] = [1, 7, 42];
const FAMILIES: [&str; 4] = ["pastry-b1", "pastry-b2", "pastry-b4", "crescendo-prox"];

/// A deterministic synthetic latency: uniform in [0, 1) per ordered pair.
fn synth_lat(a: NodeId, b: NodeId) -> f64 {
    let h = splitmix64(a.raw() ^ splitmix64(b.raw()));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn build(family: &str, h: &Hierarchy, p: &Placement, seed: Seed) -> OverlayGraph {
    let pastry = |digit_bits| {
        let params = PastryParams {
            digit_bits,
            ..PastryParams::default()
        };
        build_canonical_pastry(h, p, params).graph().clone()
    };
    match family {
        "pastry-b1" => pastry(1),
        "pastry-b2" => pastry(2),
        "pastry-b4" => pastry(4),
        "crescendo-prox" => build_crescendo_prox(h, p, &synth_lat, ProxParams::default(), seed)
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
    let h = Hierarchy::balanced(4, 3);
    let mut rows = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let per_seed = SEEDS.map(|s| {
                let p = Placement::zipf(&h, n, Seed(s).derive("placement"));
                digest(&build(family, &h, &p, Seed(s)))
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
    ("pastry-b1", 1, [0x5ef92b2c582ea3ec, 0xfd606ec187fdf8c9, 0xa953597be6dc0ecf]),
    ("pastry-b1", 2, [0x98929eddbc52ebb0, 0xa785b326a86b37e2, 0x7c1d673effc06744]),
    ("pastry-b1", 300, [0x427fc9dfaab7241e, 0xc8be7146f3ff8d71, 0x8b23ea5c2dbd2cd1]),
    ("pastry-b1", 2048, [0xe532d530aeeea48a, 0x86cb7d43f088e613, 0x6de7dec737aab5e0]),
    ("pastry-b2", 1, [0x5ef92b2c582ea3ec, 0xfd606ec187fdf8c9, 0xa953597be6dc0ecf]),
    ("pastry-b2", 2, [0x98929eddbc52ebb0, 0xa785b326a86b37e2, 0x7c1d673effc06744]),
    ("pastry-b2", 300, [0xccce13c6fc0ce767, 0x6a675dab9ecb7d23, 0x21e591e8b08ad0dd]),
    ("pastry-b2", 2048, [0xfcac180f4aacffee, 0x2fcaffca09d922cc, 0xfe79222deeeb9206]),
    ("pastry-b4", 1, [0x5ef92b2c582ea3ec, 0xfd606ec187fdf8c9, 0xa953597be6dc0ecf]),
    ("pastry-b4", 2, [0x98929eddbc52ebb0, 0xa785b326a86b37e2, 0x7c1d673effc06744]),
    ("pastry-b4", 300, [0xe9eed206b25b613c, 0xae1fca04a476172b, 0xfc33be2a83b2d77d]),
    ("pastry-b4", 2048, [0x6287668ab1dedf8f, 0x079d47928d0ab4b6, 0xd52db27643a4bf8d]),
    ("crescendo-prox", 1, [0x5ef92b2c582ea3ec, 0xfd606ec187fdf8c9, 0xa953597be6dc0ecf]),
    ("crescendo-prox", 2, [0x98929eddbc52ebb0, 0xa785b326a86b37e2, 0x7c1d673effc06744]),
    ("crescendo-prox", 300, [0xb094b680692f425c, 0x35cb5214ee569410, 0x3d86d6223480605f]),
    ("crescendo-prox", 2048, [0x660b033871fcba68, 0x131b575b1f5ebf4b, 0xf995d50ca40258b4]),
];

#[test]
fn hierarchical_families_match_their_golden_digests_at_every_thread_count() {
    for threads in [1, 4, 13] {
        let got = canon_par::with_threads(threads, table);
        assert!(
            got.as_slice() == GOLDEN,
            "hierarchical graphs moved at threads={threads}; actual table:\n{}",
            render(&got)
        );
    }
}
