//! The flat DHTs as one-domain Canon: edge inputs through the engine, and
//! the whole-network properties of flat Chord, Symphony and Kademlia (the
//! rule crates test their per-node rule functions; networks are built
//! here).

use canon::cacophony::build_symphony;
use canon::crescendo::{build_chord, build_nondet_chord, CrescendoRule};
use canon::engine::build_flat;
use canon::kandy::build_kademlia;
use canon::proximity::{build_chord_prox, ProxParams};
use canon_id::metric::{Clockwise, Metric, Xor};
use canon_id::rng::{random_ids, Seed};
use canon_id::{NodeId, ID_BITS};
use canon_kademlia::BucketChoice;
use canon_overlay::{route, stats, NodeIndex, OverlayGraph};
use canon_symphony::route_with_lookahead;
use rand::Rng;

/// Every flat family this crate builds.
const FAMILIES: [&str; 6] = [
    "chord",
    "nondet-chord",
    "symphony",
    "kademlia-closest",
    "kademlia-random",
    "chord-prox",
];

fn build(family: &str, ids: &[NodeId]) -> OverlayGraph {
    match family {
        "chord" => build_chord(ids),
        "nondet-chord" => build_nondet_chord(ids, Seed(1)),
        "symphony" => build_symphony(ids, Seed(1)),
        "kademlia-closest" => build_kademlia(ids, BucketChoice::Closest, Seed(1)),
        "kademlia-random" => build_kademlia(ids, BucketChoice::Random, Seed(1)),
        "chord-prox" => build_chord_prox(ids, &|_, _| 1.0, ProxParams::default(), Seed(1))
            .graph()
            .clone(),
        other => unreachable!("unknown family {other}"),
    }
}

mod edge_inputs {
    use super::*;

    #[test]
    fn no_ids_build_the_empty_graph() {
        // `build_canonical` rejects an empty placement; a flat build does not.
        assert!(build_flat(&[], &CrescendoRule, Seed(0)).is_empty());
        for name in FAMILIES {
            let g = build(name, &[]);
            assert!(g.is_empty() && g.link_count() == 0, "{name}");
        }
    }

    #[test]
    fn duplicate_ids_are_collapsed() {
        // `Placement::from_pairs` would panic on these.
        let ids = [7u64, 3, 7, 1 << 40, 3].map(NodeId::new);
        let distinct = [3u64, 7, 1 << 40].map(NodeId::new);
        for name in FAMILIES {
            let g = build(name, &ids);
            assert_eq!(g.ids(), distinct, "{name}");
            assert_eq!(
                g.edges().collect::<Vec<_>>(),
                build(name, &distinct).edges().collect::<Vec<_>>(),
                "{name}"
            );
        }
    }

    #[test]
    fn one_node_has_no_links_and_two_link_mutually() {
        for name in FAMILIES {
            let one = build(name, &[NodeId::new(9)]);
            assert_eq!((one.len(), one.link_count()), (1, 0), "{name}");
            let two = build(name, &[NodeId::new(10), NodeId::new(1 << 40)]);
            assert_eq!(two.len(), 2, "{name}");
            for i in two.node_indices() {
                assert_eq!(two.degree(i), 1, "{name}");
            }
        }
    }
}

mod chord {
    use super::*;

    #[test]
    fn chord_degree_is_logarithmic() {
        // Theorem 1: expected degree <= log2(n-1) + 1.
        let n = 2048;
        let g = build_chord(&random_ids(Seed(3), n));
        let d = stats::DegreeStats::of(&g);
        let bound = ((n - 1) as f64).log2() + 1.0;
        assert!(
            d.summary.mean <= bound,
            "mean degree {} exceeds Theorem 1 bound {bound}",
            d.summary.mean
        );
        // And it should not be wildly below either (sanity: > half).
        assert!(d.summary.mean > bound / 2.0);
    }

    #[test]
    fn chord_routing_reaches_all_sampled_destinations() {
        let g = build_chord(&random_ids(Seed(4), 512));
        let s = stats::hop_stats(&g, Clockwise, 500, Seed(5)).unwrap();
        // Theorem 4: expected hops <= 0.5*log2(n-1) + 0.5 = 5.0 for n = 512.
        assert!(s.mean <= 5.0 + 0.5, "mean hops {}", s.mean);
    }

    #[test]
    fn nondet_chord_routes_correctly() {
        let ids = random_ids(Seed(9), 256);
        let g = build_nondet_chord(&ids, Seed(10));
        let s = stats::hop_stats(&g, Clockwise, 300, Seed(11)).unwrap();
        assert!(s.mean < 10.0, "nondet chord mean hops {}", s.mean);
    }

    #[test]
    fn nondet_construction_is_seed_deterministic() {
        let ids = random_ids(Seed(12), 128);
        let a = build_nondet_chord(&ids, Seed(1));
        let b = build_nondet_chord(&ids, Seed(1));
        let c = build_nondet_chord(&ids, Seed(2));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
        // Different seeds should (overwhelmingly) differ.
        let ec: Vec<_> = c.edges().collect();
        assert_ne!(ea, ec);
    }
}

mod symphony {
    use super::*;

    #[test]
    fn symphony_routes_greedily() {
        let g = build_symphony(&random_ids(Seed(6), 512), Seed(7));
        let s = stats::hop_stats(&g, Clockwise, 300, Seed(8)).unwrap();
        // Symphony routes in O(log^2 n / log n) = O(log n)-ish hops with
        // log n links; allow a loose ceiling.
        assert!(s.mean < 25.0, "mean hops {}", s.mean);
    }

    #[test]
    fn lookahead_beats_greedy_on_average() {
        let ids = random_ids(Seed(9), 1024);
        let g = build_symphony(&ids, Seed(10));
        let mut greedy_total = 0usize;
        let mut look_total = 0usize;
        let pairs = 200;
        let mut rng = Seed(11).rng();
        for _ in 0..pairs {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r1 = route(&g, Clockwise, a, b).unwrap();
            let r2 = route_with_lookahead(&g, a, b).unwrap();
            greedy_total += r1.hops();
            look_total += r2.hops();
            assert_eq!(r2.target(), b);
        }
        assert!(
            (look_total as f64) < 0.9 * greedy_total as f64,
            "lookahead {look_total} vs greedy {greedy_total}"
        );
    }

    #[test]
    fn lookahead_route_to_self() {
        let g = build_symphony(&random_ids(Seed(12), 64), Seed(13));
        let n = NodeIndex(5);
        let r = route_with_lookahead(&g, n, n).unwrap();
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn construction_is_reproducible() {
        let ids = random_ids(Seed(14), 128);
        let a = build_symphony(&ids, Seed(1));
        let b = build_symphony(&ids, Seed(1));
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn degree_tracks_log_n() {
        let n = 1024;
        let g = build_symphony(&random_ids(Seed(15), n), Seed(16));
        let d = stats::DegreeStats::of(&g);
        // budget = 10 draws (with duplicates/collisions) + successor.
        assert!(
            d.summary.mean > 5.0 && d.summary.mean < 12.0,
            "mean {}",
            d.summary.mean
        );
    }
}

mod kademlia {
    use super::*;

    /// The bucket `[2^k, 2^(k+1))` an XOR distance falls into.
    fn bucket_of(d: u64) -> u32 {
        63 - d.leading_zeros()
    }

    #[test]
    fn every_nonempty_bucket_gets_a_link() {
        let g = build_kademlia(&random_ids(Seed(1), 200), BucketChoice::Closest, Seed(2));
        for i in g.node_indices().take(25) {
            let me = g.id(i);
            for k in 0..ID_BITS {
                let has_link = g
                    .neighbors(i)
                    .iter()
                    .any(|&l| bucket_of(me.xor_to(g.id(l))) == k);
                assert_eq!(
                    !g.ring().xor_bucket(me, k).is_empty(),
                    has_link,
                    "bucket {k} of {me}"
                );
            }
        }
    }

    #[test]
    fn closest_choice_picks_bucket_minimum() {
        let g = build_kademlia(&random_ids(Seed(3), 300), BucketChoice::Closest, Seed(4));
        let i = NodeIndex(50);
        let me = g.id(i);
        for &l in g.neighbors(i) {
            let d = me.xor_to(g.id(l));
            let k = bucket_of(d);
            let best = g
                .ring()
                .xor_bucket(me, k)
                .iter()
                .map(|&b| me.xor_to(b))
                .min()
                .unwrap();
            assert_eq!(d, best, "bucket {k} link is not the closest member");
        }
    }

    #[test]
    fn greedy_xor_routing_reaches_every_destination() {
        let ids = random_ids(Seed(7), 256);
        let g = build_kademlia(&ids, BucketChoice::Closest, Seed(8));
        for a in [0usize, 17, 100, 255] {
            for b in [3usize, 42, 200] {
                if a == b {
                    continue;
                }
                let r = route(&g, Xor, NodeIndex(a as u32), NodeIndex(b as u32)).unwrap();
                assert_eq!(r.target(), NodeIndex(b as u32));
                // Each hop fixes at least the top differing bit, so hops are
                // bounded by the bit length of the initial distance.
                let d0 = Xor.distance(g.id(NodeIndex(a as u32)), g.id(NodeIndex(b as u32)));
                assert!(r.hops() as u32 <= 64 - d0.leading_zeros());
            }
        }
    }

    #[test]
    fn random_choice_also_routes() {
        let ids = random_ids(Seed(9), 256);
        let g = build_kademlia(&ids, BucketChoice::Random, Seed(10));
        let s = stats::hop_stats(&g, Xor, 300, Seed(11)).unwrap();
        assert!(s.mean < 10.0, "mean hops {}", s.mean);
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let ids = random_ids(Seed(12), 1024);
        let g = build_kademlia(&ids, BucketChoice::Closest, Seed(13));
        let s = stats::hop_stats(&g, Xor, 500, Seed(14)).unwrap();
        // Expected hops ≈ half the log of n (each hop fixes one of the
        // log2(n) significant prefix bits, often more).
        assert!(s.mean < 8.0, "mean hops {}", s.mean);
        assert!(s.mean > 2.0, "mean hops suspiciously low: {}", s.mean);
    }

    #[test]
    fn degree_is_logarithmic() {
        let n = 1024;
        let g = build_kademlia(&random_ids(Seed(15), n), BucketChoice::Closest, Seed(16));
        let d = stats::DegreeStats::of(&g);
        // Roughly log2(n) non-empty buckets per node.
        assert!(
            d.summary.mean > 7.0 && d.summary.mean < 14.0,
            "mean {}",
            d.summary.mean
        );
    }

    #[test]
    fn closest_construction_is_deterministic() {
        let ids = random_ids(Seed(17), 128);
        let a = build_kademlia(&ids, BucketChoice::Closest, Seed(1));
        let b = build_kademlia(&ids, BucketChoice::Closest, Seed(99));
        // Closest choice ignores the seed entirely.
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
