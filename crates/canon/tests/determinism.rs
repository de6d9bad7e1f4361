//! Regression tests for the parallel construction pipeline: the graph a
//! rule produces must be bit-identical for every thread count, and must
//! match an independent single-threaded re-implementation of the engine's
//! per-node walk (same per-node seeding, plain serial loop). Every rule the
//! walk builds is covered, the unaudited Pastry and proximity rules too.

use canon::cacophony::{build_cacophony, CacophonyRule};
use canon::crescendo::{build_crescendo, CrescendoRule};
use canon::engine::{CanonicalNetwork, LevelCtx, LinkRule};
use canon::kandy::{build_kandy, KandyRule};
use canon::pastry::{build_canonical_pastry, PastryParams, PastryRule};
use canon::proximity::{build_crescendo_prox, ProxParams, ProxRule};
use canon_hierarchy::{DomainMembership, Hierarchy, Placement};
use canon_id::rng::{splitmix64, Seed};
use canon_id::{NodeId, RingDistance};
use canon_kademlia::BucketChoice;
use canon_overlay::{GraphBuilder, OverlayGraph};

/// A plain serial reference for `build_canonical`: one loop, no batching,
/// no `canon_par` — only the public `LinkRule` contract.
fn reference_build<R: LinkRule>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    rule: &R,
    seed: Seed,
) -> OverlayGraph {
    let members = DomainMembership::build(hierarchy, placement);
    let all = members.ring(hierarchy.root());
    let mut builder = GraphBuilder::with_nodes(all.as_slice());
    let mut links = Vec::new();
    for (id, leaf) in placement.iter() {
        let mut rng = seed.derive_node(id).rng();
        let mut state = R::NodeState::default();
        let mut bound = RingDistance::FULL_CIRCLE;
        let path = hierarchy.path_from_root(leaf);
        let leaf_depth = hierarchy.depth(leaf);
        for &domain in path.iter().rev() {
            let ring = members.ring(domain);
            let ctx = LevelCtx {
                depth: hierarchy.depth(domain),
                is_leaf_level: domain == leaf,
                levels_above_leaf: leaf_depth - hierarchy.depth(domain),
            };
            links.clear();
            rule.links(ctx, ring, id, bound, &mut rng, &mut state, &mut links);
            for &link in &links {
                builder.add_link(id, link);
            }
            bound = ring.own_ring_bound(rule.metric(), id);
        }
    }
    builder.build()
}

fn world(seed: u64) -> (Hierarchy, Placement) {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::zipf(&h, 600, Seed(seed));
    (h, p)
}

fn edges(net: &CanonicalNetwork) -> Vec<(canon_overlay::NodeIndex, canon_overlay::NodeIndex)> {
    net.graph().edges().collect()
}

/// The thread counts every build is compared against its 1-thread build at.
const THREADS: [usize; 3] = [4, 8, 13];

fn assert_thread_counts_agree(build: impl Fn() -> CanonicalNetwork) -> CanonicalNetwork {
    let serial = canon_par::with_threads(1, &build);
    for threads in THREADS {
        let parallel = canon_par::with_threads(threads, &build);
        assert_eq!(
            edges(&serial),
            edges(&parallel),
            "threads=1 vs threads={threads}"
        );
        assert_eq!(
            serial.links_per_level(),
            parallel.links_per_level(),
            "per-level instrumentation must not depend on threads"
        );
    }
    serial
}

/// A deterministic synthetic latency: uniform in [0, 1) per ordered pair.
fn synth_lat(a: NodeId, b: NodeId) -> f64 {
    let h = splitmix64(a.raw() ^ splitmix64(b.raw()));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn crescendo_is_identical_across_thread_counts_and_reference() {
    let (h, p) = world(1);
    let net = assert_thread_counts_agree(|| build_crescendo(&h, &p));
    let reference = reference_build(&h, &p, &CrescendoRule, Seed(0));
    assert_eq!(edges(&net), reference.edges().collect::<Vec<_>>());
}

#[test]
fn cacophony_is_identical_across_thread_counts_and_reference() {
    let (h, p) = world(2);
    let net = assert_thread_counts_agree(|| build_cacophony(&h, &p, Seed(77)));
    // build_cacophony derives the "cacophony" stream from the user seed.
    let reference = reference_build(&h, &p, &CacophonyRule, Seed(77).derive("cacophony"));
    assert_eq!(edges(&net), reference.edges().collect::<Vec<_>>());
}

#[test]
fn kandy_is_identical_across_thread_counts_and_reference() {
    for choice in [BucketChoice::Closest, BucketChoice::Random] {
        let (h, p) = world(3);
        let net = assert_thread_counts_agree(|| build_kandy(&h, &p, choice, Seed(88)));
        let reference = reference_build(&h, &p, &KandyRule::new(choice), Seed(88).derive("kandy"));
        assert_eq!(
            edges(&net),
            reference.edges().collect::<Vec<_>>(),
            "{choice:?}"
        );
    }
}

#[test]
fn canonical_pastry_is_identical_across_thread_counts_and_reference() {
    for digit_bits in [1, 2, 4] {
        let (h, p) = world(5);
        let params = PastryParams {
            digit_bits,
            leaf_half: 4,
        };
        let net = assert_thread_counts_agree(|| build_canonical_pastry(&h, &p, params));
        // The rule draws no randomness; the builder passes `Seed(0)`.
        let reference = reference_build(&h, &p, &PastryRule::new(params), Seed(0));
        assert_eq!(
            edges(&net),
            reference.edges().collect::<Vec<_>>(),
            "b = {digit_bits}"
        );
    }
}

#[test]
fn crescendo_prox_is_identical_across_thread_counts_and_reference() {
    let (h, p) = world(6);
    let params = ProxParams::default();
    let build = || {
        let net = build_crescendo_prox(&h, &p, &synth_lat, params, Seed(99));
        net.graph().edges().collect::<Vec<_>>()
    };
    let serial = canon_par::with_threads(1, build);
    for threads in THREADS {
        assert_eq!(
            serial,
            canon_par::with_threads(threads, build),
            "threads=1 vs threads={threads}"
        );
    }
    // build_crescendo_prox derives the "crescendo-prox" stream.
    let rule = ProxRule::new(p.ids(), &synth_lat, params);
    let reference = reference_build(&h, &p, &rule, Seed(99).derive("crescendo-prox"));
    assert_eq!(serial, reference.edges().collect::<Vec<_>>());
}

#[test]
fn different_seeds_still_differ() {
    // Determinism must not collapse the randomized rules to one graph.
    let (h, p) = world(4);
    let a = build_cacophony(&h, &p, Seed(1));
    let b = build_cacophony(&h, &p, Seed(2));
    assert_ne!(edges(&a), edges(&b));
}
