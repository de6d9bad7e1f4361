//! Property test for the one multicast tree type: a reverse-path tree is
//! the same whether it is grown by grafting recorded full routes
//! (`from_routes`, Figure 9's construction) or by live subscriptions that
//! stop at the first on-tree node — routing is memoryless in
//! (node, destination), so "union of route edges" and "graft until on the
//! tree" coincide. Checked on Crescendo, flat Chord and Chord (Prox.).

use canon::crescendo::{build_chord, build_crescendo};
use canon::proximity::{build_chord_prox, ProxParams};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_id::{Key, NodeId};
use canon_overlay::multicast::MulticastGroup;
use canon_overlay::{route, NodeIndex, OverlayGraph, Route};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

type Edges = BTreeSet<(NodeIndex, NodeIndex)>;

/// A destination and a random source set (duplicates and the destination
/// itself allowed) over `n` nodes.
fn draw(n: usize, sources: usize, seed: Seed) -> (NodeIndex, Vec<NodeIndex>) {
    let mut rng = seed.rng();
    let dest = NodeIndex(rng.gen_range(0..n) as u32);
    let srcs = (0..sources)
        .map(|_| NodeIndex(rng.gen_range(0..n) as u32))
        .collect();
    (dest, srcs)
}

/// Domains for the inter-domain count: the top two identifier bits.
fn quadrant(g: &OverlayGraph) -> impl Fn(NodeIndex) -> u64 + '_ {
    |x| g.id(x).prefix(2)
}

/// `from_routes` must install exactly the union of the routes' edges
/// (reversed: parent → child), with every source a reachable member.
fn check_from_routes(g: &OverlayGraph, dest: NodeIndex, routes: &[Route]) -> MulticastGroup {
    let tree = MulticastGroup::from_routes(g, dest, routes);
    let union: Edges = routes
        .iter()
        .flat_map(|r| r.edges())
        .map(|(child, parent)| (parent, child))
        .collect();
    assert_eq!(tree.tree_edges().collect::<Edges>(), union);
    assert_eq!(tree.link_count(), union.len());
    assert_eq!(tree.rendezvous(), dest);
    assert!(tree.delivers_to_all_members());
    tree
}

/// Grafting full greedy routes and subscribing the same sources agree.
fn check_subscribe(g: &OverlayGraph, dest: NodeIndex, srcs: &[NodeIndex]) {
    let routes: Vec<Route> = srcs
        .iter()
        .map(|&s| route(g, Clockwise, s, dest).expect("greedy route"))
        .collect();
    let grafted = check_from_routes(g, dest, &routes);
    let mut live = MulticastGroup::new(g, Clockwise, Key::new(g.id(dest).raw())).expect("group");
    for &s in srcs {
        live.subscribe(g, Clockwise, s).expect("subscribe");
    }
    assert_eq!(live.rendezvous(), grafted.rendezvous());
    assert_eq!(
        live.tree_edges().collect::<Edges>(),
        grafted.tree_edges().collect::<Edges>()
    );
    assert_eq!(live.link_count(), grafted.link_count());
    assert_eq!(
        live.members().collect::<Vec<_>>(),
        grafted.members().collect::<Vec<_>>()
    );
    assert_eq!(
        live.inter_domain_links(quadrant(g)),
        grafted.inter_domain_links(quadrant(g))
    );
    assert_eq!(
        live.delivers_to_all_members(),
        grafted.delivers_to_all_members()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grafted_routes_and_subscriptions_grow_the_same_tree(
        fanout in 1usize..=4, levels in 1u32..=3, n in 8usize..160,
        sources in 0usize..60, seed in 0u64..1000,
    ) {
        let h = Hierarchy::balanced(fanout, levels);
        let p = Placement::uniform(&h, n, Seed(seed));
        let (dest, srcs) = draw(n, sources, Seed(seed).derive("multicast"));

        check_subscribe(build_crescendo(&h, &p).graph(), dest, &srcs);
        check_subscribe(&build_chord(p.ids()), dest, &srcs);

        // Chord (Prox.) routes with its own proximity policy, so its trees
        // only ever come from recorded routes.
        let lat = |a: NodeId, b: NodeId| ((a.raw() ^ b.raw()) % 97) as f64;
        let px = build_chord_prox(p.ids(), &lat, ProxParams::default(), Seed(seed));
        let routes: Vec<Route> = srcs
            .iter()
            .map(|&s| px.route(s, dest).expect("prox route"))
            .collect();
        check_from_routes(px.graph(), dest, &routes);
    }
}
