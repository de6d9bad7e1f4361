//! Integration across the application-layer crates: Pastry, SkipNet and
//! multicast working over the shared substrates.

use canon::crescendo::build_crescendo;
use canon::pastry::{build_canonical_pastry, build_pastry, PastryParams};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::hash::hash_name;
use canon_id::metric::{Clockwise, Xor};
use canon_id::rng::Seed;
use canon_overlay::multicast::MulticastGroup;
use canon_overlay::{route, NodeIndex};
use canon_skipnet::SkipNet;
use rand::Rng;

#[test]
fn canonical_pastry_matches_crescendo_scaling() {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::zipf(&h, 500, Seed(1));
    let pastry = build_canonical_pastry(
        &h,
        &p,
        PastryParams {
            digit_bits: 2,
            leaf_half: 4,
        },
    );
    let cresc = build_crescendo(&h, &p);
    let dp = canon_overlay::stats::DegreeStats::of(pastry.graph())
        .summary
        .mean;
    let dc = canon_overlay::stats::DegreeStats::of(cresc.graph())
        .summary
        .mean;
    // Same asymptotics, different constants (radix-4 tables + leaf sets).
    assert!(dp < 5.0 * dc, "pastry degree {dp} vs crescendo {dc}");
    let hp = canon_overlay::stats::hop_stats(pastry.graph(), Xor, 300, Seed(2))
        .unwrap()
        .mean;
    let hc = canon_overlay::stats::hop_stats(cresc.graph(), Clockwise, 300, Seed(2))
        .unwrap()
        .mean;
    // Radix-4 digit fixing needs no more hops than binary clockwise.
    assert!(hp <= hc + 1.0, "pastry hops {hp} vs crescendo {hc}");
}

#[test]
fn multicast_over_crescendo_exploits_convergence() {
    // Subscribing every member of one domain produces a tree whose links
    // into the domain funnel through one inter-domain edge.
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 400, Seed(3));
    let net = build_crescendo(&h, &p);
    let g = net.graph();
    let key = hash_name("group/weekly");
    let mut group = MulticastGroup::new(g, Clockwise, key).expect("group");

    let domain = h.domains_at_depth(1)[0];
    let members = net.members_of(&h, domain);
    assert!(members.len() > 10);
    for &m in &members {
        group.subscribe(g, Clockwise, m).expect("subscribe");
    }
    assert!(group.delivers_to_all_members());

    // The rendezvous is outside the domain in general; all traffic into the
    // domain must cross exactly one inter-domain tree link (the proxy).
    // Transit hops between *other* domains on the way to the rendezvous are
    // placement-dependent, so only links entering the subscriber domain are
    // pinned down by the convergence property.
    let entering = group.links_entering(&domain, |x| net.domain_at_depth(&h, x, 1));
    let rendezvous_inside = h.is_ancestor_or_self(domain, net.leaf_of(group.rendezvous()));
    if !rendezvous_inside {
        assert_eq!(
            entering, 1,
            "a single-domain subscriber set must enter through one proxy link"
        );
    }
}

#[test]
fn multicast_over_flat_pastry_works() {
    let ids = canon_id::rng::random_ids(Seed(4), 300);
    let g = build_pastry(&ids, PastryParams::default());
    let mut group = MulticastGroup::new(&g, Xor, hash_name("pastry-group")).expect("group");
    let mut rng = Seed(5).rng();
    for _ in 0..50 {
        let m = NodeIndex(rng.gen_range(0..g.len()) as u32);
        group.subscribe(&g, Xor, m).expect("subscribe");
    }
    assert!(group.delivers_to_all_members());
    let rep = group.disseminate(|_, _| 1.0);
    assert_eq!(rep.messages, group.link_count());
}

#[test]
fn skipnet_and_crescendo_agree_on_locality_but_not_convergence() {
    // Build matching 2-level worlds.
    let sites = 10usize;
    let per_site = 30usize;
    let n = sites * per_site;
    let names: Vec<String> = (0..n)
        .map(|i| format!("org/s{:02}/h{:03}", i / per_site, i % per_site))
        .collect();
    let skip = SkipNet::build(names, Seed(6));

    let mut h = Hierarchy::new();
    let leaves: Vec<_> = (0..sites)
        .map(|s| h.add_domain(h.root(), format!("s{s:02}")))
        .collect();
    let p = Placement::uniform(&h, n, Seed(7));
    let cresc = build_crescendo(&h, &p);

    // (a) both systems keep intra-site routes inside the site.
    let site = 4usize;
    let lo = site * per_site;
    let r = skip
        .route_by_name(lo, lo + per_site - 1)
        .expect("skipnet route");
    assert!(r.path().iter().all(|&i| i.index() / per_site == site));

    let members = cresc.members_of(&h, leaves[site]);
    let rr = route(
        cresc.graph(),
        Clockwise,
        members[0],
        members[members.len() - 1],
    )
    .expect("crescendo route");
    assert!(rr.path().iter().all(|&i| cresc.leaf_of(i) == leaves[site]));

    // (b) only Crescendo funnels the site's outbound queries for one
    // destination through a single exit node.
    let mut rng = Seed(8).rng();
    let outside = loop {
        let x = NodeIndex(rng.gen_range(0..n) as u32);
        if cresc.leaf_of(x) != leaves[site] {
            break x;
        }
    };
    let exits: std::collections::HashSet<NodeIndex> = members
        .iter()
        .take(10)
        .filter_map(|&m| {
            let r = route(cresc.graph(), Clockwise, m, outside).ok()?;
            r.path()
                .iter()
                .rev()
                .find(|&&v| cresc.leaf_of(v) == leaves[site])
                .copied()
        })
        .collect();
    assert_eq!(exits.len(), 1, "Crescendo must converge at one exit");

    let dest = (site + 3) % sites * per_site + 7;
    let skip_exits: std::collections::HashSet<usize> = (lo..lo + 10)
        .filter_map(|m| {
            let r = skip.route_by_name(m, dest).ok()?;
            r.path()
                .iter()
                .rev()
                .map(|i| i.index())
                .find(|&v| v / per_site == site)
        })
        .collect();
    assert!(
        skip_exits.len() > 1,
        "SkipNet is expected to spread exits ({skip_exits:?})"
    );
}
