//! Integration: the physical-network claims of §5.2–§5.4, verified
//! end-to-end at reduced scale (small topology, 1500 nodes) so they run in
//! test time.

use canon::crescendo::{build_chord, build_crescendo};
use canon::proximity::{build_chord_prox, build_crescendo_prox, ProxParams};
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_overlay::{route, NodeIndex};
use canon_topology::{attach, Attachment, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn small_attachment(n: usize) -> Attachment {
    let topo = TransitStubTopology::generate(
        TopologyParams {
            transit_domains: 3,
            transit_nodes: 4,
            stub_domains: 3,
            stub_nodes: 5,
        },
        LatencyModel::default(),
        Seed(7),
    );
    attach(topo, n, Seed(8))
}

fn mean_latency<F>(att: &Attachment, mut route_fn: F, pairs: usize) -> f64
where
    F: FnMut(NodeIndex, NodeIndex) -> Option<f64>,
{
    let n = att.placement().len();
    let mut rng = Seed(9).rng();
    let mut total = 0.0;
    let mut count = 0usize;
    while count < pairs {
        let a = NodeIndex(rng.gen_range(0..n) as u32);
        let b = NodeIndex(rng.gen_range(0..n) as u32);
        if a == b {
            continue;
        }
        if let Some(l) = route_fn(a, b) {
            total += l;
            count += 1;
        }
    }
    total / count as f64
}

#[test]
fn crescendo_beats_chord_on_latency_and_prox_helps_both() {
    let att = small_attachment(1500);
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let lat = |a, b| att.latency(a, b);

    let chord = build_chord(p.ids());
    let cresc = build_crescendo(&h, &p);
    let chord_px = build_chord_prox(p.ids(), &lat, ProxParams::default(), Seed(10));
    let cresc_px = build_crescendo_prox(&h, &p, &lat, ProxParams::default(), Seed(11));

    let m_chord = mean_latency(
        &att,
        |a, b| {
            route(&chord, Clockwise, a, b)
                .ok()
                .map(|r| r.latency(|x, y| att.latency(chord.id(x), chord.id(y))))
        },
        300,
    );
    let m_cresc = mean_latency(
        &att,
        |a, b| {
            route(cresc.graph(), Clockwise, a, b)
                .ok()
                .map(|r| r.latency(|x, y| att.latency(cresc.graph().id(x), cresc.graph().id(y))))
        },
        300,
    );
    let m_cresc_px = mean_latency(
        &att,
        |a, b| {
            cresc_px.route(a, b).ok().map(|r| {
                r.latency(|x, y| att.latency(cresc_px.graph().id(x), cresc_px.graph().id(y)))
            })
        },
        300,
    );
    let m_chord_px = mean_latency(
        &att,
        |a, b| {
            chord_px.route(a, b).ok().map(|r| {
                r.latency(|x, y| att.latency(chord_px.graph().id(x), chord_px.graph().id(y)))
            })
        },
        300,
    );

    // Figure 6's ordering (with slack): hierarchy-aware construction beats
    // flat; proximity adaptation improves each family.
    assert!(
        m_cresc < 0.8 * m_chord,
        "crescendo {m_cresc} vs chord {m_chord}"
    );
    assert!(
        m_chord_px < 0.8 * m_chord,
        "chord prox {m_chord_px} vs chord {m_chord}"
    );
    assert!(
        m_cresc_px < 1.05 * m_cresc,
        "crescendo prox {m_cresc_px} should not regress vs {m_cresc}"
    );
    assert!(
        m_cresc_px <= m_chord_px,
        "crescendo prox {m_cresc_px} should beat chord prox {m_chord_px}"
    );
}

#[test]
fn locality_collapses_latency_for_crescendo_only() {
    let att = small_attachment(1500);
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let cresc = build_crescendo(&h, &p);
    let g = cresc.graph();

    // Compare top-level queries vs queries within the same stub domain
    // (depth 3 of the induced hierarchy).
    let mut rng = Seed(12).rng();
    let mut by_domain: std::collections::BTreeMap<_, Vec<NodeIndex>> = Default::default();
    for (id, leaf) in p.iter() {
        let d3 = h.ancestor_at_depth(leaf, 3);
        by_domain
            .entry(d3)
            .or_default()
            .push(g.index_of(id).expect("in graph"));
    }
    let pools: Vec<&Vec<NodeIndex>> = by_domain.values().filter(|v| v.len() >= 2).collect();

    let mut local_total = 0.0;
    let mut count = 0;
    for _ in 0..300 {
        let pool = pools[rng.gen_range(0..pools.len())];
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        if a == b {
            continue;
        }
        let r = route(g, Clockwise, a, b).expect("local route");
        local_total += r.latency(|x, y| att.latency(g.id(x), g.id(y)));
        count += 1;
    }
    let local_mean = local_total / count as f64;

    let global_mean = {
        let n = p.len();
        let mut total = 0.0;
        let mut c = 0;
        for _ in 0..300 {
            let a = NodeIndex(rng.gen_range(0..n) as u32);
            let b = NodeIndex(rng.gen_range(0..n) as u32);
            if a == b {
                continue;
            }
            let r = route(g, Clockwise, a, b).expect("global route");
            total += r.latency(|x, y| att.latency(g.id(x), g.id(y)));
            c += 1;
        }
        total / c as f64
    };

    // Figure 7: stub-domain-local queries are dramatically cheaper.
    assert!(
        local_mean < global_mean / 5.0,
        "local {local_mean} vs global {global_mean}: locality benefit missing"
    );
}

#[test]
fn multicast_crosses_far_fewer_domains_on_crescendo() {
    use canon_overlay::multicast::MulticastGroup;
    let att = small_attachment(1200);
    let h = att.hierarchy().clone();
    let p = att.placement().clone();
    let lat = |a, b| att.latency(a, b);
    let cresc = build_crescendo(&h, &p);
    let chord_px = build_chord_prox(p.ids(), &lat, ProxParams::default(), Seed(13));

    let mut rng = Seed(14).rng();
    let n = p.len();
    let dest = NodeIndex(rng.gen_range(0..n) as u32);
    let sources: Vec<NodeIndex> = (0..300)
        .map(|_| NodeIndex(rng.gen_range(0..n) as u32))
        .filter(|&s| s != dest)
        .collect();

    let routes: Vec<_> = sources
        .iter()
        .map(|&s| route(cresc.graph(), Clockwise, s, dest).expect("routes"))
        .collect();
    let tree_c = MulticastGroup::from_routes(cresc.graph(), dest, &routes);
    let routes: Vec<_> = sources
        .iter()
        .map(|&s| chord_px.route(s, dest).expect("prox route"))
        .collect();
    let tree_p = MulticastGroup::from_routes(chord_px.graph(), dest, &routes);

    let dom_of_c = |x: NodeIndex| cresc.domain_at_depth(&h, x, 1);
    let crossings_c = tree_c.inter_domain_links(dom_of_c) as f64;
    let dom_of_p = |x: NodeIndex| {
        let id = chord_px.graph().id(x);
        let idx = cresc.graph().index_of(id).expect("same ids");
        cresc.domain_at_depth(&h, idx, 1)
    };
    let crossings_p = tree_p.inter_domain_links(dom_of_p) as f64;

    // Figure 9: Crescendo uses a small fraction of Chord (Prox.)'s
    // inter-domain links.
    assert!(
        crossings_c < crossings_p / 4.0,
        "crescendo {crossings_c} vs chordProx {crossings_p} inter-domain links"
    );
}
