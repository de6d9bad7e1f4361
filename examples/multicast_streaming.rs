//! Multicast streaming over Crescendo vs flat Chord (paper §1, §5.4).
//!
//! A source streams to 600 subscribers scattered over a transit-stub
//! internet. Reverse-path trees are built by DHT subscription; we compare
//! the inter-domain links used and the total latency-weighted transmission
//! cost — the bandwidth argument for hierarchical DHT design.
//!
//! Run with: `cargo run --release --example multicast_streaming`

use canon::crescendo::{build_chord, build_crescendo};
use canon_id::hash::hash_name;
use canon_id::metric::Clockwise;
use canon_id::rng::Seed;
use canon_overlay::multicast::MulticastGroup;
use canon_overlay::NodeIndex;
use canon_topology::{attach, LatencyModel, TopologyParams, TransitStubTopology};
use rand::Rng;

fn main() {
    let n = 4096;
    let subscribers = 600;
    let seed = Seed(2004);
    let topo =
        TransitStubTopology::generate(TopologyParams::default(), LatencyModel::default(), seed);
    let att = attach(topo, n, seed.derive("attach"));
    let h = att.hierarchy().clone();
    let p = att.placement().clone();

    let cresc = build_crescendo(&h, &p);
    let chord = build_chord(p.ids());
    let key = hash_name("streams/keynote-2026");

    let mut rng = seed.derive("subs").rng();
    let members: Vec<NodeIndex> = (0..subscribers)
        .map(|_| NodeIndex(rng.gen_range(0..n) as u32))
        .collect();

    for (name, graph) in [("Crescendo", cresc.graph()), ("Chord (flat)", &chord)] {
        let mut group = MulticastGroup::new(graph, Clockwise, key).expect("group");
        let mut join_hops = 0usize;
        for &m in &members {
            join_hops += group
                .subscribe(graph, Clockwise, m)
                .expect("subscribe")
                .hops_to_tree;
        }
        assert!(group.delivers_to_all_members());
        let report = group.disseminate(|a, b| att.latency(graph.id(a), graph.id(b)));
        // Inter-domain links at the transit-domain level (depth 1).
        let crossings = group.inter_domain_links(|x| {
            let id = graph.id(x);
            let idx = cresc.graph().index_of(id).expect("same id space");
            cresc.domain_at_depth(&h, idx, 1)
        });
        println!("{name}:");
        println!(
            "  members {}   tree links {}",
            group.member_count(),
            group.link_count()
        );
        println!(
            "  mean join hops      {:.2}",
            join_hops as f64 / members.len() as f64
        );
        println!(
            "  dissemination: {} msgs, depth {}, max fanout {}",
            report.messages, report.depth, report.max_fanout
        );
        println!("  total latency cost  {:.0} ms-units", report.total_latency);
        println!("  inter-domain links  {crossings}\n");
    }
    println!("expected: Crescendo's tree crosses far fewer inter-domain links and");
    println!("costs less latency-weighted bandwidth for the same member set");
}
