//! Ablation: what does Canon's merge condition (b) buy?
//!
//! Condition (b) keeps only merge links shorter than the closest own-ring
//! node. Removing it (applying the plain Chord rule at every level and
//! keeping everything) preserves routing but multiplies state: each node
//! pays ≈ log2(n) links *per level* instead of ≈ log2(n) total.

use canon::crescendo::build_crescendo;
use canon::engine::{build_canonical, LevelCtx, LinkRule};
use canon_bench::{banner, f, row, BenchConfig};
use canon_chord::chord_links_bounded;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::ring::SortedRing;
use canon_id::rng::{DetRng, Seed};
use canon_id::{NodeId, RingDistance};
use canon_overlay::stats::{hop_stats, DegreeStats};

/// Crescendo with condition (b) removed: the flat Chord rule at every
/// level, unbounded.
struct UnboundedRule;

impl LinkRule for UnboundedRule {
    type M = Clockwise;
    type NodeState = ();

    fn metric(&self) -> Clockwise {
        Clockwise
    }

    fn links(
        &self,
        _ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        _bound: RingDistance,
        _rng: &mut DetRng,
        _state: &mut (),
        out: &mut Vec<NodeId>,
    ) {
        chord_links_bounded(ring, me, RingDistance::FULL_CIRCLE, out);
    }
}

fn main() {
    let cfg = BenchConfig::from_args(8192, 1);
    banner(
        "ablate-(b)",
        "degree/hops with and without merge condition (b)",
        &cfg,
    );
    let n = cfg.max_n;
    row(&[
        "levels".into(),
        "deg(canon)".into(),
        "deg(no-b)".into(),
        "hops(canon)".into(),
        "hops(no-b)".into(),
    ]);
    for levels in [1u32, 2, 3, 4, 5] {
        let h = Hierarchy::balanced(10, levels);
        let p = Placement::zipf(&h, n, cfg.trial_seed("ablate-b", u64::from(levels)));
        let canon_net = build_crescendo(&h, &p);
        let nob_net = build_canonical(&h, &p, &UnboundedRule, Seed(0));
        let dc = DegreeStats::of(canon_net.graph()).summary.mean;
        let dn = DegreeStats::of(nob_net.graph()).summary.mean;
        let hc = hop_stats(canon_net.graph(), Clockwise, 500, cfg.trial_seed("hb", 0))
            .expect("routing failed on a well-formed graph")
            .mean;
        let hn = hop_stats(nob_net.graph(), Clockwise, 500, cfg.trial_seed("hb", 0))
            .expect("routing failed on a well-formed graph")
            .mean;
        row(&[levels.to_string(), f(dc), f(dn), f(hc), f(hn)]);
    }
    println!("# expect: deg(no-b) ~= levels * log2(n) (state blow-up) for ~the same hops;");
    println!("# condition (b) is what keeps hierarchical state at flat-DHT levels");
}
