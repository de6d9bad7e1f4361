//! Group-based adaptation to physical-network proximity (paper §3.6).
//!
//! Canon constructions inherit proximity from the hierarchy (nodes of a
//! domain are usually physically close), but the *top* level of the
//! hierarchy spans the world. The paper's fix is transparent to the DHT
//! structure: group nodes by the top `T` bits of their identifier, apply
//! the link rules to *group* identifiers, and let each node satisfy a
//! group link by picking the lowest-latency node among `s` sampled members
//! of the target group (Internet measurements put `s = 32` as sufficient).
//! Nodes within one group connect densely (here: a complete graph). `T` is
//! chosen so the expected group size is a constant independent of `n`.
//!
//! Two constructions are provided:
//!
//! * [`build_crescendo_prox`] — Crescendo with group-based construction at
//!   the top level only (*Crescendo (Prox.)*), lower levels built exactly
//!   as normal;
//! * [`build_chord_prox`] — flat Chord over groups (the paper's
//!   *Chord (Prox.)*): the same construction over one domain, where the
//!   top level is the only level.
//!
//! Routing is group-aware ([`ProxNetwork::route`]): greedily minimize the
//! clockwise *group* distance first, then the clockwise identifier
//! distance within the destination group (where the dense intra-group
//! graph guarantees a final direct hop).

use crate::engine::{one_domain, walk, CanonicalNetwork, LevelCtx, LinkRule};
use canon_chord::chord_links_bounded;
use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::{
    metric::Clockwise,
    ring::SortedRing,
    rng::{DetRng, Seed},
    NodeId, RingDistance, ID_BITS,
};
use canon_overlay::engine::unrestricted;
use canon_overlay::policy::{ProximityAware, RoutingPolicy};
use canon_overlay::{drive, NodeIndex, OverlayGraph, Route, RouteError};
use rand::Rng;
use std::collections::BTreeMap;

/// Parameters of the group construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProxParams {
    /// Desired expected nodes per group (paper: a small constant; we
    /// default to 16).
    pub target_group_size: usize,
    /// Nodes sampled per group link, keeping the lowest-latency one
    /// (paper cites `s = 32`).
    pub samples: usize,
}

impl Default for ProxParams {
    fn default() -> Self {
        ProxParams {
            target_group_size: 16,
            samples: 32,
        }
    }
}

/// The group prefix length `T` for `n` nodes: `⌊log2(n / target)⌋`,
/// clamped to `[0, 63]`.
pub fn group_bits(n: usize, target_group_size: usize) -> u32 {
    let groups = (n / target_group_size.max(1)).max(1);
    (usize::BITS - 1 - groups.leading_zeros()).min(ID_BITS - 1)
}

/// A proximity-adapted network: the Canonical network plus its group
/// geometry.
#[derive(Clone, Debug)]
pub struct ProxNetwork {
    net: CanonicalNetwork,
    group_bits: u32,
}

impl ProxNetwork {
    /// The overlay graph.
    pub fn graph(&self) -> &OverlayGraph {
        self.net.graph()
    }

    /// The group prefix length `T`.
    pub fn group_bits(&self) -> u32 {
        self.group_bits
    }

    /// The group (top-`T`-bit prefix) of node `i`.
    pub fn group_of(&self, i: NodeIndex) -> u64 {
        self.graph().id(i).prefix(self.group_bits)
    }

    /// The leaf domain of node `i` (the root domain for flat networks).
    pub fn leaf_of(&self, i: NodeIndex) -> DomainId {
        self.net.leaf_of(i)
    }

    /// Group-aware greedy routing from `from` to `to`.
    ///
    /// Minimizes the pair (clockwise group distance, clockwise identifier
    /// distance) lexicographically; both components never increase and one
    /// strictly decreases per hop, so routes terminate.
    ///
    /// # Errors
    ///
    /// * [`RouteError::Stuck`] if no neighbor improves the pair (a
    ///   structural defect).
    /// * [`RouteError::HopLimit`] on malformed graphs.
    pub fn route(&self, from: NodeIndex, to: NodeIndex) -> Result<Route, RouteError> {
        let graph = self.graph();
        let policy = ProximityAware::new(self.group_bits, graph.id(to));
        let r = drive(graph, &policy, from, unrestricted())?.route;
        if r.target() != to {
            let at = r.target();
            return Err(RouteError::Stuck {
                at,
                remaining: policy.key(graph, at).1,
            });
        }
        Ok(r)
    }
}

/// Per-group member lists, keyed by group prefix.
struct Groups {
    members: BTreeMap<u64, Vec<NodeId>>,
}

impl Groups {
    fn build(ids: &[NodeId], bits: u32) -> Groups {
        let mut members: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for &id in ids {
            members.entry(id.prefix(bits)).or_default().push(id);
        }
        Groups { members }
    }

    /// First existing group at or clockwise-after `target` on the T-bit
    /// group circle (`None` only when there are no groups).
    fn successor_group(&self, target: u64) -> Option<u64> {
        let mut clockwise = self.members.range(target..).chain(&self.members);
        clockwise.next().map(|(&g, _)| g)
    }

    /// Lowest-latency member of `group` among up to `samples` random
    /// members, judged from `from`.
    fn pick_member<L: Fn(NodeId, NodeId) -> f64, R: Rng>(
        &self,
        group: u64,
        from: NodeId,
        lat: &L,
        samples: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let members = self.members.get(&group)?;
        let candidates: Vec<NodeId> = if members.len() <= samples {
            members.clone()
        } else {
            (0..samples)
                .map(|_| members[rng.gen_range(0..members.len())])
                .collect()
        };
        candidates
            .into_iter()
            .filter(|&m| m != from)
            .min_by(|&a, &b| lat(from, a).total_cmp(&lat(from, b)))
    }
}

/// The proximity-group link rule: Crescendo's Chord rule below the root,
/// and at the root the group construction — one link per Chord finger of
/// the node's group on the `T`-bit group circle, each to the
/// lowest-latency sampled member of the target group — plus a complete
/// graph on the node's own group.
///
/// A group link is kept only when the distance to the target group's start
/// is below the node's own-ring bound: condition (b) read per group, not
/// per link, so the rule is built by the unaudited walk (see
/// `engine::walk`). A node placed at the root itself has no child ring, so
/// its bound is the full circle.
pub struct ProxRule<'a, L> {
    groups: Groups,
    group_bits: u32,
    lat: &'a L,
    samples: usize,
}

impl<'a, L: Fn(NodeId, NodeId) -> f64 + Sync> ProxRule<'a, L> {
    /// The rule over the node set `ids` (duplicates collapse), grouped by
    /// the top [`group_bits`] bits of their identifiers.
    pub fn new(ids: &[NodeId], lat: &'a L, params: ProxParams) -> Self {
        let ring = SortedRing::new(ids.to_vec());
        let t = group_bits(ring.len(), params.target_group_size);
        ProxRule {
            groups: Groups::build(ring.as_slice(), t),
            group_bits: t,
            lat,
            samples: params.samples,
        }
    }
}

impl<L: Fn(NodeId, NodeId) -> f64 + Sync> LinkRule for ProxRule<'_, L> {
    type M = Clockwise;
    type NodeState = ();

    fn metric(&self) -> Clockwise {
        Clockwise
    }

    fn links(
        &self,
        ctx: LevelCtx,
        ring: &SortedRing,
        me: NodeId,
        bound: RingDistance,
        rng: &mut DetRng,
        _state: &mut (),
        out: &mut Vec<NodeId>,
    ) {
        if ctx.depth > 0 {
            return chord_links_bounded(ring, me, bound, out);
        }
        let t = self.group_bits;
        let gme = me.prefix(t);
        for k in 0..t {
            // `t` is at most 63, so the mask never shifts out.
            let target = gme.wrapping_add(1u64 << k) & ((1u64 << t) - 1);
            let Some(g) = self.groups.successor_group(target).filter(|&g| g != gme) else {
                continue;
            };
            let group_start = NodeId::new(g << (ID_BITS - t));
            if (me.clockwise_to(group_start) as u128) >= bound.as_u128() {
                continue; // condition (b) at group granularity
            }
            if let Some(m) = self.groups.pick_member(g, me, self.lat, self.samples, rng) {
                out.push(m);
            }
        }
        if let Some(own) = self.groups.members.get(&gme) {
            out.extend(own.iter().copied().filter(|&x| x != me));
        }
    }
}

/// Builds *Chord (Prox.)*: the Chord rule applied to T-bit groups, each
/// group link satisfied by the lowest-latency sampled member, plus complete
/// intra-group graphs — Crescendo (Prox.) over one domain. Duplicate
/// identifiers are collapsed; no identifiers give the empty network.
pub fn build_chord_prox<L: Fn(NodeId, NodeId) -> f64 + Sync>(
    ids: &[NodeId],
    lat: &L,
    params: ProxParams,
    seed: Seed,
) -> ProxNetwork {
    let (hierarchy, placement) = one_domain(ids);
    build_prox(
        &hierarchy,
        &placement,
        lat,
        params,
        seed.derive("chord-prox"),
    )
}

/// Builds *Crescendo (Prox.)*: ordinary Crescendo below the root, with the
/// group-based construction replacing the Chord rule at the top level
/// (paper: "we apply this group-based construction to create links at the
/// top level of the hierarchy"); see [`ProxRule`].
///
/// # Panics
///
/// Panics if `placement` is empty.
pub fn build_crescendo_prox<L: Fn(NodeId, NodeId) -> f64 + Sync>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    lat: &L,
    params: ProxParams,
    seed: Seed,
) -> ProxNetwork {
    assert!(
        !placement.is_empty(),
        "cannot build a network with no nodes"
    );
    build_prox(
        hierarchy,
        placement,
        lat,
        params,
        seed.derive("crescendo-prox"),
    )
}

/// The engine's walk over [`ProxRule`], behind both public builders; `base`
/// is the already-labelled seed each node's sampling stream derives from.
fn build_prox<L: Fn(NodeId, NodeId) -> f64 + Sync>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    lat: &L,
    params: ProxParams,
    base: Seed,
) -> ProxNetwork {
    let rule = ProxRule::new(placement.ids(), lat, params);
    ProxNetwork {
        group_bits: rule.group_bits,
        net: walk(hierarchy, placement, &rule, base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::DomainMembership;
    use canon_id::rng::{random_ids, splitmix64};

    /// A deterministic synthetic latency: uniform in [0, 1) per ordered pair.
    fn synth_lat(a: NodeId, b: NodeId) -> f64 {
        let h = splitmix64(a.raw() ^ splitmix64(b.raw()));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn group_bits_targets_constant_group_size() {
        assert_eq!(group_bits(16, 16), 0);
        assert_eq!(group_bits(1024, 16), 6);
        assert_eq!(group_bits(65536, 16), 12);
        assert_eq!(group_bits(1, 16), 0);
    }

    #[test]
    fn chord_prox_routes_all_sampled_pairs() {
        let ids = random_ids(Seed(61), 512);
        let net = build_chord_prox(&ids, &synth_lat, ProxParams::default(), Seed(62));
        let g = net.graph();
        let mut rng = Seed(63).rng();
        let mut hops = 0usize;
        let mut count = 0usize;
        for _ in 0..300 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = net.route(a, b).unwrap();
            assert_eq!(r.target(), b);
            hops += r.hops();
            count += 1;
        }
        // Group routing ≈ log2(#groups)/2 + 1 intra hop.
        assert!((hops as f64 / count as f64) < 8.0);
    }

    #[test]
    fn inter_group_links_have_low_latency() {
        let ids = random_ids(Seed(64), 1024);
        let net = build_chord_prox(&ids, &synth_lat, ProxParams::default(), Seed(65));
        let g = net.graph();
        let mut inter = Vec::new();
        for (a, b) in g.edges() {
            if net.group_of(a) != net.group_of(b) {
                inter.push(synth_lat(g.id(a), g.id(b)));
            }
        }
        let mean: f64 = inter.iter().sum::<f64>() / inter.len() as f64;
        // Minimum of ~16-32 uniform samples has expectation well below 0.1;
        // group membership caps the sample count, so allow 0.2.
        assert!(mean < 0.2, "mean inter-group link latency {mean}");
    }

    #[test]
    fn crescendo_prox_routes_all_sampled_pairs() {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::zipf(&h, 500, Seed(66));
        let net = build_crescendo_prox(&h, &p, &synth_lat, ProxParams::default(), Seed(67));
        let g = net.graph();
        let mut rng = Seed(68).rng();
        for _ in 0..300 {
            let a = NodeIndex(rng.gen_range(0..g.len()) as u32);
            let b = NodeIndex(rng.gen_range(0..g.len()) as u32);
            if a == b {
                continue;
            }
            let r = net.route(a, b).unwrap();
            assert_eq!(r.target(), b);
        }
    }

    #[test]
    fn crescendo_prox_keeps_lower_level_structure() {
        // Links between nodes of one depth-1 domain must match plain
        // Crescendo's links restricted to that domain (the prox group rule
        // only replaces the top level).
        let h = Hierarchy::balanced(3, 3);
        let p = Placement::uniform(&h, 240, Seed(69));
        let prox = build_crescendo_prox(&h, &p, &synth_lat, ProxParams::default(), Seed(70));
        let plain = crate::crescendo::build_crescendo(&h, &p);
        let members = DomainMembership::build(&h, &p);
        for d in h.domains_at_depth(1) {
            let ring = members.ring(d);
            for &a in ring.as_slice() {
                let pa = prox.graph().index_of(a).unwrap();
                let qa = plain.graph().index_of(a).unwrap();
                let prox_links: std::collections::BTreeSet<NodeId> = prox
                    .graph()
                    .neighbors(pa)
                    .iter()
                    .map(|&i| prox.graph().id(i))
                    .filter(|&x| ring.contains(x) && !same_group(&prox, a, x))
                    .collect();
                let plain_links: std::collections::BTreeSet<NodeId> = plain
                    .graph()
                    .neighbors(qa)
                    .iter()
                    .map(|&i| plain.graph().id(i))
                    .filter(|&x| ring.contains(x) && !same_group(&prox, a, x))
                    .collect();
                assert!(
                    prox_links.is_superset(&plain_links),
                    "{a}: prox lost intra-domain links"
                );
            }
        }
    }

    fn same_group(net: &ProxNetwork, a: NodeId, b: NodeId) -> bool {
        a.prefix(net.group_bits()) == b.prefix(net.group_bits())
    }

    #[test]
    fn one_domain_crescendo_prox_is_chord_prox() {
        // A node whose leaf is the root has no child ring: its one level
        // takes the group construction with a full-circle bound, not the
        // plain Chord rule followed by groups bounded by the successor gap.
        // Sampling every member of a group takes the two builders' seed
        // labels (the only difference left) out of play.
        let params = ProxParams {
            samples: usize::MAX,
            ..ProxParams::default()
        };
        let (h, p) = one_domain(&random_ids(Seed(74), 1024));
        let crescendo = build_crescendo_prox(&h, &p, &synth_lat, params, Seed(75));
        let chord = build_chord_prox(p.ids(), &synth_lat, params, Seed(75));
        assert_eq!(crescendo.group_bits(), chord.group_bits());
        assert_eq!(
            crescendo.graph().edges().collect::<Vec<_>>(),
            chord.graph().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn constructions_are_reproducible() {
        let ids = random_ids(Seed(71), 256);
        let a = build_chord_prox(&ids, &synth_lat, ProxParams::default(), Seed(1));
        let b = build_chord_prox(&ids, &synth_lat, ProxParams::default(), Seed(1));
        assert_eq!(
            a.graph().edges().collect::<Vec<_>>(),
            b.graph().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiny_network_collapses_to_one_group() {
        let ids = random_ids(Seed(72), 8);
        let net = build_chord_prox(&ids, &synth_lat, ProxParams::default(), Seed(73));
        assert_eq!(net.group_bits(), 0);
        // One group: complete graph; any pair routes in one hop.
        let r = net.route(NodeIndex(0), NodeIndex(7)).unwrap();
        assert_eq!(r.hops(), 1);
    }
}
