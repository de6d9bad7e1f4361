//! Declarative replica placement: the [`Policy`] engine.
//!
//! PR 4 hard-wired successor replication with a bare `replication: usize`
//! threaded through the store, the node runtime and the benchmarks. This
//! module replaces that plumbing with a policy layer: a placement rule is a
//! value ([`Policy`]) interpreted against a [`PlacementCtx`] (the hierarchy,
//! the domain membership, and the ring replicas are drawn from). The three
//! shipped policies:
//!
//! * [`Policy::Fixed`] — exactly the old rule: the responsible node and its
//!   `k − 1` distinct ring successors. Placement-identical to the PR-4
//!   `replica_successors` helper, which now lives here as the private core
//!   (a property test in `tests/storage_policies.rs` pins the equivalence
//!   byte-for-byte).
//! * [`Policy::PercentOfDomain`] — the replica count scales with the
//!   population of the writer domain's level-`level` ancestor, so hot large
//!   regions hold proportionally more copies.
//! * [`Policy::HierarchyGeo`] — fixed count, plus a geographic constraint
//!   only Canon's hierarchy can express cheaply: at least one replica must
//!   live **outside** the writer's level-`min_outside_level` domain, so a
//!   whole-building (or whole-region) failure cannot take every copy.
//!
//! All policies place replicas by walking ring successors from the
//! responsible node, so the Zave-style durability argument carries over:
//! an acknowledged write survives while at least one placed replica's
//! domain survives.

use canon_hierarchy::{DomainId, DomainMembership, Hierarchy};
use canon_id::ring::SortedRing;
use canon_id::{Key, NodeId};
use std::collections::BTreeSet;

/// The successor-replication placement rule on a bare ring: the node
/// responsible for `point` plus its distinct ring successors, capped at
/// `replication` nodes (and at the ring size).
///
/// This was the public PR-4 helper; it is now the internal core of
/// [`Policy::Fixed`] (and of the ring walks the other policies start from).
pub(crate) fn replica_successors(
    ring: &SortedRing,
    point: NodeId,
    replication: usize,
) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(replication);
    let Some(first) = ring.responsible(point) else {
        return out;
    };
    let mut cur = first;
    for _ in 0..replication.min(ring.len()) {
        out.push(cur);
        // `responsible` returned a member, so the ring cannot be empty.
        let Some(next) = ring.strict_successor(cur) else {
            break;
        };
        cur = next;
        if cur == first {
            break;
        }
    }
    out
}

/// Everything a policy may consult when placing replicas for one key.
#[derive(Clone, Copy)]
pub struct PlacementCtx<'a> {
    /// The hierarchy the store spans.
    pub hierarchy: &'a Hierarchy,
    /// Per-domain membership rings.
    pub membership: &'a DomainMembership,
    /// The storage domain replicas must stay inside (Canon containment).
    pub domain: DomainId,
    /// The ring replicas are drawn from. Usually
    /// `membership.ring(domain)`, but repair passes a live-filtered ring.
    pub ring: &'a SortedRing,
    /// The leaf domain of the writing node, when known. `HierarchyGeo`
    /// anchors its "outside" constraint here; without it the geo clause is
    /// vacuous and the policy degrades to `Fixed`.
    pub writer_leaf: Option<DomainId>,
}

impl<'a> PlacementCtx<'a> {
    /// A context for `domain` using its full membership ring and no writer.
    pub fn for_domain(
        hierarchy: &'a Hierarchy,
        membership: &'a DomainMembership,
        domain: DomainId,
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            hierarchy,
            membership,
            domain,
            ring: membership.ring(domain),
            writer_leaf: None,
        }
    }

    /// The same context annotated with the writer's leaf domain.
    pub fn with_writer(self, writer_leaf: DomainId) -> PlacementCtx<'a> {
        PlacementCtx {
            writer_leaf: Some(writer_leaf),
            ..self
        }
    }

    /// The writer's ancestor domain at `level` (clamped to the writer's
    /// depth), or `None` when no writer is known.
    fn writer_home(&self, level: u32) -> Option<DomainId> {
        let leaf = self.writer_leaf?;
        let depth = self.hierarchy.depth(leaf);
        Some(self.hierarchy.ancestor_at_depth(leaf, level.min(depth)))
    }
}

/// The shipped placement policies. `Copy` so configurations that embed a
/// policy (e.g. canon-node's `RuntimeConfig`) stay `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Exactly `k` replicas: the responsible node and its `k − 1` ring
    /// successors — the classic CFS rule, byte-identical to PR 4's
    /// `replica_successors`.
    Fixed(usize),
    /// Replica count proportional to the population of the writer domain's
    /// ancestor at `level`: `ceil(percent × |ancestor|)`, at least 1.
    PercentOfDomain {
        /// Hierarchy depth of the ancestor whose population sets the scale
        /// (0 = root, so the whole network).
        level: u32,
        /// Fraction of that population to replicate onto, in `(0, 1]`.
        percent: f64,
    },
    /// `replication` copies with a geographic spread constraint: at least
    /// one replica outside the writer's ancestor domain at
    /// `min_outside_level`, whenever the ring has such a node. The walk
    /// extends past the base window to the first outside node and swaps it
    /// for the farthest base replica, so the count never changes.
    HierarchyGeo {
        /// Total number of replicas to place.
        replication: usize,
        /// Depth of the writer's domain that at least one replica must
        /// escape (1 = the writer's top-level region).
        min_outside_level: u32,
    },
}

impl Policy {
    /// Replica placement on a bare ring, with no hierarchy in sight: the
    /// responsible member and its ring successors, [`Policy::ring_count`]
    /// of them. This is the placement canon-node's PUT fan-out makes on
    /// its `{self} ∪ successor-list` mini ring, which the node walks in
    /// place (its successor list is already in ring order from itself)
    /// instead of building this ring.
    pub fn replicas_on_ring(&self, ring: &SortedRing, point: NodeId) -> Vec<NodeId> {
        replica_successors(ring, point, self.ring_count(ring.len()))
    }

    /// How many replicas the policy places on a bare ring of `n` members,
    /// capped at `n`. `Fixed(k)` keeps its exact count; the other
    /// policies degrade to theirs (percent of the *ring*, geo without the
    /// geo clause) since the ring carries no domain structure.
    pub fn ring_count(&self, n: usize) -> usize {
        let want = match self {
            Policy::Fixed(k) => *k,
            Policy::PercentOfDomain { percent, .. } => scaled_count(*percent, n),
            Policy::HierarchyGeo { replication, .. } => *replication,
        };
        want.min(n)
    }

    /// How many replicas the policy wants in this context, capped at the
    /// ring size.
    pub fn target_count(&self, ctx: &PlacementCtx<'_>) -> usize {
        let want = match self {
            Policy::Fixed(k) => *k,
            Policy::PercentOfDomain { level, percent } => {
                let depth = ctx.hierarchy.depth(ctx.domain);
                let anchor = ctx
                    .hierarchy
                    .ancestor_at_depth(ctx.domain, (*level).min(depth));
                scaled_count(*percent, ctx.membership.size(anchor))
            }
            Policy::HierarchyGeo { replication, .. } => *replication,
        };
        want.min(ctx.ring.len())
    }

    /// The nodes that should hold `key` (responsible node first).
    pub fn replicas(&self, ctx: &PlacementCtx<'_>, key: Key) -> Vec<NodeId> {
        let base = replica_successors(ctx.ring, key.as_point(), self.target_count(ctx));
        match self {
            Policy::HierarchyGeo {
                min_outside_level, ..
            } => geo_adjust(ctx, base, *min_outside_level),
            _ => base,
        }
    }

    /// Whether a set of live holders satisfies the policy for `key`:
    /// enough distinct holders, all inside the storage domain, plus any
    /// policy-specific constraint (e.g. the geo clause).
    pub fn satisfied(&self, ctx: &PlacementCtx<'_>, key: Key, holders: &[NodeId]) -> bool {
        let _ = key;
        let distinct: BTreeSet<NodeId> = holders.iter().copied().collect();
        if distinct.len() < self.target_count(ctx) {
            return false;
        }
        let domain_ring = ctx.membership.ring(ctx.domain);
        if !distinct.iter().all(|&n| domain_ring.contains(n)) {
            return false; // containment: replicas never leave the domain
        }
        if let Policy::HierarchyGeo {
            min_outside_level, ..
        } = self
        {
            if let Some(home) = ctx.writer_home(*min_outside_level) {
                let inside = |n: NodeId| ctx.membership.ring(home).contains(n);
                let escapable = ctx.ring.as_slice().iter().any(|&n| !inside(n));
                if escapable && distinct.iter().all(|&n| inside(n)) {
                    return false; // an outside node exists but holds nothing
                }
            }
        }
        true
    }

    /// A short stable name for reports and benchmark labels.
    pub fn name(&self) -> String {
        match self {
            Policy::Fixed(k) => format!("fixed({k})"),
            Policy::PercentOfDomain { level, percent } => {
                format!("percent(level={level},{percent})")
            }
            Policy::HierarchyGeo {
                replication,
                min_outside_level,
            } => format!("geo({replication},outside={min_outside_level})"),
        }
    }
}

/// `ceil(percent × population)`, at least 1.
fn scaled_count(percent: f64, population: usize) -> usize {
    ((percent * population as f64).ceil() as usize).max(1)
}

/// Enforces the geo clause on a base successor run: if every base replica
/// sits inside the writer's home domain, keep walking the ring to the first
/// outside node and swap it for the farthest base replica. When the whole
/// ring is inside the home domain the constraint is unsatisfiable and the
/// base placement stands.
fn geo_adjust(ctx: &PlacementCtx<'_>, mut base: Vec<NodeId>, level: u32) -> Vec<NodeId> {
    let Some(home) = ctx.writer_home(level) else {
        return base;
    };
    let inside = |n: NodeId| ctx.membership.ring(home).contains(n);
    if base.is_empty() || base.iter().any(|&n| !inside(n)) {
        return base;
    }
    let first = base[0];
    let Some(&last) = base.last() else {
        return base; // unreachable: emptiness was checked above
    };
    let mut cur = last;
    for _ in 0..ctx.ring.len() {
        // The base replicas are ring members, so the walk cannot run dry.
        let Some(next) = ctx.ring.strict_successor(cur) else {
            return base;
        };
        cur = next;
        if cur == first {
            break; // walked the whole ring: everyone is inside
        }
        if !inside(cur) {
            base.pop();
            base.push(cur);
            break;
        }
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::Placement;
    use canon_id::hash::hash_name;
    use canon_id::rng::Seed;

    fn setup() -> (Hierarchy, Placement, DomainMembership) {
        let h = Hierarchy::balanced(3, 2);
        let p = Placement::uniform(&h, 120, Seed(9));
        let m = DomainMembership::build(&h, &p);
        (h, p, m)
    }

    #[test]
    fn fixed_matches_the_successor_rule() {
        let (h, _, m) = setup();
        let ctx = PlacementCtx::for_domain(&h, &m, h.root());
        let key = hash_name("item");
        let via_policy = Policy::Fixed(4).replicas(&ctx, key);
        let direct = replica_successors(ctx.ring, key.as_point(), 4);
        assert_eq!(via_policy, direct);
        assert_eq!(via_policy.len(), 4);
        assert!(Policy::Fixed(4).satisfied(&ctx, key, &via_policy));
    }

    #[test]
    fn percent_scales_with_the_anchor_population() {
        let (h, _, m) = setup();
        let leaf = h.domains_at_depth(1)[0];
        let ctx = PlacementCtx::for_domain(&h, &m, leaf);
        // Anchored at the root the count follows the whole network…
        let global = Policy::PercentOfDomain {
            level: 0,
            percent: 0.05,
        };
        assert_eq!(global.target_count(&ctx), scaled_count(0.05, 120));
        // …anchored at the leaf's own level it follows the leaf population.
        let local = Policy::PercentOfDomain {
            level: 1,
            percent: 0.05,
        };
        assert_eq!(local.target_count(&ctx), scaled_count(0.05, m.size(leaf)));
        let rs = local.replicas(&ctx, hash_name("scaled"));
        assert_eq!(rs.len(), local.target_count(&ctx));
    }

    #[test]
    fn geo_places_a_replica_outside_the_writer_region() {
        let (h, p, m) = setup();
        let writer_leaf = p.leaf_of(p.ids()[0]).expect("placed");
        let home = h.ancestor_at_depth(writer_leaf, 1);
        let policy = Policy::HierarchyGeo {
            replication: 3,
            min_outside_level: 1,
        };
        let ctx = PlacementCtx::for_domain(&h, &m, h.root()).with_writer(writer_leaf);
        for i in 0..40 {
            let key = hash_name(&format!("geo-{i}"));
            let rs = policy.replicas(&ctx, key);
            assert_eq!(rs.len(), 3);
            assert!(
                rs.iter().any(|&n| !m.ring(home).contains(n)),
                "key {key}: all of {rs:?} inside {home}"
            );
            assert!(policy.satisfied(&ctx, key, &rs));
            // Dropping the escape replica must fail the check whenever the
            // remainder is all-inside.
            let inside_only: Vec<NodeId> = rs
                .iter()
                .copied()
                .filter(|&n| m.ring(home).contains(n))
                .collect();
            if inside_only.len() == 3 {
                continue;
            }
            assert!(!policy.satisfied(&ctx, key, &inside_only));
        }
    }

    #[test]
    fn geo_without_writer_is_plain_fixed() {
        let (h, _, m) = setup();
        let ctx = PlacementCtx::for_domain(&h, &m, h.root());
        let key = hash_name("anon");
        let geo = Policy::HierarchyGeo {
            replication: 3,
            min_outside_level: 1,
        };
        assert_eq!(
            geo.replicas(&ctx, key),
            Policy::Fixed(3).replicas(&ctx, key)
        );
    }

    #[test]
    fn geo_is_vacuous_when_the_domain_cannot_escape() {
        // Storage domain = the writer's own region: every member is inside,
        // so the constraint is unsatisfiable and placement equals Fixed.
        let (h, p, m) = setup();
        let writer_leaf = p.leaf_of(p.ids()[0]).expect("placed");
        let home = h.ancestor_at_depth(writer_leaf, 1);
        let geo = Policy::HierarchyGeo {
            replication: 3,
            min_outside_level: 1,
        };
        let ctx = PlacementCtx::for_domain(&h, &m, home).with_writer(writer_leaf);
        let key = hash_name("trapped");
        let rs = geo.replicas(&ctx, key);
        assert_eq!(rs, Policy::Fixed(3).replicas(&ctx, key));
        assert!(geo.satisfied(&ctx, key, &rs), "vacuous constraint passes");
    }

    #[test]
    fn satisfied_rejects_short_or_escaped_sets() {
        let (h, _, m) = setup();
        let ctx = PlacementCtx::for_domain(&h, &m, h.domains_at_depth(1)[0]);
        let key = hash_name("checked");
        let policy = Policy::Fixed(3);
        let rs = policy.replicas(&ctx, key);
        assert!(policy.satisfied(&ctx, key, &rs));
        assert!(!policy.satisfied(&ctx, key, &rs[..2]), "too few");
        let mut escaped = rs;
        // A node from a sibling domain sits outside the storage domain, so
        // the containment clause must reject the set.
        let other = h.domains_at_depth(1)[1];
        escaped[2] = m.ring(other).as_slice()[0];
        assert!(!policy.satisfied(&ctx, key, &escaped));
    }

    #[test]
    fn ring_projection_matches_fixed_on_small_rings() {
        let ring = SortedRing::new(vec![NodeId::new(10), NodeId::new(20), NodeId::new(30)]);
        let got = Policy::Fixed(5).replicas_on_ring(&ring, NodeId::new(21));
        assert_eq!(got, replica_successors(&ring, NodeId::new(21), 5));
        assert_eq!(got.len(), 3, "capped at ring size");
        let geo = Policy::HierarchyGeo {
            replication: 2,
            min_outside_level: 1,
        };
        assert_eq!(geo.replicas_on_ring(&ring, NodeId::new(21)).len(), 2);
    }
}
