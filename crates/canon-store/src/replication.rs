//! Policy-driven replication within storage domains.
//!
//! The paper keeps leaf sets "to deal with node deletions" (§2.3); the
//! storage systems built on Chord-family DHTs (CFS and successors) use the
//! same successor lists to *replicate content*. This module models that
//! idea over the hierarchical store's placement rule: **where** replicas go
//! is decided by a [`Policy`] (see [`crate::policy`]), and replicas are
//! always chosen **within the storage domain**, preserving Canon's
//! guarantee that domain-scoped content never leaves the domain.
//!
//! The store is a placement model, not a byte store: it records which nodes
//! hold each item, crashes nodes, and repairs placements. The bytes of a
//! live replica are held once, by canon-node's `Shard` over a
//! [`crate::StorageBackend`].

use crate::policy::{PlacementCtx, Policy};
use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::ring::SortedRing;
use canon_id::{Key, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Replica placements of domain-scoped items under crash failures.
///
/// This intentionally models just placement and availability (the subjects
/// of the §2.3 fault-tolerance argument); access control and caching layers
/// live in [`crate::HierarchicalStore`].
#[derive(Debug)]
pub struct ReplicatedStore {
    hierarchy: Hierarchy,
    membership: DomainMembership,
    policy: Policy,
    /// Replica holders per (key, storage domain), walked in key order.
    placements: BTreeMap<(Key, DomainId), Vec<NodeId>>,
    /// The writing node's leaf domain per item (anchors geo constraints).
    writers: HashMap<(Key, DomainId), DomainId>,
    leaf_of: HashMap<NodeId, DomainId>,
    dead: HashSet<NodeId>,
}

impl ReplicatedStore {
    /// Creates a store placing replicas per `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is `Fixed(0)`.
    pub fn new(hierarchy: Hierarchy, placement: &Placement, policy: Policy) -> Self {
        if let Policy::Fixed(k) = policy {
            assert!(k >= 1, "replication factor must be at least 1");
        }
        let membership = DomainMembership::build(&hierarchy, placement);
        let leaf_of = placement.iter().collect();
        ReplicatedStore {
            hierarchy,
            membership,
            policy,
            placements: BTreeMap::new(),
            writers: HashMap::new(),
            leaf_of,
            dead: HashSet::new(),
        }
    }

    fn ctx<'a>(
        &'a self,
        domain: DomainId,
        ring: &'a SortedRing,
        writer: Option<NodeId>,
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            hierarchy: &self.hierarchy,
            membership: &self.membership,
            domain,
            ring,
            writer_leaf: writer.and_then(|w| self.leaf_of.get(&w).copied()),
        }
    }

    /// The replica set for `key` in `domain` under the configured policy,
    /// unanchored (no writer, so geo constraints are vacuous).
    pub fn replica_set(&self, key: Key, domain: DomainId) -> Vec<NodeId> {
        let ring = self.membership.ring(domain);
        self.policy.replicas(&self.ctx(domain, ring, None), key)
    }

    /// The replica set for `key` in `domain` as placed for `writer` (geo
    /// policies anchor their "outside" constraint at the writer's leaf).
    pub fn replica_set_from(&self, writer: NodeId, key: Key, domain: DomainId) -> Vec<NodeId> {
        let ring = self.membership.ring(domain);
        self.policy
            .replicas(&self.ctx(domain, ring, Some(writer)), key)
    }

    /// Places `key` within `domain`, unanchored.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    pub fn put(&mut self, key: Key, domain: DomainId) {
        self.place(None, key, domain);
    }

    /// Places `key` within `domain` on behalf of `writer`.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    pub fn put_from(&mut self, writer: NodeId, key: Key, domain: DomainId) {
        self.place(Some(writer), key, domain);
    }

    fn place(&mut self, writer: Option<NodeId>, key: Key, domain: DomainId) {
        let ring = self.membership.ring(domain);
        let replicas = self.policy.replicas(&self.ctx(domain, ring, writer), key);
        assert!(!replicas.is_empty(), "storage domain has no members");
        self.placements.insert((key, domain), replicas);
        match writer.and_then(|w| self.leaf_of.get(&w).copied()) {
            Some(leaf) => self.writers.insert((key, domain), leaf),
            None => self.writers.remove(&(key, domain)),
        };
    }

    /// Marks `node` as crashed; items whose live replica set becomes empty
    /// turn unavailable.
    pub fn crash(&mut self, node: NodeId) {
        self.dead.insert(node);
    }

    /// The replica a read of `key` in `domain` is served from: its first
    /// live holder, or `None` when the item was never placed or every
    /// holder has crashed.
    pub fn live_holder(&self, key: Key, domain: DomainId) -> Option<NodeId> {
        let holders = self.placements.get(&(key, domain))?;
        holders.iter().copied().find(|n| !self.dead.contains(n))
    }

    /// Fraction of stored items still reachable (≥ 1 live replica).
    pub fn availability(&self) -> f64 {
        if self.placements.is_empty() {
            return 1.0;
        }
        let alive = self
            .placements
            .values()
            .filter(|holders| holders.iter().any(|n| !self.dead.contains(n)))
            .count();
        alive as f64 / self.placements.len() as f64
    }

    /// The members of `domain` that are still alive, as a ring.
    fn live_ring(&self, domain: DomainId) -> SortedRing {
        let live: Vec<NodeId> = self
            .membership
            .ring(domain)
            .as_slice()
            .iter()
            .copied()
            .filter(|n| !self.dead.contains(n))
            .collect();
        SortedRing::new(live)
    }

    /// Re-replicates every degraded item onto the policy's placement over
    /// the live members of its storage domain (the repair that leaf-set
    /// change notifications trigger in a live system). Items with no
    /// surviving holder stay lost. Returns the number of new holders.
    pub fn re_replicate(&mut self) -> usize {
        let mut added = 0usize;
        let keys: Vec<(Key, DomainId)> = self.placements.keys().copied().collect();
        for (key, domain) in keys {
            let holders = &self.placements[&(key, domain)];
            let dead = holders.iter().filter(|n| self.dead.contains(n)).count();
            if dead == 0 || dead == holders.len() {
                continue;
            }
            let live = self.live_ring(domain);
            let fresh = self.policy.replicas(
                &PlacementCtx {
                    hierarchy: &self.hierarchy,
                    membership: &self.membership,
                    domain,
                    ring: &live,
                    writer_leaf: self.writers.get(&(key, domain)).copied(),
                },
                key,
            );
            added += fresh.iter().filter(|n| !holders.contains(n)).count();
            self.placements.insert((key, domain), fresh);
        }
        added
    }

    /// Whether every replica of every item lies inside its storage domain
    /// (the Canon containment invariant, checked in tests).
    pub fn replicas_respect_domains(&self) -> bool {
        self.placements.iter().all(|(&(_, domain), holders)| {
            holders
                .iter()
                .all(|&n| self.membership.ring(domain).contains(n))
        })
    }

    /// Every stored item whose live replica set fails its policy — count,
    /// containment, or geo clause — described one line per violation, in
    /// deterministic (key, domain) order. Empty means the storage
    /// invariant holds; the root `storage_policies` tests check it.
    pub fn policy_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (&(key, domain), holders) in &self.placements {
            let live: Vec<NodeId> = holders
                .iter()
                .copied()
                .filter(|n| !self.dead.contains(n))
                .collect();
            let ring = self.live_ring(domain);
            let ctx = PlacementCtx {
                hierarchy: &self.hierarchy,
                membership: &self.membership,
                domain,
                ring: &ring,
                writer_leaf: self.writers.get(&(key, domain)).copied(),
            };
            if !self.policy.satisfied(&ctx, key, &live) {
                out.push(format!(
                    "{key} in {domain}: live replicas {live:?} violate {}",
                    self.policy.name()
                ));
            }
        }
        out
    }

    /// The hierarchy this store spans.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::hash::hash_name;
    use canon_id::rng::Seed;
    use rand::Rng;

    fn setup(r: usize) -> (Hierarchy, Placement, ReplicatedStore) {
        let h = Hierarchy::balanced(3, 3);
        let p = Placement::uniform(&h, 300, Seed(71));
        let store = ReplicatedStore::new(h.clone(), &p, Policy::Fixed(r));
        (h, p, store)
    }

    #[test]
    fn replica_sets_are_successor_runs_inside_the_domain() {
        let (h, _, store) = setup(3);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("replicated-item");
        let rs = store.replica_set(key, d);
        assert_eq!(rs.len(), 3);
        let mut dedup = rs;
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "replicas must be distinct");
        assert!(store.replicas_respect_domains());
    }

    #[test]
    fn reads_survive_replica_crashes_until_the_last() {
        let (h, _, mut store) = setup(3);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("survivor");
        store.put(key, d);
        let rs = store.replica_set(key, d);
        assert_eq!(store.live_holder(key, d), Some(rs[0]));
        store.crash(rs[0]);
        assert_eq!(
            store.live_holder(key, d),
            Some(rs[1]),
            "one crash must not lose the item"
        );
        store.crash(rs[1]);
        assert_eq!(
            store.live_holder(key, d),
            Some(rs[2]),
            "last replica serves"
        );
        store.crash(rs[2]);
        assert_eq!(store.live_holder(key, d), None, "all replicas dead");
    }

    #[test]
    fn availability_grows_with_replication() {
        let mut rng = Seed(72).rng();
        let mut avail = Vec::new();
        for r in [1usize, 2, 4] {
            let (h, p, mut store) = setup(r);
            let root = h.root();
            for i in 0..300 {
                store.put(hash_name(&format!("k{i}")), root);
            }
            // Crash 30% of all nodes.
            let ids = p.ids().to_vec();
            for _ in 0..90 {
                store.crash(ids[rng.gen_range(0..ids.len())]);
            }
            avail.push(store.availability());
        }
        assert!(
            avail[0] < avail[1] && avail[1] <= avail[2],
            "availability {avail:?}"
        );
        assert!(avail[2] > 0.97, "r=4 availability {}", avail[2]);
    }

    #[test]
    fn re_replication_restores_full_strength() {
        let (h, _, mut store) = setup(3);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("healed");
        store.put(key, d);
        let rs = store.replica_set(key, d);
        store.crash(rs[0]);
        store.crash(rs[1]);
        assert_eq!(store.re_replicate(), 2, "one new holder per crashed one");
        assert!(store.replicas_respect_domains());
        assert!(
            store.policy_violations().is_empty(),
            "repair satisfies policy"
        );
        // The item now survives the death of its last original holder.
        store.crash(rs[2]);
        assert!(
            store.live_holder(key, d).is_some(),
            "re-replication must restore resilience"
        );
    }

    #[test]
    fn lost_items_stay_lost_after_repair() {
        let (h, _, mut store) = setup(2);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("doomed");
        store.put(key, d);
        for n in store.replica_set(key, d) {
            store.crash(n);
        }
        store.re_replicate();
        assert_eq!(
            store.live_holder(key, d),
            None,
            "repair cannot resurrect lost data"
        );
    }

    #[test]
    fn tiny_domains_cap_the_replica_count() {
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "a");
        let p = Placement::from_pairs(&h, vec![(NodeId::new(1), a), (NodeId::new(2), a)]);
        let store = ReplicatedStore::new(h, &p, Policy::Fixed(5));
        let rs = store.replica_set(hash_name("x"), a);
        assert_eq!(rs.len(), 2, "cannot place more replicas than members");
    }

    #[test]
    fn geo_policy_keeps_a_replica_outside_the_writer_region() {
        let h = Hierarchy::balanced(3, 2);
        let p = Placement::uniform(&h, 150, Seed(73));
        let mut store = ReplicatedStore::new(
            h.clone(),
            &p,
            Policy::HierarchyGeo {
                replication: 3,
                min_outside_level: 1,
            },
        );
        let m = DomainMembership::build(&h, &p);
        for i in 0..30 {
            let writer = p.ids()[(i * 13) % p.len()];
            let home = h.ancestor_at_depth(p.leaf_of(writer).expect("placed"), 1);
            let key = hash_name(&format!("geo-{i}"));
            store.put_from(writer, key, h.root());
            let holders = store.replica_set_from(writer, key, h.root());
            assert!(
                holders.iter().any(|&n| !m.ring(home).contains(n)),
                "no replica escaped {home}"
            );
        }
        assert!(store.policy_violations().is_empty());
        // The geo constraint survives repair too.
        let victims: Vec<NodeId> = p.ids().iter().copied().step_by(7).take(20).collect();
        for v in victims {
            store.crash(v);
        }
        store.re_replicate();
        assert!(
            store.policy_violations().is_empty(),
            "repair must re-satisfy the geo clause"
        );
    }

    #[test]
    fn percent_policy_scales_counts_by_domain_population() {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 200, Seed(74));
        let store = ReplicatedStore::new(
            h.clone(),
            &p,
            Policy::PercentOfDomain {
                level: 1,
                percent: 0.1,
            },
        );
        let m = DomainMembership::build(&h, &p);
        for d in h.domains_at_depth(1) {
            let rs = store.replica_set(hash_name("sized"), d);
            let want = ((0.1 * m.size(d) as f64).ceil() as usize).max(1);
            assert_eq!(rs.len(), want.min(m.size(d)), "count in {d}");
        }
    }
}
