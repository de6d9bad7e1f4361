//! Successor replication within storage domains.
//!
//! The paper keeps leaf sets "to deal with node deletions" (§2.3); the
//! storage systems built on Chord-family DHTs (CFS and successors) use the
//! same successor lists to *replicate content*. This module models that
//! idea over the hierarchical store's placement rule: a key's `k` copies
//! go to the node responsible for it and its `k − 1` distinct ring
//! successors ([`replica_successors`]), and replicas are always chosen
//! **within the storage domain**, preserving Canon's guarantee that
//! domain-scoped content never leaves the domain.
//!
//! The replication factor is a count because a live node can honour
//! nothing richer: it places, and later repairs, along its successor list
//! alone, and a list of length r survives r − 1 crashes (Zave, *How to
//! Make Chord Correct*). canon-node's PUT fan-out is this rule on the ring
//! `{self} ∪ successor list`, so a cluster with successor lists of length
//! r places at most r + 1 copies.
//!
//! The store is a placement model, not a byte store: it records which nodes
//! hold each item, crashes nodes, and repairs placements. The bytes of a
//! live replica are held once, by canon-node's `Shard` over a
//! [`crate::StorageBackend`].

use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::ring::SortedRing;
use canon_id::{Key, NodeId};
use std::collections::{BTreeMap, HashSet};

/// The successor-replication placement rule on a bare ring: the node
/// responsible for `point` plus its distinct ring successors, capped at
/// `replication` nodes (and at the ring size). Responsible node first.
///
/// This is the one placement rule of the workspace: [`ReplicatedStore`],
/// canon-sim's `replica_targets` and canon-node's `replication_status`
/// call it, and a PUT's fan-out walks it off the successor list in place.
pub fn replica_successors(ring: &SortedRing, point: NodeId, replication: usize) -> Vec<NodeId> {
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

/// Replica placements of domain-scoped items under crash failures.
///
/// This intentionally models just placement and availability (the subjects
/// of the §2.3 fault-tolerance argument); access control and caching layers
/// live in [`crate::HierarchicalStore`].
#[derive(Debug)]
pub struct ReplicatedStore {
    membership: DomainMembership,
    replication: usize,
    /// Replica holders per (key, storage domain), walked in key order.
    placements: BTreeMap<(Key, DomainId), Vec<NodeId>>,
    dead: HashSet<NodeId>,
}

impl ReplicatedStore {
    /// Creates a store placing `replication` copies of every item.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is 0.
    pub fn new(hierarchy: &Hierarchy, placement: &Placement, replication: usize) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        ReplicatedStore {
            membership: DomainMembership::build(hierarchy, placement),
            replication,
            placements: BTreeMap::new(),
            dead: HashSet::new(),
        }
    }

    /// The replica set for `key` in `domain`: its responsible member and
    /// that member's ring successors within the domain.
    pub fn replica_set(&self, key: Key, domain: DomainId) -> Vec<NodeId> {
        replica_successors(
            self.membership.ring(domain),
            key.as_point(),
            self.replication,
        )
    }

    /// Places `key` within `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    pub fn put(&mut self, key: Key, domain: DomainId) {
        let replicas = self.replica_set(key, domain);
        assert!(!replicas.is_empty(), "storage domain has no members");
        self.placements.insert((key, domain), replicas);
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

    /// Re-replicates every degraded item onto the successor placement over
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
            let fresh =
                replica_successors(&self.live_ring(domain), key.as_point(), self.replication);
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

    /// Every stored item whose live replica set is short — fewer live
    /// holders (distinct, as placed) than `replication`, capped at the live
    /// members of its domain — or has left its storage domain, one line per
    /// violation, in deterministic (key, domain) order. Empty means the
    /// storage invariant holds; the root `storage_policies` tests check it.
    pub fn policy_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (&(key, domain), holders) in &self.placements {
            let live: Vec<NodeId> = holders
                .iter()
                .copied()
                .filter(|n| !self.dead.contains(n))
                .collect();
            let want = self.replication.min(self.live_ring(domain).len());
            let domain_ring = self.membership.ring(domain);
            if live.len() < want || !live.iter().all(|&n| domain_ring.contains(n)) {
                out.push(format!(
                    "{key} in {domain}: live replicas {live:?} violate replication {}",
                    self.replication
                ));
            }
        }
        out
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
        let store = ReplicatedStore::new(&h, &p, r);
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
            "repair restores the count"
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
        let store = ReplicatedStore::new(&h, &p, 5);
        let rs = store.replica_set(hash_name("x"), a);
        assert_eq!(rs.len(), 2, "cannot place more replicas than members");
    }

    #[test]
    fn a_crash_without_repair_is_a_violation() {
        let (h, _, mut store) = setup(3);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("degraded");
        store.put(key, d);
        assert!(store.policy_violations().is_empty());
        store.crash(store.replica_set(key, d)[1]);
        assert_eq!(store.policy_violations().len(), 1, "two of three left");
    }
}
