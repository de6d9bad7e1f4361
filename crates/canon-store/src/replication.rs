//! Policy-driven replication within storage domains.
//!
//! The paper keeps leaf sets "to deal with node deletions" (§2.3); the
//! storage systems built on Chord-family DHTs (CFS and successors) use the
//! same successor lists to *replicate content*. This module layers that
//! idea over the hierarchical store's placement rule, with two PR-6
//! generalisations:
//!
//! * **where** replicas go is decided by a [`Policy`] (see
//!   [`crate::policy`]) instead of a hard-wired factor — replicas are still
//!   always chosen **within the storage domain**, preserving Canon's
//!   guarantee that domain-scoped content never leaves the domain;
//! * **how** replicas are held is a [`StorageBackend`] per node (see
//!   [`crate::backend`]) — every node in a replica set keeps its copy in
//!   its own content-addressed shard, so integrity and dedup come from the
//!   backend layer rather than this one.

use crate::backend::{BackendKind, StorageBackend, Usage};
use crate::content::BlobValue;
use crate::policy::{PlacementCtx, Policy, ReplicationPolicy};
use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::hash::hash_bytes;
use canon_id::ring::SortedRing;
use canon_id::{Key, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::marker::PhantomData;

/// The single abort point of the replica-shard I/O policy: a backend
/// failure mid-placement leaves replicas and placements out of step, which
/// no caller can repair — so, like the shard I/O policy in canon-node and
/// the poisoned-lock policy behind it, the documented policy is one
/// labeled abort here rather than `Result` plumbing through the placement
/// engine. The in-memory backend (the default) is infallible.
#[allow(
    clippy::panic,
    reason = "the documented replica-shard I/O abort policy"
)]
fn store_io<T>(result: Result<T, crate::BackendError>, what: &str) -> T {
    result.unwrap_or_else(|e| panic!("replica shard {what} failed: {e}"))
}

/// The backend slot a `(key, domain)` item occupies in a node's shard:
/// domain-qualified so the same key stored in two domains keeps two
/// independent entries.
fn slot(key: Key, domain: DomainId) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&key.raw().to_le_bytes());
    bytes[8..].copy_from_slice(&(domain.index() as u64).to_le_bytes());
    hash_bytes(&bytes).raw()
}

/// A replicated, domain-scoped key-value store.
///
/// This intentionally models just placement and availability (the subjects
/// of the §2.3 fault-tolerance argument); access control and caching layers
/// live in [`crate::HierarchicalStore`].
#[derive(Debug)]
pub struct ReplicatedStore<V> {
    hierarchy: Hierarchy,
    membership: DomainMembership,
    policy: Policy,
    backend_kind: BackendKind,
    /// Per-node content-addressed shards, created on first write.
    shards: BTreeMap<NodeId, Box<dyn StorageBackend>>,
    /// Replica holders per (key, storage domain), walked in key order.
    placements: BTreeMap<(Key, DomainId), Vec<NodeId>>,
    /// The writing node's leaf domain per item (anchors geo constraints).
    writers: HashMap<(Key, DomainId), DomainId>,
    leaf_of: HashMap<NodeId, DomainId>,
    dead: HashSet<NodeId>,
    _values: PhantomData<V>,
}

impl<V: BlobValue> ReplicatedStore<V> {
    /// Creates a store placing replicas per `policy`, with in-memory
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if the policy is `Fixed(0)`.
    pub fn new(hierarchy: Hierarchy, placement: &Placement, policy: Policy) -> Self {
        Self::with_backend(hierarchy, placement, policy, BackendKind::Memory)
    }

    /// Creates a store whose per-node shards use `backend_kind`.
    pub fn with_backend(
        hierarchy: Hierarchy,
        placement: &Placement,
        policy: Policy,
        backend_kind: BackendKind,
    ) -> Self {
        if let Policy::Fixed(k) = policy {
            assert!(k >= 1, "replication factor must be at least 1");
        }
        let membership = DomainMembership::build(&hierarchy, placement);
        let leaf_of = placement.iter().collect();
        ReplicatedStore {
            hierarchy,
            membership,
            policy,
            backend_kind,
            shards: BTreeMap::new(),
            placements: BTreeMap::new(),
            writers: HashMap::new(),
            leaf_of,
            dead: HashSet::new(),
            _values: PhantomData,
        }
    }

    /// The placement policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    fn shard_mut(&mut self, node: NodeId) -> &mut Box<dyn StorageBackend> {
        let kind = &self.backend_kind;
        self.shards.entry(node).or_insert_with(|| {
            store_io(
                kind.create(&format!("shard-{:016x}", node.raw())),
                "creation",
            )
        })
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

    /// Stores `value` under `key` within `domain`, unanchored.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    pub fn put(&mut self, key: Key, value: V, domain: DomainId) {
        self.store(None, key, value, domain);
    }

    /// Stores `value` under `key` within `domain` on behalf of `writer`.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    pub fn put_from(&mut self, writer: NodeId, key: Key, value: V, domain: DomainId) {
        self.store(Some(writer), key, value, domain);
    }

    fn store(&mut self, writer: Option<NodeId>, key: Key, value: V, domain: DomainId) {
        let ring = self.membership.ring(domain);
        let replicas = self.policy.replicas(&self.ctx(domain, ring, writer), key);
        assert!(!replicas.is_empty(), "storage domain has no members");
        let bytes = value.to_bytes();
        let at = slot(key, domain);
        for &node in &replicas {
            let write = self.shard_mut(node).put(at, &bytes);
            store_io(write, "write");
        }
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

    /// Fetches `key` from `domain`: succeeds iff some replica is alive,
    /// returning the value (read and integrity-verified from the serving
    /// replica's backend) and the serving replica.
    pub fn get(&mut self, key: Key, domain: DomainId) -> Option<(V, NodeId)> {
        let holders = self.placements.get(&(key, domain))?;
        let server = holders.iter().copied().find(|n| !self.dead.contains(n))?;
        let at = slot(key, domain);
        let stored = store_io(self.shards.get_mut(&server)?.get(at), "verified read")?;
        // Content addressing already verified the bytes, so a decode
        // failure is stored-type confusion — the abort policy applies.
        #[allow(
            clippy::panic,
            reason = "the documented replica-shard I/O abort policy"
        )]
        let Some(value) = V::from_bytes(&stored.bytes) else {
            panic!("replica bytes for key {:#018x} do not decode", key.raw())
        };
        Some((value, server))
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
    /// change notifications trigger in a live system). Copies bytes from a
    /// surviving replica into each fresh holder's backend and returns the
    /// number of copies created.
    pub fn re_replicate(&mut self) -> usize {
        let mut copies = 0usize;
        let keys: Vec<(Key, DomainId)> = self.placements.keys().copied().collect();
        for (key, domain) in keys {
            let holders = self.placements[&(key, domain)].clone();
            if !holders.iter().any(|n| self.dead.contains(n)) {
                continue;
            }
            // Only items with a surviving copy can be repaired.
            let Some(source) = holders.iter().copied().find(|n| !self.dead.contains(n)) else {
                continue;
            };
            let live = self.live_ring(domain);
            let writer_leaf = self.writers.get(&(key, domain)).copied();
            let fresh = self.policy.replicas(
                &PlacementCtx {
                    hierarchy: &self.hierarchy,
                    membership: &self.membership,
                    domain,
                    ring: &live,
                    writer_leaf,
                },
                key,
            );
            if fresh.is_empty() {
                continue;
            }
            let at = slot(key, domain);
            #[allow(
                clippy::expect_used,
                reason = "the documented replica-shard I/O abort policy"
            )]
            let stored = self
                .shards
                .get_mut(&source)
                .and_then(|s| store_io(s.get(at), "verified read"))
                // `source` was chosen among live holders above.
                .expect("surviving replica holds the bytes");
            for &node in &fresh {
                if !holders.contains(&node) {
                    copies += 1;
                }
                let write = self.shard_mut(node).put(at, &stored.bytes);
                store_io(write, "repair write");
            }
            // Retired live holders drop their copy so usage stays honest.
            let retired = holders
                .iter()
                .filter(|n| !self.dead.contains(n) && !fresh.contains(n));
            for &node in retired {
                if let Some(shard) = self.shards.get_mut(&node) {
                    store_io(shard.delete(at), "retire");
                }
            }
            self.placements.insert((key, domain), fresh);
        }
        copies
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
    /// invariant holds; this is what `canon-audit verify` probes.
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

    /// Space accounting aggregated over every node shard.
    pub fn usage(&self) -> Usage {
        self.shards
            .values()
            .map(|s| s.usage())
            .fold(Usage::default(), Usage::merged)
    }

    /// The hierarchy this store spans.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The per-domain membership rings the store places replicas on.
    pub fn membership(&self) -> &DomainMembership {
        &self.membership
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::hash::hash_name;
    use canon_id::rng::Seed;
    use rand::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn setup(r: usize) -> (Hierarchy, Placement, ReplicatedStore<String>) {
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
    fn get_survives_replica_crashes_until_the_last() {
        let (h, _, mut store) = setup(3);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("survivor");
        store.put(key, "v".into(), d);
        let rs = store.replica_set(key, d);
        store.crash(rs[0]);
        assert!(
            store.get(key, d).is_some(),
            "one crash must not lose the item"
        );
        store.crash(rs[1]);
        let (v, server) = store.get(key, d).expect("last replica serves");
        assert_eq!(v, "v");
        assert_eq!(server, rs[2]);
        store.crash(rs[2]);
        assert!(store.get(key, d).is_none(), "all replicas dead");
    }

    #[test]
    fn availability_grows_with_replication() {
        let mut rng = Seed(72).rng();
        let mut avail = Vec::new();
        for r in [1usize, 2, 4] {
            let (h, p, mut store) = setup(r);
            let root = h.root();
            for i in 0..300 {
                store.put(hash_name(&format!("k{i}")), format!("v{i}"), root);
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
        store.put(key, "v".into(), d);
        let rs = store.replica_set(key, d);
        store.crash(rs[0]);
        store.crash(rs[1]);
        let copies = store.re_replicate();
        assert!(copies >= 1, "repair must create copies");
        assert!(store.replicas_respect_domains());
        assert!(
            store.policy_violations().is_empty(),
            "repair satisfies policy"
        );
        // The item now survives the death of its last original holder.
        store.crash(rs[2]);
        assert!(
            store.get(key, d).is_some(),
            "re-replication must restore resilience"
        );
    }

    #[test]
    fn lost_items_stay_lost_after_repair() {
        let (h, _, mut store) = setup(2);
        let d = h.domains_at_depth(1)[0];
        let key = hash_name("doomed");
        store.put(key, "v".into(), d);
        for n in store.replica_set(key, d) {
            store.crash(n);
        }
        store.re_replicate();
        assert!(
            store.get(key, d).is_none(),
            "repair cannot resurrect lost data"
        );
    }

    #[test]
    fn tiny_domains_cap_the_replica_count() {
        let mut h = Hierarchy::new();
        let a = h.add_domain(h.root(), "a");
        let p = Placement::from_pairs(&h, vec![(NodeId::new(1), a), (NodeId::new(2), a)]);
        let store: ReplicatedStore<u8> = ReplicatedStore::new(h, &p, Policy::Fixed(5));
        let rs = store.replica_set(hash_name("x"), a);
        assert_eq!(rs.len(), 2, "cannot place more replicas than members");
    }

    #[test]
    fn geo_policy_keeps_a_replica_outside_the_writer_region() {
        let h = Hierarchy::balanced(3, 2);
        let p = Placement::uniform(&h, 150, Seed(73));
        let mut store: ReplicatedStore<u64> = ReplicatedStore::new(
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
            store.put_from(writer, key, i as u64, h.root());
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
        let store: ReplicatedStore<u64> = ReplicatedStore::new(
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

    #[test]
    fn values_roundtrip_through_file_shards() {
        static DIR: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "canon-store-repl-{}-{}",
            std::process::id(),
            DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let h = Hierarchy::balanced(2, 2);
        let p = Placement::uniform(&h, 60, Seed(75));
        let mut store: ReplicatedStore<String> = ReplicatedStore::with_backend(
            h.clone(),
            &p,
            Policy::Fixed(3),
            BackendKind::File { dir: dir.clone() },
        );
        let key = hash_name("durable");
        store.put(key, "on disk".into(), h.root());
        let (v, _) = store.get(key, h.root()).expect("readable");
        assert_eq!(v, "on disk");
        let u = store.usage();
        assert_eq!(u.keys, 3, "one entry per replica shard");
        assert_eq!(u.blobs, 3, "blobs dedup within, not across, shards");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_collapses_identical_values_within_a_shard() {
        let h = Hierarchy::balanced(2, 1);
        let p = Placement::uniform(&h, 8, Seed(76));
        let mut store: ReplicatedStore<String> =
            ReplicatedStore::new(h.clone(), &p, Policy::Fixed(8));
        // With replication = population, every node holds every item; 40
        // keys share one value, so each shard stores the bytes once.
        for i in 0..40 {
            store.put(
                hash_name(&format!("dup-{i}")),
                "same bytes".into(),
                h.root(),
            );
        }
        let u = store.usage();
        assert_eq!(u.keys, 40 * 8);
        assert_eq!(u.blobs, 8, "one physical blob per shard");
        assert!(u.unique_bytes < u.logical_bytes);
    }
}
