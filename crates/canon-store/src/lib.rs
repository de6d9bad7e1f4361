//! Hierarchical content storage, access control and caching (paper §4).
//!
//! A hierarchical DHT gives content placement two extra degrees of freedom
//! beyond a flat DHT:
//!
//! * a **storage domain** `Ds` (containing the publisher): the key–value
//!   pair is stored at the node of `Ds` whose identifier is closest to, but
//!   not greater than, the key — the responsible node *within `Ds`'s own
//!   DHT*;
//! * an **access domain** `Da ⊇ Ds`: if wider than `Ds`, a *pointer* to the
//!   content is additionally stored at the responsible node within `Da`.
//!
//! Queries route hierarchically (lowest ring first); the node that switches
//! routing from one level to the next — the *proxy node* of the query in
//! that domain, which by path convergence is the domain's responsible node
//! for the key — answers iff it holds matching content whose access domain
//! is no smaller than the current routing level. A query for locally stored
//! content therefore never leaves the domain, and access control falls out
//! of routing for free: a node can only ever reach content whose access
//! domain contains it.
//!
//! §4.2's caching is implemented by [`HierarchicalStore::query_and_cache`]:
//! answers are cached at the proxy node of every level crossed, annotated
//! with the level served, and [`CachePolicy`] preferentially evicts entries
//! with larger level numbers (deeper levels — cheap to refetch from the
//! next level up).
//!
//! Durability is successor replication ([`replication`]): `k` copies on
//! the responsible node and its ring successors within the storage
//! domain, placed by [`replica_successors`] — the one rule
//! [`ReplicatedStore`] models under crashes and canon-node's PUT fan-out
//! follows live.
//!
//! # Example
//!
//! ```
//! use canon_hierarchy::{Hierarchy, Placement};
//! use canon_id::{hash::hash_name, rng::Seed};
//! use canon_store::HierarchicalStore;
//!
//! let mut h = Hierarchy::new();
//! let team = h.add_domain(h.root(), "team");
//! let p = Placement::uniform(&h, 20, Seed(1));
//! let mut store: HierarchicalStore<&str> = HierarchicalStore::new(h.clone(), &p);
//! let publisher = p.ids()[0];
//! let leaf = p.leaf_of(publisher).expect("placed");
//! store.insert(publisher, hash_name("doc"), "hello", leaf, h.root())?;
//! assert!(store.query(p.ids()[1], hash_name("doc"))?.is_found());
//! # Ok::<(), canon_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod backend;
pub mod content;
pub mod replication;

pub use backend::{BackendError, FileBackend, MemoryBackend, StorageBackend, Stored};
pub use content::ContentId;
pub use replication::{replica_successors, ReplicatedStore};

use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::{Key, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Errors returned by store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The publisher does not belong to the requested storage domain.
    PublisherOutsideStorageDomain,
    /// The access domain does not contain the storage domain.
    AccessDoesNotContainStorage,
    /// The publisher identifier is not a member of the network.
    UnknownPublisher,
    /// The querier identifier is not a member of the network.
    UnknownQuerier,
    /// Overlay routing failed while executing the query
    /// (see [`canon_overlay::RouteError`]).
    Routing(canon_overlay::RouteError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::PublisherOutsideStorageDomain => {
                write!(f, "publisher is outside the requested storage domain")
            }
            StoreError::AccessDoesNotContainStorage => {
                write!(f, "access domain does not contain the storage domain")
            }
            StoreError::UnknownPublisher => write!(f, "publisher is not a member of the network"),
            StoreError::UnknownQuerier => write!(f, "querier is not a member of the network"),
            StoreError::Routing(e) => write!(f, "overlay routing failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<canon_overlay::RouteError> for StoreError {
    fn from(e: canon_overlay::RouteError) -> StoreError {
        StoreError::Routing(e)
    }
}

/// Where an insert placed things.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertReceipt {
    /// The node storing the value (responsible node within the storage
    /// domain).
    pub storage_node: NodeId,
    /// The node storing the pointer (responsible node within the access
    /// domain), when the access domain is wider than the storage domain.
    pub pointer_node: Option<NodeId>,
}

/// How a query was answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Via {
    /// Content found directly at the answering proxy.
    Direct,
    /// A pointer was found and resolved to the storage node.
    Pointer {
        /// The node the pointer was resolved from.
        storage_node: NodeId,
    },
    /// A cached copy answered.
    Cache,
}

/// Result of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome<V> {
    /// The key was found.
    Found {
        /// Matching values visible at the answering level.
        values: Vec<V>,
        /// Depth of the domain whose proxy answered (root = 0).
        answered_at_depth: u32,
        /// The proxy node that answered.
        answering_node: NodeId,
        /// Proxy nodes visited, lowest level first (including the answerer).
        proxy_path: Vec<NodeId>,
        /// How the answer was obtained.
        via: Via,
    },
    /// The key was not visible anywhere on the querier's proxy path.
    NotFound {
        /// Proxy nodes visited, lowest level first.
        proxy_path: Vec<NodeId>,
    },
}

impl<V> QueryOutcome<V> {
    /// Whether the query found the key.
    pub fn is_found(&self) -> bool {
        matches!(self, QueryOutcome::Found { .. })
    }
}

#[derive(Clone, Debug)]
struct StoredItem<V> {
    key: Key,
    value: V,
    storage_domain: DomainId,
    access_domain: DomainId,
}

#[derive(Clone, Debug)]
struct Pointer {
    key: Key,
    access_domain: DomainId,
    storage_node: NodeId,
}

/// Level-aware cache replacement (paper §4.2): evict entries annotated with
/// the *largest* level number first (deepest domain — a copy likely exists
/// one level up), breaking ties by least-recent use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachePolicy {
    /// Entries kept per node.
    pub capacity: usize,
    /// Coordinated replacement (§4.2's extension): when evicting, prefer
    /// victims that also have a live copy at the next level up — keeping
    /// entries that are this subtree's only nearby copy.
    pub coordinated: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            capacity: 64,
            coordinated: false,
        }
    }
}

/// The §4.2 replacement order, defined once: the cached entry with the
/// *largest* rank is evicted first — largest level annotation (deepest
/// domain, or farthest from the owner), then least recently used. Both
/// this crate's proxy caches and `canon-node`'s en-route cache rank their
/// victims with it.
pub fn victim_rank(level: u32, last_used: u64) -> (u32, u64) {
    (level, u64::MAX - last_used)
}

#[derive(Clone, Debug)]
struct CacheEntry<V> {
    key: Key,
    value: V,
    level: u32,
    last_used: u64,
}

#[derive(Clone, Debug, Default)]
struct NodeCache<V> {
    entries: Vec<CacheEntry<V>>,
}

impl<V: Clone> NodeCache<V> {
    fn lookup(&mut self, key: Key, clock: u64) -> Option<(V, u32)> {
        let e = self.entries.iter_mut().find(|e| e.key == key)?;
        e.last_used = clock;
        Some((e.value.clone(), e.level))
    }

    /// Inserts an entry. `covered_above` flags, per current entry index,
    /// whether a copy of that entry's key exists at the next-level proxy
    /// (only consulted under coordinated replacement).
    fn insert(
        &mut self,
        key: Key,
        value: V,
        level: u32,
        clock: u64,
        policy: CachePolicy,
        covered_above: &[bool],
    ) {
        if policy.capacity == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            // Keep the smallest (highest-utility) level annotation.
            e.level = e.level.min(level);
            e.last_used = clock;
            return;
        }
        if self.entries.len() >= policy.capacity {
            // Evict: (coordinated: duplicated-above first,) largest level
            // first, then least recently used.
            if let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(i, e)| {
                    let dup = policy.coordinated && covered_above.get(*i).copied().unwrap_or(false);
                    (dup, victim_rank(e.level, e.last_used))
                })
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(victim);
            }
        }
        self.entries.push(CacheEntry {
            key,
            value,
            level,
            last_used: clock,
        });
    }
}

/// The hierarchical store simulated over a node population.
///
/// The store models §4's protocol at the proxy-node level: by the
/// convergence property, the query path of key `k` from any node of domain
/// `D` exits `D` through `D`'s responsible node for `k`, so content,
/// pointer and cache checks happen exactly at the per-level responsible
/// nodes, which the store computes from the domain membership rings.
#[derive(Clone, Debug)]
pub struct HierarchicalStore<V> {
    hierarchy: Hierarchy,
    membership: DomainMembership,
    leaf_of: HashMap<NodeId, DomainId>,
    content: HashMap<NodeId, Vec<StoredItem<V>>>,
    pointers: HashMap<NodeId, Vec<Pointer>>,
    caches: HashMap<NodeId, NodeCache<V>>,
    policy: CachePolicy,
    clock: u64,
}

impl<V: Clone + PartialEq> HierarchicalStore<V> {
    /// Creates a store over `hierarchy`/`placement` with the default cache
    /// policy.
    pub fn new(hierarchy: Hierarchy, placement: &Placement) -> Self {
        Self::with_policy(hierarchy, placement, CachePolicy::default())
    }

    /// Creates a store with an explicit cache policy.
    pub fn with_policy(hierarchy: Hierarchy, placement: &Placement, policy: CachePolicy) -> Self {
        let membership = DomainMembership::build(&hierarchy, placement);
        let leaf_of = placement.iter().collect();
        HierarchicalStore {
            hierarchy,
            membership,
            leaf_of,
            content: HashMap::new(),
            pointers: HashMap::new(),
            caches: HashMap::new(),
            policy,
            clock: 0,
        }
    }

    /// The node responsible for `key` within `domain` (closest identifier
    /// at or below the key, wrapping).
    ///
    /// # Panics
    ///
    /// Panics if the domain has no members.
    #[allow(clippy::expect_used, reason = "the documented `# Panics` contract")]
    pub fn responsible_in(&self, key: Key, domain: DomainId) -> NodeId {
        self.membership
            .ring(domain)
            .responsible(key.as_point())
            .expect("domain has members")
    }

    /// Inserts `value` under `key`, published by `publisher`, stored within
    /// `storage_domain` and visible within `access_domain`.
    ///
    /// # Errors
    ///
    /// * [`StoreError::UnknownPublisher`] if `publisher` is not placed;
    /// * [`StoreError::PublisherOutsideStorageDomain`] if the publisher is
    ///   not inside `storage_domain`;
    /// * [`StoreError::AccessDoesNotContainStorage`] if `access_domain` is
    ///   not an ancestor-or-self of `storage_domain`.
    pub fn insert(
        &mut self,
        publisher: NodeId,
        key: Key,
        value: V,
        storage_domain: DomainId,
        access_domain: DomainId,
    ) -> Result<InsertReceipt, StoreError> {
        let leaf = *self
            .leaf_of
            .get(&publisher)
            .ok_or(StoreError::UnknownPublisher)?;
        if !self.hierarchy.is_ancestor_or_self(storage_domain, leaf) {
            return Err(StoreError::PublisherOutsideStorageDomain);
        }
        if !self
            .hierarchy
            .is_ancestor_or_self(access_domain, storage_domain)
        {
            return Err(StoreError::AccessDoesNotContainStorage);
        }
        let storage_node = self.responsible_in(key, storage_domain);
        self.content
            .entry(storage_node)
            .or_default()
            .push(StoredItem {
                key,
                value,
                storage_domain,
                access_domain,
            });
        let pointer_node = if access_domain != storage_domain {
            let pn = self.responsible_in(key, access_domain);
            self.pointers.entry(pn).or_default().push(Pointer {
                key,
                access_domain,
                storage_node,
            });
            Some(pn)
        } else {
            None
        };
        Ok(InsertReceipt {
            storage_node,
            pointer_node,
        })
    }

    /// The proxy-node path a query for `key` from `querier` visits: the
    /// responsible node of each ancestor domain, leaf-most first.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownQuerier`] if `querier` is not placed.
    pub fn proxy_path(
        &self,
        querier: NodeId,
        key: Key,
    ) -> Result<Vec<(DomainId, NodeId)>, StoreError> {
        let leaf = *self
            .leaf_of
            .get(&querier)
            .ok_or(StoreError::UnknownQuerier)?;
        Ok(self
            .hierarchy
            .ancestors(leaf)
            .map(|d| (d, self.responsible_in(key, d)))
            .collect())
    }

    /// Queries `key` from `querier` without touching caches.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownQuerier`] if `querier` is not placed.
    pub fn query(&mut self, querier: NodeId, key: Key) -> Result<QueryOutcome<V>, StoreError> {
        self.query_impl(querier, key, false)
    }

    /// Queries `key` from `querier`, consulting per-node caches and caching
    /// the answer at every proxy crossed (annotated with the level it
    /// serves, per §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownQuerier`] if `querier` is not placed.
    pub fn query_and_cache(
        &mut self,
        querier: NodeId,
        key: Key,
    ) -> Result<QueryOutcome<V>, StoreError> {
        self.query_impl(querier, key, true)
    }

    fn query_impl(
        &mut self,
        querier: NodeId,
        key: Key,
        use_cache: bool,
    ) -> Result<QueryOutcome<V>, StoreError> {
        self.clock += 1;
        let clock = self.clock;
        let path = self.proxy_path(querier, key)?;
        let mut proxy_path = Vec::with_capacity(path.len());
        let mut answer: Option<(Vec<V>, u32, NodeId, Via)> = None;

        for (domain, proxy) in &path {
            proxy_path.push(*proxy);
            let depth = self.hierarchy.depth(*domain);
            // 1. Cache hit?
            if use_cache {
                if let Some(cache) = self.caches.get_mut(proxy) {
                    if let Some((v, _lvl)) = cache.lookup(key, clock) {
                        answer = Some((vec![v], depth, *proxy, Via::Cache));
                        break;
                    }
                }
            }
            // 2. Local content visible at this routing level, else 3. the
            // first pointer stored for this level, resolved.
            let (direct, pointed) = self.visible_at(*domain, *proxy, key);
            if !direct.is_empty() {
                answer = Some((direct, depth, *proxy, Via::Direct));
                break;
            }
            if let Some((storage_node, values)) = pointed.into_iter().next() {
                if !values.is_empty() {
                    answer = Some((values, depth, *proxy, Via::Pointer { storage_node }));
                    break;
                }
            }
        }

        let Some((values, depth, node, via)) = answer else {
            return Ok(QueryOutcome::NotFound { proxy_path });
        };

        if let (true, Some(first)) = (use_cache, values.first().cloned()) {
            // Cache the answer at every proxy crossed below the answering
            // level, annotated with the depth it serves.
            for (domain, proxy) in &path {
                let d = self.hierarchy.depth(*domain);
                if d <= depth {
                    break;
                }
                // Coordinated replacement consults the parent proxy's cache
                // for every current entry of this proxy.
                let covered_above: Vec<bool> = if self.policy.coordinated {
                    match (self.hierarchy.parent(*domain), self.caches.get(proxy)) {
                        (Some(pd), Some(cache)) => cache
                            .entries
                            .iter()
                            .map(|e| {
                                let up = self.responsible_in(e.key, pd);
                                self.caches
                                    .get(&up)
                                    .is_some_and(|c| c.entries.iter().any(|x| x.key == e.key))
                            })
                            .collect(),
                        _ => Vec::new(),
                    }
                } else {
                    Vec::new()
                };
                self.caches
                    .entry(*proxy)
                    .or_insert_with(|| NodeCache {
                        entries: Vec::new(),
                    })
                    .insert(key, first.clone(), d, clock, self.policy, &covered_above);
            }
        }

        Ok(QueryOutcome::Found {
            values,
            answered_at_depth: depth,
            answering_node: node,
            proxy_path,
            via,
        })
    }

    /// Collects up to `limit` values for `key` visible to `querier`,
    /// continuing up the hierarchy past the first hit (paper §4.1: "If the
    /// application requires a partial list of values (say one hundred
    /// results) for a given key, the routing can stop when a sufficient
    /// number of values have been found").
    ///
    /// Values are gathered in level order (most local first); pointer
    /// indirections are resolved. Caches are not consulted (a partial list
    /// is not a cacheable single answer).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownQuerier`] if `querier` is not placed.
    pub fn query_collect(
        &mut self,
        querier: NodeId,
        key: Key,
        limit: usize,
    ) -> Result<Vec<V>, StoreError> {
        let path = self.proxy_path(querier, key)?;
        let mut out: Vec<V> = Vec::new();
        for (domain, proxy) in &path {
            let (direct, pointed) = self.visible_at(*domain, *proxy, key);
            let found = direct
                .into_iter()
                .chain(pointed.into_iter().flat_map(|(_, vs)| vs));
            for v in found {
                if out.len() >= limit {
                    return Ok(out);
                }
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// The §4.1 visibility rule at one proxy: what `proxy` serves for
    /// `key` at routing level `domain`, in stored order. An item it stores
    /// is served directly when access ⊇ level ⊇ storage. A pointer is
    /// followed only at its own access level, and resolves to the items its
    /// storage node holds for `key` under that access domain. Returns the
    /// direct values, then `(storage node, values)` per pointer followed.
    fn visible_at(
        &self,
        domain: DomainId,
        proxy: NodeId,
        key: Key,
    ) -> (Vec<V>, Vec<(NodeId, Vec<V>)>) {
        let h = &self.hierarchy;
        let direct = self
            .content
            .get(&proxy)
            .into_iter()
            .flatten()
            .filter(|it| {
                it.key == key
                    && h.is_ancestor_or_self(it.access_domain, domain)
                    && h.is_ancestor_or_self(domain, it.storage_domain)
            })
            .map(|it| it.value.clone())
            .collect();
        let pointed = self
            .pointers
            .get(&proxy)
            .into_iter()
            .flatten()
            .filter(|p| p.key == key && p.access_domain == domain)
            .map(|p| {
                let values = self
                    .content
                    .get(&p.storage_node)
                    .into_iter()
                    .flatten()
                    .filter(|it| it.key == key && it.access_domain == p.access_domain)
                    .map(|it| it.value.clone())
                    .collect();
                (p.storage_node, values)
            })
            .collect();
        (direct, pointed)
    }

    /// Number of cache entries currently held at `node`.
    pub fn cache_len(&self, node: NodeId) -> usize {
        self.caches.get(&node).map_or(0, |c| c.entries.len())
    }

    /// The hierarchy this store operates over.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::Seed;

    /// root -> {cs -> {db, ai}, ee}; nodes placed explicitly.
    fn setup() -> (Hierarchy, Placement, DomainId, DomainId, DomainId, DomainId) {
        let mut h = Hierarchy::new();
        let cs = h.add_domain(h.root(), "cs");
        let db = h.add_domain(cs, "db");
        let ai = h.add_domain(cs, "ai");
        let ee = h.add_domain(h.root(), "ee");
        let p = Placement::from_pairs(
            &h,
            vec![
                (NodeId::new(100), db),
                (NodeId::new(200), db),
                (NodeId::new(300), ai),
                (NodeId::new(400), ee),
            ],
        );
        (h, p, cs, db, ai, ee)
    }

    #[test]
    fn storage_node_is_domain_responsible() {
        let (h, p, cs, db, _, _) = setup();
        let mut s: HierarchicalStore<&str> = HierarchicalStore::new(h, &p);
        // Key 250 within db's ring {100,200}: responsible = 200. Within
        // cs's ring {100,200,300}: also 200.
        let r = s
            .insert(NodeId::new(100), Key::new(250), "v", db, cs)
            .unwrap();
        assert_eq!(r.storage_node, NodeId::new(200));
        assert_eq!(r.pointer_node, Some(NodeId::new(200)));
    }

    #[test]
    fn local_query_never_needs_upper_levels() {
        let (h, p, _, db, _, _) = setup();
        let mut s = HierarchicalStore::new(h, &p);
        s.insert(NodeId::new(100), Key::new(150), "db-data", db, db)
            .unwrap();
        let out = s.query(NodeId::new(200), Key::new(150)).unwrap();
        match out {
            QueryOutcome::Found {
                answered_at_depth,
                values,
                via,
                ..
            } => {
                assert_eq!(answered_at_depth, 2, "answered inside db");
                assert_eq!(values, vec!["db-data"]);
                assert_eq!(via, Via::Direct);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn access_control_hides_content_from_outsiders() {
        let (h, p, cs, db, _, _) = setup();
        let mut s = HierarchicalStore::new(h, &p);
        // Stored in db, accessible only within cs.
        s.insert(NodeId::new(100), Key::new(150), "cs-only", db, cs)
            .unwrap();
        // ai node (inside cs) finds it...
        assert!(s.query(NodeId::new(300), Key::new(150)).unwrap().is_found());
        // ...but the ee node (outside cs) must not.
        assert!(!s.query(NodeId::new(400), Key::new(150)).unwrap().is_found());
    }

    #[test]
    fn pointer_resolution_reaches_wide_audience() {
        let (h, p, _, db, _, _) = setup();
        let root = h.root();
        let mut s = HierarchicalStore::new(h, &p);
        // Key 350: responsible in db's ring {100,200} is 200 (storage),
        // responsible in the root ring {100,200,300,400} is 300 (pointer) —
        // distinct nodes, so resolution goes through the indirection.
        s.insert(NodeId::new(100), Key::new(350), "global", db, root)
            .unwrap();
        let out = s.query(NodeId::new(400), Key::new(350)).unwrap();
        match out {
            QueryOutcome::Found {
                via,
                values,
                answered_at_depth,
                ..
            } => {
                assert_eq!(values, vec!["global"]);
                assert_eq!(answered_at_depth, 0);
                assert!(matches!(via, Via::Pointer { .. }));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn insert_validations() {
        let (h, p, cs, db, ai, ee) = setup();
        let mut s: HierarchicalStore<&str> = HierarchicalStore::new(h, &p);
        // Publisher 400 (ee) cannot store into db.
        assert_eq!(
            s.insert(NodeId::new(400), Key::new(1), "x", db, cs)
                .unwrap_err(),
            StoreError::PublisherOutsideStorageDomain
        );
        // Access domain must contain storage domain.
        assert_eq!(
            s.insert(NodeId::new(100), Key::new(1), "x", db, ai)
                .unwrap_err(),
            StoreError::AccessDoesNotContainStorage
        );
        assert_eq!(
            s.insert(NodeId::new(100), Key::new(1), "x", db, ee)
                .unwrap_err(),
            StoreError::AccessDoesNotContainStorage
        );
        // Unknown publisher.
        assert_eq!(
            s.insert(NodeId::new(9), Key::new(1), "x", db, cs)
                .unwrap_err(),
            StoreError::UnknownPublisher
        );
        // Unknown querier.
        assert_eq!(
            s.query(NodeId::new(9), Key::new(1)).unwrap_err(),
            StoreError::UnknownQuerier
        );
    }

    #[test]
    fn queries_are_cached_at_crossed_proxies() {
        let (h, p, _, db, _, _) = setup();
        let root = h.root();
        let mut s = HierarchicalStore::new(h, &p);
        s.insert(NodeId::new(100), Key::new(150), "data", db, root)
            .unwrap();
        // ee's query crosses its leaf (ee) and resolves at the root pointer.
        let first = s.query_and_cache(NodeId::new(400), Key::new(150)).unwrap();
        assert!(first.is_found());
        // Second query from ee hits the cache at ee's proxy (node 400).
        let second = s.query_and_cache(NodeId::new(400), Key::new(150)).unwrap();
        match second {
            QueryOutcome::Found {
                via,
                answered_at_depth,
                ..
            } => {
                assert_eq!(via, Via::Cache);
                assert!(answered_at_depth >= 1, "cache hit below the root");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn cache_eviction_prefers_larger_levels() {
        let (h, p, _, db, _, _) = setup();
        let root = h.root();
        let mut s = HierarchicalStore::with_policy(
            h,
            &p,
            CachePolicy {
                capacity: 2,
                coordinated: false,
            },
        );
        // Publish three keys from db, globally accessible.
        for k in [1u64, 2, 3] {
            s.insert(NodeId::new(100), Key::new(1000 + k), "v", db, root)
                .unwrap();
        }
        // Query all three from node 400 (ee): each answer caches at the ee
        // proxy (node 400) with level = depth(ee) = 1.
        for k in [1u64, 2, 3] {
            s.query_and_cache(NodeId::new(400), Key::new(1000 + k))
                .unwrap();
        }
        // Capacity 2: one key was evicted.
        assert_eq!(s.cache_len(NodeId::new(400)), 2);
    }

    #[test]
    fn coordinated_replacement_protects_sole_copies() {
        // Stage a cache where plain LRU and coordinated replacement pick
        // different victims: at the querier's leaf proxy X, entry B is the
        // older entry (plain LRU victim) but is the only nearby copy, while
        // entry A is duplicated at the parent-level proxy. Coordinated
        // replacement must evict A and keep B.
        use canon_id::rng::{random_ids, Seed};
        let h = Hierarchy::balanced(3, 3);
        let ids = random_ids(Seed(500), 240);
        let leaves = h.leaves();
        let pairs: Vec<(NodeId, DomainId)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, leaves[i % leaves.len()]))
            .collect();
        let p = Placement::from_pairs(&h, pairs);
        let mut s = HierarchicalStore::with_policy(
            h.clone(),
            &p,
            CachePolicy {
                capacity: 2,
                coordinated: true,
            },
        );

        // The querier and its domains.
        let querier = p.ids()[0];
        let leaf = p.leaf_of(querier).expect("placed");
        let mid = h.ancestor_at_depth(leaf, 1);
        // A remote publisher outside the querier's depth-1 domain.
        let remote = p
            .iter()
            .find(|(_, l)| h.ancestor_at_depth(*l, 1) != mid)
            .map(|(id, _)| id)
            .expect("other branch exists");
        let remote_leaf = p.leaf_of(remote).expect("placed");
        // A publisher inside the querier's depth-1 domain but another leaf.
        let local_pub = p
            .iter()
            .find(|(_, l)| *l != leaf && h.ancestor_at_depth(*l, 1) == mid)
            .map(|(id, _)| id)
            .expect("sibling leaf exists");
        let local_leaf = p.leaf_of(local_pub).expect("placed");

        // Find keys sharing the same leaf proxy X at the querier, with the
        // right publication shapes. Candidates are strided by large odd
        // constants so they cover the whole id circle — a narrow candidate
        // window would make one node responsible for every candidate and
        // the search's success a coin flip on the placement seed.
        let mut found = None;
        'search: for a_raw in 0..4000u64 {
            let key_a =
                Key::new(0xA000_0000u64.wrapping_add(a_raw.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let x = s.responsible_in(key_a, leaf);
            if s.responsible_in(key_a, mid) == x {
                continue; // A must be cached at a *distinct* mid proxy
            }
            for b_raw in 0..4000u64 {
                let key_b = Key::new(
                    0xB000_0000u64.wrapping_add(b_raw.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
                );
                if s.responsible_in(key_b, leaf) != x || s.responsible_in(key_b, mid) == x {
                    continue;
                }
                for c_raw in 0..4000u64 {
                    let key_c = Key::new(
                        0xC000_0000u64.wrapping_add(c_raw.wrapping_mul(0x1656_67B1_9E37_79F9)),
                    );
                    if s.responsible_in(key_c, leaf) == x && key_c != key_a && key_c != key_b {
                        found = Some((key_a, key_b, key_c, x));
                        break 'search;
                    }
                }
            }
        }
        let (key_a, key_b, key_c, x) = found.expect("staging keys exist");

        // B: stored inside mid (access mid) → found at depth 1, cached only
        // at X (depth 2). Insert FIRST so it is the LRU victim candidate.
        s.insert(local_pub, key_b, "B", local_leaf, mid).unwrap();
        // A and C: stored remotely, accessible globally → answered at the
        // root, cached at X (depth 2) and the mid proxy (depth 1).
        s.insert(remote, key_a, "A", remote_leaf, h.root()).unwrap();
        s.insert(remote, key_c, "C", remote_leaf, h.root()).unwrap();

        assert!(s.query_and_cache(querier, key_b).unwrap().is_found());
        assert!(s.query_and_cache(querier, key_a).unwrap().is_found());
        assert_eq!(s.cache_len(x), 2, "X holds B and A");
        // C's arrival forces an eviction at X. Plain LRU would evict B (the
        // older same-level entry); coordinated replacement must evict A,
        // whose copy lives on at the mid-level proxy.
        assert!(s.query_and_cache(querier, key_c).unwrap().is_found());
        match s.query_and_cache(querier, key_b).unwrap() {
            QueryOutcome::Found { via, .. } => {
                assert_eq!(via, Via::Cache, "B (sole nearby copy) must survive at X");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // And A is still served — one level up, from the mid proxy's cache.
        match s.query_and_cache(querier, key_a).unwrap() {
            QueryOutcome::Found {
                via,
                answered_at_depth,
                ..
            } => {
                assert_eq!(via, Via::Cache);
                assert_eq!(answered_at_depth, 1, "A now comes from the parent proxy");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn multiple_values_returned_together() {
        let (h, p, _, db, _, _) = setup();
        let mut s = HierarchicalStore::new(h, &p);
        s.insert(NodeId::new(100), Key::new(150), "a", db, db)
            .unwrap();
        s.insert(NodeId::new(200), Key::new(150), "b", db, db)
            .unwrap();
        let out = s.query(NodeId::new(100), Key::new(150)).unwrap();
        match out {
            QueryOutcome::Found { mut values, .. } => {
                values.sort_unstable();
                assert_eq!(values, vec!["a", "b"]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn not_found_reports_full_proxy_path() {
        let (h, p, _, _, _, _) = setup();
        let mut s: HierarchicalStore<&str> = HierarchicalStore::new(h, &p);
        match s.query(NodeId::new(100), Key::new(7777)).unwrap() {
            QueryOutcome::NotFound { proxy_path } => {
                // db, cs, root → three proxies.
                assert_eq!(proxy_path.len(), 3);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn query_collect_gathers_across_levels() {
        let (h, p, cs, db, ai, _) = setup();
        let root = h.root();
        let mut s = HierarchicalStore::new(h, &p);
        // Same key at three scopes: db-local, cs-wide and global.
        s.insert(NodeId::new(100), Key::new(150), "db-copy", db, db)
            .unwrap();
        s.insert(NodeId::new(100), Key::new(150), "cs-copy", db, cs)
            .unwrap();
        s.insert(NodeId::new(300), Key::new(150), "global-copy", ai, root)
            .unwrap();
        // A db querier sees all three, most local first.
        let got = s
            .query_collect(NodeId::new(200), Key::new(150), 10)
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], "db-copy");
        assert!(got.contains(&"cs-copy") && got.contains(&"global-copy"));
        // The limit stops the climb early.
        let got = s.query_collect(NodeId::new(200), Key::new(150), 1).unwrap();
        assert_eq!(got, vec!["db-copy"]);
        // An outsider (ee) only sees the global copy.
        let got = s
            .query_collect(NodeId::new(400), Key::new(150), 10)
            .unwrap();
        assert_eq!(got, vec!["global-copy"]);
    }

    #[test]
    fn query_collect_dedups_pointer_and_direct_hits() {
        let (h, p, _, db, _, _) = setup();
        let root = h.root();
        let mut s = HierarchicalStore::new(h, &p);
        // One item, stored in db and pointed to at the root: a db querier
        // encounters it directly and again via the root pointer.
        s.insert(NodeId::new(100), Key::new(350), "once", db, root)
            .unwrap();
        let got = s
            .query_collect(NodeId::new(100), Key::new(350), 10)
            .unwrap();
        assert_eq!(got, vec!["once"]);
    }

    #[test]
    fn larger_population_smoke() {
        let h = Hierarchy::balanced(3, 3);
        let p = Placement::uniform(&h, 300, Seed(81));
        let leaves = h.leaves();
        let root = h.root();
        let mut s = HierarchicalStore::new(h.clone(), &p);
        // Publish one key per leaf, each stored in its publisher's depth-1
        // ancestor, globally visible.
        let mut published = Vec::new();
        for (i, (id, leaf)) in p.iter().enumerate().take(leaves.len()) {
            let key = Key::new(0x1000_0000 + i as u64 * 7919);
            let storage = h.ancestor_at_depth(leaf, 1);
            s.insert(id, key, i, storage, root).unwrap();
            published.push((key, i));
        }
        // Every node can retrieve every key.
        for &(key, v) in &published {
            let out = s.query(p.ids()[0], key).unwrap();
            match out {
                QueryOutcome::Found { values, .. } => assert_eq!(values, vec![v]),
                other => panic!("missing {key}: {other:?}"),
            }
        }
    }
}
