//! En-route read cache for the live GET path.
//!
//! The paper's §5 path-convergence property — routes toward the same key
//! converge as they approach its responsible node — is what makes caching
//! *along the path* effective: a copy planted at a convergence point
//! short-circuits every later request that funnels through it. This module
//! is the live-runtime generalization of `canon-store`'s static §4.2 proxy
//! caches ([`canon_store::CachePolicy`]): the same replacement discipline
//! (evict the *largest* level annotation first — entries far from the
//! owner serve only their own locality, while copies near the owner
//! intercept converged traffic from everywhere — LRU within a level), but
//! attached to a node actor and kept coherent by owner-driven
//! invalidation:
//!
//! * every cached entry carries the **owner** (the responsible node that
//!   issued the fill) and the owner's per-key **write stamp** (version);
//! * fills verify a [`ContentId`] over the value bytes before caching, so
//!   a corrupted fill is dropped, not served;
//! * an overwrite at the owner broadcasts `CacheInvalidate { floor }` to
//!   every registered cacher: the entry is removed and a bounded
//!   **tombstone** remembers the floor, so a slower in-flight fill stamped
//!   below it cannot resurrect the overwritten value.
//!
//! Hit/miss/fill/invalidate/evict traffic is counted per node in a
//! [`CacheTally`], aggregated by `Runtime::cache_summary()`.

use canon_id::NodeId;
use canon_store::{victim_rank, ContentId};
use std::collections::BTreeMap;

/// Tombstones kept per node: one per key with an outstanding invalidation
/// floor. Bounded so a node's memory stays O(capacity) even under a write
/// storm; evicting the smallest key is deterministic and only widens the
/// (already best-effort) stale-fill window for the evicted key.
const TOMBSTONE_CAP: usize = 256;

/// Per-node cache parameters (part of the cluster-wide runtime config).
/// The default capacity is 0: caching off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Entries kept per node. `0` disables en-route caching entirely: no
    /// path accumulation, no fills, no invalidation traffic — the wire
    /// behavior of a cache-free build.
    pub capacity: usize,
}

impl CacheConfig {
    /// A cache of `capacity` entries per node.
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig { capacity }
    }
}

/// Per-node cache counters: one per kind of cache-layer event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// GETs answered from cache.
    pub hits: u64,
    /// GETs that consulted the cache and missed.
    pub misses: u64,
    /// Fills accepted.
    pub fills: u64,
    /// Fills dropped as stale (below an invalidation floor or a cached
    /// newer version).
    pub stale_fills: u64,
    /// Fills dropped because the value failed content-id verification.
    pub corrupt_fills: u64,
    /// Owner invalidations applied.
    pub invalidations: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

/// Cluster-wide cache accounting, aggregated by `Runtime::cache_summary()`.
/// Kept out of the runtime's `Summary` so cached and uncached runs of the
/// same workload still produce byte-identical core summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Entries currently cached across the cluster.
    pub entries: u64,
    /// Aggregated event counters.
    pub tally: CacheTally,
}

/// What [`NodeCache::fill`] did with an offered entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Cached (new entry or refresh of an older same-owner version).
    Accepted,
    /// Dropped: stamped below the key's invalidation floor or below an
    /// already-cached same-owner version.
    Stale,
    /// Dropped: value bytes failed content-id verification.
    Corrupt,
    /// Dropped: the cache is disabled (capacity 0).
    Disabled,
}

#[derive(Clone, Debug)]
struct Entry {
    value: u64,
    /// The owner's write stamp (version) the fill carried.
    stamp: u64,
    /// The responsible node that issued the fill.
    owner: NodeId,
    /// Hops from the owner at fill time — the §4.2 level annotation the
    /// eviction policy keys on.
    level: u32,
    /// LRU tick of the last hit or refresh.
    last_used: u64,
}

/// A bounded, level-annotated, owner-invalidated read cache — one per node
/// actor, consulted on every GET hop.
#[derive(Clone, Debug, Default)]
pub struct NodeCache {
    capacity: usize,
    entries: BTreeMap<u64, Entry>,
    /// Outstanding invalidation floors as key → `(owner, floor)`: fills
    /// from `owner` stamped below `floor` are stale. Cleared by the first
    /// acceptable fill; bounded by [`TOMBSTONE_CAP`].
    tombstones: BTreeMap<u64, (NodeId, u64)>,
    /// LRU tick, advanced on every lookup and fill.
    tick: u64,
    tally: CacheTally,
}

impl NodeCache {
    /// A cache per `cfg` (capacity 0 = disabled).
    pub fn new(cfg: CacheConfig) -> NodeCache {
        NodeCache {
            capacity: cfg.capacity,
            ..NodeCache::default()
        }
    }

    /// Whether caching is enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The event counters accumulated so far.
    pub fn tally(&self) -> CacheTally {
        self.tally
    }

    /// Looks `key` up, bumping its LRU position on a hit. Disabled caches
    /// return `None` without counting a miss, so an uncached run's tally
    /// stays all-zero.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.tally.hits += 1;
                Some(e.value)
            }
            None => {
                self.tally.misses += 1;
                None
            }
        }
    }

    /// Offers a fill. The entry is accepted only if the value bytes hash
    /// to `cid`, the stamp clears any tombstoned invalidation floor for the
    /// same owner, and it is not older than an already-cached same-owner
    /// version. An acceptable fill clears the key's tombstone; a fill from
    /// a *different* owner always supersedes (responsibility moved).
    pub fn fill(
        &mut self,
        key: u64,
        value: u64,
        stamp: u64,
        owner: NodeId,
        cid: u64,
        level: u32,
    ) -> FillOutcome {
        if !self.enabled() {
            return FillOutcome::Disabled;
        }
        if !ContentId::from_raw(cid).verifies(&value.to_le_bytes()) {
            self.tally.corrupt_fills += 1;
            return FillOutcome::Corrupt;
        }
        if let Some(&(t_owner, floor)) = self.tombstones.get(&key) {
            if t_owner == owner && stamp < floor {
                self.tally.stale_fills += 1;
                return FillOutcome::Stale;
            }
            self.tombstones.remove(&key);
        }
        if let Some(e) = self.entries.get(&key) {
            if e.owner == owner && stamp < e.stamp {
                self.tally.stale_fills += 1;
                return FillOutcome::Stale;
            }
        }
        self.tick += 1;
        let entry = Entry {
            value,
            stamp,
            owner,
            level,
            last_used: self.tick,
        };
        if self.entries.insert(key, entry).is_none() && self.entries.len() > self.capacity {
            self.evict(key);
        }
        self.tally.fills += 1;
        FillOutcome::Accepted
    }

    /// Applies an owner invalidation: drops the key's entry (if it is the
    /// invalidating owner's) and tombstones the floor so slower in-flight
    /// fills stamped below it stay out.
    pub fn invalidate(&mut self, key: u64, owner: NodeId, floor: u64) {
        if !self.enabled() {
            return;
        }
        if self
            .entries
            .get(&key)
            .is_some_and(|e| e.owner == owner && e.stamp < floor)
        {
            self.entries.remove(&key);
        }
        self.tombstones.insert(key, (owner, floor));
        if self.tombstones.len() > TOMBSTONE_CAP {
            self.tombstones.pop_first();
        }
        self.tally.invalidations += 1;
    }

    /// Evicts one entry (never the just-inserted `keep`) in canon-store's
    /// §4.2 order ([`victim_rank`]): largest level first — a copy far from
    /// the owner serves only its own locality — then least recently used.
    fn evict(&mut self, keep: u64) {
        let victim = self
            .entries
            .iter()
            .filter(|(&k, _)| k != keep)
            .max_by_key(|(_, e)| victim_rank(e.level, e.last_used))
            .map(|(&k, _)| k);
        if let Some(k) = victim {
            self.entries.remove(&k);
            self.tally.evictions += 1;
        }
    }

    /// The cached entries, sorted by key, as
    /// `(key, value, owner, stamp, level, lru_rank)` — `lru_rank` is the
    /// entry's position in least-recently-used order (0 = coldest), so the
    /// extract is independent of absolute tick values. Used by the model
    /// checker's snapshots and fingerprints.
    pub fn snapshot(&self) -> Vec<(u64, u64, NodeId, u64, u32, u64)> {
        let mut by_use: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|(&k, e)| (e.last_used, k))
            .collect();
        by_use.sort_unstable();
        let rank_of: BTreeMap<u64, u64> = by_use
            .into_iter()
            .enumerate()
            .map(|(rank, (_, k))| (k, rank as u64))
            .collect();
        self.entries
            .iter()
            .map(|(&k, e)| {
                let rank = rank_of.get(&k).copied().unwrap_or(0);
                (k, e.value, e.owner, e.stamp, e.level, rank)
            })
            .collect()
    }

    /// Outstanding tombstones, sorted by key, as `(key, owner, floor)`.
    pub fn tombstones(&self) -> Vec<(u64, NodeId, u64)> {
        self.tombstones
            .iter()
            .map(|(&k, &(owner, floor))| (k, owner, floor))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid_of(value: u64) -> u64 {
        ContentId::of(&value.to_le_bytes()).raw()
    }

    fn filled(cache: &mut NodeCache, key: u64, value: u64, stamp: u64, level: u32) -> FillOutcome {
        cache.fill(key, value, stamp, NodeId::new(1), cid_of(value), level)
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = NodeCache::new(CacheConfig::default());
        assert!(!c.enabled());
        assert_eq!(filled(&mut c, 1, 10, 0, 1), FillOutcome::Disabled);
        assert_eq!(c.lookup(1), None);
        c.invalidate(1, NodeId::new(1), 5);
        assert_eq!(c.tally(), CacheTally::default());
    }

    #[test]
    fn fill_then_hit_then_invalidate() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        assert_eq!(filled(&mut c, 7, 70, 1, 2), FillOutcome::Accepted);
        assert_eq!(c.lookup(7), Some(70));
        assert_eq!(c.lookup(8), None);
        c.invalidate(7, NodeId::new(1), 2);
        assert_eq!(c.lookup(7), None);
        let t = c.tally();
        assert_eq!((t.hits, t.misses, t.fills, t.invalidations), (1, 2, 1, 1));
    }

    #[test]
    fn corrupt_fills_are_dropped() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        let bad_cid = cid_of(999);
        assert_eq!(
            c.fill(7, 70, 1, NodeId::new(1), bad_cid, 1),
            FillOutcome::Corrupt
        );
        assert_eq!(c.lookup(7), None);
        assert_eq!(c.tally().corrupt_fills, 1);
    }

    #[test]
    fn tombstone_blocks_stale_fill_until_fresh_one_arrives() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        c.invalidate(7, NodeId::new(1), 3);
        // A late fill of the overwritten version (stamp 2 < floor 3) must
        // not resurrect it.
        assert_eq!(filled(&mut c, 7, 70, 2, 1), FillOutcome::Stale);
        assert_eq!(c.lookup(7), None);
        // The post-overwrite version clears the tombstone.
        assert_eq!(filled(&mut c, 7, 71, 3, 1), FillOutcome::Accepted);
        assert_eq!(c.lookup(7), Some(71));
        assert!(c.tombstones().is_empty());
    }

    #[test]
    fn different_owner_fill_supersedes_tombstone_and_entry() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        c.invalidate(7, NodeId::new(1), 9);
        // Responsibility moved: the new owner's stamps restart, and its
        // fills must not be judged against the old owner's floor.
        assert_eq!(
            c.fill(7, 77, 0, NodeId::new(2), cid_of(77), 1),
            FillOutcome::Accepted
        );
        assert_eq!(c.lookup(7), Some(77));
    }

    #[test]
    fn same_owner_downgrade_is_stale() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        assert_eq!(filled(&mut c, 7, 71, 3, 1), FillOutcome::Accepted);
        assert_eq!(filled(&mut c, 7, 70, 2, 1), FillOutcome::Stale);
        assert_eq!(c.lookup(7), Some(71));
    }

    #[test]
    fn eviction_prefers_largest_level_then_lru() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(2));
        assert_eq!(filled(&mut c, 1, 10, 0, 1), FillOutcome::Accepted);
        assert_eq!(filled(&mut c, 2, 20, 0, 3), FillOutcome::Accepted);
        // Key 2 has the deepest level; it goes first.
        assert_eq!(filled(&mut c, 3, 30, 0, 2), FillOutcome::Accepted);
        assert_eq!(c.lookup(2), None);
        assert!(c.lookup(1).is_some() && c.lookup(3).is_some());
        // Entries are now 1 (level 1) and 3 (level 2). Another level-2
        // fill evicts key 3: it is the deepest entry apart from the fill
        // itself, which is never its own victim.
        assert_eq!(filled(&mut c, 4, 40, 0, 2), FillOutcome::Accepted);
        assert_eq!(
            c.lookup(3),
            None,
            "deepest level (2) evicted before level 1"
        );
        assert_eq!(c.len(), 2);
        assert!(c.tally().evictions >= 2);
    }

    #[test]
    fn lru_breaks_level_ties() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(2));
        assert_eq!(filled(&mut c, 1, 10, 0, 2), FillOutcome::Accepted);
        assert_eq!(filled(&mut c, 2, 20, 0, 2), FillOutcome::Accepted);
        // Touch key 1: key 2 becomes the LRU victim at the shared level.
        assert_eq!(c.lookup(1), Some(10));
        assert_eq!(filled(&mut c, 3, 30, 0, 2), FillOutcome::Accepted);
        assert_eq!(c.lookup(2), None);
        assert_eq!(c.lookup(1), Some(10));
    }

    #[test]
    fn refresh_does_not_evict() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(2));
        assert_eq!(filled(&mut c, 1, 10, 1, 1), FillOutcome::Accepted);
        assert_eq!(filled(&mut c, 2, 20, 1, 1), FillOutcome::Accepted);
        // Refreshing an existing key at full capacity must not push out
        // its neighbor.
        assert_eq!(filled(&mut c, 1, 11, 2, 1), FillOutcome::Accepted);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(1), Some(11));
        assert_eq!(c.lookup(2), Some(20));
        assert_eq!(c.tally().evictions, 0);
    }

    #[test]
    fn tombstones_stay_bounded() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(2));
        for k in 0..2 * TOMBSTONE_CAP as u64 {
            c.invalidate(k, NodeId::new(1), 1);
        }
        assert_eq!(c.tombstones().len(), TOMBSTONE_CAP);
    }

    #[test]
    fn snapshot_ranks_by_recency_not_absolute_tick() {
        let mut c = NodeCache::new(CacheConfig::with_capacity(4));
        assert_eq!(filled(&mut c, 1, 10, 0, 1), FillOutcome::Accepted);
        assert_eq!(filled(&mut c, 2, 20, 0, 2), FillOutcome::Accepted);
        assert_eq!(c.lookup(1), Some(10));
        let snap = c.snapshot();
        assert_eq!(snap.len(), 2);
        // Key 2 is now the coldest (rank 0); key 1 was just touched.
        assert_eq!(snap[0], (1, 10, NodeId::new(1), 0, 1, 1));
        assert_eq!(snap[1], (2, 20, NodeId::new(1), 0, 2, 0));
    }
}
