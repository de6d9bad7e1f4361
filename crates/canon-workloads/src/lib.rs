//! Workload generators for DHT experiments.
//!
//! The paper's evaluation workloads are simple (uniform random pairs); the
//! claims it makes about caching and locality (§4.2, §5.3) only pay off
//! under *skewed, local* access patterns. This crate provides the seeded
//! generators the experiment harness and examples draw those workloads
//! from:
//!
//! * [`ZipfKeys`] — key popularity following a Zipf distribution (web-style
//!   request skew);
//! * [`FlashCrowd`] — a Zipf stream where one mid-tail key spikes to a
//!   fixed share of all draws inside a positional request window, the
//!   hot-spot workload behind the flash-crowd caching experiments;
//! * [`LocalityQueries`] — query streams where a tunable fraction of
//!   queries target keys "owned" by the querier's own domain at a chosen
//!   level, the access pattern hierarchical caching exploits.
//!
//! # Example
//!
//! ```
//! use canon_id::rng::Seed;
//! use canon_workloads::ZipfKeys;
//!
//! let keys = ZipfKeys::new(1000, 1.0, Seed(1));
//! let mut rng = Seed(2).rng();
//! let popular = (0..100).filter(|_| keys.draw(&mut rng) == keys.key(0)).count();
//! assert!(popular >= 5, "rank-0 key should dominate a Zipf(1.0) stream");
//! ```

#![forbid(unsafe_code)]

use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::{hash::hash_name, rng::Seed, Key, NodeId};
use rand::Rng;

/// A fixed universe of keys drawn with Zipf(`s`) popularity: the `k`-th
/// most popular key has probability proportional to `1/(k+1)^s`.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    keys: Vec<Key>,
    /// Cumulative probability per rank.
    cdf: Vec<f64>,
}

impl ZipfKeys {
    /// Creates `count` keys with exponent `s` (`s = 0` is uniform; web
    /// workloads are typically `s ≈ 0.7–1.2`).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `s` is negative or not finite.
    pub fn new(count: usize, s: f64, seed: Seed) -> Self {
        assert!(count > 0, "a key universe needs at least one key");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let keys = (0..count)
            .map(|i| hash_name(&format!("zipf-{}-{i}", seed.derive("zipf").0)))
            .collect();
        let weights: Vec<f64> = (0..count).map(|k| ((k + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfKeys { keys, cdf }
    }

    /// Number of keys in the universe.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// A key universe is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The key at popularity rank `r` (0 = most popular).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn key(&self, r: usize) -> Key {
        self.keys[r]
    }

    /// Draws a key according to the popularity distribution.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> Key {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.keys[idx.min(self.keys.len() - 1)]
    }

    /// The probability mass of popularity rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn probability(&self, r: usize) -> f64 {
        let below = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - below
    }
}

/// A flash-crowd request stream: a base Zipf(`s`) stream over a fixed key
/// universe, except that inside the positional request window
/// `[window_start, window_start + window_len)` a single mid-popularity
/// "hot" key absorbs `spike_share` of every draw — the sudden
/// many-hundred-fold demand amplification ("Slashdot effect") that §4.2's
/// en-route caching is meant to absorb.
///
/// The spike is a function of the *request index*, not of wall time, so a
/// trace is reproducible draw-for-draw from `(seed, index)` alone and two
/// harnesses replaying the same indices agree on where the crowd hits.
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    base: ZipfKeys,
    hot_rank: usize,
    window_start: u64,
    window_end: u64,
    spike_share: f64,
}

impl FlashCrowd {
    /// Builds the stream: `count` keys with base Zipf exponent `s`; the
    /// key at popularity rank `hot_rank` spikes to `spike_share` of all
    /// draws for request indices in
    /// `[window_start, window_start + window_len)`.
    ///
    /// Pick a mid-tail `hot_rank` (the default experiments use
    /// `count / 2`) so the spike is a genuine amplification — see
    /// [`FlashCrowd::amplification`].
    ///
    /// # Panics
    ///
    /// Panics if `hot_rank` is out of range or `spike_share` is not a
    /// probability (plus [`ZipfKeys::new`]'s own requirements).
    pub fn new(
        count: usize,
        s: f64,
        hot_rank: usize,
        window_start: u64,
        window_len: u64,
        spike_share: f64,
        seed: Seed,
    ) -> Self {
        let base = ZipfKeys::new(count, s, seed);
        assert!(hot_rank < base.len(), "hot rank out of range");
        assert!(
            (0.0..=1.0).contains(&spike_share),
            "spike share must be a probability"
        );
        FlashCrowd {
            base,
            hot_rank,
            window_start,
            window_end: window_start.saturating_add(window_len),
            spike_share,
        }
    }

    /// The base (off-window) popularity distribution.
    pub fn base(&self) -> &ZipfKeys {
        &self.base
    }

    /// The key that goes hot during the window.
    pub fn hot_key(&self) -> Key {
        self.base.key(self.hot_rank)
    }

    /// Whether request index `i` falls inside the flash-crowd window.
    pub fn in_spike(&self, i: u64) -> bool {
        (self.window_start..self.window_end).contains(&i)
    }

    /// How many times more popular the hot key is inside the window than
    /// its baseline: `spike_share / base probability of hot_rank`.
    pub fn amplification(&self) -> f64 {
        self.spike_share / self.base.probability(self.hot_rank)
    }

    /// Draws the key for request index `i`: the hot key with probability
    /// `spike_share` inside the window, the base Zipf draw otherwise.
    pub fn draw_at<R: Rng>(&self, i: u64, rng: &mut R) -> Key {
        if self.in_spike(i) && rng.gen_bool(self.spike_share) {
            return self.hot_key();
        }
        self.base.draw(rng)
    }
}

/// One query of a locality stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// The querying node.
    pub querier: NodeId,
    /// The key queried.
    pub key: Key,
    /// Whether the generator drew this as a domain-local query.
    pub local: bool,
}

/// A query stream with tunable locality of access (§4.2's premise: "if
/// nodes exhibit locality of access, it is likely that the same key queried
/// by a node would be queried by other nodes close to it").
///
/// Each domain at `locality_depth` owns a slice of the key universe; a
/// query is *local* with probability `locality`, drawing its key from the
/// querier's own domain slice (Zipf-skewed within the slice), otherwise
/// from a uniformly random other domain's slice.
#[derive(Clone, Debug)]
pub struct LocalityQueries {
    queriers: Vec<(NodeId, usize)>, // node, domain slot
    slices: Vec<ZipfKeys>,          // per domain slot
    locality: f64,
}

impl LocalityQueries {
    /// Builds the stream over `placement`: domains at `locality_depth`
    /// define the slices; `keys_per_domain` keys per slice with Zipf
    /// exponent `s`; a query is local with probability `locality`.
    ///
    /// # Panics
    ///
    /// Panics if `locality` is outside `[0, 1]`, `keys_per_domain == 0`, or
    /// the placement is empty.
    pub fn new(
        hierarchy: &Hierarchy,
        placement: &Placement,
        locality_depth: u32,
        keys_per_domain: usize,
        s: f64,
        locality: f64,
        seed: Seed,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&locality),
            "locality must be a probability"
        );
        assert!(!placement.is_empty(), "need at least one querier");
        // Stable slot per distinct domain at the locality depth.
        let mut domains: Vec<DomainId> = Vec::new();
        let mut queriers = Vec::with_capacity(placement.len());
        for (id, leaf) in placement.iter() {
            let d = hierarchy.ancestor_at_depth(leaf, locality_depth.min(hierarchy.depth(leaf)));
            let slot = match domains.iter().position(|&x| x == d) {
                Some(i) => i,
                None => {
                    domains.push(d);
                    domains.len() - 1
                }
            };
            queriers.push((id, slot));
        }
        let slices = (0..domains.len())
            .map(|i| {
                ZipfKeys::new(
                    keys_per_domain,
                    s,
                    seed.derive("slice").derive_index(i as u64),
                )
            })
            .collect();
        LocalityQueries {
            queriers,
            slices,
            locality,
        }
    }

    /// Number of distinct domain slices.
    pub fn domain_count(&self) -> usize {
        self.slices.len()
    }

    /// The key slice owned by domain slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slice(&self, i: usize) -> &ZipfKeys {
        &self.slices[i]
    }

    /// Draws the next query. Non-local queries target a uniformly random
    /// domain's slice (cross-domain access to remote content).
    pub fn draw<R: Rng>(&self, rng: &mut R) -> Query {
        let (querier, slot) = self.queriers[rng.gen_range(0..self.queriers.len())];
        let local = rng.gen_bool(self.locality);
        let source = if local {
            slot
        } else {
            rng.gen_range(0..self.slices.len())
        };
        Query {
            querier,
            key: self.slices[source].draw(rng),
            local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_hierarchy::Hierarchy;

    #[test]
    fn zipf_skew_orders_popularity() {
        let keys = ZipfKeys::new(100, 1.0, Seed(1));
        let mut rng = Seed(2).rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            let k = keys.draw(&mut rng);
            let rank = (0..100).find(|&r| keys.key(r) == k).expect("known key");
            counts[rank] += 1;
        }
        assert!(
            counts[0] > counts[10] && counts[10] > counts[50],
            "counts {counts:?}"
        );
        // Rank 0 of Zipf(1.0) over 100 keys carries ~1/H(100) ≈ 19%.
        assert!(counts[0] > 2_000, "rank-0 share too small: {}", counts[0]);
        assert_eq!(keys.len(), 100);
        assert!(!keys.is_empty());
    }

    #[test]
    fn zipf_zero_is_roughly_uniform() {
        let keys = ZipfKeys::new(10, 0.0, Seed(3));
        let mut rng = Seed(4).rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            let k = keys.draw(&mut rng);
            let rank = (0..10).find(|&r| keys.key(r) == k).expect("known key");
            counts[rank] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_universe_rejected() {
        ZipfKeys::new(0, 1.0, Seed(0));
    }

    #[test]
    fn flash_crowd_spikes_only_inside_the_window() {
        let wl = FlashCrowd::new(256, 1.0, 128, 1_000, 500, 0.9, Seed(20));
        let mut rng = Seed(21).rng();
        let hot = wl.hot_key();
        let hot_before = (0..1_000)
            .filter(|&i| wl.draw_at(i, &mut rng) == hot)
            .count();
        let hot_during = (1_000..1_500)
            .filter(|&i| wl.draw_at(i, &mut rng) == hot)
            .count();
        let hot_after = (1_500..2_500)
            .filter(|&i| wl.draw_at(i, &mut rng) == hot)
            .count();
        // Baseline share of rank 128 under Zipf(1.0) is ~0.13%; during
        // the window it is 90%.
        assert!(hot_before < 20, "pre-window hot count {hot_before}");
        assert!(hot_during > 400, "in-window hot count {hot_during}");
        assert!(hot_after < 20, "post-window hot count {hot_after}");
        assert!(
            wl.amplification() > 100.0,
            "amplification {} too tame for a flash crowd",
            wl.amplification()
        );
        assert!(wl.in_spike(1_000) && wl.in_spike(1_499));
        assert!(!wl.in_spike(999) && !wl.in_spike(1_500));
    }

    #[test]
    fn flash_crowd_traces_are_reproducible() {
        let draw_all = || {
            let wl = FlashCrowd::new(64, 0.9, 32, 10, 20, 0.95, Seed(22));
            let mut rng = Seed(23).rng();
            (0..200)
                .map(|i| wl.draw_at(i, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_all(), draw_all());
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let keys = ZipfKeys::new(50, 1.2, Seed(24));
        let total: f64 = (0..50).map(|r| keys.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(keys.probability(0) > keys.probability(49));
    }

    #[test]
    fn locality_stream_respects_probability() {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 200, Seed(5));
        let wl = LocalityQueries::new(&h, &p, 1, 50, 0.8, 0.9, Seed(6));
        assert_eq!(wl.domain_count(), 4);
        let mut rng = Seed(7).rng();
        let local = (0..5_000).filter(|_| wl.draw(&mut rng).local).count();
        assert!((4_200..4_800).contains(&local), "local {local}");
    }

    #[test]
    fn local_queries_use_the_domain_slice() {
        let h = Hierarchy::balanced(3, 2);
        let p = Placement::uniform(&h, 90, Seed(8));
        let wl = LocalityQueries::new(&h, &p, 1, 20, 1.0, 1.0, Seed(9));
        let mut rng = Seed(10).rng();
        for _ in 0..200 {
            let q = wl.draw(&mut rng);
            assert!(q.local);
            // The key must be in one of the slices — specifically the
            // querier's; membership in any slice suffices for this check.
            let hit = (0..wl.domain_count())
                .any(|i| (0..wl.slice(i).len()).any(|r| wl.slice(i).key(r) == q.key));
            assert!(hit, "local key not from any slice");
        }
    }
}
