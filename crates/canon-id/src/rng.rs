//! Deterministic randomness helpers.
//!
//! Every randomized component in the workspace (identifier assignment,
//! Symphony link draws, hierarchy placement, workload generation) takes an
//! explicit [`Seed`] so experiments are reproducible from printed seeds.

use crate::NodeId;
use rand::{Rng, RngCore, SeedableRng};

/// A 64-bit experiment seed.
///
/// Seeds are combined with component labels via [`Seed::derive`] so that
/// independent components of one experiment draw from decorrelated streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Seed(pub u64);

impl Seed {
    /// Derives a sub-seed for a named component, mixing the label into the
    /// seed with SplitMix64 finalization.
    #[must_use]
    pub fn derive(self, label: &str) -> Seed {
        let mut h = self.0 ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        Seed(splitmix64(h))
    }

    /// Derives a sub-seed from an index (e.g. a trial number).
    #[must_use]
    pub fn derive_index(self, index: u64) -> Seed {
        Seed(splitmix64(
            self.0 ^ splitmix64(index.wrapping_add(0xa076_1d64_78bd_642f)),
        ))
    }

    /// Derives a per-node sub-seed, making a node's random stream a pure
    /// function of `(seed, node)` — independent of the order (or thread)
    /// in which nodes are processed during construction.
    #[must_use]
    pub fn derive_node(self, node: NodeId) -> Seed {
        Seed(splitmix64(
            self.0 ^ splitmix64(node.raw().wrapping_add(0x2545_f491_4f6c_dd1d)),
        ))
    }

    /// Creates a deterministic RNG from this seed.
    pub fn rng(self) -> DetRng {
        DetRng::seed_from_u64(self.0)
    }
}

impl From<u64> for Seed {
    fn from(raw: u64) -> Self {
        Seed(raw)
    }
}

/// The deterministic RNG used throughout the workspace.
///
/// `rand`'s `StdRng` is documented as a reproducible algorithm only within a
/// `rand` major version; that is sufficient here because every result file
/// records the crate versions alongside seeds.
pub type DetRng = rand::rngs::StdRng;

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws `count` distinct node identifiers uniformly at random.
///
/// Collisions are resolved by redrawing; with a 64-bit space and the network
/// sizes of the paper (≤ 65536 nodes) redraws are vanishingly rare.
pub fn random_ids(seed: Seed, count: usize) -> Vec<NodeId> {
    let mut rng = seed.rng();
    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let raw = rng.next_u64();
        if seen.insert(raw) {
            out.push(NodeId::new(raw));
        }
    }
    out
}

/// Draws a clockwise distance from Symphony's harmonic distribution over the
/// identifier circle: the returned fraction of the circle is
/// `exp(ln(n) * (u - 1))` for `u` uniform in `[0, 1)`, i.e. a draw from the
/// pdf `p(x) ∝ 1/x` on `[1/n, 1]` of the unit circle, scaled to `2^64`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn harmonic_distance<R: Rng>(rng: &mut R, n: usize) -> u64 {
    assert!(n >= 2, "harmonic draw needs at least 2 nodes, got {n}");
    let u: f64 = rng.gen();
    let frac = ((n as f64).ln() * (u - 1.0)).exp();
    // frac ∈ [1/n, 1); scale to the 2^64 circle, clamping into [1, 2^64-1].
    let scaled = frac * (u64::MAX as f64);
    (scaled as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let s = Seed(42);
        assert_eq!(s.derive("ids"), s.derive("ids"));
        assert_ne!(s.derive("ids"), s.derive("links"));
        assert_ne!(s.derive("ids"), Seed(43).derive("ids"));
    }

    #[test]
    fn derive_index_distinguishes_trials() {
        let s = Seed(7);
        assert_ne!(s.derive_index(0), s.derive_index(1));
        assert_eq!(s.derive_index(5), s.derive_index(5));
    }

    #[test]
    fn derive_node_is_a_pure_function_of_seed_and_node() {
        let s = Seed(7);
        let a = NodeId::new(123);
        let b = NodeId::new(456);
        assert_eq!(s.derive_node(a), s.derive_node(a));
        assert_ne!(s.derive_node(a), s.derive_node(b));
        assert_ne!(s.derive_node(a), Seed(8).derive_node(a));
        // Decorrelated from the index stream even at equal raw values.
        assert_ne!(s.derive_node(NodeId::new(3)), s.derive_index(3));
    }

    #[test]
    fn random_ids_are_distinct_and_reproducible() {
        let a = random_ids(Seed(1), 1000);
        let b = random_ids(Seed(1), 1000);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 1000);
        assert_ne!(a, random_ids(Seed(2), 1000));
    }

    #[test]
    fn splitmix_is_a_permutation_sample() {
        // Distinct inputs map to distinct outputs on a sample.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn harmonic_distance_respects_bounds() {
        let mut rng = Seed(3).rng();
        let n = 1024;
        for _ in 0..10_000 {
            let d = harmonic_distance(&mut rng, n);
            assert!(d >= 1);
            // Minimum fraction is 1/n of the circle, up to float slack.
            assert!(d as f64 >= (u64::MAX as f64) / (n as f64) * 0.5);
        }
    }

    #[test]
    fn harmonic_distance_is_skewed_small() {
        // The harmonic distribution's median fraction is exp(-ln(n)/2) =
        // 1/sqrt(n), far below the uniform median of 1/2.
        let mut rng = Seed(4).rng();
        let n = 4096;
        let half = u64::MAX / 2;
        let below = (0..10_000)
            .filter(|_| harmonic_distance(&mut rng, n) < half)
            .count();
        assert!(below > 9_000, "only {below} draws below half the circle");
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn harmonic_distance_rejects_tiny_n() {
        let mut rng = Seed(0).rng();
        harmonic_distance(&mut rng, 1);
    }
}
