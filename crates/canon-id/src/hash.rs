//! Content-key hashing into the identifier space.
//!
//! DHTs store key–value pairs by hashing the application key into the same
//! circular space as node identifiers (paper §4.1). We use FNV-1a with a
//! SplitMix64 finalizer: a small, dependency-free hash whose avalanche
//! behaviour is more than adequate for load-spreading (it is *not* meant to
//! resist adversarial key choice; the paper does not consider that threat).

use crate::rng::splitmix64;
use crate::Key;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a, finished with a SplitMix64 round: the hash
/// behind [`hash_bytes`], for callers that feed a value piece by piece.
/// Hand-rolled, so a value hashes the same in every process and on every
/// std version.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds `w` as its eight little-endian bytes.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The finished hash.
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

/// Hashes arbitrary bytes to a [`Key`] on the identifier circle.
pub fn hash_bytes(bytes: &[u8]) -> Key {
    let mut h = Fnv::default();
    h.bytes(bytes);
    Key::new(h.finish())
}

/// Hashes a UTF-8 name to a [`Key`]; convenience wrapper over [`hash_bytes`].
pub fn hash_name(name: &str) -> Key {
    hash_bytes(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_name("canon"), hash_name("canon"));
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let keys: std::collections::HashSet<u64> = (0..50_000u32)
            .map(|i| hash_name(&format!("key-{i}")).raw())
            .collect();
        assert_eq!(keys.len(), 50_000);
    }

    #[test]
    fn keys_spread_over_the_circle() {
        // Bucket 10k hashed keys into 16 equal arcs; each arc should hold a
        // nontrivial share (loose bound: within 3x of fair share).
        let mut buckets = [0usize; 16];
        for i in 0..10_000u32 {
            let k = hash_name(&format!("spread-{i}"));
            buckets[(k.raw() >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 10_000 / 16 / 3, "arc {i} underfull: {b}");
            assert!(b < 10_000 / 16 * 3, "arc {i} overfull: {b}");
        }
    }

    #[test]
    fn empty_input_is_valid() {
        let _ = hash_bytes(&[]);
        assert_eq!(hash_bytes(&[]), hash_name(""));
    }
}
