//! Identifier-space primitives shared by every DHT in this workspace.
//!
//! The paper ("Canon in G Major", ICDCS 2004) works with a circular N-bit
//! identifier space. This crate fixes N = 64: node identifiers and content
//! keys are [`NodeId`]/[`Key`] newtypes over `u64`, distances are exact
//! wrapping arithmetic, and the "whole circle" quantity `2^64` (needed as the
//! infinite own-ring distance of a singleton ring during Canon merging) is
//! representable as [`RingDistance`], a `u128`-backed distance type.
//!
//! The crate also provides:
//!
//! * the two distance [`metric`]s used by the paper's DHT families —
//!   clockwise ring distance (Chord, Symphony) and XOR distance (Kademlia,
//!   CAN in its binary-hypercube form);
//! * [`ring::SortedRing`], a sorted identifier ring supporting the successor
//!   and gap queries from which every static link construction is built;
//! * deterministic, seedable randomness helpers ([`rng`]) so that every
//!   experiment in the repository is reproducible from a printed seed;
//! * content-key hashing ([`hash`]).
//!
//! # Example
//!
//! ```
//! use canon_id::{NodeId, metric::{Metric, Clockwise}};
//!
//! let a = NodeId::new(10);
//! let b = NodeId::new(3);
//! // Clockwise distance wraps around the 2^64 circle.
//! assert_eq!(Clockwise.distance(a, b), (u64::MAX - 10) + 3 + 1);
//! assert_eq!(Clockwise.distance(b, a), 7);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod hash;
pub mod metric;
pub mod ring;
pub mod rng;

use std::fmt;

/// Number of bits in the identifier space (the paper's `N`).
pub const ID_BITS: u32 = 64;

/// The size of the identifier space, `2^64`, as a `u128`.
pub const ID_SPACE: u128 = 1u128 << ID_BITS;

/// A node identifier drawn from the circular 64-bit identifier space.
///
/// Identifiers are compared as plain integers; circular semantics are
/// provided by the [`metric`] module and by [`ring::SortedRing`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Wraps a raw 64-bit value as a node identifier.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The identifier at clockwise offset `d` from `self` (mod `2^64`).
    #[must_use]
    pub const fn offset(self, d: u64) -> Self {
        NodeId(self.0.wrapping_add(d))
    }

    /// Clockwise distance from `self` to `other` on the identifier circle.
    ///
    /// This is zero iff the identifiers are equal, and in `[0, 2^64)`
    /// otherwise; use [`metric::Clockwise`] when a [`metric::Metric`] value
    /// is required.
    pub const fn clockwise_to(self, other: NodeId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// XOR distance between `self` and `other` (the Kademlia metric).
    pub const fn xor_to(self, other: NodeId) -> u64 {
        self.0 ^ other.0
    }

    /// Returns the top `bits` bits of the identifier (its group prefix in
    /// the paper's proximity-adaptation scheme, §3.6).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn prefix(self, bits: u32) -> u64 {
        assert!(bits <= ID_BITS, "prefix length {bits} exceeds {ID_BITS}");
        if bits == 0 {
            0
        } else {
            self.0 >> (ID_BITS - bits)
        }
    }

    /// Returns the bit at position `i`, counting the most-significant bit as
    /// position 0 (the convention used by prefix-tree constructions).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn bit(self, i: u32) -> bool {
        assert!(i < ID_BITS, "bit index {i} out of range");
        (self.0 >> (ID_BITS - 1 - i)) & 1 == 1
    }

    /// Returns the identifier with bit `i` flipped (MSB-first indexing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub fn flip_bit(self, i: u32) -> Self {
        assert!(i < ID_BITS, "bit index {i} out of range");
        NodeId(self.0 ^ (1u64 << (ID_BITS - 1 - i)))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:#018x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// A content key hashed into the same circular identifier space as nodes.
///
/// Keys and node identifiers share the space so that "the node responsible
/// for a key" is well defined; they are distinct types so that APIs cannot
/// confuse the two roles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(u64);

impl Key {
    /// Wraps a raw 64-bit value as a key.
    pub const fn new(raw: u64) -> Self {
        Key(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Views the key as a point on the identifier circle.
    pub const fn as_point(self) -> NodeId {
        NodeId(self.0)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:#018x})", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key(raw)
    }
}

impl From<Key> for u64 {
    fn from(key: Key) -> Self {
        key.0
    }
}

/// A distance on the identifier circle that can also represent the full
/// circle `2^64`.
///
/// During Canon merging (paper §2.1, condition (b)) each node compares
/// candidate link distances against the distance to the closest node in its
/// own ring. When the node is alone in its ring that bound is the whole
/// circle, which does not fit in `u64`; `RingDistance` makes the sentinel
/// explicit instead of overloading `u64::MAX` (which is itself a valid
/// distance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RingDistance(u128);

impl RingDistance {
    /// The zero distance.
    pub const ZERO: RingDistance = RingDistance(0);

    /// The full circle, `2^64` — strictly larger than any node-to-node
    /// distance.
    pub const FULL_CIRCLE: RingDistance = RingDistance(ID_SPACE);

    /// Wraps an exact `u64` distance.
    pub const fn from_u64(d: u64) -> Self {
        RingDistance(d as u128)
    }

    /// Returns the distance as a `u128` (always `<= 2^64`).
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Whether this is the full-circle sentinel.
    pub const fn is_full_circle(self) -> bool {
        self.0 == ID_SPACE
    }
}

impl fmt::Display for RingDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full_circle() {
            write!(f, "2^64")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<u64> for RingDistance {
    fn from(d: u64) -> Self {
        RingDistance::from_u64(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clockwise_distance_wraps() {
        let a = NodeId::new(u64::MAX - 1);
        let b = NodeId::new(2);
        assert_eq!(a.clockwise_to(b), 4);
        assert_eq!(b.clockwise_to(a), u64::MAX - 3);
    }

    #[test]
    fn clockwise_distance_zero_iff_equal() {
        let a = NodeId::new(42);
        assert_eq!(a.clockwise_to(a), 0);
        assert_ne!(a.clockwise_to(NodeId::new(43)), 0);
    }

    #[test]
    fn offset_round_trips_distance() {
        let a = NodeId::new(0xdead_beef_dead_beef);
        let d = 0x1234_5678_9abc_def0;
        assert_eq!(a.clockwise_to(a.offset(d)), d);
    }

    #[test]
    fn xor_distance_is_symmetric() {
        let a = NodeId::new(0xff00);
        let b = NodeId::new(0x0ff0);
        assert_eq!(a.xor_to(b), b.xor_to(a));
        assert_eq!(a.xor_to(a), 0);
    }

    #[test]
    fn prefix_extracts_top_bits() {
        let id = NodeId::new(0xabcd_0000_0000_0000);
        assert_eq!(id.prefix(0), 0);
        assert_eq!(id.prefix(4), 0xa);
        assert_eq!(id.prefix(16), 0xabcd);
        assert_eq!(id.prefix(64), 0xabcd_0000_0000_0000);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn prefix_rejects_oversized_length() {
        NodeId::new(0).prefix(65);
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let id = NodeId::new(1u64 << 63);
        assert!(id.bit(0));
        assert!(!id.bit(1));
        assert!(!id.bit(63));
        let low = NodeId::new(1);
        assert!(low.bit(63));
        assert!(!low.bit(0));
    }

    #[test]
    fn flip_bit_is_involutive() {
        let id = NodeId::new(0x0123_4567_89ab_cdef);
        for i in [0u32, 1, 31, 63] {
            assert_ne!(id.flip_bit(i), id);
            assert_eq!(id.flip_bit(i).flip_bit(i), id);
        }
    }

    #[test]
    fn ring_distance_ordering_and_sentinel() {
        let small = RingDistance::from_u64(10);
        let max = RingDistance::from_u64(u64::MAX);
        assert!(small < max);
        assert!(max < RingDistance::FULL_CIRCLE);
        assert!(RingDistance::FULL_CIRCLE.is_full_circle());
        assert!(!max.is_full_circle());
        assert_eq!(RingDistance::ZERO, RingDistance::from_u64(0));
    }

    #[test]
    fn ring_distance_display() {
        assert_eq!(RingDistance::from_u64(7).to_string(), "7");
        assert_eq!(RingDistance::FULL_CIRCLE.to_string(), "2^64");
    }

    #[test]
    fn key_as_point_preserves_value() {
        let k = Key::new(77);
        assert_eq!(k.as_point(), NodeId::new(77));
        assert_eq!(u64::from(k), 77);
        assert_eq!(Key::from(77u64), k);
    }

    #[test]
    fn node_id_formatting_is_nonempty() {
        let id = NodeId::new(0);
        assert!(!format!("{id:?}").is_empty());
        assert!(!id.to_string().is_empty());
        assert_eq!(format!("{id:x}"), "0");
        assert_eq!(format!("{:b}", NodeId::new(5)), "101");
    }
}
