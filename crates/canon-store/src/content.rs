//! Content addressing on the 64-bit identifier space.
//!
//! Every value handed to a [`crate::StorageBackend`] is addressed by a
//! [`ContentId`]: the workspace content hash ([`canon_id::hash::hash_bytes`])
//! of its byte encoding, a point on the same 64-bit circle as node
//! identifiers and keys. Content ids buy the storage stack two properties
//! for free:
//!
//! * **integrity** — every read recomputes the hash and compares it against
//!   the id recorded at write time, so a corrupted blob (bit rot in a log
//!   file, a bad remote round trip) surfaces as
//!   [`crate::BackendError::Corrupt`] instead of silently wrong data;
//! * **dedup** — backends key their blob storage by content id, so storing
//!   the same bytes under many keys (or many replicas of the same item on
//!   one node) costs one copy.
//!
//! [`BlobValue`] is the tiny codec trait that lets typed stores (notably
//! [`crate::ReplicatedStore`]) move their values through byte-addressed
//! backends.

use canon_id::hash::hash_bytes;
use std::fmt;

/// The content address of a byte string: its hash on the 64-bit circle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentId(u64);

impl ContentId {
    /// The content id of `bytes`.
    pub fn of(bytes: &[u8]) -> ContentId {
        ContentId(hash_bytes(bytes).raw())
    }

    /// Wraps a raw 64-bit value as a content id (for decoding stored
    /// metadata; use [`ContentId::of`] when the bytes are at hand).
    pub const fn from_raw(raw: u64) -> ContentId {
        ContentId(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether `bytes` hashes to this id — the per-read integrity check.
    pub fn verifies(self, bytes: &[u8]) -> bool {
        ContentId::of(bytes) == self
    }
}

impl fmt::Debug for ContentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentId({:#018x})", self.0)
    }
}

impl fmt::Display for ContentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A value that can round-trip through a byte-addressed
/// [`crate::StorageBackend`].
///
/// `from_bytes` must invert `to_bytes` exactly; the backends rely on the
/// encoding being canonical (equal values encode to equal bytes) for
/// content-addressed dedup to see through type boundaries.
pub trait BlobValue: Clone {
    /// The canonical byte encoding of this value.
    fn to_bytes(&self) -> Vec<u8>;
    /// Decodes a value from its canonical encoding, or `None` if the bytes
    /// are not a valid encoding.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

macro_rules! int_blob_value {
    ($($t:ty),*) => {$(
        impl BlobValue for $t {
            fn to_bytes(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
            fn from_bytes(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_blob_value!(u8, u16, u32, u64, i32, i64);

impl BlobValue for usize {
    fn to_bytes(&self) -> Vec<u8> {
        (*self as u64).to_le_bytes().to_vec()
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        u64::from_bytes(bytes).map(|v| v as usize)
    }
}

impl BlobValue for String {
    fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl BlobValue for Vec<u8> {
    fn to_bytes(&self) -> Vec<u8> {
        self.clone()
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_ids_are_deterministic_and_sensitive() {
        let a = ContentId::of(b"hello");
        assert_eq!(a, ContentId::of(b"hello"));
        assert!(a.verifies(b"hello"));
        assert!(!a.verifies(b"hellO"));
        assert_ne!(a, ContentId::of(b"hello "));
    }

    #[test]
    fn blob_codecs_roundtrip() {
        assert_eq!(u64::from_bytes(&7u64.to_bytes()), Some(7));
        assert_eq!(i32::from_bytes(&(-3i32).to_bytes()), Some(-3));
        assert_eq!(usize::from_bytes(&41usize.to_bytes()), Some(41));
        let s = "döc".to_owned();
        assert_eq!(String::from_bytes(&s.to_bytes()), Some(s));
        let v = vec![1u8, 2, 3];
        assert_eq!(Vec::<u8>::from_bytes(&v.to_bytes()), Some(v));
        // Wrong widths are rejected, not mangled.
        assert_eq!(u64::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn equal_values_share_a_content_id_across_keys() {
        // The dedup property rests on this: the id is a pure function of
        // the encoded bytes, independent of the key it is stored under.
        let x = 99u64.to_bytes();
        let y = 99u64.to_bytes();
        assert_eq!(ContentId::of(&x), ContentId::of(&y));
    }
}
