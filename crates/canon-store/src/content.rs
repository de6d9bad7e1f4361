//! Content addressing on the 64-bit identifier space.
//!
//! Every value handed to a [`crate::StorageBackend`] is addressed by a
//! [`ContentId`]: the workspace content hash ([`canon_id::hash::hash_bytes`])
//! of its byte encoding, a point on the same 64-bit circle as node
//! identifiers and keys. The id buys the storage stack **integrity**: every
//! read recomputes the hash and compares it against the id recorded at
//! write time, so a corrupted value (bit rot in a log file) surfaces as
//! [`crate::BackendError::Corrupt`] instead of silently wrong data.

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
}
