//! Pluggable storage backends.
//!
//! A [`StorageBackend`] is the byte-level store a live node keeps its
//! slice of the key space in (canon-node's `Shard`). The trait is
//! deliberately small — `put`/`get`/`delete`/`scan`/`usage`/`flush` — so
//! the shard stays agnostic to where bytes actually live. All backends are
//! content-addressed (see [`crate::content`]): `put` returns the
//! [`ContentId`] of the stored bytes, `get` re-verifies it on every read,
//! and identical values stored under different keys share one physical
//! blob.
//!
//! Two implementations ship with the workspace:
//!
//! * [`MemoryBackend`] — ordered in-memory maps; the default everywhere and
//!   the oracle the file backend is tested against.
//! * [`FileBackend`] — an append-only log plus an in-memory index, the
//!   classic bitcask shape. Recovery replays the log and truncates a torn
//!   tail, so a crash between `flush` calls loses at most the unsynced
//!   suffix, never previously synced records: a corrupt record with a
//!   sound record behind it is an error, not a tail.

use crate::content::ContentId;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Errors surfaced by a storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A blob failed its content-id integrity check on read.
    Corrupt {
        /// The key whose read failed verification.
        key: u64,
        /// The content id recorded at write time.
        expected: ContentId,
        /// The content id of the bytes actually read back.
        actual: ContentId,
    },
    /// An I/O failure (file backends) described by its error text.
    Io(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Corrupt {
                key,
                expected,
                actual,
            } => write!(
                f,
                "integrity failure on key {key:#x}: stored as {expected}, read back as {actual}"
            ),
            BackendError::Io(e) => write!(f, "backend i/o error: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<std::io::Error> for BackendError {
    fn from(e: std::io::Error) -> Self {
        BackendError::Io(e.to_string())
    }
}

/// A verified read result: the bytes plus the content id they hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stored {
    /// Content id of `bytes` (re-verified by the backend before returning).
    pub id: ContentId,
    /// The stored value bytes.
    pub bytes: Vec<u8>,
}

/// Space accounting for one backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Number of live keys.
    pub keys: usize,
    /// Number of distinct physical blobs (≤ `keys` thanks to dedup).
    pub blobs: usize,
    /// Bytes the keys reference logically (sum of value sizes per key).
    pub logical_bytes: u64,
    /// Bytes physically held after dedup (sum of distinct blob sizes).
    pub unique_bytes: u64,
}

/// A byte-level, content-addressed key/value shard.
///
/// `get` takes `&mut self` because real backends move state to read (a file
/// backend seeks).
pub trait StorageBackend: fmt::Debug + Send {
    /// Stores `bytes` under `key`, returning their content id. Overwrites
    /// any previous value for the key.
    fn put(&mut self, key: u64, bytes: &[u8]) -> Result<ContentId, BackendError>;

    /// Reads the value stored under `key`, verifying its content id.
    /// Returns `Ok(None)` when the key is absent.
    fn get(&mut self, key: u64) -> Result<Option<Stored>, BackendError>;

    /// Removes `key`; returns whether it was present.
    fn delete(&mut self, key: u64) -> Result<bool, BackendError>;

    /// All live `(key, content id)` pairs in ascending key order.
    fn scan(&self) -> Vec<(u64, ContentId)>;

    /// Space accounting.
    fn usage(&self) -> Usage;

    /// Makes previously acknowledged writes durable (no-op for volatile
    /// backends).
    fn flush(&mut self) -> Result<(), BackendError>;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The in-memory backend: ordered maps, content-addressed blob table with
/// reference counts for dedup.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    index: BTreeMap<u64, ContentId>,
    blobs: BTreeMap<ContentId, (Vec<u8>, usize)>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    fn release(&mut self, id: ContentId) {
        if let Some((_, refs)) = self.blobs.get_mut(&id) {
            *refs -= 1;
            if *refs == 0 {
                self.blobs.remove(&id);
            }
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&mut self, key: u64, bytes: &[u8]) -> Result<ContentId, BackendError> {
        let id = ContentId::of(bytes);
        if let Some(old) = self.index.insert(key, id) {
            if old == id {
                return Ok(id);
            }
            self.release(old);
        }
        self.blobs
            .entry(id)
            .and_modify(|(_, refs)| *refs += 1)
            .or_insert_with(|| (bytes.to_vec(), 1));
        Ok(id)
    }

    fn get(&mut self, key: u64) -> Result<Option<Stored>, BackendError> {
        let Some(&id) = self.index.get(&key) else {
            return Ok(None);
        };
        // A dangling index entry is store corruption: report it as a
        // content mismatch against the empty blob rather than aborting.
        let Some((bytes, _)) = self.blobs.get(&id).cloned() else {
            return Err(BackendError::Corrupt {
                key,
                expected: id,
                actual: ContentId::of(&[]),
            });
        };
        let actual = ContentId::of(&bytes);
        if actual != id {
            return Err(BackendError::Corrupt {
                key,
                expected: id,
                actual,
            });
        }
        Ok(Some(Stored { id, bytes }))
    }

    fn delete(&mut self, key: u64) -> Result<bool, BackendError> {
        match self.index.remove(&key) {
            Some(id) => {
                self.release(id);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn scan(&self) -> Vec<(u64, ContentId)> {
        self.index.iter().map(|(&k, &id)| (k, id)).collect()
    }

    fn usage(&self) -> Usage {
        let logical: u64 = self
            .index
            .values()
            .map(|id| self.blobs[id].0.len() as u64)
            .sum();
        let unique: u64 = self.blobs.values().map(|(b, _)| b.len() as u64).sum();
        Usage {
            keys: self.index.len(),
            blobs: self.blobs.len(),
            logical_bytes: logical,
            unique_bytes: unique,
        }
    }

    fn flush(&mut self) -> Result<(), BackendError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File backend: append-only log + in-memory index
// ---------------------------------------------------------------------------

const TAG_PUT: u8 = 1;
const TAG_REF: u8 = 2;
const TAG_DEL: u8 = 3;

#[derive(Debug, Clone, Copy)]
struct BlobRef {
    offset: u64,
    len: u32,
    refs: usize,
}

/// One log record body, parsed.
enum Record<'a> {
    Put {
        key: u64,
        id: ContentId,
        bytes: &'a [u8],
    },
    Ref {
        key: u64,
        id: ContentId,
    },
    Del {
        key: u64,
    },
}

/// The body of the record at `pos`, when its length prefix and body are
/// complete and the body is not empty.
fn record_at(raw: &[u8], pos: usize) -> Option<&[u8]> {
    let len = u32::from_le_bytes(raw.get(pos..pos + 4)?.try_into().ok()?) as usize;
    raw.get(pos + 4..(pos + 4).checked_add(len)?)
        .filter(|body| !body.is_empty())
}

/// Parses a non-empty record body. A `PUT` whose bytes fail their content
/// id is [`BackendError::Corrupt`]; an unknown tag, or a body too short for
/// its tag, is malformed.
fn parse_record(body: &[u8]) -> Result<Record<'_>, BackendError> {
    let word = |at: usize| {
        body.get(at..at + 8)
            .and_then(|w| w.try_into().ok())
            .map(u64::from_le_bytes)
    };
    let malformed = || BackendError::Io(format!("malformed log record with tag {}", body[0]));
    let key = word(1).ok_or_else(malformed)?;
    if body[0] == TAG_DEL {
        return Ok(Record::Del { key });
    }
    let id = ContentId::from_raw(word(9).ok_or_else(malformed)?);
    match body[0] {
        TAG_REF => Ok(Record::Ref { key, id }),
        TAG_PUT => {
            let bytes = &body[17..];
            let actual = ContentId::of(bytes);
            if actual != id {
                return Err(BackendError::Corrupt {
                    key,
                    expected: id,
                    actual,
                });
            }
            Ok(Record::Put { key, id, bytes })
        }
        _ => Err(malformed()),
    }
}

/// Append-only log backend (bitcask shape): every mutation appends a
/// length-prefixed record; an in-memory index maps keys to content ids and
/// content ids to log offsets. Dedup writes a small `REF` record instead of
/// re-appending the bytes. `open` replays the log, verifying every blob's
/// content id, and truncates a torn tail so that a crash can only lose the
/// unsynced suffix; a corrupt record inside the log fails `open`.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    file: File,
    end: u64,
    index: BTreeMap<u64, ContentId>,
    blobs: BTreeMap<ContentId, BlobRef>,
}

impl FileBackend {
    /// Opens (or creates) the log at `path`, replaying existing records.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileBackend, BackendError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut backend = FileBackend {
            path,
            file,
            end: 0,
            index: BTreeMap::new(),
            blobs: BTreeMap::new(),
        };
        backend.replay()?;
        Ok(backend)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replays the log into the in-memory index. A torn tail — an
    /// incomplete record, or a bad final one — is truncated; a bad record
    /// with a sound record behind it is damage inside the synced log, so it
    /// is returned as an error and nothing is truncated.
    fn replay(&mut self) -> Result<(), BackendError> {
        let mut raw = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut raw)?;
        let mut pos = 0usize;
        while let Some(body) = record_at(&raw, pos) {
            let next = pos + 4 + body.len();
            if let Err(e) = parse_record(body).and_then(|r| self.apply(r, pos as u64 + 4)) {
                if record_at(&raw, next).is_some_and(|b| parse_record(b).is_ok()) {
                    return Err(e);
                }
                break;
            }
            pos = next;
        }
        if pos < raw.len() {
            // Drop the torn tail so future appends start from a clean state.
            self.file.set_len(pos as u64)?;
        }
        self.end = pos as u64;
        self.file.seek(SeekFrom::Start(self.end))?;
        Ok(())
    }

    /// Applies one replayed record. A `REF` to a blob the index does not
    /// hold is corruption, reported (as `MemoryBackend` reports a dangling
    /// index entry) as a mismatch against the empty blob.
    fn apply(&mut self, record: Record<'_>, body_offset: u64) -> Result<(), BackendError> {
        match record {
            Record::Put { key, id, bytes } => self.link(
                key,
                id,
                BlobRef {
                    offset: body_offset + 17,
                    len: bytes.len() as u32,
                    refs: 0,
                },
            ),
            Record::Ref { key, id } => {
                let Some(&blob) = self.blobs.get(&id) else {
                    return Err(BackendError::Corrupt {
                        key,
                        expected: id,
                        actual: ContentId::of(&[]),
                    });
                };
                self.link(key, id, blob);
            }
            Record::Del { key } => {
                if let Some(old) = self.index.remove(&key) {
                    self.release(old);
                }
            }
        }
        Ok(())
    }

    /// Points `key` at blob `id`, adjusting reference counts. `blob` is the
    /// location to record if the id is new.
    fn link(&mut self, key: u64, id: ContentId, blob: BlobRef) {
        if let Some(old) = self.index.insert(key, id) {
            if old == id {
                return;
            }
            self.release(old);
        }
        self.blobs
            .entry(id)
            .and_modify(|b| b.refs += 1)
            .or_insert(BlobRef { refs: 1, ..blob });
    }

    fn release(&mut self, id: ContentId) {
        if let Some(blob) = self.blobs.get_mut(&id) {
            blob.refs -= 1;
            if blob.refs == 0 {
                // Bytes stay in the log (append-only) but leave the live
                // set; a later put of the same content re-appends them.
                self.blobs.remove(&id);
            }
        }
    }

    fn append(&mut self, body: &[u8]) -> Result<u64, BackendError> {
        let len = body.len() as u32;
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(body)?;
        let body_offset = self.end + 4;
        self.end += 4 + body.len() as u64;
        Ok(body_offset)
    }
}

impl StorageBackend for FileBackend {
    fn put(&mut self, key: u64, bytes: &[u8]) -> Result<ContentId, BackendError> {
        let id = ContentId::of(bytes);
        if self.index.get(&key) == Some(&id) {
            return Ok(id); // idempotent re-put: no record needed
        }
        if self.blobs.contains_key(&id) {
            // Dedup: the bytes are already in the log; record only the link.
            let mut body = Vec::with_capacity(17);
            body.push(TAG_REF);
            body.extend_from_slice(&key.to_le_bytes());
            body.extend_from_slice(&id.raw().to_le_bytes());
            self.append(&body)?;
            let blob = self.blobs[&id];
            self.link(key, id, blob);
        } else {
            let mut body = Vec::with_capacity(17 + bytes.len());
            body.push(TAG_PUT);
            body.extend_from_slice(&key.to_le_bytes());
            body.extend_from_slice(&id.raw().to_le_bytes());
            body.extend_from_slice(bytes);
            let body_offset = self.append(&body)?;
            self.link(
                key,
                id,
                BlobRef {
                    offset: body_offset + 17,
                    len: bytes.len() as u32,
                    refs: 0,
                },
            );
        }
        Ok(id)
    }

    fn get(&mut self, key: u64) -> Result<Option<Stored>, BackendError> {
        let Some(&id) = self.index.get(&key) else {
            return Ok(None);
        };
        let blob = self.blobs[&id];
        let mut bytes = vec![0u8; blob.len as usize];
        self.file.seek(SeekFrom::Start(blob.offset))?;
        self.file.read_exact(&mut bytes)?;
        let actual = ContentId::of(&bytes);
        if actual != id {
            return Err(BackendError::Corrupt {
                key,
                expected: id,
                actual,
            });
        }
        Ok(Some(Stored { id, bytes }))
    }

    fn delete(&mut self, key: u64) -> Result<bool, BackendError> {
        let Some(&old) = self.index.get(&key) else {
            return Ok(false);
        };
        let mut body = Vec::with_capacity(9);
        body.push(TAG_DEL);
        body.extend_from_slice(&key.to_le_bytes());
        self.append(&body)?;
        self.index.remove(&key);
        self.release(old);
        Ok(true)
    }

    fn scan(&self) -> Vec<(u64, ContentId)> {
        self.index.iter().map(|(&k, &id)| (k, id)).collect()
    }

    fn usage(&self) -> Usage {
        let logical: u64 = self
            .index
            .values()
            .map(|id| u64::from(self.blobs[id].len))
            .sum();
        let unique: u64 = self.blobs.values().map(|b| u64::from(b.len)).sum();
        Usage {
            keys: self.index.len(),
            blobs: self.blobs.len(),
            logical_bytes: logical,
            unique_bytes: unique,
        }
    }

    fn flush(&mut self) -> Result<(), BackendError> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path without consulting the wall clock (banned by the
    /// workspace audit): process id + a process-local counter.
    fn temp_log(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "canon-store-test-{}-{label}-{n}.log",
            std::process::id()
        ))
    }

    fn exercise(backend: &mut dyn StorageBackend) {
        assert_eq!(backend.get(1).expect("get"), None);
        let id = backend.put(1, b"alpha").expect("put");
        assert!(id.verifies(b"alpha"));
        let read = backend.get(1).expect("get").expect("present");
        assert_eq!(read.bytes, b"alpha");
        assert_eq!(read.id, id);
        // Same content under a second key dedups.
        backend.put(2, b"alpha").expect("put");
        let u = backend.usage();
        assert_eq!(u.keys, 2);
        assert_eq!(u.blobs, 1);
        assert_eq!(u.logical_bytes, 10);
        assert_eq!(u.unique_bytes, 5);
        // Overwrite releases the old blob once both refs are gone.
        backend.put(1, b"beta").expect("put");
        backend.put(2, b"beta").expect("put");
        let u = backend.usage();
        assert_eq!((u.keys, u.blobs), (2, 1));
        assert!(backend.delete(1).expect("delete"));
        assert!(!backend.delete(1).expect("delete"));
        assert_eq!(backend.get(1).expect("get"), None);
        assert_eq!(backend.scan().len(), 1);
        backend.flush().expect("flush");
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&mut MemoryBackend::new());
    }

    #[test]
    fn file_backend_contract() {
        let path = temp_log("contract");
        exercise(&mut FileBackend::open(&path).expect("open"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_survives_reopen() {
        let path = temp_log("reopen");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(10, b"ten").expect("put");
            b.put(11, b"eleven").expect("put");
            b.put(12, b"ten").expect("put"); // dedup REF record
            b.delete(11).expect("delete");
            b.put(10, b"TEN").expect("put"); // overwrite
            b.flush().expect("flush");
        }
        let mut b = FileBackend::open(&path).expect("reopen");
        assert_eq!(b.get(10).expect("get").expect("live").bytes, b"TEN");
        assert_eq!(b.get(11).expect("get"), None);
        assert_eq!(b.get(12).expect("get").expect("live").bytes, b"ten");
        assert_eq!(b.scan().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_truncates_torn_tail() {
        let path = temp_log("torn");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"safe").expect("put");
            b.put(2, b"gone").expect("put");
            b.flush().expect("flush");
        }
        // Simulate a crash mid-append: chop bytes off the final record.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 3).expect("truncate");
        drop(f);
        let mut b = FileBackend::open(&path).expect("recover");
        assert_eq!(b.get(1).expect("get").expect("live").bytes, b"safe");
        assert_eq!(b.get(2).expect("get"), None, "torn record discarded");
        // The log is writable again after recovery.
        b.put(3, b"new").expect("put");
        assert_eq!(b.get(3).expect("get").expect("live").bytes, b"new");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_detects_flipped_bits() {
        let path = temp_log("flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(7, b"immutable truth").expect("put");
            b.flush().expect("flush");
        }
        // Flip a byte inside the blob body (offset 4 + 17 lands in data).
        let mut raw = std::fs::read(&path).expect("read");
        let at = raw.len() - 2;
        raw[at] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");
        // Replay refuses the corrupt record, so the key is simply absent.
        let mut b = FileBackend::open(&path).expect("open");
        assert_eq!(b.get(7).expect("get"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_inside_the_log_fails_open_and_truncates_nothing() {
        let path = temp_log("mid-flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.put(3, b"third").expect("put");
            b.flush().expect("flush");
        }
        // The first record's blob starts after its length prefix and its
        // tag, key and content id.
        let mut raw = std::fs::read(&path).expect("read");
        raw[4 + 17] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");
        let err = FileBackend::open(&path).expect_err("a synced record is damaged");
        assert!(matches!(err, BackendError::Corrupt { key: 1, .. }), "{err}");
        let len = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(len, raw.len() as u64, "the later records are kept");
        std::fs::remove_file(&path).ok();
    }
}
