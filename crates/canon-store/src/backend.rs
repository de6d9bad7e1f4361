//! Pluggable storage backends.
//!
//! A [`StorageBackend`] is the byte-level store a live node keeps its
//! slice of the key space in (canon-node's `Shard`). The trait is
//! deliberately small — `put`/`get`/`delete`/`scan`/`len`/`flush` — so
//! the shard stays agnostic to where bytes actually live. Every backend is
//! one verified map from `u64` keys to values: `put` records the
//! [`ContentId`] of the stored bytes (see [`crate::content`]) next to them,
//! and `get` re-hashes the bytes and checks them against it on every read.
//!
//! Two implementations ship with the workspace:
//!
//! * [`MemoryBackend`] — an ordered in-memory map; the default everywhere
//!   and the oracle the file backend is tested against.
//! * [`FileBackend`] — an append-only log plus an in-memory index, the
//!   classic bitcask shape. Every log record carries a check over its
//!   whole body, key included, and a check of its length prefix. Recovery
//!   replays the log and truncates a torn tail — a record cut short, or
//!   zeroes where the file grew before its bytes reached the disk — so a
//!   crash between `flush` calls loses at most the unsynced suffix, never
//!   previously synced records: a length that fails its check, or a
//!   corrupt record with a sound record behind it, is an error, not a
//!   tail. The one crash this cannot tell from damage is a tail of stale
//!   non-zero bytes under a complete length prefix; `open` reports it as
//!   [`BackendError::Corrupt`] and leaves the log for repair.

use crate::content::ContentId;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Errors surfaced by a storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A value or log record failed its integrity check.
    Corrupt {
        /// The key whose read (or log record) failed verification.
        key: u64,
        /// The check recorded at write time.
        expected: ContentId,
        /// The check of the bytes actually read back.
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

impl Stored {
    /// `self` when its bytes still hash to its id, else the mismatch.
    fn verified(self, key: u64) -> Result<Stored, BackendError> {
        let actual = ContentId::of(&self.bytes);
        if actual != self.id {
            return Err(BackendError::Corrupt {
                key,
                expected: self.id,
                actual,
            });
        }
        Ok(self)
    }
}

/// A byte-level key/value shard that verifies every read.
///
/// `get` takes `&mut self` because real backends move state to read (a file
/// backend seeks).
#[allow(
    clippy::len_without_is_empty,
    reason = "callers ask for the count; emptiness is `len() == 0`"
)]
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

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Makes previously acknowledged writes durable (no-op for volatile
    /// backends).
    fn flush(&mut self) -> Result<(), BackendError>;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The in-memory backend: one ordered map from key to the value's bytes
/// and content id.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    values: BTreeMap<u64, Stored>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&mut self, key: u64, bytes: &[u8]) -> Result<ContentId, BackendError> {
        let id = ContentId::of(bytes);
        let bytes = bytes.to_vec();
        self.values.insert(key, Stored { id, bytes });
        Ok(id)
    }

    fn get(&mut self, key: u64) -> Result<Option<Stored>, BackendError> {
        self.values
            .get(&key)
            .map(|stored| stored.clone().verified(key))
            .transpose()
    }

    fn delete(&mut self, key: u64) -> Result<bool, BackendError> {
        Ok(self.values.remove(&key).is_some())
    }

    fn scan(&self) -> Vec<(u64, ContentId)> {
        self.values.iter().map(|(&k, v)| (k, v.id)).collect()
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn flush(&mut self) -> Result<(), BackendError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File backend: append-only log + in-memory index
// ---------------------------------------------------------------------------

const TAG_PUT: u8 = 1;
const TAG_DEL: u8 = 3;

/// Bytes of a record body before its value: tag, key, check and length
/// check.
const HEADER: usize = 21;

/// Where a record's length check sits, counted from the record's start:
/// behind the length prefix, the tag, the key and the record check.
const LENGTH_CHECK_AT: usize = 4 + 17;

/// The check of a record's length prefix. A record stores it at a fixed
/// offset, [`LENGTH_CHECK_AT`], so that replay can verify a length before
/// trusting it to find the record's end — and with it the next record.
fn length_check(len: u32) -> u32 {
    ContentId::of(&len.to_le_bytes()).raw() as u32
}

/// Where a live key's value sits in the log, and the id it must hash to.
#[derive(Debug, Clone, Copy)]
struct Located {
    id: ContentId,
    offset: u64,
    len: u32,
}

/// One log record body, parsed.
enum Record<'a> {
    Put {
        key: u64,
        id: ContentId,
        bytes: &'a [u8],
    },
    Del {
        key: u64,
    },
}

/// The check a record body stores after its tag and key: the hash of the
/// tag, the key and the content id of the value bytes (empty for `DEL`),
/// so that a flipped bit anywhere in the body fails replay.
fn record_check(tag: u8, key: u64, value: ContentId) -> ContentId {
    let mut covered = [0u8; 17];
    covered[0] = tag;
    covered[1..9].copy_from_slice(&key.to_le_bytes());
    covered[9..].copy_from_slice(&value.raw().to_le_bytes());
    ContentId::of(&covered)
}

/// A record body: tag, key, [`record_check`], [`length_check`] of the
/// body's length, value bytes.
fn record(tag: u8, key: u64, bytes: &[u8]) -> Vec<u8> {
    let check = record_check(tag, key, ContentId::of(bytes));
    let len = (HEADER + bytes.len()) as u32;
    let mut body = Vec::with_capacity(HEADER + bytes.len());
    body.push(tag);
    body.extend_from_slice(&key.to_le_bytes());
    body.extend_from_slice(&check.raw().to_le_bytes());
    body.extend_from_slice(&length_check(len).to_le_bytes());
    body.extend_from_slice(bytes);
    body
}

/// The little-endian word of `N` bytes at `at`, if `raw` holds them all.
fn word<const N: usize>(raw: &[u8], at: usize) -> Option<[u8; N]> {
    raw.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// The body of the record at `pos`: `Ok(None)` at the end of the log and
/// for a torn tail — a length prefix or header cut short, nothing but
/// zeroes behind the prefix, or a body that runs past the end. Any other
/// complete prefix whose length fails its check is damage inside the log,
/// [`BackendError::Corrupt`] under the key the header names.
fn record_at(raw: &[u8], pos: usize) -> Result<Option<&[u8]>, BackendError> {
    let (Some(len), Some(stored)) = (word(raw, pos), word(raw, pos + LENGTH_CHECK_AT)) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len);
    let (stored, actual) = (u32::from_le_bytes(stored), length_check(len));
    if stored != actual {
        // Zeroes are a crash's, not damage: the file grew before the
        // record reached the disk. A written record is never all zeroes
        // behind its prefix, since its tag is not.
        if raw
            .get(pos + 4..)
            .is_some_and(|rest| rest.iter().all(|&b| b == 0))
        {
            return Ok(None);
        }
        return Err(BackendError::Corrupt {
            key: word(raw, pos + 5).map_or(0, u64::from_le_bytes),
            expected: ContentId::from_raw(stored.into()),
            actual: ContentId::from_raw(actual.into()),
        });
    }
    Ok(raw.get(pos + 4..(pos + 4).saturating_add(len as usize)))
}

/// Parses a record body. A body that fails its check is
/// [`BackendError::Corrupt`]; an unknown tag, a `DEL` with value bytes, or
/// a body too short for its header is malformed.
fn parse_record(body: &[u8]) -> Result<Record<'_>, BackendError> {
    let tag = body.first().copied().unwrap_or_default();
    let malformed = || BackendError::Io(format!("malformed log record with tag {tag}"));
    let (Some(key), Some(check), Some(bytes)) = (word(body, 1), word(body, 9), body.get(HEADER..))
    else {
        return Err(malformed());
    };
    let (key, check) = (u64::from_le_bytes(key), u64::from_le_bytes(check));
    let id = ContentId::of(bytes);
    let expected = ContentId::from_raw(check);
    let actual = record_check(tag, key, id);
    if actual != expected {
        return Err(BackendError::Corrupt {
            key,
            expected,
            actual,
        });
    }
    match tag {
        TAG_PUT => Ok(Record::Put { key, id, bytes }),
        TAG_DEL if bytes.is_empty() => Ok(Record::Del { key }),
        _ => Err(malformed()),
    }
}

/// Append-only log backend (bitcask shape): every mutation appends a
/// length-prefixed record, and an in-memory index maps each live key to
/// its value's content id and log location. `open` replays the log,
/// verifying every record's length and check, and truncates a torn tail so
/// that a crash can only lose the unsynced suffix; a corrupt record inside
/// the log fails `open`, and so does a crash's tail of stale non-zero bytes
/// under a complete length prefix (see the module docs).
///
/// A record is `[len u32][tag u8][key u64][check u64][length check u32]
/// [value]`, integers little-endian; `len` counts everything after itself.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    file: File,
    end: u64,
    index: BTreeMap<u64, Located>,
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
        };
        backend.replay()?;
        Ok(backend)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replays the log into the in-memory index. A torn tail — an
    /// incomplete record, zeroes, or a bad final one — is truncated. A
    /// length that fails its check, or a bad record with a sound record
    /// behind it, is damage inside the synced log, so it is returned as an
    /// error and nothing is truncated.
    fn replay(&mut self) -> Result<(), BackendError> {
        let mut raw = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut raw)?;
        let mut pos = 0usize;
        while let Some(body) = record_at(&raw, pos)? {
            let next = pos + 4 + body.len();
            match parse_record(body) {
                Ok(record) => self.apply(record, pos as u64 + 4),
                Err(e) => {
                    // A bad record is a torn tail only when nothing sound
                    // follows it: the end of the log, or another bad
                    // record. A prefix behind it that fails its check is
                    // damage too.
                    let tail = match record_at(&raw, next) {
                        Ok(None) => true,
                        Ok(Some(b)) => parse_record(b).is_err(),
                        Err(_) => false,
                    };
                    if !tail {
                        return Err(e);
                    }
                    break;
                }
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

    /// Applies one replayed record whose body starts at `body_offset`.
    fn apply(&mut self, record: Record<'_>, body_offset: u64) {
        match record {
            Record::Put { key, id, bytes } => {
                self.index.insert(
                    key,
                    Located {
                        id,
                        offset: body_offset + HEADER as u64,
                        len: bytes.len() as u32,
                    },
                );
            }
            Record::Del { key } => {
                self.index.remove(&key);
            }
        }
    }

    /// Appends one record body; returns the log offset the body starts at.
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
        if self.index.get(&key).is_some_and(|at| at.id == id) {
            return Ok(id); // idempotent re-put: no record needed
        }
        let body_offset = self.append(&record(TAG_PUT, key, bytes))?;
        self.apply(Record::Put { key, id, bytes }, body_offset);
        Ok(id)
    }

    fn get(&mut self, key: u64) -> Result<Option<Stored>, BackendError> {
        let Some(&at) = self.index.get(&key) else {
            return Ok(None);
        };
        let mut bytes = vec![0u8; at.len as usize];
        self.file.seek(SeekFrom::Start(at.offset))?;
        self.file.read_exact(&mut bytes)?;
        Stored { id: at.id, bytes }.verified(key).map(Some)
    }

    fn delete(&mut self, key: u64) -> Result<bool, BackendError> {
        if !self.index.contains_key(&key) {
            return Ok(false);
        }
        self.append(&record(TAG_DEL, key, &[]))?;
        self.index.remove(&key);
        Ok(true)
    }

    fn scan(&self) -> Vec<(u64, ContentId)> {
        self.index.iter().map(|(&k, at)| (k, at.id)).collect()
    }

    fn len(&self) -> usize {
        self.index.len()
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
        // Equal bytes under a second key: both keys read them back.
        assert_eq!(backend.put(2, b"alpha").expect("put"), id);
        assert_eq!(backend.len(), 2);
        // Overwriting or deleting one key leaves the other as it was.
        backend.put(1, b"beta").expect("put");
        assert_eq!(backend.get(1).expect("get").expect("live").bytes, b"beta");
        assert_eq!(backend.get(2).expect("get").expect("kept").bytes, b"alpha");
        assert!(backend.delete(1).expect("delete"));
        assert!(!backend.delete(1).expect("delete"));
        assert_eq!(backend.get(1).expect("get"), None);
        assert_eq!(backend.get(2).expect("get").expect("kept").bytes, b"alpha");
        assert_eq!(backend.scan(), vec![(2, id)]);
        assert_eq!(backend.len(), 1);
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
            b.put(12, b"ten").expect("put"); // equal bytes, second key
            b.put(13, b"eleven").expect("put");
            b.delete(11).expect("delete"); // 13 keeps "eleven"
            b.put(10, b"TEN").expect("put"); // 12 keeps "ten"
            b.flush().expect("flush");
        }
        let mut b = FileBackend::open(&path).expect("reopen");
        assert_eq!(b.get(10).expect("get").expect("live").bytes, b"TEN");
        assert_eq!(b.get(11).expect("get"), None);
        assert_eq!(b.get(12).expect("get").expect("live").bytes, b"ten");
        assert_eq!(b.get(13).expect("get").expect("live").bytes, b"eleven");
        assert_eq!(b.len(), 3);
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
        // Flip a byte inside the blob body.
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
    fn a_value_damaged_after_open_fails_its_read() {
        let path = temp_log("read-flip");
        let mut b = FileBackend::open(&path).expect("open");
        b.put(7, b"immutable truth").expect("put");
        b.flush().expect("flush");
        let mut raw = std::fs::read(&path).expect("read");
        let at = raw.len() - 2;
        raw[at] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");
        let err = b.get(7).expect_err("the value no longer hashes to its id");
        assert!(matches!(err, BackendError::Corrupt { key: 7, .. }), "{err}");
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
        // Byte 4 + 17 is the first record's length check, behind its
        // length prefix and its tag, key and content id.
        let mut raw = std::fs::read(&path).expect("read");
        raw[4 + 17] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");
        let err = FileBackend::open(&path).expect_err("a synced record is damaged");
        assert!(matches!(err, BackendError::Corrupt { key: 1, .. }), "{err}");
        let len = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(len, raw.len() as u64, "the later records are kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_value_inside_the_log_fails_open_and_truncates_nothing() {
        let path = temp_log("value-flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.put(3, b"third").expect("put");
            b.flush().expect("flush");
        }
        // The first record's value starts behind its length prefix and
        // its header; the records behind it are sound.
        let mut raw = std::fs::read(&path).expect("read");
        raw[4 + HEADER] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");
        let err = FileBackend::open(&path).expect_err("a synced record is damaged");
        assert!(matches!(err, BackendError::Corrupt { key: 1, .. }), "{err}");
        let len = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(len, raw.len() as u64, "the later records are kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_tail_of_zeroes_is_torn_and_truncated() {
        let path = temp_log("zero-tail");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.flush().expect("flush");
        }
        let sound = std::fs::read(&path).expect("read");
        let last = sound.len() - (4 + HEADER + b"second".len());
        // Zeroes where the file grew before its bytes reached the disk:
        // behind the synced log, shorter and longer than a record header,
        // and over the last record with or without its length prefix.
        let tails: [(usize, usize, &[u64]); 5] = [
            (sound.len(), 3, &[1, 2]),
            (sound.len(), 4 + HEADER, &[1, 2]),
            (sound.len(), 4096, &[1, 2]),
            (last, 4 + HEADER + b"second".len(), &[1]),
            (last + 4, HEADER + b"second".len(), &[1]),
        ];
        for (at, zeroes, live) in tails {
            let mut raw = sound.clone();
            raw.truncate(at);
            raw.resize(raw.len().max(at + zeroes), 0);
            std::fs::write(&path, &raw).expect("write");
            let mut b = FileBackend::open(&path).expect("zeroes are a torn tail");
            let kept: Vec<u64> = [1, 2]
                .into_iter()
                .filter(|&k| b.get(k).expect("get").is_some())
                .collect();
            assert_eq!(kept, live, "zeroes from {at}");
            b.put(3, b"third").expect("the log takes appends again");
            b.flush().expect("flush");
            drop(b);
            let mut b = FileBackend::open(&path).expect("reopen");
            assert_eq!(b.get(3).expect("get").expect("live").bytes, b"third");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_length_bit_fails_open_and_truncates_nothing() {
        let path = temp_log("len-flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.put(3, b"third").expect("put");
            b.flush().expect("flush");
        }
        let sound = std::fs::read(&path).expect("read");
        // Every bit of the first record's length prefix: a longer length
        // runs the record into the next ones or past the end of the log, a
        // shorter one cuts it short, and none of them is a torn tail.
        for bit in 0..32 {
            let mut raw = sound.clone();
            raw[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &raw).expect("write");
            let err = FileBackend::open(&path).expect_err("a synced length is damaged");
            assert!(
                matches!(err, BackendError::Corrupt { key: 1, .. }),
                "bit {bit}: {err}"
            );
            assert_eq!(
                std::fs::read(&path).expect("read"),
                raw,
                "bit {bit}: log changed"
            );
        }
        std::fs::write(&path, &sound).expect("write");
        let mut b = FileBackend::open(&path).expect("the sound log opens");
        assert_eq!(b.get(3).expect("get").expect("live").bytes, b"third");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_record_before_a_damaged_length_fails_open() {
        let path = temp_log("two-flips");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.put(3, b"third").expect("put");
            b.flush().expect("flush");
        }
        // The first record's value, and the second record's length.
        let mut raw = std::fs::read(&path).expect("read");
        raw[4 + HEADER] ^= 0xff;
        raw[4 + HEADER + b"first".len()] ^= 0x01;
        std::fs::write(&path, &raw).expect("write");
        let err = FileBackend::open(&path).expect_err("two synced records are damaged");
        assert!(matches!(err, BackendError::Corrupt { key: 1, .. }), "{err}");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            raw,
            "the log is kept whole"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Flips bit 2 of the key of the record that starts at `pos` and
    /// returns the damaged log.
    fn flip_key_bit(path: &Path, pos: usize) -> Vec<u8> {
        let mut raw = std::fs::read(path).expect("read");
        raw[pos + 4 + 1] ^= 0x04;
        std::fs::write(path, &raw).expect("write");
        raw
    }

    #[test]
    fn a_flipped_put_key_inside_the_log_fails_open() {
        let path = temp_log("put-key-flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.flush().expect("flush");
        }
        // Unchecked, the first record would serve "first" under key 5.
        let raw = flip_key_bit(&path, 0);
        let err = FileBackend::open(&path).expect_err("a synced key is damaged");
        assert!(matches!(err, BackendError::Corrupt { .. }), "{err}");
        let len = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(len, raw.len() as u64, "the log is kept whole");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_delete_key_inside_the_log_fails_open() {
        let path = temp_log("del-key-flip");
        {
            let mut b = FileBackend::open(&path).expect("open");
            b.put(1, b"first").expect("put");
            b.put(2, b"second").expect("put");
            b.delete(1).expect("delete");
            b.put(3, b"third").expect("put");
            b.flush().expect("flush");
        }
        // Unchecked, the delete would remove key 5 and key 1 would return.
        let del = (4 + HEADER + b"first".len()) + (4 + HEADER + b"second".len());
        let raw = flip_key_bit(&path, del);
        let err = FileBackend::open(&path).expect_err("a synced key is damaged");
        assert!(matches!(err, BackendError::Corrupt { .. }), "{err}");
        let len = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(len, raw.len() as u64, "the log is kept whole");
        std::fs::remove_file(&path).ok();
    }
}
