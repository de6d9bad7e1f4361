//! The node's local store shard, backed by a pluggable canon-store
//! [`StorageBackend`].
//!
//! The shard is a thin `u64`-typed façade over a verified
//! [`StorageBackend`] map, so the node runtime inherits integrity
//! verification on every read and the choice of a durable append-only log
//! per node ([`ShardBackend::TempFile`]) without the protocol code changing
//! shape: join/leave handovers move entries through the same
//! `insert`/`entries`/`remove` surface regardless of backend.
//!
//! # Shard I/O policy
//!
//! A storage-backend failure is a crashed node, not a dead process. A
//! node cannot serve, hand over or replicate without its shard, and
//! continuing after a failed read would serve wrong answers, so the shard
//! records the first backend error it meets (`Shard::take_fault`) and
//! answers as if the failed operation found nothing; the node checks the
//! record before it answers anything and, finding one, crash-stops
//! itself (counted as `shard_faults`). Requests that reach it afterwards
//! time out, exactly as at a node crashed from outside. The default
//! [`MemoryBackend`] is infallible; file-backed shards fail only on a
//! genuine disk error or on bytes damaged under the log.

use crate::transport::lock_unpoisoned;
use canon_id::NodeId;
use canon_store::{BackendError, FileBackend, MemoryBackend, StorageBackend};
use std::path::PathBuf;
use std::sync::Mutex;

/// Where freshly spawned nodes keep their shard bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardBackend {
    /// An in-memory verified map (the default).
    #[default]
    Memory,
    /// One append-only log file per node under a per-process temp
    /// directory — exercises the durable path end to end. A node's log is
    /// deleted when its shard is dropped, and the directory with the
    /// process's last log.
    TempFile,
}

/// The process's [`ShardBackend::TempFile`] logs. One lock covers creating
/// a log and deleting one, so a log is never opened in a directory that the
/// drop of the previous last log is removing.
struct TempLogs {
    /// The next log's number: identifiers repeat across runtimes, so each
    /// log is numbered (no wall clock involved).
    next: u64,
    /// Logs alive; the directory goes when this returns to zero.
    live: u64,
}

static TEMP_LOGS: Mutex<TempLogs> = Mutex::new(TempLogs { next: 0, live: 0 });

/// A [`ShardBackend::TempFile`] shard's log file, deleted on drop.
#[derive(Debug)]
struct TempLog(PathBuf);

impl Drop for TempLog {
    fn drop(&mut self) {
        let mut logs = lock_unpoisoned(&TEMP_LOGS);
        logs.live -= 1;
        // Best effort: a temp file left behind is not worth a panic in drop.
        let _ = std::fs::remove_file(&self.0);
        if logs.live == 0 {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

impl ShardBackend {
    /// Creates one node's shard. A log that cannot be created leaves an
    /// empty shard holding the error, so the node crash-stops at its first
    /// message instead of the process ending here.
    pub(crate) fn create(self, id: NodeId) -> Shard {
        match self {
            ShardBackend::Memory => Shard::new(Box::new(MemoryBackend::new())),
            ShardBackend::TempFile => {
                let dir =
                    std::env::temp_dir().join(format!("canon-node-shards-{}", std::process::id()));
                let mut logs = lock_unpoisoned(&TEMP_LOGS);
                let path = dir.join(format!("shard-{}-{:016x}.log", logs.next, id.raw()));
                let opened = std::fs::create_dir_all(&dir)
                    .map_err(Into::into)
                    .and_then(|()| FileBackend::open(&path));
                match opened {
                    Ok(backend) => {
                        logs.next += 1;
                        logs.live += 1;
                        Shard {
                            backend: Box::new(backend),
                            fault: None,
                            _log: Some(TempLog(path)),
                        }
                    }
                    Err(e) => Shard {
                        fault: Some(e),
                        ..Shard::new(Box::new(MemoryBackend::new()))
                    },
                }
            }
        }
    }
}

/// A node's slice of the key space: `u64` values stored through a
/// verified [`StorageBackend`].
#[derive(Debug)]
pub struct Shard {
    backend: Box<dyn StorageBackend>,
    /// The first backend error not yet taken by the node (see the module
    /// docs): the shard's only way to report a failure.
    fault: Option<BackendError>,
    /// The log a [`ShardBackend::TempFile`] shard owns. Declared after
    /// `backend`, so the log file is closed before it is deleted.
    _log: Option<TempLog>,
}

impl Shard {
    /// Wraps a backend as a node shard.
    pub fn new(backend: Box<dyn StorageBackend>) -> Shard {
        Shard {
            backend,
            fault: None,
            _log: None,
        }
    }

    /// The value of `result`, or `failed` with the error recorded as the
    /// shard's fault (the first one is kept).
    fn io<T>(&mut self, result: Result<T, BackendError>, failed: T) -> T {
        result.unwrap_or_else(|e| {
            self.fault.get_or_insert(e);
            failed
        })
    }

    /// Takes the backend error recorded since the last call, if any.
    pub(crate) fn take_fault(&mut self) -> Option<BackendError> {
        self.fault.take()
    }

    /// Stores `value` under `key` (overwrites). A failed write is recorded
    /// as the shard's fault.
    pub fn insert(&mut self, key: u64, value: u64) {
        let result = self.backend.put(key, &value.to_le_bytes()).map(drop);
        self.io(result, ());
    }

    /// Reads the value under `key`, verified against its content id. A
    /// failed read is recorded as the shard's fault and reads as absent.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let result = self.backend.get(key);
        let stored = self.io(result, None)?;
        // Content addressing already verified the bytes; a shard only ever
        // stores `u64` values, so any other length is damage too.
        match stored.bytes.try_into() {
            Ok(bytes) => Some(u64::from_le_bytes(bytes)),
            Err(bytes) => {
                let len = bytes.len();
                let damaged = Err(BackendError::Io(format!(
                    "value under key {key:#x} is {len} bytes, not a u64"
                )));
                self.io(damaged, None)
            }
        }
    }

    /// Removes `key`; returns whether it was present. A failed delete is
    /// recorded as the shard's fault.
    pub fn remove(&mut self, key: u64) -> bool {
        let result = self.backend.delete(key);
        self.io(result, false)
    }

    /// Whether `key` is present. A failed read is recorded as the shard's
    /// fault and reads as absent.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Every `(key, value)` pair in ascending key order.
    pub fn entries(&mut self) -> Vec<(u64, u64)> {
        self.backend
            .scan()
            .into_iter()
            .map(|(k, _)| k)
            .filter_map(|k| self.get(k).map(|v| (k, v)))
            .collect()
    }

    /// Inserts every pair from `pairs`.
    pub fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, pairs: I) {
        for (k, v) in pairs {
            self.insert(k, v);
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for (k, _) in self.backend.scan() {
            self.remove(k);
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_roundtrips_values_through_the_backend() {
        let mut s = ShardBackend::Memory.create(NodeId::new(1));
        assert!(s.is_empty());
        s.insert(5, 50);
        s.insert(3, 30);
        assert_eq!(s.get(5), Some(50));
        assert_eq!(s.get(4), None);
        assert!(s.contains(3));
        assert_eq!(s.entries(), vec![(3, 30), (5, 50)]);
        s.extend(vec![(7, 70)]);
        assert_eq!(s.len(), 3);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn temp_file_shards_persist_until_dropped() {
        let mut s = ShardBackend::TempFile.create(NodeId::new(42));
        s.insert(9, 90);
        assert_eq!(s.get(9), Some(90));
        assert_eq!(s.len(), 1);
        let log = s
            ._log
            .as_ref()
            .map(|log| log.0.clone())
            .expect("a temp log");
        assert!(log.exists());
        drop(s);
        assert!(!log.exists(), "{} outlived its shard", log.display());
    }
}
