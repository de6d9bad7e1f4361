//! Deterministic data-parallel execution for the construction pipeline.
//!
//! This crate is the workspace's stand-in for rayon (unavailable in the
//! offline build environment): a scoped-thread fork/join map over slices
//! with three properties the construction pipeline depends on:
//!
//! 1. **Determinism** — [`par_chunks`] splits the input into contiguous
//!    chunks, one per worker, and hands back one result per chunk in chunk
//!    order; [`par_map`] concatenates the per-chunk outputs. The result is
//!    element-for-element identical to the serial
//!    `items.iter().map(f).collect()` for any thread count, so a pure `f`
//!    makes parallel construction bit-for-bit reproducible.
//! 2. **Scoped configuration** — the worker count is a process-wide
//!    default ([`set_global_threads`]) that can be overridden for a region
//!    with [`with_threads`], which benches use to compare serial vs.
//!    parallel runs in one process.
//! 3. **No nested fan-out** — workers run their chunk with the thread
//!    override pinned to 1, so a parallel constructor calling another
//!    parallel helper cannot multiply threads.
//!
//! ```
//! let squares = canon_par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! Like every crate in the workspace it contains no `unsafe`: the fork/join
//! is `std::thread::scope`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "use all available cores".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 means "fall back to the global default".
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-wide default worker count. `0` restores the default of
/// one worker per available core.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] would use right now (always ≥ 1): the
/// innermost [`with_threads`] override, else the global default, else the
/// number of available cores.
pub fn current_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local != 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    available_cores()
}

/// The number of cores the OS reports as available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` with the worker count pinned to `n` on this thread (and any
/// [`par_map`] it calls). `0` means "all available cores".
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    LOCAL_THREADS.with(|cell| {
        let prev = cell.get();
        cell.set(if n == 0 { available_cores() } else { n });
        let result = f();
        cell.set(prev);
        result
    })
}

/// Splits `items` into contiguous chunks, one per worker, runs `f` on each
/// in parallel and returns the results in chunk order — the one fork/join
/// in this crate, which [`par_map`] is built on.
///
/// `f` receives the chunk's offset into `items` and the chunk. There are
/// `min(current_threads(), items.len())` chunks, at least one (an empty
/// input is one empty chunk), within one item of each other in size;
/// with one chunk `f` runs inline on the calling thread. A caller that wants one
/// buffer per worker — filled by the worker, read once every worker is
/// done — returns it from `f`. Workers run with the thread override
/// pinned to 1, so nested calls inside `f` degrade to serial loops instead
/// of oversubscribing.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (scoped threads re-raise on
/// join).
pub fn par_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let threads = current_threads().min(items.len()).max(1);
    if threads == 1 {
        return vec![f(0, items)];
    }

    let bounds = chunk_bounds(items.len(), threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                let chunk = &items[start..end];
                let f = &f;
                scope.spawn(move || with_threads(1, || f(start, chunk)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// `f` receives each element's index and a reference to it. The output is
/// identical to `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()`
/// regardless of the worker count; only the wall-clock changes. Each
/// worker maps one [`par_chunks`] chunk.
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut chunks = par_chunks(items, |start, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(i, x)| f(start + i, x))
            .collect::<Vec<U>>()
    });
    if chunks.len() == 1 {
        // The serial path: the one chunk is the answer, uncopied.
        return chunks.swap_remove(0);
    }
    chunks.into_iter().flatten().collect()
}

/// The chunk boundaries [`par_chunks`] uses for `len` items on `threads`
/// workers: `threads + 1` offsets with `bounds[w]..bounds[w + 1]` the
/// contiguous range worker `w` owns. Chunks are sized so every worker gets
/// within one item of the same load, and chunk order equals input order.
///
/// # Panics
///
/// Panics if `threads == 0`.
fn chunk_bounds(len: usize, threads: usize) -> Vec<usize> {
    assert!(threads > 0, "at least one worker is required");
    let base = len / threads;
    let extra = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut at = 0;
    bounds.push(0);
    for w in 0..threads {
        at += base + usize::from(w < extra);
        bounds.push(at);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_every_thread_count() {
        // Every length 0..=8 at 1–4 workers (empty, uneven and one-item
        // chunks), then a long input at widths up to past its length. `f`
        // reads the index too, so a misplaced index changes the output.
        let small = (0..=8u64).flat_map(|len| (1..=4).map(move |t| (len, t)));
        let long = [1, 2, 3, 4, 8, 300].map(|t| (257, t));
        let f = |i: usize, &x: &u64| ((i as u64) << 32) | (x * 3 + 1);
        for (len, t) in small.chain(long) {
            let items: Vec<u64> = (0..len).collect();
            let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            let got = with_threads(t, || par_map(&items, f));
            assert_eq!(got, expect, "len = {len}, threads = {t}");
        }
    }

    #[test]
    fn indices_match_positions() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = with_threads(2, || par_map(&items, |i, &s| format!("{i}{s}")));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn workers_do_not_fan_out_recursively() {
        let outer: Vec<usize> = (0..8).collect();
        let nested_counts = with_threads(4, || par_map(&outer, |_, _| current_threads()));
        // Inside a parallel region every worker sees a pinned count of 1
        // (unless the whole map ran serially on a 1-core host, where the
        // outer override of 4 is still in force — but then min(len) > 1
        // workers were spawned anyway since 4 > 1).
        assert!(nested_counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn chunk_bounds_cover_input_in_order() {
        for len in 0..20usize {
            for threads in 1..8usize {
                let b = chunk_bounds(len, threads);
                assert_eq!(b.len(), threads + 1);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), len);
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
                // Balanced: chunk sizes differ by at most one.
                let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "len={len} threads={threads}: {sizes:?}");
            }
        }
    }

    #[test]
    fn chunks_come_back_in_order_and_cover_the_input() {
        // Every length 0..=8 at 1–4 workers: each chunk reports its offset
        // and items, and the chunks, in order, are the input.
        for len in 0..=8usize {
            let items: Vec<usize> = (0..len).collect();
            for t in 1..=4 {
                let chunks = with_threads(t, || {
                    par_chunks(&items, |start, chunk| (start, chunk.to_vec()))
                });
                assert_eq!(
                    chunks.len(),
                    t.min(len).max(1),
                    "len = {len}, threads = {t}"
                );
                let mut at = 0;
                for (start, chunk) in &chunks {
                    assert_eq!(*start, at, "len = {len}, threads = {t}");
                    assert_eq!(chunk, &items[at..at + chunk.len()]);
                    at += chunk.len();
                }
                assert_eq!(at, len, "len = {len}, threads = {t}");
                // Balanced: chunk sizes differ by at most one.
                let sizes = chunks.iter().map(|(_, c)| c.len());
                let (lo, hi) = (sizes.clone().min(), sizes.max());
                assert!(hi.zip(lo).is_some_and(|(hi, lo)| hi - lo <= 1));
            }
        }
    }

    #[test]
    fn a_chunk_runs_pinned_to_one_worker_off_the_caller_unless_alone() {
        let items: Vec<u32> = (0..6).collect();
        let caller = std::thread::current().id();
        let seen = with_threads(3, || {
            par_chunks(&items, |_, _| {
                (std::thread::current().id(), current_threads())
            })
        });
        assert_eq!(seen.len(), 3);
        assert!(seen
            .iter()
            .all(|&(id, threads)| id != caller && threads == 1));
        let alone = with_threads(1, || par_chunks(&items, |_, _| std::thread::current().id()));
        assert_eq!(alone, vec![caller]);
    }

    #[test]
    fn chunk_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        for t in 1..=4 {
            let result = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    par_chunks(&items, |_, chunk| {
                        assert!(!chunk.contains(&7), "boom");
                        chunk.len()
                    })
                })
            });
            assert!(result.is_err(), "threads = {t}");
        }
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |_, &x| {
                    assert!(x != 40, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
