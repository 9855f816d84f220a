//! Chunked parallel-for primitives on the persistent worker pool.
//!
//! Every task in this crate is a uniform sweep over a dense array, so the
//! right shape is static chunking with dynamic claiming: a job is split
//! into contiguous chunks, and the pool's fixed set of workers claim them
//! from an atomic cursor (see [`crate::pool`]). Unlike the seed
//! implementation — which spawned a fresh scoped OS thread per chunk per
//! call — no thread is ever created on these paths, and the number of live
//! workers is bounded by [`worker_threads`] regardless of chunk count.

use crate::pool::WorkerPool;
use std::num::NonZeroUsize;

/// Environment variable overriding the worker-thread count: a positive
/// integer, read once when the global pool is first constructed. Invalid
/// values warn once and fall back to hardware parallelism, through the
/// strict, warn-once [`hmm_backend::env::parse_env`]. The pool is
/// process-global, so this is the one execution knob that cannot be set
/// per engine.
pub const THREADS_ENV: &str = "HMM_NATIVE_THREADS";

/// Number of worker threads the pool was (or will be) built with: the
/// machine's available parallelism, overridable with the
/// [`THREADS_ENV`] environment variable **before first use** (the
/// pool is created once per process).
pub fn worker_threads() -> usize {
    WorkerPool::global().threads()
}

/// Parse an `HMM_NATIVE_THREADS` override: a positive integer. Anything
/// else (`0`, `abc`, empty) is invalid and yields `None`. Factored out of
/// [`configured_threads`] so the parse rules are testable without racing
/// on the process-global environment.
fn parse_thread_override(v: &str) -> Option<usize> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Thread count read from the environment/machine — used once, when the
/// global pool is first constructed. An *invalid* override is loudly
/// ignored, once per process (a typo'd benchmark run must not silently
/// measure hardware parallelism instead of the intended thread count).
pub(crate) fn configured_threads() -> usize {
    hmm_backend::env::parse_env(
        THREADS_ENV,
        "a positive integer; using hardware parallelism",
        parse_thread_override,
    )
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Shared base pointer for handing disjoint chunks of one slice to pool
/// tasks.
///
/// # Safety contract
/// Tasks must derive pairwise-disjoint sub-slices. Both users below index
/// chunks by a task id claimed exactly once from the pool's cursor, with
/// chunk boundaries computed from that id — so no two tasks overlap.
struct SliceParts<T>(*mut T);

impl<T> SliceParts<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer itself.
    fn base(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Sync for SliceParts<T> {}

/// Run `f(chunk_start, chunk)` over contiguous chunks of `data` in
/// parallel. Chunks are at least `min_chunk` long (except possibly the
/// last); with a single worker or a small slice the call degenerates to a
/// plain loop with no dispatch.
pub fn par_chunks_mut<T, F>(data: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let pool = WorkerPool::global();
    let chunk = n.div_ceil(pool.threads()).max(min_chunk.max(1));
    if pool.threads() == 1 || chunk >= n {
        f(0, data);
        return;
    }
    let num_chunks = n.div_ceil(chunk);
    let parts = SliceParts(data.as_mut_ptr());
    pool.run(num_chunks, |i| {
        let start = i * chunk;
        let len = chunk.min(n - start);
        // SAFETY: task `i` is claimed exactly once and chunks
        // `[start, start + len)` are pairwise disjoint by construction.
        let piece = unsafe { std::slice::from_raw_parts_mut(parts.base().add(start), len) };
        f(start, piece);
    });
}

/// Like [`par_chunks_mut`], but every chunk (except the last) is *exactly*
/// `chunk_len` long — required when workers must own whole rows or tiles.
///
/// Chunks are grouped into at most [`worker_threads`] contiguous tasks, so
/// a small `chunk_len` on a large slice costs one pool dispatch — the seed
/// version spawned one OS thread per chunk, which for a 64-row tile band
/// on a 16M-element array meant thousands of threads.
pub fn par_chunks_mut_exact<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let pool = WorkerPool::global();
    if pool.threads() == 1 || chunk_len >= n {
        // Serial, but with the same per-chunk call granularity callers
        // rely on (each call sees exactly one chunk).
        for (c, piece) in data.chunks_mut(chunk_len).enumerate() {
            f(c * chunk_len, piece);
        }
        return;
    }
    let num_chunks = n.div_ceil(chunk_len);
    let num_tasks = num_chunks.min(pool.threads());
    let chunks_per_task = num_chunks.div_ceil(num_tasks);
    let parts = SliceParts(data.as_mut_ptr());
    pool.run(num_tasks, |t| {
        let first = t * chunks_per_task;
        let last = ((t + 1) * chunks_per_task).min(num_chunks);
        for c in first..last {
            let start = c * chunk_len;
            let len = chunk_len.min(n - start);
            // SAFETY: task `t` exclusively owns chunks [first, last); all
            // derived ranges are pairwise disjoint by construction.
            let piece = unsafe { std::slice::from_raw_parts_mut(parts.base().add(start), len) };
            f(start, piece);
        }
    });
}

/// Run `f(start, end)` over contiguous sub-ranges of `0..n` in parallel.
pub fn par_ranges<F>(n: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let pool = WorkerPool::global();
    let chunk = n.div_ceil(pool.threads()).max(min_chunk.max(1));
    if pool.threads() == 1 || chunk >= n {
        f(0, n);
        return;
    }
    let num_chunks = n.div_ceil(chunk);
    pool.run(num_chunks, |i| {
        let start = i * chunk;
        let end = (start + chunk).min(n);
        f(start, end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data = vec![0u64; 100_000];
        par_chunks_mut(&mut data, 1, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (start + i) as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn par_chunks_mut_exact_covers_with_exact_chunks() {
        // Small chunk_len on a large slice: the seed spawned one thread
        // per chunk here; now it is one bounded pool dispatch.
        let n = 64 * 1024;
        let chunk_len = 64;
        let mut data = vec![0u32; n];
        let calls = AtomicUsize::new(0);
        par_chunks_mut_exact(&mut data, chunk_len, |start, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(start % chunk_len, 0);
            assert!(chunk.len() == chunk_len || start + chunk.len() == n);
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as u32;
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), n / chunk_len);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_exact_ragged_tail() {
        let n = 1000;
        let mut data = vec![0u8; n];
        par_chunks_mut_exact(&mut data, 333, |start, chunk| {
            assert!(chunk.len() == 333 || start + chunk.len() == n);
            chunk.fill(1);
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_ranges_covers_exactly() {
        let n = 12_345;
        let hits = AtomicUsize::new(0);
        par_ranges(n, 1, |s, e| {
            hits.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, 8, |_, _| panic!("should not run"));
        par_chunks_mut_exact(&mut empty, 8, |_, _| panic!("should not run"));
        par_ranges(0, 8, |_, _| panic!("should not run"));
    }

    #[test]
    fn min_chunk_respected() {
        // With min_chunk = n the closure runs exactly once, inline.
        let n = 1000;
        let calls = AtomicUsize::new(0);
        par_ranges(n, n, |s, e| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((s, e), (0, n));
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn thread_override_parse_accepts_positive_integers_only() {
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override("128"), Some(128));
        // Invalid values must be rejected (configured_threads then warns
        // and falls back to hardware parallelism).
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override("abc"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert_eq!(parse_thread_override("4 "), None);
        assert_eq!(parse_thread_override("3.5"), None);
    }

    #[test]
    fn panic_in_chunk_propagates() {
        let mut data = vec![0u8; 1 << 20];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_chunks_mut(&mut data, 1, |start, _| {
                if start == 0 {
                    panic!("chunk panicked");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool keeps serving jobs after the panic.
        par_chunks_mut(&mut data, 1, |_, chunk| chunk.fill(7));
        assert!(data.iter().all(|&v| v == 7));
    }
}
