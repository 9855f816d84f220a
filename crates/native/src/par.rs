//! Chunked parallel-for primitives on the persistent worker pool.
//!
//! Every task in this crate is a uniform sweep over a dense array, so the
//! right shape is static chunking with dynamic claiming: a job is split
//! into contiguous chunks, and the pool's fixed set of workers claim them
//! from an atomic cursor (see [`crate::pool`]). Unlike the seed
//! implementation — which spawned a fresh scoped OS thread per chunk per
//! call — no thread is ever created on these paths, and the number of live
//! workers is bounded by [`worker_threads`] regardless of chunk count.
//!
//! # When a job fans out
//!
//! The paper charges one round `p/w + l − 1` time units (DESIGN.md §5).
//! Splitting a round over more units shrinks only the `p/w` term; the
//! latency `l` is paid again by every round, however little it moves. On
//! the CPU, waking the parked workers and waiting at the job's completion
//! barrier play the part of `l`, and every sweep of every permute pays
//! them. A job moving a few hundred KiB finishes inline in about the time
//! the wake-up and barrier take, while a second caller may already be
//! running on the other core, so fanning it out buys nothing.
//!
//! So one rule, [`participants`], decides every split here, from the bytes
//! a job moves: `clamp(bytes / PARTICIPANT_BYTES, 1, threads)`. All three
//! helpers ([`par_chunks_mut`], [`par_ranges`] and the fused sweeps'
//! column bands) use it. Below the floor of `2 × PARTICIPANT_BYTES` a job
//! runs on the calling thread as one chunk or band, and never touches the
//! pool; above it, each participant gets at least `PARTICIPANT_BYTES`.

use crate::pool::WorkerPool;
use core::mem::size_of_val;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Environment variable overriding the worker-thread count: a positive
/// integer, read once when the global pool is first constructed. An
/// invalid value prints one warning and falls back to hardware
/// parallelism. The pool is process-global, so this is the one execution
/// knob that cannot be set per engine.
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
/// ignored (a typo'd benchmark run must not silently measure hardware
/// parallelism instead of the intended thread count).
pub(crate) fn configured_threads() -> usize {
    let hardware = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let Ok(v) = std::env::var(THREADS_ENV) else {
        return hardware();
    };
    parse_thread_override(&v).unwrap_or_else(|| {
        eprintln!(
            "warning: ignoring invalid {THREADS_ENV}={v:?} \
             (expected a positive integer; using hardware parallelism)"
        );
        hardware()
    })
}

/// Bytes a job must move per participant before it fans out to one more:
/// a job moving `bytes` runs on [`participants`]`(bytes, threads)` of
/// them. `run_plan` medians on a 2-core host place it between 512 KiB and
/// 1 MiB: from 1 MiB a job gains 27–36% from fanning out with the host to
/// itself, and breaks even or better with two callers; at 256–512 KiB
/// it gains at most 18% alone and loses up to 15% to a second caller
/// (EXPERIMENTS.md, "Fan out only when it pays").
pub const PARTICIPANT_BYTES: usize = 512 << 10;

/// How many participants a job that moves `bytes` bytes splits into on a
/// pool of `threads`: `clamp(bytes / PARTICIPANT_BYTES, 1, threads)`. One
/// means the job runs inline on the calling thread.
pub fn participants(bytes: usize, threads: usize) -> usize {
    (bytes / PARTICIPANT_BYTES).clamp(1, threads.max(1))
}

/// Length of each piece when `len` items of a job moving `bytes` bytes
/// are split among [`participants`]`(bytes, threads)`, rounded up to a
/// whole number of `align` items. A piece of `len` or more means the job
/// runs as one piece.
fn piece_len(len: usize, bytes: usize, align: usize, threads: usize) -> usize {
    len.div_ceil(participants(bytes, threads))
        .next_multiple_of(align.max(1))
}

/// Shared base pointer for handing disjoint column bands of one slice to
/// pool tasks.
///
/// # Safety contract
/// Tasks must derive pairwise-disjoint regions. The one user below,
/// [`par_column_bands`], indexes them by a task id claimed exactly once
/// from the pool's cursor, with band boundaries computed from that id —
/// so no two tasks overlap.
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
/// parallel, one chunk per [`participants`] of the bytes `data` holds.
/// Below the fan-out floor the call is `f(0, data)` on the calling thread.
pub fn par_chunks_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // `data` as one row of `len` columns: each column band is a chunk.
    let len = data.len();
    par_column_bands(data, len, 1, |mut band| {
        f(band.columns().start, band.row_mut(0))
    });
}

/// One task's columns of a row-major matrix: columns `cols` of every row
/// of a `rows × stride` slice. The rows are shared with other bands and
/// the columns are not, so workers write their own segment of every row
/// without ever sharing an element — the fused sweeps' output view (a
/// worker owns input rows, which are output columns).
///
/// [`ColumnBand::new`] borrows a whole slice for one band;
/// [`par_column_bands`] hands each pool task its own band of one slice.
pub(crate) struct ColumnBand<'a, T> {
    base: *mut T,
    rows: usize,
    stride: usize,
    cols: Range<usize>,
    _data: PhantomData<&'a mut [T]>,
}

impl<'a, T> ColumnBand<'a, T> {
    /// Columns `cols` of `data` viewed as rows of `stride` elements.
    ///
    /// # Panics
    /// Panics unless `stride` divides `data.len()` and `cols` lies in
    /// `0..=stride`.
    pub(crate) fn new(data: &'a mut [T], stride: usize, cols: Range<usize>) -> Self {
        assert!(
            stride > 0 && data.len().is_multiple_of(stride),
            "ragged matrix"
        );
        assert!(
            cols.start <= cols.end && cols.end <= stride,
            "band outside the row"
        );
        // SAFETY: `data` is valid for `rows × stride` elements and the
        // exclusive borrow keeps every other reference off it for `'a`.
        unsafe { Self::from_raw(data.as_mut_ptr(), data.len() / stride, stride, cols) }
    }

    /// # Safety
    /// `base` must be valid for reads and writes of `rows × stride`
    /// elements for `'a`, `cols.end <= stride`, and for `'a` nothing else
    /// may access columns `cols` of any row.
    unsafe fn from_raw(base: *mut T, rows: usize, stride: usize, cols: Range<usize>) -> Self {
        ColumnBand {
            base,
            rows,
            stride,
            cols,
            _data: PhantomData,
        }
    }

    /// The columns this band owns.
    pub(crate) fn columns(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Elements from one row to the next.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The band's segment of row `row`: columns `self.columns()`.
    ///
    /// # Panics
    /// Panics if `row` is past the last row.
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row outside the matrix");
        // SAFETY: `row < rows` and `cols.end <= stride` keep the segment
        // inside the matrix, the band owns these columns of every row,
        // and `&mut self` makes this the only live view of them.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(row * self.stride + self.cols.start),
                self.cols.len(),
            )
        }
    }

    /// Pointer to element `(0, cols.start)` of a window the caller is
    /// about to write: columns `cols` of rows `0..rows`. Element
    /// `(r, cols.start + c)` is at offset `r × stride + c`.
    ///
    /// # Panics
    /// Panics — before the caller writes anything — unless the window
    /// lies inside this band's own columns and the matrix's rows. Writes
    /// through the pointer are sound exactly inside that window, while
    /// the band is not otherwise used.
    pub(crate) fn window(&mut self, cols: Range<usize>, rows: usize) -> *mut T {
        assert!(
            self.cols.start <= cols.start && cols.start <= cols.end && cols.end <= self.cols.end,
            "window outside the band's columns"
        );
        assert!(rows <= self.rows, "window outside the matrix");
        self.base.wrapping_add(cols.start)
    }
}

/// Run `f(band)` over column bands of the row-major matrix `data` (rows
/// of `stride` elements) in parallel, one band per [`participants`] of
/// the bytes `data` holds: band `t` owns columns
/// `[t·width, min((t+1)·width, stride))` of every row, with `width` a
/// whole number of `align` columns. Below the fan-out floor the call
/// runs inline on one whole-row band.
///
/// # Panics
/// Panics unless `stride` divides `data.len()`.
pub(crate) fn par_column_bands<T, F>(data: &mut [T], stride: usize, align: usize, f: F)
where
    T: Send,
    F: Fn(ColumnBand<'_, T>) + Sync,
{
    if data.is_empty() {
        return;
    }
    let pool = WorkerPool::global();
    let width = piece_len(stride, size_of_val(data), align, pool.threads());
    if width >= stride {
        f(ColumnBand::new(data, stride, 0..stride));
        return;
    }
    assert!(data.len().is_multiple_of(stride), "ragged matrix");
    let rows = data.len() / stride;
    let parts = SliceParts(data.as_mut_ptr());
    pool.run(stride.div_ceil(width), |t| {
        let cols = t * width..((t + 1) * width).min(stride);
        // SAFETY: task `t` is claimed exactly once and the column ranges
        // `[t·width, (t+1)·width)` are pairwise disjoint by construction,
        // so no two bands share an element; `data` is exclusively
        // borrowed for the whole dispatch.
        f(unsafe { ColumnBand::from_raw(parts.base(), rows, stride, cols) });
    });
}

/// Run `f(start, end)` over contiguous sub-ranges of `0..n` in parallel,
/// one range per [`participants`] of `bytes`, the bytes the whole job
/// moves (the ranges carry no element type to size them from). Below the
/// fan-out floor the call is `f(0, n)` on the calling thread.
pub fn par_ranges<F>(n: usize, bytes: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let pool = WorkerPool::global();
    let chunk = piece_len(n, bytes, 1, pool.threads());
    if chunk >= n {
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

    const B: usize = PARTICIPANT_BYTES;

    #[test]
    fn participants_follow_the_byte_rule() {
        for threads in 1..=4 {
            for bytes in [0, 1, B - 1, B, B + 1, 2 * B - 1] {
                assert_eq!(
                    participants(bytes, threads),
                    1,
                    "{bytes} B, {threads} threads"
                );
            }
            assert_eq!(participants(2 * B, threads), threads.min(2));
            assert_eq!(participants(3 * B, threads), threads.min(3));
            assert_eq!(participants(64 * B, threads), threads);
            assert_eq!(participants(usize::MAX, threads), threads);
        }
        assert_eq!(
            participants(64 * B, 0),
            1,
            "a zero-thread pool has one participant"
        );
    }

    #[test]
    fn four_mib_jobs_split_evenly_across_every_thread() {
        // A 1M-element u32 job (4 MiB, the `hit-random-1m` workload) on
        // up to 4 threads gets one equal piece per thread: the fused
        // sweeps' 1024-row bands in whole 64-byte lines, the row pass in
        // whole 1024-element rows, and the one-pass kernels' ranges.
        let (n, rows, bytes) = (1 << 20, 1 << 10, 4 << 20);
        for threads in 1..=4 {
            assert_eq!(participants(bytes, threads), threads);
            assert_eq!(
                piece_len(rows, bytes, 16, threads),
                rows.div_ceil(threads).next_multiple_of(16)
            );
            assert_eq!(
                piece_len(n, bytes, rows, threads),
                rows.div_ceil(threads) * rows
            );
            assert_eq!(piece_len(n, bytes, 1, threads), n.div_ceil(threads));
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        // 4 MiB + 24 bytes: every thread gets a chunk, the last one short.
        let mut data = vec![0u64; (1 << 19) + 3];
        let chunks = AtomicUsize::new(0);
        par_chunks_mut(&mut data, |start, chunk| {
            chunks.fetch_add(1, Ordering::Relaxed);
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (start + i) as u64;
            }
        });
        assert_eq!(chunks.load(Ordering::Relaxed), worker_threads().min(8));
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn par_column_bands_write_every_element_once() {
        // 2.4 MB, so one band per thread up to four; alignments that
        // leave a short last band, and ones that round the split up to a
        // single whole-row band.
        let (rows, stride) = (37, 16_411);
        let bytes = rows * stride * size_of::<u32>();
        for align in [1, 3, 16, 33, 99, 4_100, 16_411, 20_000] {
            let mut data = vec![0u32; rows * stride];
            let bands = AtomicUsize::new(0);
            par_column_bands(&mut data, stride, align, |mut band| {
                bands.fetch_add(1, Ordering::Relaxed);
                let cols = band.columns();
                assert!(!cols.is_empty() && cols.end <= stride);
                for r in 0..rows {
                    for (c, v) in cols.clone().zip(band.row_mut(r).iter_mut()) {
                        *v += (r * stride + c) as u32 + 1;
                    }
                }
            });
            let width = piece_len(stride, bytes, align, worker_threads());
            assert_eq!(width % align, 0, "align {align}");
            assert_eq!(
                bands.load(Ordering::Relaxed),
                stride.div_ceil(width),
                "align {align}"
            );
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "align {align}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window outside the band's columns")]
    fn column_band_window_must_stay_in_its_columns() {
        let mut data = vec![0u8; 64];
        let mut band = ColumnBand::new(&mut data, 8, 2..6);
        band.window(4..7, 8);
    }

    #[test]
    fn par_ranges_covers_exactly() {
        let n = 12_345;
        for bytes in [0, 2 * B, 64 * B] {
            let hits = AtomicUsize::new(0);
            let calls = AtomicUsize::new(0);
            par_ranges(n, bytes, |s, e| {
                hits.fetch_add(e - s, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n);
            assert_eq!(
                calls.load(Ordering::Relaxed),
                participants(bytes, worker_threads())
            );
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, |_, _| panic!("should not run"));
        par_column_bands(&mut empty, 8, 8, |_| panic!("should not run"));
        par_ranges(0, 64 * B, |_, _| panic!("should not run"));
    }

    #[test]
    fn jobs_below_the_floor_run_inline_as_one_piece() {
        // One byte short of two participants' worth: one call, on the
        // calling thread, over the whole job.
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 2 * B - 1];
        let calls = AtomicUsize::new(0);
        par_chunks_mut(&mut data, |start, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((start, chunk.len()), (0, 2 * B - 1));
            assert_eq!(std::thread::current().id(), caller);
        });
        par_column_bands(&mut data, 2 * B - 1, 1, |band| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(band.columns(), 0..2 * B - 1);
            assert_eq!(std::thread::current().id(), caller);
        });
        par_ranges(1000, 2 * B - 1, |s, e| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((s, e), (0, 1000));
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
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
        // 4 MiB: above the floor, so the chunks go through the pool.
        let mut data = vec![0u8; 4 << 20];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_chunks_mut(&mut data, |start, _| {
                if start == 0 {
                    panic!("chunk panicked");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool keeps serving jobs after the panic.
        par_chunks_mut(&mut data, |_, chunk| chunk.fill(7));
        assert!(data.iter().all(|&v| v == 7));
    }
}
