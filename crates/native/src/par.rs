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

/// Shared base pointer for handing disjoint chunks of one slice to pool
/// tasks.
///
/// # Safety contract
/// Tasks must derive pairwise-disjoint regions. Both users below
/// ([`par_chunks_mut`]'s chunks and [`par_column_bands`]' column bands)
/// index them by a task id claimed exactly once from the pool's cursor,
/// with region boundaries computed from that id — so no two tasks
/// overlap.
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
/// of `stride` elements) in parallel: band `t` owns columns
/// `[t·width, min((t+1)·width, stride))` of every row. With a single
/// worker or a single band the call runs inline on one whole-row band.
///
/// # Panics
/// Panics unless `stride` divides `data.len()`.
pub(crate) fn par_column_bands<T, F>(data: &mut [T], stride: usize, width: usize, f: F)
where
    T: Send,
    F: Fn(ColumnBand<'_, T>) + Sync,
{
    if data.is_empty() {
        return;
    }
    let width = width.max(1);
    let pool = WorkerPool::global();
    if pool.threads() == 1 || width >= stride {
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
    fn par_column_bands_write_every_element_once() {
        // Widths that split the rows into ragged bands, one band, and
        // bands narrower than a tile.
        let (rows, stride) = (37, 100);
        for width in [1, 3, 16, 33, 99, 100, 1000] {
            let mut data = vec![0u32; rows * stride];
            let bands = AtomicUsize::new(0);
            par_column_bands(&mut data, stride, width, |mut band| {
                bands.fetch_add(1, Ordering::Relaxed);
                let cols = band.columns();
                assert!(!cols.is_empty() && cols.end <= stride);
                for r in 0..rows {
                    for (c, v) in cols.clone().zip(band.row_mut(r).iter_mut()) {
                        *v += (r * stride + c) as u32 + 1;
                    }
                }
            });
            let calls = bands.load(Ordering::Relaxed);
            assert!(
                calls == 1 || calls == stride.div_ceil(width),
                "width {width}"
            );
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "width {width}");
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
        par_column_bands(&mut empty, 8, 8, |_| panic!("should not run"));
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
