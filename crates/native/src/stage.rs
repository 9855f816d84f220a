//! Per-thread staging buffers for the sweep pipeline.
//!
//! The seed allocated (and, worse, *copied into*) a fresh `Vec` per band
//! per sweep: `input[..block * out_rows].to_vec()` cloned data the gather
//! stage immediately overwrote. This module replaces that with one
//! thread-local arena per worker, resized high-water-mark style and
//! reused across every band, sweep, and engine call — the worker pool's
//! threads live for the process (`pool::WorkerPool`), so after warm-up
//! the pipeline allocates nothing.
//!
//! The arena is stored as `Vec<u128>` (16-byte aligned, every byte
//! initialized) and viewed as `&mut [T]` per call. Because a previous
//! call may have left bytes from a *different* element type behind, the
//! view is seed-filled with a caller-supplied valid `T` before it is
//! formed — that keeps the view sound for any `Copy` type (no
//! uninitialized or invalid bit patterns ever become a `T`), and costs
//! one write of a cache-resident buffer per band, which the saved
//! per-band allocation + copy more than pays back.

use std::cell::RefCell;

thread_local! {
    /// One arena per thread, grown to the largest staging request seen.
    static ARENA: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` over this thread's staging arena viewed as `len` elements of
/// `T`, each initialized to `seed`.
///
/// # Panics
/// Panics if `T` needs more than 16-byte alignment, or if called
/// re-entrantly from inside `f` (the kernels never nest stages).
pub(crate) fn with_stage<T: Copy, R>(len: usize, seed: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    assert!(
        core::mem::align_of::<T>() <= core::mem::align_of::<u128>(),
        "staging arena supports alignment up to 16 bytes"
    );
    let words = (len * core::mem::size_of::<T>()).div_ceil(core::mem::size_of::<u128>());
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        if arena.len() < words {
            arena.resize(words, 0);
        }
        let ptr = arena.as_mut_ptr() as *mut T;
        // SAFETY: the arena owns `words * 16 >= len * size_of::<T>()`
        // bytes, `ptr` is 16-byte aligned (≥ align_of::<T>, asserted),
        // and the seed writes below make every element a valid `T`
        // before the slice exists. The RefCell guard gives `f` exclusive
        // access for the view's whole lifetime.
        #[allow(unsafe_code)]
        unsafe {
            for k in 0..len {
                ptr.add(k).write(seed);
            }
            f(core::slice::from_raw_parts_mut(ptr, len))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_is_seeded_and_writable() {
        with_stage(100, 7u32, |buf| {
            assert_eq!(buf.len(), 100);
            assert!(buf.iter().all(|&v| v == 7));
            buf.iter_mut().for_each(|v| *v = 9);
        });
        // A second call re-seeds over the previous contents.
        with_stage(100, 3u64, |buf| {
            assert!(buf.iter().all(|&v| v == 3));
        });
    }

    #[test]
    fn arena_grows_and_is_reused() {
        with_stage(8, 0u8, |buf| buf.fill(0xab));
        with_stage(1 << 16, 1u32, |buf| {
            assert_eq!(buf.len(), 1 << 16);
            assert!(buf.iter().all(|&v| v == 1));
        });
        with_stage(0, 0u128, |buf| assert!(buf.is_empty()));
    }

    #[test]
    fn wide_elements_fit() {
        with_stage(33, [0xffu8; 16], |buf| {
            assert!(buf.iter().all(|&v| v == [0xff; 16]));
        });
    }
}
