//! Cache-line-aligned scratch buffers, and the lock-free pool of them
//! each typed engine handle owns.

use core::mem::size_of;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Bytes per cache line on the hosts the kernels target.
const CACHE_LINE: usize = 64;

/// A scratch buffer of `len` elements (each `T::default()` when
/// allocated) whose first element starts a 64-byte cache line: the
/// backing `Vec` is over-allocated by one line, and the buffer is the
/// aligned window inside it (`align_offset`). Large allocations land
/// 16 bytes past a line, so without the window every 128-byte band run
/// a fused sweep gathers into scratch would touch three lines, not two.
/// Engine scratch and [`NativeScheduled::run`](crate::NativeScheduled::run)
/// allocate through this type; it dereferences to `[T]`.
pub struct ScratchBuf<T> {
    buf: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: Copy + Default> ScratchBuf<T> {
    /// An aligned buffer of `len` default elements.
    pub fn new(len: usize) -> Self {
        let mut scratch = ScratchBuf {
            buf: Vec::new(),
            off: 0,
            len: 0,
        };
        scratch.resize(len);
        scratch
    }

    /// Re-window to `len` default elements, reusing the allocation when
    /// it is large enough.
    fn resize(&mut self, len: usize) {
        let pad = CACHE_LINE.div_ceil(size_of::<T>().max(1));
        self.buf.clear();
        self.buf.resize(len + pad, T::default());
        // An element size that doesn't divide the line may have no
        // aligned start within reach; such a buffer keeps offset 0.
        let off = self.buf.as_ptr().align_offset(CACHE_LINE);
        self.off = if off <= pad { off } else { 0 };
        self.len = len;
    }
}

impl<T> Deref for ScratchBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl<T> DerefMut for ScratchBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Scratch buffers retained for reuse.
pub(crate) const SCRATCH_POOL_CAP: usize = 4;

/// Lock-free pool of [`ScratchBuf`]s: a fixed array of `AtomicPtr` slots.
/// `take` swaps a buffer out (or allocates), `put` swaps one back in (or
/// drops it when every slot is occupied) — steady-state `permute` never
/// takes an exclusive lock for scratch.
pub(crate) struct ScratchPool<T> {
    slots: [AtomicPtr<ScratchBuf<T>>; SCRATCH_POOL_CAP],
}

// SAFETY: the pool owns the pointed-to buffers exclusively (a buffer is
// either in exactly one slot or checked out by exactly one caller — the
// `swap`/`compare_exchange` transitions are atomic), so sharing the pool
// is safe whenever the element type can move between threads.
unsafe impl<T: Send> Send for ScratchPool<T> {}
unsafe impl<T: Send> Sync for ScratchPool<T> {}

impl<T: Copy + Default> ScratchPool<T> {
    pub(crate) fn new() -> Self {
        ScratchPool {
            slots: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    pub(crate) fn take(&self, n: usize) -> ScratchBuf<T> {
        for slot in &self.slots {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: the pointer came from `Box::into_raw` in `put`
                // and the swap above made this thread its sole owner.
                let mut buf = *unsafe { Box::from_raw(p) };
                if buf.len() != n {
                    buf.resize(n);
                }
                return buf;
            }
        }
        ScratchBuf::new(n)
    }

    pub(crate) fn put(&self, buf: ScratchBuf<T>) {
        let p = Box::into_raw(Box::new(buf));
        for slot in &self.slots {
            if slot
                .compare_exchange(ptr::null_mut(), p, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
        // Pool full: release the buffer.
        // SAFETY: `p` was just created by `Box::into_raw` and no slot
        // accepted it, so this thread still owns it.
        drop(unsafe { Box::from_raw(p) });
    }

    pub(crate) fn pooled(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Acquire).is_null())
            .count()
    }
}

impl<T> Drop for ScratchPool<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: sole owner at drop time; pointer from Box::into_raw.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_aligned<T: Copy + Default>(label: &str) {
        let pool = ScratchPool::<T>::new();
        for len in [1, 7, 1 << 16] {
            let buf = pool.take(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0, "{label} len {len}");
            let addr = buf.as_ptr() as usize;
            pool.put(buf);
            let again = pool.take(len);
            assert_eq!(again.as_ptr() as usize, addr, "{label}: the parked buffer");
            assert_eq!(
                again.as_ptr() as usize % CACHE_LINE,
                0,
                "{label} len {len} reused"
            );
            pool.put(again);
            let fresh = ScratchBuf::<T>::new(len);
            assert_eq!(
                fresh.as_ptr() as usize % CACHE_LINE,
                0,
                "{label} len {len} new"
            );
        }
    }

    #[test]
    fn scratch_windows_start_on_a_cache_line() {
        assert_aligned::<u8>("u8");
        assert_aligned::<u32>("u32");
        assert_aligned::<u64>("u64");
        assert_aligned::<u128>("u128");
    }

    #[test]
    fn resized_buffers_are_default_filled_and_aligned() {
        let pool = ScratchPool::<u32>::new();
        let mut buf = pool.take(100);
        buf.fill(7);
        pool.put(buf);
        // A different length re-windows (and may reallocate) the parked
        // buffer; the window is still aligned and holds defaults.
        let buf = pool.take(1 << 12);
        assert_eq!(buf.len(), 1 << 12);
        assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0);
        assert!(buf.iter().all(|&v| v == 0));
    }
}
