//! The lock-free scratch-buffer pool each typed engine handle owns.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Scratch buffers retained for reuse.
pub(crate) const SCRATCH_POOL_CAP: usize = 4;

/// Lock-free pool of scratch buffers: a fixed array of `AtomicPtr` slots.
/// `take` swaps a buffer out (or allocates), `put` swaps one back in (or
/// drops it when every slot is occupied) — steady-state `permute` never
/// takes an exclusive lock for scratch.
pub(crate) struct ScratchPool<T> {
    slots: [AtomicPtr<Vec<T>>; SCRATCH_POOL_CAP],
}

// SAFETY: the pool owns the pointed-to `Vec<T>`s exclusively (a buffer is
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

    pub(crate) fn take(&self, n: usize) -> Vec<T> {
        for slot in &self.slots {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: the pointer came from `Box::into_raw` in `put`
                // and the swap above made this thread its sole owner.
                let mut buf = *unsafe { Box::from_raw(p) };
                if buf.len() != n {
                    buf.clear();
                    buf.resize(n, T::default());
                }
                return buf;
            }
        }
        vec![T::default(); n]
    }

    pub(crate) fn put(&self, buf: Vec<T>) {
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
