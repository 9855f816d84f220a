//! Parallel scatter/gather permutation on the CPU — the wall-clock
//! equivalents of the paper's D-designated and S-designated kernels.
//!
//! On a CPU the role of coalescing is played by cache lines and TLB
//! entries: the gather/scatter side with random indices misses on nearly
//! every access once the array outgrows the last-level cache, exactly like
//! the casual round of the conventional GPU algorithm.
//!
//! Both kernels are allocation-free (they never stage through a temporary
//! buffer). The gather side runs the fastest clamped tier `crate::simd`
//! selects for the host; the scalar tier is the scheduled kernels'
//! reference point (`KernelConfig::scalar`) and is not used here.
//! Neither kernel software-prefetches: an A/B on these loops showed
//! per-element target hints *lose* 1.4–5× on cache-resident families and
//! win nothing on miss-heavy ones — the out-of-order window already
//! extracts the available memory-level parallelism from the simple loop,
//! and the hint's address computation is pure overhead on top. The sweep
//! kernels in `scheduled` do not prefetch either.
//!
//! All three kernels split by `crate::par`'s byte-size rule, from the
//! bytes the output holds: a 64K-element permute (256–512 KiB) runs on
//! the calling thread, and a 1M-element one splits across the pool.

use crate::par::{par_chunks_mut, par_ranges};
use crate::simd;
use core::mem::size_of_val;
use hmm_perm::Permutation;

/// A shared mutable pointer for the scatter kernel.
///
/// # Safety contract
/// Writers must target pairwise-distinct indices. The only constructor is
/// private to this module and the only user is [`scatter_permute`], whose
/// indices are the images of a validated bijection restricted to disjoint
/// input chunks — every destination is written exactly once.
struct ScatterTarget<T>(*mut T);

unsafe impl<T: Send> Sync for ScatterTarget<T> {}

/// Destination-designated permutation, parallel over the *source*:
/// `dst[p[i]] = src[i]`.
///
/// # Panics
/// Panics if the lengths of `src`, `dst`, and `p` differ.
pub fn scatter_permute<T: Copy + Send + Sync>(src: &[T], p: &Permutation, dst: &mut [T]) {
    assert_eq!(src.len(), p.len(), "src length != permutation length");
    assert_eq!(dst.len(), p.len(), "dst length != permutation length");
    if src.is_empty() {
        return;
    }
    let target = ScatterTarget(dst.as_mut_ptr());
    let map = p.as_slice();
    par_ranges(src.len(), size_of_val(dst), |start, end| {
        let target = &target;
        for i in start..end {
            // SAFETY: `p` is a bijection on 0..n (validated at
            // construction), so `map[i]` is in bounds and visited for
            // exactly one `i` across all chunks: no two threads write the
            // same slot, and no write races a read (src and dst are
            // distinct slices by &/&mut exclusivity).
            #[allow(unsafe_code)]
            unsafe {
                *target.0.add(map[i]) = src[i];
            }
        }
    });
}

/// Source-designated permutation, parallel over the *destination*:
/// `dst[i] = src[q[i]]` where `q` must be the inverse of the permutation
/// being applied (`q = p.inverse()`): fully safe, each worker owns a
/// disjoint `dst` chunk.
pub fn gather_permute<T: Copy + Send + Sync>(src: &[T], q: &Permutation, dst: &mut [T]) {
    assert_eq!(src.len(), q.len(), "src length != permutation length");
    assert_eq!(dst.len(), q.len(), "dst length != permutation length");
    if dst.is_empty() {
        return;
    }
    let map = q.as_slice();
    let tier = simd::select::<T>(true);
    par_chunks_mut(dst, |start, chunk| {
        simd::gather_map_usize(tier, src, &map[start..start + chunk.len()], chunk);
    });
}

/// Plain parallel copy — the bandwidth ceiling against which both kernels
/// are measured (the paper's "identical" row).
pub fn copy_baseline<T: Copy + Send + Sync>(src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len());
    par_chunks_mut(dst, |start, chunk| {
        chunk.copy_from_slice(&src[start..start + chunk.len()]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    #[test]
    fn scatter_matches_reference_for_all_families() {
        // 2 MiB of u32: above the fan-out floor, so the job splits across
        // the pool whenever it has more than one thread.
        let n = 1 << 19;
        let src: Vec<u32> = (0..n as u32).collect();
        for fam in families::Family::ALL {
            let p = fam.build(n, 61).unwrap();
            let mut dst = vec![0u32; n];
            scatter_permute(&src, &p, &mut dst);
            assert_eq!(dst, reference(&p, &src), "{}", fam.name());
        }
    }

    #[test]
    fn gather_matches_reference_for_all_families() {
        let n = 1 << 19; // above the fan-out floor, as for scatter
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0xabcd).collect();
        for fam in families::Family::ALL {
            let p = fam.build(n, 62).unwrap();
            let q = p.inverse();
            let mut dst = vec![0u32; n];
            gather_permute(&src, &q, &mut dst);
            assert_eq!(dst, reference(&p, &src), "{}", fam.name());
        }
    }

    #[test]
    fn scatter_and_gather_agree() {
        // Odd size just past three participants' worth: a short last
        // chunk on a pool of three or more threads.
        let n = 3 * crate::par::PARTICIPANT_BYTES / 4 + 7;
        let p = families::random(n, 63);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        scatter_permute(&src, &p, &mut a);
        gather_permute(&src, &p.inverse(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn copy_baseline_copies() {
        let src: Vec<u64> = (0..300_007).collect(); // 2.4 MB: fans out
        let mut dst = vec![0u64; src.len()];
        copy_baseline(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn works_with_doubles() {
        let n = 1 << 12;
        let p = families::bit_reversal(n).unwrap();
        let src: Vec<f64> = (0..n).map(|v| v as f64 * 0.5).collect();
        let mut dst = vec![0.0f64; n];
        scatter_permute(&src, &p, &mut dst);
        for i in 0..n {
            assert_eq!(dst[p.apply(i)], src[i]);
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn scatter_length_mismatch_panics() {
        let p = families::random(16, 1);
        let src = vec![0u32; 16];
        let mut dst = vec![0u32; 8];
        scatter_permute(&src, &p, &mut dst);
    }

    #[test]
    fn tiny_inputs_run_inline() {
        let p = families::random(4, 2);
        let src = vec![1u32, 2, 3, 4];
        let mut dst = vec![0u32; 4];
        scatter_permute(&src, &p, &mut dst);
        assert_eq!(dst, reference(&p, &src));
    }
}
