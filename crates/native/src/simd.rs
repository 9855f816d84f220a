//! Vector micro-kernels for the sweep pipelines and the one-pass
//! structured route — the **only** module in the crate that touches
//! `core::arch`.
//!
//! Three tiers, selected once per sweep by [`select`]:
//!
//! * [`Tier::Scalar`] — plain bounds-checked loops, the always-available
//!   fallback and the correctness oracle the differential suite compares
//!   everything else against;
//! * [`Tier::Unrolled`] — width-agnostic chunked gathers with the bounds
//!   check replaced by a branch-free clamp (a `cmov`, not a branch), so
//!   LLVM unrolls the load/store chain. Works on every architecture;
//! * [`Tier::Avx2`] — `core::arch` x86-64 paths behind **runtime**
//!   feature detection: hardware gathers (`vpgatherdd`/`vpgatherdq`) for
//!   4-/8-byte elements and 8×8 / 4×4 in-register tile transposes.
//!
//! One gather kernel, [`gather_row`], serves both routes: it takes an XOR
//! base, `out[j] = src[base ⊕ idx[j]]`, so a sweep's row gather (base 0,
//! a map row) and a line of the one-pass route (the tile's source base,
//! a row of its offset table) are the same kernel.
//!
//! # Safety
//!
//! Every public-to-the-crate entry point here is a *safe* function:
//!
//! * gather indices are clamped into range before any unchecked access,
//!   so a contract violation (an index past the source — impossible for
//!   the validated plans the callers run) yields a wrong element,
//!   never an out-of-bounds access. Debug builds still assert the
//!   contract;
//! * the AVX2 tier is only reachable through [`Tier::Avx2`], whose sole
//!   constructor is gated on `is_x86_feature_detected!("avx2")`;
//! * strided-transpose windows are bounds-asserted up front — the
//!   destination by the [`ColumnBand`] view, which also checks that the
//!   window lies in the columns its worker owns — and tile offsets stay
//!   inside the asserted window by construction.
//!
//! Non-x86-64 builds compile none of the `core::arch` code: the `Avx2`
//! tier variant still exists but is never constructed, and the remaining
//! `unsafe` is the architecture-independent clamped-gather tier.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as arch;

use crate::par::ColumnBand;
use core::mem::size_of;

/// Proof that the running CPU supports AVX2: the only constructor is
/// [`avx2_token`], which consults runtime feature detection. Carrying the
/// token (inside [`Tier::Avx2`]) is what makes calling the
/// `#[target_feature(enable = "avx2")]` kernels sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Avx2Token(());

/// `Some` iff the running CPU supports AVX2 (cached by `std`'s detection
/// machinery; on non-x86-64 targets, always `None`).
pub(crate) fn avx2_token() -> Option<Avx2Token> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2Token(()));
        }
    }
    None
}

/// The kernel tier a sweep runs at (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Bounds-checked scalar loops — the reference.
    Scalar,
    /// Clamped, unrolled chunked loops — any width, any architecture.
    Unrolled,
    /// Hardware gather + register transposes for 4-/8-byte elements.
    Avx2(Avx2Token),
}

/// Pick the tier for element type `T` under the `simd` toggle: scalar
/// when SIMD is off, the AVX2 tier for 4-/8-byte elements when the CPU
/// has it, the clamped unrolled tier otherwise.
pub(crate) fn select<T>(simd: bool) -> Tier {
    if !simd {
        return Tier::Scalar;
    }
    if size_of::<T>() == 4 || size_of::<T>() == 8 {
        if let Some(token) = avx2_token() {
            return Tier::Avx2(token);
        }
    }
    Tier::Unrolled
}

/// The clamped gather, with an XOR base: `out[j] = src[base ⊕ idx[j]]`.
/// One kernel serves both structured and map-loaded plans:
///
/// * a sweep's row gather passes one input row as `src`, that row's
///   gather-map entries as `idx` and a zero `base`;
/// * a line of the one-pass BMMC route (`crate::scheduled`) passes the
///   whole source array, the tile's source base `G(ybase)` and one row
///   of the tile's offset table (`hmm_perm::LineTiles`).
///
/// Contract (debug-asserted; every index comes from a validated plan,
/// so it holds by construction): `idx.len() == out.len()`, `src`
/// non-empty, and every `base ⊕ idx[j] < src.len()`. Release builds
/// clamp indices instead of checking them, so a violated contract
/// mis-gathers but stays in bounds.
pub(crate) fn gather_row<T: Copy>(tier: Tier, src: &[T], base: u32, idx: &[u32], out: &mut [T]) {
    assert_eq!(idx.len(), out.len(), "gather index / output length");
    assert!(!src.is_empty(), "gather from an empty slice");
    debug_assert!(idx.iter().all(|&i| ((base ^ i) as usize) < src.len()));
    match tier {
        Tier::Scalar => {
            for (slot, &i) in out.iter_mut().zip(idx) {
                *slot = src[(base ^ i) as usize];
            }
        }
        Tier::Unrolled => gather_row_clamped(src, base, idx, out),
        Tier::Avx2(token) => gather_row_avx2(token, src, base, idx, out),
    }
}

/// Full-slice gather with a `usize` map: `out[j] = src[map[j]]` — the
/// γ_w scatter-fallback's hot loop. Same clamping contract as
/// [`gather_row`]. Deliberately *not* software-prefetched: the map is
/// read sequentially and the hardware stride prefetcher covers it, while
/// per-element hints on the scattered targets measured as a 1.4–5× loss
/// on cache-resident families and no win on miss-heavy ones (the
/// out-of-order window already saturates the available memory-level
/// parallelism on this loop shape).
pub(crate) fn gather_map_usize<T: Copy>(tier: Tier, src: &[T], map: &[usize], out: &mut [T]) {
    assert_eq!(map.len(), out.len(), "gather map / output length");
    assert!(!src.is_empty(), "gather from an empty slice");
    debug_assert!(map.iter().all(|&m| m < src.len()));
    if matches!(tier, Tier::Scalar) {
        for (slot, &m) in out.iter_mut().zip(map) {
            *slot = src[m];
        }
        return;
    }
    let limit = src.len() - 1;
    let base = src.as_ptr();
    for (slot, &m) in out.iter_mut().zip(map) {
        // SAFETY: `m.min(limit) <= limit < src.len()`.
        #[allow(unsafe_code)]
        unsafe {
            *slot = *base.add(m.min(limit));
        }
    }
}

/// The clamped, unrolled gather tier: four independent load/store chains
/// per iteration, no bounds-check branches in the loop body.
fn gather_row_clamped<T: Copy>(src: &[T], base: u32, idx: &[u32], out: &mut [T]) {
    // Truncation only lowers the clamp, which stays in bounds.
    let limit = (src.len() - 1) as u32;
    let s = src.as_ptr();
    let n = out.len();
    let o = out.as_mut_ptr();
    let g = idx.as_ptr();
    let mut j = 0;
    // SAFETY (both loops): indices are clamped to `limit < src.len()`
    // before the read; `j + k < n == out.len() == idx.len()` bounds the
    // index reads and output writes.
    #[allow(unsafe_code)]
    unsafe {
        while j + 4 <= n {
            let i0 = (base ^ *g.add(j)).min(limit) as usize;
            let i1 = (base ^ *g.add(j + 1)).min(limit) as usize;
            let i2 = (base ^ *g.add(j + 2)).min(limit) as usize;
            let i3 = (base ^ *g.add(j + 3)).min(limit) as usize;
            *o.add(j) = *s.add(i0);
            *o.add(j + 1) = *s.add(i1);
            *o.add(j + 2) = *s.add(i2);
            *o.add(j + 3) = *s.add(i3);
            j += 4;
        }
        while j < n {
            *o.add(j) = *s.add((base ^ *g.add(j)).min(limit) as usize);
            j += 1;
        }
    }
}

/// AVX2 gather dispatch on the element width. Widths other than 4/8
/// can't reach here ([`select`] routes them to [`Tier::Unrolled`]), and
/// sources past 2^31 elements take the clamped tier too (the hardware
/// gathers take signed 32-bit indices).
fn gather_row_avx2<T: Copy>(token: Avx2Token, src: &[T], base: u32, idx: &[u32], out: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if src.len() <= 1 << 31 {
        match size_of::<T>() {
            // SAFETY: the token proves AVX2; width 4/8 makes the
            // pointer reinterpretations plain bit copies, and the kernels
            // reach them only through unaligned accesses (vector loads,
            // stores and gathers, `read_unaligned`/`write_unaligned`
            // tails), so `T`'s alignment — 1 for byte lanes — is never
            // assumed; indices are clamped inside, below `2^31`.
            #[allow(unsafe_code)]
            4 => unsafe {
                gather_row_u32(
                    src.as_ptr() as *const u32,
                    src.len(),
                    base,
                    idx,
                    out.as_mut_ptr() as *mut u32,
                    out.len(),
                );
                return;
            },
            #[allow(unsafe_code)]
            8 => unsafe {
                gather_row_u64(
                    src.as_ptr() as *const u64,
                    src.len(),
                    base,
                    idx,
                    out.as_mut_ptr() as *mut u64,
                    out.len(),
                );
                return;
            },
            _ => {}
        }
    }
    let _ = token;
    gather_row_clamped(src, base, idx, out);
}

/// `vpgatherdd`: eight 32-bit elements per step, each index vector
/// `splat(base) ⊕ idx[j..j + 8]` clamped in the vector domain so the
/// hardware gather never leaves `src[0..n_in]`.
///
/// # Safety
/// Caller proves AVX2 (token upstream) and that `src[0..n_in]` and
/// `out[0..n_out]` are valid, with `idx.len() == n_out` and
/// `0 < n_in ≤ 2^31`. Neither pointer need be aligned for `u32`: every
/// access through them is unaligned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_row_u32(
    src: *const u32,
    n_in: usize,
    base: u32,
    idx: &[u32],
    out: *mut u32,
    n_out: usize,
) {
    let lim = (n_in - 1) as u32;
    let limit = arch::_mm256_set1_epi32(lim as i32);
    let base_v = arch::_mm256_set1_epi32(base as i32);
    let g = idx.as_ptr();
    let mut j = 0;
    while j + 8 <= n_out {
        // SAFETY: `j + 8 <= n_out == idx.len()` bounds the index load
        // and the store; `min_epu32` against `n_in - 1 < 2^31` bounds
        // every gathered address within `src[0..n_in]`.
        unsafe {
            let iv = arch::_mm256_loadu_si256(g.add(j) as *const arch::__m256i);
            let iv = arch::_mm256_min_epu32(arch::_mm256_xor_si256(iv, base_v), limit);
            let v = arch::_mm256_i32gather_epi32::<4>(src as *const i32, iv);
            arch::_mm256_storeu_si256(out.add(j) as *mut arch::__m256i, v);
        }
        j += 8;
    }
    while j < n_out {
        // SAFETY: clamped index, `j < n_out`; `src` and `out` may be
        // misaligned for `u32`, so both accesses are unaligned.
        unsafe {
            let v = src
                .add((base ^ *g.add(j)).min(lim) as usize)
                .read_unaligned();
            out.add(j).write_unaligned(v);
        }
        j += 1;
    }
}

/// `vpgatherdq`: four 64-bit elements per step (32-bit indices), same
/// XOR base and clamping contract as [`gather_row_u32`].
///
/// # Safety
/// As [`gather_row_u32`], with 8-byte elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_row_u64(
    src: *const u64,
    n_in: usize,
    base: u32,
    idx: &[u32],
    out: *mut u64,
    n_out: usize,
) {
    let lim = (n_in - 1) as u32;
    let limit = arch::_mm_set1_epi32(lim as i32);
    let base_v = arch::_mm_set1_epi32(base as i32);
    let g = idx.as_ptr();
    let mut j = 0;
    while j + 4 <= n_out {
        // SAFETY: `j + 4 <= n_out` bounds the index load and the store;
        // the epu32 clamp bounds every gathered address.
        unsafe {
            let iv = arch::_mm_loadu_si128(g.add(j) as *const arch::__m128i);
            let iv = arch::_mm_min_epu32(arch::_mm_xor_si128(iv, base_v), limit);
            let v = arch::_mm256_i32gather_epi64::<8>(src as *const i64, iv);
            arch::_mm256_storeu_si256(out.add(j) as *mut arch::__m256i, v);
        }
        j += 4;
    }
    while j < n_out {
        // SAFETY: clamped index, `j < n_out`; `src` and `out` may be
        // misaligned for `u64`, so both accesses are unaligned.
        unsafe {
            let v = src
                .add((base ^ *g.add(j)).min(lim) as usize)
                .read_unaligned();
            out.add(j).write_unaligned(v);
        }
        j += 1;
    }
}

/// Strided 2-D transpose into a column band, vector tier: row `c`,
/// column `dst_col0 + r` of `dst` receives `src[r·src_stride + c]` for
/// `r in 0..nr`, `c in 0..nc`, using 8×8 (4-byte) or 4×4 (8-byte)
/// in-register tiles with scalar edges. Returns `false` without touching
/// `dst` when the tier has no vector transpose (scalar/unrolled tiers,
/// or an element width without one) — the caller then runs its own
/// scalar loop.
///
/// # Panics
/// Panics, before anything is written, if the source window doesn't
/// fit `src`, or the destination window — columns
/// `dst_col0..dst_col0 + nr` of rows `0..nc` — leaves the band's own
/// columns or the matrix ([`ColumnBand::window`]).
pub(crate) fn transpose_strided<T: Copy>(
    tier: Tier,
    src: &[T],
    src_stride: usize,
    dst: &mut ColumnBand<'_, T>,
    dst_col0: usize,
    nr: usize,
    nc: usize,
) -> bool {
    let token = match tier {
        Tier::Avx2(token) if size_of::<T>() == 4 || size_of::<T>() == 8 => token,
        _ => return false,
    };
    if nr == 0 || nc == 0 {
        return true;
    }
    assert!(src_stride >= nc, "stride < row length");
    assert!(
        (nr - 1) * src_stride + nc <= src.len(),
        "src window out of bounds"
    );
    let ds = dst.stride();
    let out = dst.window(dst_col0..dst_col0 + nr, nc);
    // Edge elements go one at a time through the band's checked rows.
    let off = dst_col0 - dst.columns().start;
    let edge = |dst: &mut ColumnBand<'_, T>, c: usize, r: usize| {
        dst.row_mut(c)[off + r] = src[r * src_stride + c];
    };
    #[cfg(target_arch = "x86_64")]
    {
        let side = if size_of::<T>() == 4 { 8 } else { 4 };
        let r_full = nr - nr % side;
        let c_full = nc - nc % side;
        for c0 in (0..c_full).step_by(side) {
            for r0 in (0..r_full).step_by(side) {
                let s = r0 * src_stride + c0;
                let d = c0 * ds + r0;
                // SAFETY: the source assert above and the band's window
                // assert bound both whole windows; this tile's farthest
                // element, row `side-1`, column `side-1` from (r0, c0),
                // stays inside them, and the window lies in columns this
                // band alone writes. The token proves AVX2, and width 4/8
                // makes the pointer casts bit-level reinterpretations
                // read/written only via unaligned intrinsics.
                #[allow(unsafe_code)]
                unsafe {
                    if size_of::<T>() == 4 {
                        transpose_tile_8x8_u32(
                            src.as_ptr().add(s) as *const u32,
                            src_stride,
                            out.add(d) as *mut u32,
                            ds,
                        );
                    } else {
                        transpose_tile_4x4_u64(
                            src.as_ptr().add(s) as *const u64,
                            src_stride,
                            out.add(d) as *mut u64,
                            ds,
                        );
                    }
                }
            }
            // r tail for these `side` destination rows.
            for c in c0..c0 + side {
                for r in r_full..nr {
                    edge(dst, c, r);
                }
            }
        }
        // c tail across every row.
        for c in c_full..nc {
            for r in 0..nr {
                edge(dst, c, r);
            }
        }
        let _ = token;
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // `Avx2` is unconstructible off x86-64 (no token constructor),
        // so this arm is unreachable; keep the fallback honest anyway.
        let _ = (token, out, ds, edge);
        false
    }
}

/// 8×8 u32 tile transpose through ymm registers: unpack 32-bit pairs,
/// unpack 64-bit pairs, then recombine 128-bit halves.
///
/// # Safety
/// Caller proves AVX2 and that rows `src + k·src_stride` (8 elements
/// each) and `dst + k·dst_stride` for `k in 0..8` are all in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tile_8x8_u32(
    src: *const u32,
    src_stride: usize,
    dst: *mut u32,
    dst_stride: usize,
) {
    // SAFETY: row pointers in bounds per the function contract; loads
    // and stores are unaligned intrinsics.
    unsafe {
        let ld =
            |k: usize| arch::_mm256_loadu_si256(src.add(k * src_stride) as *const arch::__m256i);
        let (r0, r1, r2, r3) = (ld(0), ld(1), ld(2), ld(3));
        let (r4, r5, r6, r7) = (ld(4), ld(5), ld(6), ld(7));
        let t0 = arch::_mm256_unpacklo_epi32(r0, r1);
        let t1 = arch::_mm256_unpackhi_epi32(r0, r1);
        let t2 = arch::_mm256_unpacklo_epi32(r2, r3);
        let t3 = arch::_mm256_unpackhi_epi32(r2, r3);
        let t4 = arch::_mm256_unpacklo_epi32(r4, r5);
        let t5 = arch::_mm256_unpackhi_epi32(r4, r5);
        let t6 = arch::_mm256_unpacklo_epi32(r6, r7);
        let t7 = arch::_mm256_unpackhi_epi32(r6, r7);
        let u0 = arch::_mm256_unpacklo_epi64(t0, t2);
        let u1 = arch::_mm256_unpackhi_epi64(t0, t2);
        let u2 = arch::_mm256_unpacklo_epi64(t1, t3);
        let u3 = arch::_mm256_unpackhi_epi64(t1, t3);
        let u4 = arch::_mm256_unpacklo_epi64(t4, t6);
        let u5 = arch::_mm256_unpackhi_epi64(t4, t6);
        let u6 = arch::_mm256_unpacklo_epi64(t5, t7);
        let u7 = arch::_mm256_unpackhi_epi64(t5, t7);
        let st = |k: usize, v: arch::__m256i| {
            arch::_mm256_storeu_si256(dst.add(k * dst_stride) as *mut arch::__m256i, v)
        };
        st(0, arch::_mm256_permute2x128_si256::<0x20>(u0, u4));
        st(1, arch::_mm256_permute2x128_si256::<0x20>(u1, u5));
        st(2, arch::_mm256_permute2x128_si256::<0x20>(u2, u6));
        st(3, arch::_mm256_permute2x128_si256::<0x20>(u3, u7));
        st(4, arch::_mm256_permute2x128_si256::<0x31>(u0, u4));
        st(5, arch::_mm256_permute2x128_si256::<0x31>(u1, u5));
        st(6, arch::_mm256_permute2x128_si256::<0x31>(u2, u6));
        st(7, arch::_mm256_permute2x128_si256::<0x31>(u3, u7));
    }
}

/// 4×4 u64 tile transpose through ymm registers.
///
/// # Safety
/// As [`transpose_tile_8x8_u32`], with 4-element rows of u64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tile_4x4_u64(
    src: *const u64,
    src_stride: usize,
    dst: *mut u64,
    dst_stride: usize,
) {
    // SAFETY: row pointers in bounds per the function contract.
    unsafe {
        let ld =
            |k: usize| arch::_mm256_loadu_si256(src.add(k * src_stride) as *const arch::__m256i);
        let (r0, r1, r2, r3) = (ld(0), ld(1), ld(2), ld(3));
        let t0 = arch::_mm256_unpacklo_epi64(r0, r1);
        let t1 = arch::_mm256_unpackhi_epi64(r0, r1);
        let t2 = arch::_mm256_unpacklo_epi64(r2, r3);
        let t3 = arch::_mm256_unpackhi_epi64(r2, r3);
        let st = |k: usize, v: arch::__m256i| {
            arch::_mm256_storeu_si256(dst.add(k * dst_stride) as *mut arch::__m256i, v)
        };
        st(0, arch::_mm256_permute2x128_si256::<0x20>(t0, t2));
        st(1, arch::_mm256_permute2x128_si256::<0x20>(t1, t3));
        st(2, arch::_mm256_permute2x128_si256::<0x31>(t0, t2));
        st(3, arch::_mm256_permute2x128_si256::<0x31>(t1, t3));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::{families, Bmmc, LineTiles};

    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar, Tier::Unrolled];
        if let Some(token) = avx2_token() {
            tiers.push(Tier::Avx2(token));
        }
        tiers
    }

    #[test]
    fn gather_row_matches_scalar_on_every_tier() {
        let in_row: Vec<u32> = (0..301u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let g_row: Vec<u32> = (0..301u32).map(|j| (j * 7 + 3) % 301).collect();
        let mut want = vec![0u32; 301];
        gather_row(Tier::Scalar, &in_row, 0, &g_row, &mut want);
        for tier in tiers() {
            let mut got = vec![0u32; 301];
            gather_row(tier, &in_row, 0, &g_row, &mut got);
            assert_eq!(got, want, "{tier:?}");
        }
    }

    #[test]
    fn gather_row_u64_and_u128_match_scalar() {
        let row64: Vec<u64> = (0..77u64).map(|v| v << 32 | v).collect();
        let row128: Vec<u128> = (0..77u128).map(|v| v << 64 | v).collect();
        let g_row: Vec<u32> = (0..77u32).map(|j| 76 - j).collect();
        for tier in tiers() {
            let mut got64 = vec![0u64; 77];
            gather_row(tier, &row64, 0, &g_row, &mut got64);
            assert!(got64.iter().enumerate().all(|(j, &v)| v == row64[76 - j]));
            let mut got128 = vec![0u128; 77];
            gather_row(tier, &row128, 0, &g_row, &mut got128);
            assert!(got128.iter().enumerate().all(|(j, &v)| v == row128[76 - j]));
        }
    }

    #[test]
    fn gather_map_usize_matches_scalar() {
        let src: Vec<u64> = (0..1000u64).map(|v| v * 3).collect();
        let map: Vec<usize> = (0..1000).map(|j| (j * 31 + 17) % 1000).collect();
        let mut want = vec![0u64; 1000];
        gather_map_usize(Tier::Scalar, &src, &map, &mut want);
        for tier in tiers() {
            let mut got = vec![0u64; 1000];
            gather_map_usize(tier, &src, &map, &mut got);
            assert_eq!(got, want, "{tier:?}");
        }
    }

    #[test]
    fn transpose_strided_matches_scalar_when_it_applies() {
        // (rows, cols, src stride, dst stride): a deliberately ragged
        // 19×13 window inside larger strides, then whole matrices —
        // square, both rectangles, multi-tile, and odd sides on both axes.
        // The band is the last `nr` columns of each destination row, so
        // a stride wider than the window also puts the band off column 0.
        for (nr, nc, ss, ds) in [
            (19usize, 13usize, 23usize, 29usize),
            (64, 64, 64, 64),
            (64, 128, 128, 64),
            (128, 64, 64, 128),
            (192, 320, 320, 192),
            (33, 57, 57, 33),
            (8, 16, 16, 24),
        ] {
            let src: Vec<u32> = (0..(nr * ss) as u32).collect();
            let col0 = ds - nr;
            for tier in tiers() {
                let mut dst = vec![u32::MAX; nc * ds];
                let mut band = ColumnBand::new(&mut dst, ds, col0..ds);
                if !transpose_strided(tier, &src, ss, &mut band, col0, nr, nc) {
                    continue;
                }
                for c in 0..nc {
                    for r in 0..nr {
                        assert_eq!(
                            dst[c * ds + col0 + r],
                            src[r * ss + c],
                            "({r},{c}) {nr}x{nc} {tier:?}"
                        );
                    }
                    let outside = &dst[c * ds..c * ds + col0];
                    assert!(outside.iter().all(|&v| v == u32::MAX), "{tier:?}");
                }
            }
        }
    }

    #[test]
    fn transpose_strided_u64_tiles() {
        let (nr, nc) = (12usize, 20usize);
        let src: Vec<u64> = (0..(nr * nc) as u64).collect();
        for tier in tiers() {
            let mut dst = vec![0u64; nr * nc];
            let mut band = ColumnBand::new(&mut dst, nr, 0..nr);
            if !transpose_strided(tier, &src, nc, &mut band, 0, nr, nc) {
                continue;
            }
            for r in 0..nr {
                for c in 0..nc {
                    assert_eq!(dst[c * nr + r], src[r * nc + c], "({r},{c}) {tier:?}");
                }
            }
        }
    }

    #[test]
    fn scalar_tier_never_claims_the_transpose() {
        let src = [1u32, 2, 3, 4];
        let mut dst = [0u32; 4];
        let mut band = ColumnBand::new(&mut dst, 2, 0..2);
        assert!(!transpose_strided(
            Tier::Scalar,
            &src,
            2,
            &mut band,
            0,
            2,
            2
        ));
        assert_eq!(dst, [0; 4], "declined tier must not touch dst");
    }

    /// Run every line of `tiles` through `gather_row` at `tier`:
    /// `dst[ybase ⊕ h_j + l] = src[G(ybase) ⊕ off[j·2^t + l]]`.
    fn run_tiles<T: Copy>(tier: Tier, tiles: &LineTiles, src: &[T], dst: &mut [T]) {
        let line = tiles.line_len();
        for (ybase, xbase) in tiles.tiles() {
            for (&h, off) in tiles.spans().iter().zip(tiles.offsets().chunks_exact(line)) {
                let y = ybase ^ h;
                gather_row(tier, src, xbase as u32, off, &mut dst[y..y + line]);
            }
        }
    }

    /// `want[y] = src[g(y)]`.
    fn gathered<T: Copy>(g: &Bmmc, src: &[T]) -> Vec<T> {
        (0..src.len()).map(|y| src[g.apply(y)]).collect()
    }

    /// The one-pass route's lines on every tier: a random BMMC over 4K
    /// elements at lines of 1 to 32 elements — below, at and above the
    /// AVX2 lane counts, so every vector body and scalar tail runs — at
    /// 4-, 8- and 16-byte elements.
    #[test]
    fn tile_lines_match_the_gather_on_every_tier() {
        let n = 1 << 12;
        for seed in 1..=3 {
            let g = families::random_bmmc_matrix(n, seed).unwrap();
            let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
            let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v ^ 0xabc).collect();
            let src128: Vec<u128> = (0..n as u128).map(|v| v << 64 | v).collect();
            for t in 0..=5 {
                let tiles = LineTiles::new(&g, t);
                for tier in tiers() {
                    let mut got32 = vec![0u32; n];
                    run_tiles(tier, &tiles, &src32, &mut got32);
                    assert_eq!(got32, gathered(&g, &src32), "u32 t={t} {tier:?}");
                    let mut got64 = vec![0u64; n];
                    run_tiles(tier, &tiles, &src64, &mut got64);
                    assert_eq!(got64, gathered(&g, &src64), "u64 t={t} {tier:?}");
                    let mut got128 = vec![0u128; n];
                    run_tiles(tier, &tiles, &src128, &mut got128);
                    assert_eq!(got128, gathered(&g, &src128), "u128 t={t} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn xor_base_reaches_the_whole_source() {
        // Indices below the base's bits: every tier must XOR the base in
        // before clamping, not clamp the row index alone.
        let src: Vec<u32> = (0..64).collect();
        let idx = [0u32, 1, 2, 3, 4, 5, 6, 7, 9];
        for tier in tiers() {
            let mut out = [0u32; 9];
            gather_row(tier, &src, 0b110000, &idx, &mut out);
            assert_eq!(out, [48, 49, 50, 51, 52, 53, 54, 55, 57], "{tier:?}");
        }
    }

    /// Lanes of `W` bytes starting `off` bytes into a fresh buffer (so
    /// misaligned for `u32`/`u64` whenever `off` is not a multiple of 4
    /// or 8), each lane's bytes distinct from its neighbours'.
    fn lanes_at<const W: usize>(off: usize, len: usize) -> Vec<u8> {
        (0..off + len * W)
            .map(|b| ((b as u32).wrapping_mul(2654435761) >> 24) as u8)
            .collect()
    }

    /// Byte lanes, `[u8; 4]` and `[u8; 8]`, at byte offsets 1–7 on both
    /// sides, through every tier: map rows, `usize` maps, one-pass tile
    /// lines and strided transposes. The AVX2 kernels run them through
    /// `u32`/`u64` pointers; rows whose lengths are not a multiple of the
    /// vector width run the scalar tails too, and a tail that
    /// dereferenced those pointers instead of reading and writing them
    /// unaligned would trip the misaligned-dereference check this debug-
    /// assertion build compiles in.
    #[test]
    fn byte_lane_rows_at_every_misalignment_match_the_scalar_tier() {
        fn check<const W: usize>() {
            for len in [6usize, 13, 77, 301] {
                let g_row: Vec<u32> = (0..len as u32).map(|j| (j * 7 + 3) % len as u32).collect();
                let map: Vec<usize> = g_row.iter().map(|&g| g as usize).collect();
                for off in 1..8 {
                    let in_bytes = lanes_at::<W>(off, len);
                    let in_row = in_bytes[off..].as_chunks::<W>().0;
                    let want: Vec<[u8; W]> = g_row.iter().map(|&g| in_row[g as usize]).collect();
                    for tier in tiers() {
                        let mut out_bytes = vec![0u8; 8 - off + len * W];
                        let out = out_bytes[8 - off..].as_chunks_mut::<W>().0;
                        gather_row(tier, in_row, 0, &g_row, out);
                        assert_eq!(out, &want[..], "gather_row W={W} off={off} {tier:?}");
                        out.fill([0; W]);
                        gather_map_usize(tier, in_row, &map, out);
                        assert_eq!(out, &want[..], "gather_map W={W} off={off} {tier:?}");
                    }
                }
            }
            // One-pass tile lines: whole-array gathers with an XOR base,
            // lines of 4 to 32 lanes.
            let n = 1 << 10;
            let g = families::random_bmmc_matrix(n, 5).unwrap();
            for t in [2, 3, 5] {
                let tiles = LineTiles::new(&g, t);
                for off in 1..8 {
                    let src_bytes = lanes_at::<W>(off, n);
                    let src = src_bytes[off..].as_chunks::<W>().0;
                    let want = gathered(&g, src);
                    for tier in tiers() {
                        let mut out_bytes = vec![0u8; 8 - off + n * W];
                        let out = out_bytes[8 - off..].as_chunks_mut::<W>().0;
                        run_tiles(tier, &tiles, src, out);
                        assert_eq!(out, &want[..], "tile lines W={W} off={off} t={t} {tier:?}");
                    }
                }
            }
            // A ragged strided transpose: tiles plus both edges.
            let (nr, nc, ss, ds) = (19usize, 13usize, 23usize, 29usize);
            let col0 = ds - nr;
            for off in 1..8 {
                let src_bytes = lanes_at::<W>(off, nr * ss);
                let src = src_bytes[off..].as_chunks::<W>().0;
                for tier in tiers() {
                    let mut dst_bytes = vec![0u8; 8 - off + nc * ds * W];
                    let dst = dst_bytes[8 - off..].as_chunks_mut::<W>().0;
                    let mut band = ColumnBand::new(dst, ds, col0..ds);
                    if !transpose_strided(tier, src, ss, &mut band, col0, nr, nc) {
                        continue;
                    }
                    for c in 0..nc {
                        for r in 0..nr {
                            assert_eq!(
                                dst[c * ds + col0 + r],
                                src[r * ss + c],
                                "transpose W={W} off={off} ({r},{c}) {tier:?}"
                            );
                        }
                    }
                }
            }
        }
        check::<4>();
        check::<8>();
    }
}
