//! Vector micro-kernels for the sweeps and the one-pass structured
//! route — the **only** module in the crate that touches `core::arch`.
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
//!   4-/8-byte elements, and the 8×8 `u32` in-register tile transpose
//!   that lays a fused sweep's map out band-major.
//!
//! One family of gather kernels writes *runs*, `out[j][k] = src[base ⊕
//! idx[j][k]]`: one into a slice ([`gather_row`]: a row-pass row or a
//! one-pass tile line) or one per output row into a [`ColumnBand`]
//! ([`gather_band`]: a fused sweep's whole band, in one call).
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
//! * output windows are bounds-asserted up front — a slice's by its
//!   length, a band's by the [`ColumnBand`] view, which also checks that
//!   the window lies in the columns its worker owns — and every write
//!   stays inside the asserted window by construction.
//!
//! Non-x86-64 builds compile none of the `core::arch` code: the `Avx2`
//! tier variant still exists but is never constructed, and the remaining
//! `unsafe` is the architecture-independent clamped-gather tier.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as arch;

use crate::par::ColumnBand;
use core::marker::PhantomData;
use core::mem::size_of;
use core::ops::Range;

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
/// * a row-pass row passes one input row as `src`, that row's gather-map
///   entries as `idx` and a zero `base`;
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
    if let Tier::Scalar = tier {
        for (slot, &i) in out.iter_mut().zip(idx) {
            *slot = src[(base ^ i) as usize];
        }
        return;
    }
    gather_runs::<T, true>(tier, src, base, Runs::row(idx, out));
}

/// A fused sweep's banded gather: columns `cols` of every row `j` of
/// `dst` receive `src[idx[j·height + k0 + k]]`, `k < cols.len()`, where
/// `idx` is the band-major map of the band of `height` input rows that
/// holds `cols` (`k0 = cols.start % height`), one `height`-entry run per
/// output row. Same clamping contract as [`gather_row`], with absolute
/// indices.
///
/// # Panics
/// Panics if `idx` is not whole runs, `cols` spans two bands, or the
/// window leaves the band's own columns or the matrix.
pub(crate) fn gather_band<T: Copy>(
    tier: Tier,
    src: &[T],
    idx: &[u32],
    height: usize,
    dst: &mut ColumnBand<'_, T>,
    cols: Range<usize>,
) {
    assert!(!src.is_empty(), "gather from an empty slice");
    debug_assert!(idx.iter().all(|&i| (i as usize) < src.len()));
    if let Tier::Scalar = tier {
        let (k0, off) = (cols.start % height, cols.start - dst.columns().start);
        for (j, idx_run) in idx.chunks_exact(height).enumerate() {
            let out = &mut dst.row_mut(j)[off..off + cols.len()];
            for (slot, &i) in out.iter_mut().zip(&idx_run[k0..k0 + cols.len()]) {
                *slot = src[i as usize];
            }
        }
        return;
    }
    gather_runs::<T, false>(tier, src, 0, Runs::band(idx, height, dst, cols));
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

/// `rows` runs of `run` elements: run `j` reads the indices
/// `idx[j·idx_stride..][..run]` and writes from `out + j·out_stride`.
/// Built only by the two safe constructors, which assert that every run
/// lies in the output they borrow, so the kernels write it unchecked.
struct Runs<'a, T> {
    idx: &'a [u32],
    idx_stride: usize,
    run: usize,
    rows: usize,
    out: *mut T,
    out_stride: usize,
    _out: PhantomData<&'a mut [T]>,
}

impl<'a, T> Runs<'a, T> {
    /// One run: `idx` into all of `out` (same lengths, caller-asserted).
    fn row(idx: &'a [u32], out: &'a mut [T]) -> Self {
        Runs {
            idx,
            idx_stride: idx.len(),
            run: out.len(),
            rows: 1,
            out: out.as_mut_ptr(),
            out_stride: 0,
            _out: PhantomData,
        }
    }

    /// One run per `height` entries of `idx`: columns `cols` of that many
    /// rows of `dst` (see [`gather_band`]).
    fn band(
        idx: &'a [u32],
        height: usize,
        dst: &'a mut ColumnBand<'_, T>,
        cols: Range<usize>,
    ) -> Self {
        let k0 = cols.start % height;
        assert!(k0 + cols.len() <= height, "columns span two bands");
        assert!(
            idx.len().is_multiple_of(height),
            "band map is not whole runs"
        );
        let rows = idx.len() / height;
        Runs {
            idx: &idx[k0..],
            idx_stride: height,
            run: cols.len(),
            rows,
            out_stride: dst.stride(),
            out: dst.window(cols, rows),
            _out: PhantomData,
        }
    }

    /// Run `j`'s indices.
    fn idx_run(&self, j: usize) -> &'a [u32] {
        &self.idx[j * self.idx_stride..][..self.run]
    }

    /// Where run `j`'s output starts (in the window for `j < rows`).
    fn out_run(&self, j: usize) -> *mut T {
        self.out.wrapping_add(j * self.out_stride)
    }
}

/// The clamped, unrolled gather tier: four independent load/store chains
/// per iteration, no bounds-check branches in the loop body.
fn gather_runs_clamped<T: Copy>(src: &[T], base: u32, runs: Runs<'_, T>) {
    // Truncation only lowers the clamp, which stays in bounds.
    let limit = (src.len() - 1) as u32;
    let s = src.as_ptr();
    let n = runs.run;
    for j in 0..runs.rows {
        let g = runs.idx_run(j).as_ptr();
        let o = runs.out_run(j);
        let mut k = 0;
        // SAFETY (both loops): indices are clamped to `limit < src.len()`
        // before the read; `k < n` bounds the index reads (run `j` of
        // `idx` has `n` entries) and the writes (run `j` of the window
        // `Runs` asserted, `j < rows`).
        #[allow(unsafe_code)]
        unsafe {
            while k + 4 <= n {
                let i0 = (base ^ *g.add(k)).min(limit) as usize;
                let i1 = (base ^ *g.add(k + 1)).min(limit) as usize;
                let i2 = (base ^ *g.add(k + 2)).min(limit) as usize;
                let i3 = (base ^ *g.add(k + 3)).min(limit) as usize;
                *o.add(k) = *s.add(i0);
                *o.add(k + 1) = *s.add(i1);
                *o.add(k + 2) = *s.add(i2);
                *o.add(k + 3) = *s.add(i3);
                k += 4;
            }
            while k < n {
                *o.add(k) = *s.add((base ^ *g.add(k)).min(limit) as usize);
                k += 1;
            }
        }
    }
}

/// The vector tiers' gather over `runs`: `out[j][k] = src[base ⊕
/// idx[j][k]]`, indices clamped into `src`. The AVX2 tier dispatches on
/// the element width; other widths can't reach it ([`select`] routes
/// them to [`Tier::Unrolled`]), and sources past 2^31 elements take the
/// clamped tier too (the hardware gathers take signed 32-bit indices).
/// `ONE` marks a single run ([`gather_row`]) so the row loop compiles away
/// (its setup cost the one-pass route's 32-element lines ~8% at 64K).
fn gather_runs<T: Copy, const ONE: bool>(tier: Tier, src: &[T], base: u32, runs: Runs<'_, T>) {
    #[cfg(target_arch = "x86_64")]
    if matches!(tier, Tier::Avx2(_)) && src.len() <= 1 << 31 {
        match size_of::<T>() {
            // SAFETY: the tier's token proves AVX2; width 4/8 makes the
            // pointer reinterpretations plain bit copies, and the kernels
            // reach them only through unaligned accesses (vector loads,
            // stores and gathers, `read_unaligned`/`write_unaligned`
            // tails), so `T`'s alignment — 1 for byte lanes — is never
            // assumed; indices are clamped inside, below `2^31`.
            #[allow(unsafe_code)]
            4 => unsafe {
                gather_runs_u32::<T, ONE>(src.as_ptr().cast(), src.len(), base, &runs);
                return;
            },
            #[allow(unsafe_code)]
            8 => unsafe {
                gather_runs_u64::<T, ONE>(src.as_ptr().cast(), src.len(), base, &runs);
                return;
            },
            _ => {}
        }
    }
    let _ = tier;
    gather_runs_clamped(src, base, runs);
}

/// `vpgatherdd`: eight 32-bit elements per step, each index vector
/// `splat(base) ⊕ idx[j][k..k + 8]` clamped in the vector domain so the
/// hardware gather never leaves `src[0..n_in]`.
///
/// # Safety
/// Caller proves AVX2 (token upstream), that `src[0..n_in]` is valid,
/// with `0 < n_in ≤ 2^31`, and that `T` is 4 bytes wide; `runs` holds its
/// window by construction. Neither `src` nor the window need be aligned
/// for `u32`: every access through them is unaligned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_runs_u32<T, const ONE: bool>(
    src: *const u32,
    n_in: usize,
    base: u32,
    runs: &Runs<'_, T>,
) {
    let lim = (n_in - 1) as u32;
    let limit = arch::_mm256_set1_epi32(lim as i32);
    let base_v = arch::_mm256_set1_epi32(base as i32);
    let n = runs.run;
    for j in 0..if ONE { 1 } else { runs.rows } {
        let g = runs.idx_run(j).as_ptr();
        let o = runs.out_run(j).cast::<u32>();
        let mut k = 0;
        while k + 8 <= n {
            // SAFETY: `k + 8 <= n` bounds the index load (run `j` has `n`
            // entries) and the store (run `j` of the asserted window);
            // `min_epu32` against `n_in - 1 < 2^31` bounds every gathered
            // address within `src[0..n_in]`.
            unsafe {
                let iv = arch::_mm256_loadu_si256(g.add(k) as *const arch::__m256i);
                let iv = arch::_mm256_min_epu32(arch::_mm256_xor_si256(iv, base_v), limit);
                let v = arch::_mm256_i32gather_epi32::<4>(src as *const i32, iv);
                arch::_mm256_storeu_si256(o.add(k) as *mut arch::__m256i, v);
            }
            k += 8;
        }
        while k < n {
            // SAFETY: clamped index, `k < n`; `src` and the window may be
            // misaligned for `u32`, so both accesses are unaligned.
            unsafe {
                let v = src
                    .add((base ^ *g.add(k)).min(lim) as usize)
                    .read_unaligned();
                o.add(k).write_unaligned(v);
            }
            k += 1;
        }
    }
}

/// `vpgatherdq`: four 64-bit elements per step (32-bit indices), same
/// XOR base and clamping contract as [`gather_runs_u32`].
///
/// # Safety
/// As [`gather_runs_u32`], with 8-byte elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_runs_u64<T, const ONE: bool>(
    src: *const u64,
    n_in: usize,
    base: u32,
    runs: &Runs<'_, T>,
) {
    let lim = (n_in - 1) as u32;
    let limit = arch::_mm_set1_epi32(lim as i32);
    let base_v = arch::_mm_set1_epi32(base as i32);
    let n = runs.run;
    for j in 0..if ONE { 1 } else { runs.rows } {
        let g = runs.idx_run(j).as_ptr();
        let o = runs.out_run(j).cast::<u64>();
        let mut k = 0;
        while k + 4 <= n {
            // SAFETY: `k + 4 <= n` bounds the index load and the store;
            // the epu32 clamp bounds every gathered address.
            unsafe {
                let iv = arch::_mm_loadu_si128(g.add(k) as *const arch::__m128i);
                let iv = arch::_mm_min_epu32(arch::_mm_xor_si128(iv, base_v), limit);
                let v = arch::_mm256_i32gather_epi64::<8>(src as *const i64, iv);
                arch::_mm256_storeu_si256(o.add(k) as *mut arch::__m256i, v);
            }
            k += 4;
        }
        while k < n {
            // SAFETY: clamped index, `k < n`; `src` and the window may be
            // misaligned for `u64`, so both accesses are unaligned.
            unsafe {
                let v = src
                    .add((base ^ *g.add(k)).min(lim) as usize)
                    .read_unaligned();
                o.add(k).write_unaligned(v);
            }
            k += 1;
        }
    }
}

/// Strided 2-D transpose of a `u32` map into a column band, each source
/// row offset by its base, vector tier: row `c`, column `dst_col0 + r` of
/// `dst` receives `src[r·src_stride + c] + row_bases[r]` (wrapping) for
/// `r < nr = row_bases.len()`, `c < nc`, using 8×8 in-register tiles
/// with scalar edges — how a fused sweep's row-local gather map is laid
/// out band-major with absolute indices. Returns `false` without
/// touching `dst` when the tier has no vector transpose (scalar/unrolled
/// tiers) — the caller then runs its own scalar loop.
///
/// # Panics
/// Panics, before anything is written, if the source window doesn't
/// fit `src`, or the destination window — columns
/// `dst_col0..dst_col0 + nr` of rows `0..nc` — leaves the band's own
/// columns or the matrix ([`ColumnBand::window`]).
pub(crate) fn transpose_strided(
    tier: Tier,
    src: &[u32],
    src_stride: usize,
    row_bases: &[u32],
    dst: &mut ColumnBand<'_, u32>,
    dst_col0: usize,
    nc: usize,
) -> bool {
    let Tier::Avx2(token) = tier else {
        return false;
    };
    let nr = row_bases.len();
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
    let edge = |dst: &mut ColumnBand<'_, u32>, c: usize, r: usize| {
        dst.row_mut(c)[off + r] = src[r * src_stride + c].wrapping_add(row_bases[r]);
    };
    #[cfg(target_arch = "x86_64")]
    {
        let r_full = nr - nr % 8;
        let c_full = nc - nc % 8;
        for c0 in (0..c_full).step_by(8) {
            for r0 in (0..r_full).step_by(8) {
                // SAFETY: the source assert above and the band's window
                // assert bound both whole windows; this tile's farthest
                // element, row 7, column 7 from (r0, c0), stays inside
                // them, and the window lies in columns this band alone
                // writes; `r0 + 8 <= nr` bounds the eight bases. The token
                // proves AVX2; the tile reads and writes through
                // unaligned intrinsics.
                #[allow(unsafe_code)]
                unsafe {
                    transpose_tile_8x8_u32(
                        src.as_ptr().add(r0 * src_stride + c0),
                        src_stride,
                        row_bases.as_ptr().add(r0),
                        out.add(c0 * ds + r0),
                        ds,
                    );
                }
            }
            // r tail for these 8 destination rows.
            for c in c0..c0 + 8 {
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
/// unpack 64-bit pairs, then recombine 128-bit halves. Source row `k` is
/// offset by `bases[k]`: after the transpose, that is one vector add on
/// every destination row.
///
/// # Safety
/// Caller proves AVX2 and that rows `src + k·src_stride` (8 elements
/// each), `dst + k·dst_stride` for `k in 0..8`, and `bases[0..8]` are
/// all in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tile_8x8_u32(
    src: *const u32,
    src_stride: usize,
    bases: *const u32,
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
        let base = arch::_mm256_loadu_si256(bases as *const arch::__m256i);
        let st = |k: usize, v: arch::__m256i| {
            let v = arch::_mm256_add_epi32(v, base);
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
            let bases: Vec<u32> = (0..nr as u32)
                .map(|r| r.wrapping_mul(0x9e37_79b9))
                .collect();
            let col0 = ds - nr;
            for tier in tiers() {
                let mut dst = vec![u32::MAX; nc * ds];
                let mut band = ColumnBand::new(&mut dst, ds, col0..ds);
                if !transpose_strided(tier, &src, ss, &bases, &mut band, col0, nc) {
                    continue;
                }
                for c in 0..nc {
                    for r in 0..nr {
                        assert_eq!(
                            dst[c * ds + col0 + r],
                            src[r * ss + c].wrapping_add(bases[r]),
                            "({r},{c}) {nr}x{nc} {tier:?}"
                        );
                    }
                    let outside = &dst[c * ds..c * ds + col0];
                    assert!(outside.iter().all(|&v| v == u32::MAX), "{tier:?}");
                }
            }
        }
    }

    /// `want` for [`gather_band`]: columns `cols` of every row of a
    /// `rows × stride` matrix from the band map `idx` of `height`-entry
    /// runs, by the definition.
    fn banded<T: Copy>(src: &[T], idx: &[u32], height: usize, cols: &Range<usize>) -> Vec<T> {
        let k0 = cols.start % height;
        idx.chunks_exact(height)
            .flat_map(|run| run[k0..k0 + cols.len()].iter().map(|&i| src[i as usize]))
            .collect()
    }

    /// A band map of `rows` runs of `height` absolute indices into `n`
    /// elements, scattered over the whole source.
    fn band_map(rows: usize, height: usize, n: usize) -> Vec<u32> {
        (0..rows * height)
            .map(|e| ((e as u64 * 2654435761) % n as u64) as u32)
            .collect()
    }

    /// Band gathers on every tier at 4-, 8- and 16-byte elements: whole
    /// bands of 8, 16 and 32 rows, a band's columns split at an edge that
    /// falls inside it, and runs shorter than one vector — every vector
    /// body and scalar tail — written into a band that is not the
    /// matrix's first, with the columns outside it left alone.
    #[test]
    fn gather_band_matches_the_definition_on_every_tier() {
        fn check<T: Copy + PartialEq + core::fmt::Debug>(make: impl Fn(usize) -> T, fill: T) {
            let n = 4096;
            let src: Vec<T> = (0..n).map(&make).collect();
            let rows = 24;
            for height in [8usize, 16, 32] {
                let idx = band_map(rows, height, n);
                let stride = 3 * height;
                for cols in [
                    height..2 * height,
                    height + 3..2 * height - 1,
                    height + 5..height + 7,
                ] {
                    let want = banded(&src, &idx, height, &cols);
                    for tier in tiers() {
                        let mut dst = vec![fill; rows * stride];
                        let mut band = ColumnBand::new(&mut dst, stride, height..2 * height);
                        gather_band(tier, &src, &idx, height, &mut band, cols.clone());
                        for (j, row) in dst.chunks_exact(stride).enumerate() {
                            let (w, run) = (cols.len(), cols.clone());
                            assert_eq!(
                                &row[run.clone()],
                                &want[j * w..(j + 1) * w],
                                "h={height} {cols:?} row {j} {tier:?}"
                            );
                            let outside = row.iter().enumerate().filter(|(c, _)| !run.contains(c));
                            assert!(outside.into_iter().all(|(_, &v)| v == fill), "{tier:?}");
                        }
                    }
                }
            }
        }
        check(|i| (i as u32).wrapping_mul(2654435761), u32::MAX);
        check(|i| (i as u64) << 32 | i as u64 ^ 0xabc, u64::MAX);
        check(
            |i| ((i as u128) << 64 | i as u128).to_le_bytes(),
            [0xff; 16],
        );
    }

    #[test]
    #[should_panic(expected = "columns span two bands")]
    fn gather_band_refuses_columns_across_two_bands() {
        let src = [0u32; 64];
        let idx = band_map(4, 8, 64);
        let mut dst = vec![0u32; 4 * 16];
        let mut band = ColumnBand::new(&mut dst, 16, 0..16);
        gather_band(Tier::Unrolled, &src, &idx, 8, &mut band, 6..10);
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
            &[0, 0],
            &mut band,
            0,
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
    /// lines and band gathers. The AVX2 kernels run them through
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
            // Band gathers: runs of a band map into a band of a wider
            // matrix, whole and split inside the band.
            let (rows, height, stride) = (13usize, 32usize, 96usize);
            let idx = band_map(rows, height, n);
            for off in 1..8 {
                let src_bytes = lanes_at::<W>(off, n);
                let src = src_bytes[off..].as_chunks::<W>().0;
                for cols in [32..64, 37..59] {
                    let want = banded(src, &idx, height, &cols);
                    for tier in tiers() {
                        let mut dst_bytes = vec![0u8; 8 - off + rows * stride * W];
                        let dst = dst_bytes[8 - off..].as_chunks_mut::<W>().0;
                        let mut band = ColumnBand::new(dst, stride, 32..64);
                        gather_band(tier, src, &idx, height, &mut band, cols.clone());
                        let got: Vec<[u8; W]> = dst
                            .chunks_exact(stride)
                            .flat_map(|row| row[cols.clone()].to_vec())
                            .collect();
                        assert_eq!(got, want, "band W={W} off={off} {cols:?} {tier:?}");
                    }
                }
            }
        }
        check::<4>();
        check::<8>();
    }
}
