//! The scheduled permutation on a real CPU, executed as **three fused
//! memory sweeps**.
//!
//! The GPU implementation (and the simulator) run five passes: row gather,
//! transpose, row gather, transpose, row gather. On the CPU the transposes
//! are pure data movement, so each one is fused into the row gather that
//! precedes it: a single *gather-transpose* sweep reads each input row in
//! the gather order and writes the result transposed. That turns
//!
//! ```text
//! row(g1); transpose; row(g2); transpose; row(g3)     (5 sweeps, 2 scratch)
//! ```
//!
//! into
//!
//! ```text
//! gather_transpose(g1); gather_transpose(g2); row(g3) (3 sweeps, 1 scratch)
//! ```
//!
//! Every sweep still writes memory sequentially (within a blocked tile),
//! and reads stay within one matrix row at a time — a row of a √n-sided
//! matrix fits in L1/L2 — so cache-line and TLB behaviour remains the CPU
//! analog of coalesced access.
//!
//! # The two-stage block pipeline
//!
//! Each gather-transpose worker processes its output band in *input-row
//! blocks* through one per-thread staging buffer ([`crate::stage`] —
//! pooled for the life of the worker, replacing the seed's per-band
//! `to_vec()` copy-allocation):
//!
//! ```text
//! input ── gather block k ──► staging buffer ── transpose block k ──► output band
//! ```
//!
//! 1. **Gather stage**: block *k*'s rows are gathered into the staging
//!    buffer (reads stay inside one contiguous row — L1-resident for
//!    √n-sided shapes — and buffer writes are sequential);
//! 2. **Transpose stage**: block *k* is transposed out of the buffer into
//!    the output band (buffer reads hit L2; output writes are contiguous
//!    runs).
//!
//! The stages strictly alternate over that one buffer. A second buffer
//! (gathering block *k+1* before transposing block *k*) and software
//! prefetch of the gather map were both measured and neither beat noise
//! (EXPERIMENTS.md, "Knob ablation"): the sweeps are bandwidth-bound, and
//! neither moves fewer bytes.
//!
//! Determinism and parallel safety are unchanged from the seed: workers
//! own **disjoint output bands** (whole output rows), every output
//! element is written exactly once, and the block size cannot affect the
//! value written — so every config point (SIMD on/off, any block size or
//! tile) produces byte-identical output.
//!
//! The inner loops are vectorized per [`KernelConfig::simd`]: clamped,
//! unrolled width-specialized paths by default and `core::arch` AVX2
//! gathers/tile-transposes behind runtime detection, with the scalar
//! loops kept as the always-available reference ([`crate::simd`] — the
//! only module that touches `core::arch`). The unfused five-pass
//! reference is the `hmm-backend` sweep-IR interpreter
//! ([`hmm_backend::InterpExec`]).

use crate::config::KernelConfig;
use crate::par::{par_chunks_mut, par_chunks_mut_exact, worker_threads};
use crate::simd::{self, Tier};
use crate::stage;
use core::mem::size_of;
use hmm_perm::{MatrixShape, Permutation};
use hmm_plan::{AffineStep, PassLayout, PlanIr, Result};
use std::time::{Duration, Instant};

/// A CPU-executable scheduled permutation: the three-step decomposition
/// with per-row *gather* maps (destination-ordered) precomputed, plus
/// the kernel tuning the sweeps run with.
#[derive(Debug, Clone)]
pub struct NativeScheduled {
    shape: MatrixShape,
    /// Per-pass geometry, derived from the plan (`PlanIr::pass_layouts`).
    layouts: [PassLayout; 3],
    /// Sweep 1 gather map, flattened `r × c`: row `i` of the intermediate
    /// is `in[i][g1[i*c + k]]` for `k` in `0..c`.
    g1: Vec<u32>,
    /// Sweep 2 gather map on the transposed matrix, flattened `c × r`.
    g2: Vec<u32>,
    /// Sweep 3 gather map, flattened `r × c`.
    g3: Vec<u32>,
    /// The plan's affine descriptors (order `g1, g2, g3`) when it is
    /// structured. With [`KernelConfig::computed_index`] set, the sweeps
    /// compute gather indices from these in registers instead of loading
    /// the materialized maps — the maps are still kept (the map-load
    /// config point executes them), so the flag alone decides the kernel
    /// form at run time.
    affine: Option<[AffineStep; 3]>,
    /// Kernel tuning (block size, tile, SIMD, computed-index).
    config: KernelConfig,
}

impl NativeScheduled {
    /// Build from a permutation; `width` is the tiling constraint handed to
    /// the decomposition (any power of two dividing both matrix dimensions
    /// — 32 matches the GPU schedule and is always safe here). Kernels run
    /// with [`KernelConfig::default`].
    pub fn build(p: &Permutation, width: usize) -> Result<Self> {
        let ir = PlanIr::build_par(p, width, worker_threads())?;
        Self::from_plan(&ir)
    }

    /// Build and also hand back the backend-neutral plan IR, so the caller
    /// can reuse it — stage a simulator run via `hmm-offperm`'s
    /// `Decomposition::from_ir`, or persist it in an `hmm_plan::PlanStore`
    /// — without paying for the König coloring twice.
    pub fn build_shared(p: &Permutation, width: usize) -> Result<(Self, PlanIr)> {
        let ir = PlanIr::build_par(p, width, worker_threads())?;
        let sched = Self::from_plan(&ir)?;
        Ok((sched, ir))
    }

    /// Build from an existing plan IR (shared with a simulator run, or
    /// loaded from the on-disk plan store) with
    /// [`KernelConfig::default`]. The IR already carries the flat gather
    /// maps, so this is a validation pass plus three copies — no
    /// coloring, no per-row inversion.
    pub fn from_plan(ir: &PlanIr) -> Result<Self> {
        Self::from_plan_with(ir, KernelConfig::default())
    }

    /// Build from an existing plan IR with an explicit kernel config —
    /// the seam the engines ([`crate::plan::SharedEngine`]), the bench's
    /// SIMD on/off rows, and the differential suite thread their configs
    /// through.
    ///
    /// The plan contract is checked here (`PlanIr::validate`): the SIMD
    /// gather tiers *clamp* indices instead of bounds-checking them
    /// (`crate::simd`), so a corrupted plan that got past the codec and
    /// store front doors would otherwise mis-gather silently. A violated
    /// contract is a typed [`PlanError::Invalid`](hmm_plan::PlanError)
    /// error, never wrong output.
    pub fn from_plan_with(ir: &PlanIr, config: KernelConfig) -> Result<Self> {
        ir.validate()?;
        Ok(NativeScheduled {
            shape: ir.shape(),
            layouts: ir.pass_layouts(),
            g1: ir.gather1().to_vec(),
            g2: ir.gather2().to_vec(),
            g3: ir.gather3().to_vec(),
            affine: ir.affine().cloned(),
            config,
        })
    }

    /// True when the sweeps will run the computed-index kernels: the
    /// plan carries verified affine descriptors *and* the config has
    /// them enabled.
    pub fn computed_index(&self) -> bool {
        self.affine.is_some() && self.config.computed_index
    }

    /// The per-pass index sources the sweeps run with.
    fn sources(&self) -> [IndexSrc<'_>; 3] {
        match &self.affine {
            Some(steps) if self.config.computed_index => [
                IndexSrc::Affine(&steps[0]),
                IndexSrc::Affine(&steps[1]),
                IndexSrc::Affine(&steps[2]),
            ],
            _ => [
                IndexSrc::Map(&self.g1),
                IndexSrc::Map(&self.g2),
                IndexSrc::Map(&self.g3),
            ],
        }
    }

    /// This schedule with a different kernel config.
    pub fn with_config(mut self, config: KernelConfig) -> Self {
        self.config = config;
        self
    }

    /// The kernel config the sweeps run with.
    pub fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    /// The matrix shape of the passes.
    pub fn shape(&self) -> MatrixShape {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True for a zero-element schedule (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Required scratch length for [`run_with_scratch`](Self::run_with_scratch).
    pub fn scratch_len(&self) -> usize {
        self.len()
    }

    /// Execute `dst[P[i]] = src[i]`, allocating one scratch buffer.
    ///
    /// # Panics
    /// Panics if `src` or `dst` length differs from the schedule's `n`.
    pub fn run<T: Copy + Send + Sync + Default>(&self, src: &[T], dst: &mut [T]) {
        let mut scratch = vec![T::default(); self.scratch_len()];
        self.run_with_scratch(src, dst, &mut scratch);
    }

    /// Execute with a caller-provided scratch buffer of length `n`,
    /// allocation-free after worker warm-up: three fused sweeps,
    /// `src → dst → scratch → dst`.
    pub fn run_with_scratch<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) {
        self.check_lengths(src, dst, scratch);
        let [s1, s2, s3] = self.sources();
        // Sweep 1: row gather (g1) fused with transpose; r×c -> c×r in dst.
        gather_transpose(src, s1, self.layouts[0], dst, &self.config);
        // Sweep 2: row gather (g2) fused with transpose; c×r -> r×c.
        gather_transpose(dst, s2, self.layouts[1], scratch, &self.config);
        // Sweep 3: plain row gather (g3) on the r×c matrix.
        row_pass(scratch, s3, self.layouts[2], dst, &self.config);
    }

    /// [`run_with_scratch`](Self::run_with_scratch), timing each of the
    /// three sweeps: `[gather-transpose 1, gather-transpose 2, row pass]`.
    /// The output is identical; the bench's `sweep_gather` /
    /// `sweep_transpose` / `sweep_row` rows come from here.
    pub fn run_sweeps_timed<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) -> [Duration; 3] {
        self.check_lengths(src, dst, scratch);
        let [s1, s2, s3] = self.sources();
        let t0 = Instant::now();
        gather_transpose(src, s1, self.layouts[0], dst, &self.config);
        let t1 = Instant::now();
        gather_transpose(dst, s2, self.layouts[1], scratch, &self.config);
        let t2 = Instant::now();
        row_pass(scratch, s3, self.layouts[2], dst, &self.config);
        [t1 - t0, t2 - t1, t2.elapsed()]
    }

    fn check_lengths<T>(&self, src: &[T], dst: &[T], scratch: &[T]) {
        let n = self.len();
        assert_eq!(src.len(), n, "src length mismatch");
        assert_eq!(dst.len(), n, "dst length mismatch");
        assert_eq!(scratch.len(), n, "scratch length mismatch");
    }
}

/// How a sweep's gather indices reach the kernels: loaded from a
/// materialized flat map, or computed in registers from the plan's
/// affine descriptor. Mirrors `hmm_backend::IndexSource`, kept local so
/// the hot paths stay free of cross-crate enum matching concerns.
#[derive(Clone, Copy)]
enum IndexSrc<'a> {
    /// Plan-sized flat map, one entry per element.
    Map(&'a [u32]),
    /// Affine descriptor: O(log n) masks folded per element.
    Affine(&'a AffineStep),
}

/// Row-local gather: `out[row][k] = in[row][g[row*cols + k]]`, parallel
/// over bands of rows.
///
/// Band chunks are always whole rows (the band length is a multiple of
/// `cols`), so the row base is hoisted out of the inner loop — the seed
/// computed `pos % cols` per element. The inner gather runs the
/// config-selected kernel tier.
fn row_pass<T: Copy + Send + Sync>(
    input: &[T],
    g: IndexSrc<'_>,
    layout: PassLayout,
    out: &mut [T],
    cfg: &KernelConfig,
) {
    debug_assert_eq!(input.len(), out.len());
    debug_assert!(!layout.fused_transpose);
    let cols = layout.cols;
    let rows = out.len() / cols;
    debug_assert_eq!(rows, layout.rows);
    let tier = simd::select::<T>(cfg.simd);
    let band = rows_per_band(rows) * cols;
    match g {
        IndexSrc::Map(g) => {
            debug_assert_eq!(g.len(), out.len());
            par_chunks_mut(out, band, |start, chunk| {
                debug_assert_eq!(start % cols, 0);
                debug_assert_eq!(chunk.len() % cols, 0);
                for (rr, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                    let base = start + rr * cols;
                    simd::gather_row(
                        tier,
                        &input[base..base + cols],
                        &g[base..base + cols],
                        out_row,
                    );
                }
            });
        }
        IndexSrc::Affine(step) => {
            debug_assert_eq!(step.col_bits(), cols.trailing_zeros());
            let aff = simd::AffineRow::new(step.lo_masks());
            par_chunks_mut(out, band, |start, chunk| {
                debug_assert_eq!(start % cols, 0);
                let row0 = start / cols;
                for (rr, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                    let base = (row0 + rr) * cols;
                    simd::gather_row_affine(
                        tier,
                        &input[base..base + cols],
                        &aff,
                        step.row_base(row0 + rr),
                        0,
                        out_row,
                    );
                }
            });
        }
    }
}

/// Fused row-gather + transpose: for a `rows × cols` input,
/// `out[j*rows + i] = input[i*cols + g[i*cols + j]]` — i.e. apply the
/// per-row gather `g` and store the result transposed (`cols × rows`), in
/// one sweep over memory, through the block pipeline described in the
/// module docs.
///
/// The input and the gather map are streamed from memory exactly once and
/// the output is written exactly once; the staging buffer
/// (≤ `cfg.stage_bytes`) never leaves the cache.
fn gather_transpose<T: Copy + Send + Sync>(
    input: &[T],
    g: IndexSrc<'_>,
    layout: PassLayout,
    out: &mut [T],
    cfg: &KernelConfig,
) {
    let (rows, cols) = (layout.rows, layout.cols);
    debug_assert!(layout.fused_transpose);
    debug_assert_eq!(input.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    if let IndexSrc::Map(g) = g {
        debug_assert_eq!(g.len(), rows * cols);
    }
    if input.is_empty() {
        return;
    }
    let tile = cfg.tile.max(8);
    let tier = simd::select::<T>(cfg.simd);
    // Each worker owns a band of output rows that is a multiple of the
    // tile (or the ragged tail), so tile boundaries never straddle two
    // workers.
    let band_rows = rows_per_band(cols).next_multiple_of(tile);
    let seed = input[0];
    par_chunks_mut_exact(out, band_rows * rows, |start, chunk| {
        let out_row0 = start / rows;
        let out_rows = chunk.len() / rows;
        // Input rows staged per block: block × out_rows elements, sized
        // by the plan's layout hint against the staging budget.
        let block = layout.staging_rows(size_of::<T>(), cfg.stage_bytes, out_rows);
        stage::with_stage(block * out_rows, seed, |stage_buf| {
            let mut i0 = 0;
            while i0 < rows {
                let imax = (i0 + block).min(rows);
                let temp = &mut stage_buf[..(imax - i0) * out_rows];
                gather_block(GatherArgs {
                    input,
                    g,
                    cols,
                    out_row0,
                    out_rows,
                    i0,
                    imax,
                    tier,
                    temp,
                });
                transpose_block(temp, out_rows, i0, rows, tile, tier, chunk);
                i0 = imax;
            }
        });
    });
}

/// Arguments for one gather stage: rows `i0..imax` of the band into the
/// staging buffer (a struct, because eight positional parameters invite
/// transposition bugs).
struct GatherArgs<'a, T> {
    input: &'a [T],
    g: IndexSrc<'a>,
    cols: usize,
    out_row0: usize,
    out_rows: usize,
    i0: usize,
    imax: usize,
    tier: Tier,
    temp: &'a mut [T],
}

/// Gather stage: stage rows `i0..imax` (this worker's `out_rows`-wide
/// slice of each) into `temp`, row-major. The computed path folds each
/// index in registers, so it has no map stream to fetch or evict data
/// with.
fn gather_block<T: Copy>(args: GatherArgs<'_, T>) {
    let GatherArgs {
        input,
        g,
        cols,
        out_row0,
        out_rows,
        i0,
        imax,
        tier,
        temp,
    } = args;
    debug_assert_eq!(temp.len(), (imax - i0) * out_rows);
    match g {
        IndexSrc::Map(g) => {
            for i in i0..imax {
                let in_row = &input[i * cols..(i + 1) * cols];
                let g_row = &g[i * cols + out_row0..i * cols + out_row0 + out_rows];
                let t_row = &mut temp[(i - i0) * out_rows..(i - i0 + 1) * out_rows];
                simd::gather_row(tier, in_row, g_row, t_row);
            }
        }
        IndexSrc::Affine(step) => {
            let aff = simd::AffineRow::new(step.lo_masks());
            for i in i0..imax {
                let in_row = &input[i * cols..(i + 1) * cols];
                let t_row = &mut temp[(i - i0) * out_rows..(i - i0 + 1) * out_rows];
                simd::gather_row_affine(tier, in_row, &aff, step.row_base(i), out_row0, t_row);
            }
        }
    }
}

/// Transpose stage: `blk × out_rows` staging buffer `temp` out into the
/// band's columns `i0..i0+blk` — vector tiles when the tier has them,
/// the seed's tile loop otherwise.
fn transpose_block<T: Copy>(
    temp: &[T],
    out_rows: usize,
    i0: usize,
    rows: usize,
    tile: usize,
    tier: Tier,
    chunk: &mut [T],
) {
    let blk = temp.len() / out_rows.max(1);
    if simd::transpose_strided(tier, temp, 0, out_rows, chunk, i0, rows, blk, out_rows) {
        return;
    }
    let mut jj0 = 0;
    while jj0 < out_rows {
        let jjmax = (jj0 + tile).min(out_rows);
        for jj in jj0..jjmax {
            let run = &mut chunk[jj * rows + i0..jj * rows + i0 + blk];
            for (k, slot) in run.iter_mut().enumerate() {
                *slot = temp[k * out_rows + jj];
            }
        }
        jj0 = jjmax;
    }
}

/// Rows per parallel band: enough rows that each worker gets a contiguous,
/// reasonably large piece.
fn rows_per_band(rows: usize) -> usize {
    rows.div_ceil(worker_threads()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    const W: usize = 32;

    fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    fn fused_layout(rows: usize, cols: usize) -> PassLayout {
        PassLayout {
            rows,
            cols,
            fused_transpose: true,
        }
    }

    #[test]
    fn correct_for_all_families() {
        let n = 1 << 12;
        let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        for fam in families::Family::ALL {
            let p = fam.build(n, 71).unwrap();
            let sched = NativeScheduled::build(&p, W).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, reference(&p, &src), "{}", fam.name());
        }
    }

    #[test]
    fn correct_for_rectangular_sizes() {
        for n in [1 << 11, 1 << 13] {
            let p = families::random(n, 72);
            let src: Vec<u32> = (0..n as u32).collect();
            let sched = NativeScheduled::build(&p, W).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, reference(&p, &src), "n = {n}");
        }
    }

    #[test]
    fn agrees_with_scatter_backend() {
        let n = 1 << 14;
        let p = families::random(n, 73);
        let src: Vec<u32> = (0..n as u32).collect();
        let sched = NativeScheduled::build(&p, W).unwrap();
        let mut via_sched = vec![0u32; n];
        sched.run(&src, &mut via_sched);
        let mut via_scatter = vec![0u32; n];
        crate::scatter::scatter_permute(&src, &p, &mut via_scatter);
        assert_eq!(via_sched, via_scatter);
    }

    #[test]
    fn fused_matches_unfused_for_all_families() {
        // The unfused five-pass reference is the sweep-IR interpreter.
        use hmm_backend::InterpExec;
        let n = 1 << 13;
        let src: Vec<u32> = (0..n as u32).map(|v| v.rotate_left(7)).collect();
        for fam in families::Family::ALL {
            let p = fam.build(n, 9).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            let sched = NativeScheduled::from_plan(&ir).unwrap();
            let mut fused = vec![0u32; n];
            sched.run(&src, &mut fused);
            let interp = InterpExec::new(&ir, sched.kernel_config()).unwrap();
            let mut unfused = vec![0u32; n];
            let mut scratch = vec![0u32; interp.scratch_len()];
            interp.run(&src, &mut unfused, &mut scratch);
            assert_eq!(fused, unfused, "{}", fam.name());
        }
    }

    #[test]
    fn run_with_scratch_reuses_buffers() {
        let n = 1 << 12;
        let p = families::bit_reversal(n).unwrap();
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0u64; n];
        let mut scratch = vec![0u64; sched.scratch_len()];
        for _ in 0..3 {
            sched.run_with_scratch(&src, &mut dst, &mut scratch);
        }
        assert_eq!(dst, reference_u64(&p, &src));
    }

    fn reference_u64(p: &Permutation, src: &[u64]) -> Vec<u64> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    #[test]
    fn build_shared_plan_recomposes() {
        let n = 1 << 10;
        let p = families::random(n, 5);
        let (sched, ir) = NativeScheduled::build_shared(&p, W).unwrap();
        assert_eq!(sched.shape(), ir.shape());
        assert!(ir.matches(&p));
        assert_eq!(ir.recompose().as_slice(), p.as_slice());
    }

    #[test]
    fn from_plan_matches_direct_build() {
        let n = 1 << 10;
        let p = families::random(n, 6);
        let ir = PlanIr::build(&p, W).unwrap();
        let via_plan = NativeScheduled::from_plan(&ir).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        via_plan.run(&src, &mut a);
        NativeScheduled::build(&p, W).unwrap().run(&src, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, reference(&p, &src));
    }

    #[test]
    fn every_config_point_is_byte_identical() {
        let n = 1 << 12;
        let p = families::random(n, 77);
        let ir = PlanIr::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0x5a5a).collect();
        let want = reference(&p, &src);
        let configs = [
            KernelConfig::scalar(),
            KernelConfig::default(),
            KernelConfig {
                stage_bytes: 4096, // many block tails
                tile: 8,
                ..Default::default()
            },
        ];
        for cfg in configs {
            let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
            assert_eq!(sched.kernel_config(), cfg);
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, want, "{cfg:?}");
        }
    }

    #[test]
    fn computed_index_is_byte_identical_across_configs_and_widths() {
        // The full computed-index differential: for every structured
        // family that carries descriptors, the computed kernels (every
        // tier, ragged block shapes) must reproduce
        // the map-loaded scalar reference byte for byte, at u32 and u64.
        let n = 1 << 13;
        let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v ^ 0xabcd).collect();
        let configs = [
            KernelConfig::default(),
            KernelConfig {
                simd: false,
                ..KernelConfig::default()
            },
            KernelConfig {
                stage_bytes: 4096,
                tile: 8,
                ..KernelConfig::default()
            },
        ];
        for fam in families::Family::ALL {
            let p = fam.build(n, 13).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            let reference = NativeScheduled::from_plan_with(&ir, KernelConfig::scalar()).unwrap();
            assert!(!reference.computed_index(), "scalar forces map loads");
            let mut want32 = vec![0u32; n];
            reference.run(&src32, &mut want32);
            let mut want64 = vec![0u64; n];
            reference.run(&src64, &mut want64);
            for cfg in configs {
                let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
                assert_eq!(sched.computed_index(), ir.affine().is_some());
                let mut got32 = vec![0u32; n];
                sched.run(&src32, &mut got32);
                assert_eq!(got32, want32, "{} {cfg:?}", fam.name());
                let mut got64 = vec![0u64; n];
                sched.run(&src64, &mut got64);
                assert_eq!(got64, want64, "{} {cfg:?}", fam.name());
            }
        }
    }

    #[test]
    fn computed_index_flag_is_config_driven() {
        let p = families::bit_reversal(1 << 10).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        assert!(ir.affine().is_some());
        let on = NativeScheduled::from_plan_with(&ir, KernelConfig::default()).unwrap();
        assert!(on.computed_index());
        let off = on.clone().with_config(KernelConfig {
            computed_index: false,
            ..KernelConfig::default()
        });
        assert!(!off.computed_index());
        // Random plans have no descriptors: the flag alone is not enough.
        let pr = families::random(1 << 10, 3);
        let irr = PlanIr::build(&pr, W).unwrap();
        let sched = NativeScheduled::from_plan_with(&irr, KernelConfig::default()).unwrap();
        assert!(!sched.computed_index());
    }

    #[test]
    fn computed_index_handles_ragged_worker_bands() {
        // Rectangular shape (r != c) at a size where worker bands and
        // block tails land on unaligned column offsets — the j0 seams of
        // the affine gather.
        let n = 1 << 11;
        let p = families::shuffle(n).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let want = reference(&p, &src);
        for stage_bytes in [1 << 9, 1 << 12, 1 << 18] {
            let cfg = KernelConfig {
                stage_bytes,
                ..KernelConfig::default()
            };
            let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, want, "stage_bytes={stage_bytes}");
        }
    }

    #[test]
    fn run_sweeps_timed_matches_run() {
        let n = 1 << 12;
        let p = families::random(n, 78);
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; n];
        let sweeps = sched.run_sweeps_timed(&src, &mut dst, &mut scratch);
        assert_eq!(dst, reference(&p, &src));
        assert!(sweeps.iter().all(|d| *d > Duration::ZERO));
    }

    #[test]
    fn gather_transpose_with_identity_gather_is_transpose() {
        for cfg in [KernelConfig::scalar(), KernelConfig::default()] {
            for (r, c) in [(64, 64), (64, 128), (192, 320)] {
                let input: Vec<u32> = (0..(r * c) as u32).collect();
                let identity: Vec<u32> = (0..r).flat_map(|_| 0..c as u32).collect();
                let mut fused = vec![0u32; r * c];
                gather_transpose(
                    &input,
                    IndexSrc::Map(&identity),
                    fused_layout(r, c),
                    &mut fused,
                    &cfg,
                );
                for i in 0..r {
                    for j in 0..c {
                        assert_eq!(
                            fused[j * r + i],
                            input[i * c + j],
                            "({i},{j}) r={r} c={c} {cfg:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn size_mismatch_panics() {
        let p = families::random(1 << 10, 1);
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src = vec![0u32; 1 << 10];
        let mut dst = vec![0u32; 512];
        sched.run(&src, &mut dst);
    }

    #[test]
    fn accessors() {
        let p = families::random(1 << 10, 2);
        let sched = NativeScheduled::build(&p, W).unwrap();
        assert_eq!(sched.len(), 1 << 10);
        assert!(!sched.is_empty());
        assert_eq!(sched.shape().len(), 1 << 10);
        assert_eq!(sched.scratch_len(), 1 << 10);
        let cfg = sched.kernel_config();
        let scalar = sched.clone().with_config(KernelConfig::scalar());
        assert_eq!(scalar.kernel_config(), KernelConfig::scalar());
        assert_eq!(cfg, KernelConfig::default());
    }
}
