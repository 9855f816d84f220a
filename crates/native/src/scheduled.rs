//! The scheduled permutation on a real CPU, executed as **three fused
//! memory sweeps** — or, for a structured (BMMC) plan with
//! [`KernelConfig::computed_index`] set, as **one tiled pass** (see "The
//! one-pass structured route" below).
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
//! # The band kernel
//!
//! A fused sweep's input rows fall into bands of `B = min(32, rows)`
//! rows; a band's input stays in L2 (the CPU's version of the paper's
//! `w`-bank shared-memory tile) and is the output columns `[b·B,
//! (b+1)·B)` of every output row. So nothing is staged: one
//! `simd::gather_band` call gathers every output row's run of the band
//! straight into place through the sweep's band-major absolute index
//! map, `idx[(b·cols + j)·B + k] = (b·B + k)·cols + g[(b·B + k)·cols +
//! j]`, laid out once per plan in place of `g1`/`g2` (DESIGN.md §11).
//! Participants own whole bands by `crate::par`'s byte rule; every output
//! element is written once, so every config point and thread count
//! produces byte-identical output.
//!
//! # The one-pass structured route
//!
//! A structured plan is one gather BMMC `G` (`PlanIr::gather_bmmc`,
//! derived from the plan's three affine descriptors in O(log² n)). Its
//! [`LineTiles`] cut the array into tiles of at most `2^t` whole lines of
//! [`LINE_BYTES`] on each side, so one pass `src → dst` reads and writes
//! every line once, with no scratch, reading no maps:
//!
//! ```text
//! dst[ybase ⊕ h_j + l] = src[G(ybase) ⊕ off[j·2^t + l]]
//! ```
//!
//! Above the fan-out floor, each participant owns a contiguous,
//! line-aligned range of `dst` and runs the lines of every tile that fall
//! in it. [`NativeScheduled::passes`] says which route a schedule runs.
//!
//! The inner loops are vectorized per [`KernelConfig::simd`]: clamped,
//! unrolled width-specialized paths by default and `core::arch` AVX2
//! gathers behind runtime detection, with the scalar loops kept as the
//! always-available reference (the private `simd` module, the only one
//! that touches `core::arch`). The unfused five-pass reference is the
//! `hmm-backend` sweep-IR interpreter ([`hmm_backend::InterpExec`]).

use crate::config::KernelConfig;
use crate::par::{par_column_bands, worker_threads, ColumnBand};
use crate::scratch::ScratchBuf;
use crate::simd::{self, Tier};
use core::mem::size_of;
use hmm_perm::{Bmmc, LineTiles, MatrixShape, Permutation};
use hmm_plan::{PassLayout, PlanIr, Result};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bytes per line of the one-pass structured route: a tile reads and
/// writes whole lines of `LINE_BYTES / size_of::<T>()` elements. Two
/// 64-byte cache lines beat one on most plans (EXPERIMENTS.md, "One
/// tiled pass for structured plans").
pub const LINE_BYTES: usize = 128;

/// `log2` of the largest line, in elements (1-byte elements): the
/// number of line tilings a structured schedule may derive, less one.
const MAX_LINE_BITS: usize = LINE_BYTES.ilog2() as usize;

/// Input rows per band of a fused sweep (fewer when the matrix has fewer
/// rows). Heights of 16–64 tied; 8 and 128 lost (EXPERIMENTS.md, "König
/// sweeps without a staging buffer").
const BAND_ROWS: usize = 32;

/// The band height of a fused sweep over `rows` input rows.
fn band_height(rows: usize) -> usize {
    rows.min(BAND_ROWS)
}

/// A CPU-executable scheduled permutation: the route its config picked
/// for the plan, plus the kernel tuning.
#[derive(Debug, Clone)]
pub struct NativeScheduled {
    shape: MatrixShape,
    /// Per-pass geometry, derived from the plan (`PlanIr::pass_layouts`).
    layouts: [PassLayout; 3],
    route: Passes,
    /// Kernel tuning (SIMD, computed-index; `tile` is read only by the
    /// sweep-IR lowering).
    config: KernelConfig,
}

/// What a run executes.
#[derive(Debug, Clone)]
enum Passes {
    /// The one tiled pass of a structured plan, shared by clones.
    Tiled(Arc<TiledBmmc>),
    /// The band-major maps of `g1` and `g2`, then the plan's `g3`.
    Sweeps([Arc<[u32]>; 3]),
}

impl NativeScheduled {
    /// Build from a permutation; `width` is the tiling constraint handed to
    /// the decomposition (any power of two dividing both matrix dimensions
    /// — 32 matches the GPU schedule and is always safe here). Kernels run
    /// with [`KernelConfig::default`].
    pub fn build(p: &Permutation, width: usize) -> Result<Self> {
        let ir = PlanIr::build_par(p, width, worker_threads())?;
        Ok(Self::from_plan(&ir))
    }

    /// Build and also hand back the backend-neutral plan IR, so the caller
    /// can reuse it — stage a simulator run via `hmm-offperm`'s
    /// `Decomposition::from_ir`, or persist it in an `hmm_plan::PlanStore`
    /// — without paying for the König coloring twice.
    pub fn build_shared(p: &Permutation, width: usize) -> Result<(Self, PlanIr)> {
        let ir = PlanIr::build_par(p, width, worker_threads())?;
        Ok((Self::from_plan(&ir), ir))
    }

    /// Build from an existing plan IR (shared with a simulator run, or
    /// loaded from the on-disk plan store) with
    /// [`KernelConfig::default`]. No check runs: a [`PlanIr`] holds its
    /// contract by construction.
    pub fn from_plan(ir: &PlanIr) -> Self {
        Self::from_plan_with(ir, KernelConfig::default())
    }

    /// Build from an existing plan IR with an explicit kernel config —
    /// the seam the engines ([`crate::plan::SharedEngine`]), the bench's
    /// SIMD on/off rows, and the differential suite thread their configs
    /// through. The config picks the route once: a structured plan with
    /// [`KernelConfig::computed_index`] set runs the tiled pass over its
    /// BMMC; any other lays copies of `g1`/`g2` out band-major and shares
    /// `g3`.
    ///
    /// The SIMD gather tiers *clamp* indices instead of bounds-checking
    /// them (`crate::simd`); that is sound because every gather row of a
    /// `PlanIr` is a permutation of its row, which the builders emit and
    /// the codec checks once, as it decodes a file.
    pub fn from_plan_with(ir: &PlanIr, config: KernelConfig) -> Self {
        Self::from_owned_plan(ir.clone(), config)
    }

    /// [`from_plan_with`](Self::from_plan_with), taking the plan: when it
    /// holds the only reference to `g1`/`g2` (a plan just built or read
    /// from the store), they are laid out in place, so preparing it
    /// allocates no second pair of maps.
    pub fn from_owned_plan(ir: PlanIr, config: KernelConfig) -> Self {
        let (shape, layouts) = (ir.shape(), ir.pass_layouts());
        let route = match ir.gather_bmmc().filter(|_| config.computed_index) {
            Some(gather) => Passes::Tiled(Arc::new(TiledBmmc {
                gather,
                tilings: Default::default(),
                _plan_maps: ir.gathers().clone(),
            })),
            None => {
                let [g1, g2, g3] = ir.gathers().clone();
                drop(ir);
                let tier = simd::select::<u32>(config.simd);
                Passes::Sweeps([
                    band_major(g1, layouts[0], tier),
                    band_major(g2, layouts[1], tier),
                    g3,
                ])
            }
        };
        NativeScheduled {
            shape,
            layouts,
            route,
            config,
        }
    }

    /// True when runs take the map-free one tiled pass: the plan is
    /// structured (it carries verified affine descriptors) *and* the
    /// config has [`KernelConfig::computed_index`] set.
    pub fn computed_index(&self) -> bool {
        matches!(self.route, Passes::Tiled(_))
    }

    /// Passes a run makes over the array: 1 on the tiled structured
    /// route ([`NativeScheduled::computed_index`]), 3 for the fused
    /// sweeps.
    pub fn passes(&self) -> usize {
        if self.computed_index() {
            1
        } else {
            3
        }
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

    /// Required scratch length for [`run_with_scratch`](Self::run_with_scratch):
    /// `n` for the three sweeps, 0 on the one-pass route.
    pub fn scratch_len(&self) -> usize {
        if self.computed_index() {
            0
        } else {
            self.len()
        }
    }

    /// Execute `dst[P[i]] = src[i]`, allocating one cache-line-aligned
    /// scratch buffer ([`ScratchBuf`]).
    ///
    /// # Panics
    /// Panics if `src` or `dst` length differs from the schedule's `n`.
    pub fn run<T: Copy + Send + Sync + Default>(&self, src: &[T], dst: &mut [T]) {
        let mut scratch = ScratchBuf::new(self.scratch_len());
        self.run_with_scratch(src, dst, &mut scratch);
    }

    /// Execute with a caller-provided scratch buffer of
    /// [`scratch_len`](Self::scratch_len) elements, allocation-free: the
    /// one tiled pass `src → dst` on structured plans with
    /// [`KernelConfig::computed_index`] set (which reads no scratch, so
    /// any length is accepted), otherwise three fused sweeps,
    /// `src → dst → scratch → dst`.
    pub fn run_with_scratch<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) {
        self.run_sweeps_timed(src, dst, scratch);
    }

    /// [`run_with_scratch`](Self::run_with_scratch), timing each pass:
    /// `[sweep 1, sweep 2, sweep 3]` — the two fused gather-transpose
    /// sweeps, then the row pass. A one-pass run ([`passes`](Self::passes)
    /// of 1) reports its tiled pass as sweep 1 and zero for sweeps 2 and
    /// 3. The output is identical; the bench's `sweep1` / `sweep2` /
    /// `sweep3` rows come from here.
    pub fn run_sweeps_timed<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) -> [Duration; 3] {
        let n = self.len();
        assert_eq!(src.len(), n, "src length mismatch");
        assert_eq!(dst.len(), n, "dst length mismatch");
        let t0 = Instant::now();
        let [m1, m2, g3] = match &self.route {
            Passes::Tiled(tiled) => {
                tiled.run(src, dst, self.config.simd);
                return [t0.elapsed(), Duration::ZERO, Duration::ZERO];
            }
            Passes::Sweeps(maps) => maps,
        };
        assert_eq!(scratch.len(), n, "scratch length mismatch");
        let tier = simd::select::<T>(self.config.simd);
        // Sweep 1: row gather (g1) fused with transpose; r×c -> c×r in dst.
        band_sweep(src, m1, self.layouts[0], dst, tier);
        let t1 = Instant::now();
        // Sweep 2: row gather (g2) fused with transpose; c×r -> r×c.
        band_sweep(dst, m2, self.layouts[1], scratch, tier);
        let t2 = Instant::now();
        // Sweep 3: plain row gather (g3) on the r×c matrix.
        row_pass(scratch, g3, self.layouts[2], dst, tier);
        [t1 - t0, t2 - t1, t2.elapsed()]
    }
}

/// A structured plan's one-pass form: its gather BMMC `G`
/// (`dst[y] = src[G(y)]`) and, per line length, the line tiling of `G`
/// ([`LineTiles`]), derived on the first run at that element width.
#[derive(Debug)]
struct TiledBmmc {
    gather: Bmmc,
    /// `tilings[t]`: the tiling over lines of `2^t` elements.
    tilings: [OnceLock<LineTiles>; MAX_LINE_BITS + 1],
    /// The plan's maps, which the pass never reads. Held for the plan's
    /// life all the same: dropping them as soon as a store hit was
    /// prepared let the allocator trim them off the heap and fault them
    /// back in on the next request (`miss-churn` p95 +17%, EXPERIMENTS.md).
    _plan_maps: [Arc<[u32]>; 3],
}

impl TiledBmmc {
    /// The one tiled pass, `dst[y] = src[G(y)]`: every tile gathers each
    /// of its whole destination lines from its whole source lines
    /// through the tiling's offset table. Above the fan-out floor each
    /// participant owns a contiguous, line-aligned range of `dst`
    /// (`crate::par`'s byte rule, as for the sweeps) and runs the lines
    /// of every tile that fall in it.
    fn run<T: Copy + Send + Sync>(&self, src: &[T], dst: &mut [T], simd: bool) {
        let tiles = self.tiling::<T>();
        let tier = simd::select::<T>(simd);
        let n = dst.len();
        par_column_bands(dst, n, tiles.line_len(), |mut band| {
            let start = band.columns().start;
            tile_lines(tiles, src, tier, start, band.row_mut(0));
        });
    }

    /// The tiling over lines of [`LINE_BYTES`] of `T` (fewer bytes for
    /// elements that do not divide it; one element for larger ones).
    fn tiling<T>(&self) -> &LineTiles {
        let t = (LINE_BYTES / size_of::<T>().max(1)).max(1).ilog2();
        self.tilings[t as usize].get_or_init(|| LineTiles::new(&self.gather, t))
    }
}

/// One participant's share of the tiled pass: `out` is
/// `dst[start..start + out.len()]`, line-aligned, and receives the lines
/// of every tile that fall in it, `dst[ybase ⊕ h_j + l] =
/// src[G(ybase) ⊕ off[j·2^t + l]]`.
fn tile_lines<T: Copy>(tiles: &LineTiles, src: &[T], tier: Tier, start: usize, out: &mut [T]) {
    let line = tiles.line_len();
    let owned = start..start + out.len();
    for (ybase, xbase) in tiles.tiles() {
        for (&h, off) in tiles.spans().iter().zip(tiles.offsets().chunks_exact(line)) {
            let y = ybase ^ h;
            if owned.contains(&y) {
                let at = y - start;
                simd::gather_row(tier, src, xbase as u32, off, &mut out[at..at + line]);
            }
        }
    }
}

/// Row-local gather: `out[row][k] = in[row][g[row*cols + k]]`, parallel
/// over bands of whole rows when the sweep is large enough to fan out
/// (`crate::par`).
fn row_pass<T: Copy + Send + Sync>(
    input: &[T],
    g: &[u32],
    layout: PassLayout,
    out: &mut [T],
    tier: Tier,
) {
    debug_assert_eq!(input.len(), out.len());
    debug_assert!(!layout.fused_transpose);
    let cols = layout.cols;
    debug_assert_eq!(out.len() / cols, layout.rows);
    // `out` as one row of `n` columns, banded in whole matrix rows.
    let n = out.len();
    par_column_bands(out, n, cols, |mut band| {
        let row0 = band.columns().start / cols;
        gather_rows(input, g, cols, row0, tier, band.row_mut(0));
    });
}

/// Gather whole rows `row0..row0 + out.len() / cols` of the row-major
/// `input` into `out`: `out[r][k] = input[row0 + r][g[(row0 + r)·cols + k]]`
/// — a [`row_pass`] band. The row base is hoisted out of the inner loop,
/// which runs the tier's kernel.
fn gather_rows<T: Copy>(
    input: &[T],
    g: &[u32],
    cols: usize,
    row0: usize,
    tier: Tier,
    out: &mut [T],
) {
    debug_assert_eq!(out.len() % cols, 0);
    let span = row0 * cols..row0 * cols + out.len();
    for ((in_row, g_row), out_row) in input[span.clone()]
        .chunks_exact(cols)
        .zip(g[span].chunks_exact(cols))
        .zip(out.chunks_exact_mut(cols))
    {
        simd::gather_row(tier, in_row, 0, g_row, out_row);
    }
}

/// The band-major absolute index map of one fused sweep's row-local map
/// `g` (module docs), laid out in `g`'s own storage when nothing else
/// holds it (a copy otherwise): each `B × cols` band is copied aside and
/// transposed back into its `cols × B` block, every source row offset by
/// its base (8×8 register tiles on the AVX2 tier add the bases as they
/// store). Absolute indices fit in `u32`: plans index in `u32` (`n ≤
/// 2^32`), as the one-pass route's source bases do.
fn band_major(mut g: Arc<[u32]>, layout: PassLayout, tier: Tier) -> Arc<[u32]> {
    let (rows, cols) = (layout.rows, layout.cols);
    let height = band_height(rows);
    let span = height * cols;
    debug_assert_eq!(g.len(), rows * cols);
    debug_assert!(rows.is_multiple_of(height), "ragged band");
    let mut band = vec![0; span];
    let mut bases = [0u32; BAND_ROWS];
    let bases = &mut bases[..height];
    for (b, idx_band) in Arc::make_mut(&mut g).chunks_exact_mut(span).enumerate() {
        band.copy_from_slice(idx_band);
        for (k, base) in bases.iter_mut().enumerate() {
            *base = ((b * height + k) * cols) as u32;
        }
        let mut view = ColumnBand::new(idx_band, height, 0..height);
        if !simd::transpose_strided(tier, &band, cols, bases, &mut view, 0, cols) {
            for (j, run) in idx_band.chunks_exact_mut(height).enumerate() {
                for (k, slot) in run.iter_mut().enumerate() {
                    *slot = band[k * cols + j] + bases[k];
                }
            }
        }
    }
    g
}

/// Fused row-gather + transpose over the band-major map `idx` of the
/// sweep's `g` ([`band_major`]): for a `rows × cols` input,
/// `out[j*rows + i] = input[i*cols + g[i*cols + j]]`. Each participant
/// owns whole bands of input rows, the same columns of every output row.
fn band_sweep<T: Copy + Send + Sync>(
    input: &[T],
    idx: &[u32],
    layout: PassLayout,
    out: &mut [T],
    tier: Tier,
) {
    debug_assert!(layout.fused_transpose);
    debug_assert_eq!(input.len(), layout.rows * layout.cols);
    debug_assert_eq!(out.len(), input.len());
    debug_assert_eq!(idx.len(), input.len());
    par_column_bands(out, layout.rows, band_height(layout.rows), |mut band| {
        gather_bands(input, idx, layout, tier, &mut band);
    });
}

/// One participant's share of a fused sweep: for every band of input
/// rows in its columns — or part of one, at an edge that does not fall
/// on a band boundary — one [`simd::gather_band`] call writes the band's
/// run of every output row.
fn gather_bands<T: Copy>(
    input: &[T],
    idx: &[u32],
    layout: PassLayout,
    tier: Tier,
    band: &mut ColumnBand<'_, T>,
) {
    let height = band_height(layout.rows);
    let span = height * layout.cols;
    let owned = band.columns();
    let mut c = owned.start;
    while c < owned.end {
        let b = c / height;
        let end = ((b + 1) * height).min(owned.end);
        simd::gather_band(tier, input, &idx[b * span..][..span], height, band, c..end);
        c = end;
    }
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
            let sched = NativeScheduled::from_plan(&ir);
            let mut fused = vec![0u32; n];
            sched.run(&src, &mut fused);
            let interp = InterpExec::new(&ir, sched.kernel_config());
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
        let via_plan = NativeScheduled::from_plan(&ir);
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
                tile: 8, // read only by the sweep-IR lowering
                ..Default::default()
            },
        ];
        for cfg in configs {
            let sched = NativeScheduled::from_plan_with(&ir, cfg);
            assert_eq!(sched.kernel_config(), cfg);
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, want, "{cfg:?}");
        }
    }

    #[test]
    fn computed_index_is_byte_identical_across_configs_and_widths() {
        // The full computed-index differential: for every structured
        // family that carries descriptors, the one tiled pass (SIMD on
        // and off) must reproduce the map-loaded scalar reference byte
        // for byte, at u32 and u64.
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
                tile: 8,
                ..KernelConfig::default()
            },
        ];
        for fam in families::Family::ALL {
            let p = fam.build(n, 13).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            let reference = NativeScheduled::from_plan_with(&ir, KernelConfig::scalar());
            assert!(!reference.computed_index(), "scalar forces map loads");
            let mut want32 = vec![0u32; n];
            reference.run(&src32, &mut want32);
            let mut want64 = vec![0u64; n];
            reference.run(&src64, &mut want64);
            for cfg in configs {
                let sched = NativeScheduled::from_plan_with(&ir, cfg);
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
        let on = NativeScheduled::from_plan_with(&ir, KernelConfig::default());
        assert!(on.computed_index());
        let off = NativeScheduled::from_plan_with(
            &ir,
            KernelConfig {
                computed_index: false,
                ..KernelConfig::default()
            },
        );
        assert!(!off.computed_index());
        let src: Vec<u32> = (0..1 << 10).collect();
        let mut dst = vec![0u32; 1 << 10];
        off.run(&src, &mut dst);
        assert_eq!(dst, reference(&p, &src));
        // Random plans have no descriptors: the flag alone is not enough.
        let pr = families::random(1 << 10, 3);
        let irr = PlanIr::build(&pr, W).unwrap();
        let sched = NativeScheduled::from_plan_with(&irr, KernelConfig::default());
        assert!(!sched.computed_index());
    }

    #[test]
    fn computed_index_handles_ragged_worker_bands() {
        // 256K–1M elements of u32 and u64 (1–8 MiB): above the fan-out
        // floor, so at 3 worker threads the line-aligned `dst` ranges are
        // ragged and every tile's lines are split between participants.
        for n in [1 << 18, 1 << 19, 1 << 20] {
            let plans = [
                families::bit_reversal(n).unwrap(),
                families::random_bmmc(n, 21).unwrap(),
                families::transpose(1 << 9, n >> 9, n).unwrap(),
            ];
            let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
            let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v ^ 0xabcd).collect();
            for p in plans {
                let sched = NativeScheduled::build(&p, W).unwrap();
                assert_eq!(sched.passes(), 1);
                let mut got32 = vec![0u32; n];
                sched.run(&src32, &mut got32);
                assert_eq!(got32, reference(&p, &src32), "n={n}");
                let mut got64 = vec![0u64; n];
                sched.run(&src64, &mut got64);
                assert_eq!(got64, reference_u64(&p, &src64), "n={n}");
            }
        }
    }

    #[test]
    fn one_pass_timing_reports_one_sweep() {
        let n = 1 << 12;
        let p = families::random_bmmc(n, 79).unwrap();
        let sched = NativeScheduled::build(&p, W).unwrap();
        assert_eq!((sched.passes(), sched.scratch_len()), (1, 0));
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let [pass, s2, s3] = sched.run_sweeps_timed(&src, &mut dst, &mut []);
        assert_eq!(dst, reference(&p, &src));
        assert!(pass > Duration::ZERO);
        assert_eq!((s2, s3), (Duration::ZERO, Duration::ZERO));
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
        // Square, both rectangles, and fewer rows than one band.
        for tier in tiers() {
            for (r, c) in [(64, 64), (64, 128), (192, 320), (8, 16), (16, 8)] {
                let input: Vec<u32> = (0..(r * c) as u32).collect();
                let identity: Vec<u32> = (0..r).flat_map(|_| 0..c as u32).collect();
                let layout = fused_layout(r, c);
                let idx = band_major(identity.into(), layout, tier);
                let mut fused = vec![0u32; r * c];
                band_sweep(&input, &idx, layout, &mut fused, tier);
                for i in 0..r {
                    for j in 0..c {
                        assert_eq!(
                            fused[j * r + i],
                            input[i * c + j],
                            "({i},{j}) r={r} c={c} {tier:?}"
                        );
                    }
                }
            }
        }
    }

    /// The band-major map by its defining formula.
    fn naive_band_major(g: &[u32], rows: usize, cols: usize) -> Vec<u32> {
        let h = band_height(rows);
        let mut idx = vec![0u32; g.len()];
        for b in 0..rows / h {
            for j in 0..cols {
                for k in 0..h {
                    let i = b * h + k;
                    idx[(b * cols + j) * h + k] = (i * cols) as u32 + g[i * cols + j];
                }
            }
        }
        idx
    }

    #[test]
    fn band_major_matches_the_formula_on_every_tier() {
        // Bands of 32 rows over square and rectangular maps, columns
        // that are not a multiple of the 8×8 tile, and fewer rows than
        // one band (a width-8 plan's 8 and 16 rows).
        for (rows, cols) in [
            (64, 64),
            (64, 128),
            (128, 64),
            (96, 20),
            (8, 16),
            (16, 8),
            (8, 8),
        ] {
            let g: Vec<u32> = (0..rows * cols)
                .map(|e| ((e / cols * 7 + e % cols * 5) % cols) as u32)
                .collect();
            let want = naive_band_major(&g, rows, cols);
            for tier in tiers() {
                // Laid out in place (the only reference) and from a
                // shared map, which stays as it was.
                let shared: Arc<[u32]> = g.clone().into();
                let copied = band_major(shared.clone(), fused_layout(rows, cols), tier);
                let in_place = band_major(g.clone().into(), fused_layout(rows, cols), tier);
                assert_eq!(&copied[..], &want[..], "{rows}x{cols} {tier:?}");
                assert_eq!(&in_place[..], &want[..], "{rows}x{cols} {tier:?}");
                assert_eq!(&shared[..], &g[..], "a shared map is copied, not changed");
            }
        }
    }

    #[test]
    fn an_owned_plan_is_laid_out_in_its_own_maps() {
        let p = families::random(1 << 12, 86);
        let ir = PlanIr::build(&p, W).unwrap();
        let src: Vec<u32> = (0..1 << 12).collect();
        let [g1, g2, _] = ir.gathers().clone().map(|g| g.as_ptr());
        // A shared plan is copied: its maps stay as they were.
        let copied = NativeScheduled::from_plan_with(&ir, KernelConfig::default());
        let owned = NativeScheduled::from_owned_plan(ir, KernelConfig::default());
        for (sched, same) in [(copied, false), (owned, true)] {
            let Passes::Sweeps([m1, m2, _]) = &sched.route else {
                panic!("a König plan runs the sweeps");
            };
            assert_eq!((m1.as_ptr() == g1, m2.as_ptr() == g2), (same, same));
            let mut dst = vec![0u32; 1 << 12];
            sched.run(&src, &mut dst);
            assert_eq!(dst, reference(&p, &src));
        }
    }

    #[test]
    fn konig_sweeps_handle_ragged_worker_bands() {
        // 256K–1M elements of u32 and u64 (1–8 MiB): above the fan-out
        // floor, so at 3 worker threads the fused sweeps' whole 32-row
        // bands split unevenly between participants (1M u32: 352, 352
        // and 320 of 1024 input rows).
        for n in [1 << 18, 1 << 20] {
            let p = families::random(n, 83);
            let sched = NativeScheduled::build(&p, W).unwrap();
            assert_eq!(sched.passes(), 3);
            let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
            let mut got32 = vec![0u32; n];
            sched.run(&src32, &mut got32);
            assert_eq!(got32, reference(&p, &src32), "n={n}");
            let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v ^ 0xabcd).collect();
            let mut got64 = vec![0u64; n];
            sched.run(&src64, &mut got64);
            assert_eq!(got64, reference_u64(&p, &src64), "n={n}");
        }
    }

    /// Run `sched` on the calling thread split at the explicit `edges`
    /// (out of 64), at kernel tier `tier`. The three sweeps split each
    /// fused sweep's input rows at those fractions, wherever they fall
    /// in a band; the one pass splits `dst` into the line ranges at
    /// those fractions.
    fn run_banded<T: Copy + Default>(
        sched: &NativeScheduled,
        src: &[T],
        edges: &[usize],
        tier: Tier,
    ) -> Vec<T> {
        let mut dst = vec![T::default(); src.len()];
        let [m1, m2, g3] = match &sched.route {
            Passes::Sweeps(maps) => maps,
            Passes::Tiled(tiled) => {
                let tiles = tiled.tiling::<T>();
                let lines = src.len() / tiles.line_len();
                let at = |e: usize| e * lines / 64 * tiles.line_len();
                for w in edges.windows(2) {
                    let out = &mut dst[at(w[0])..at(w[1])];
                    tile_lines(tiles, src, tier, at(w[0]), out);
                }
                return dst;
            }
        };
        let fused = |input: &[T], idx, layout: PassLayout, out: &mut [T]| {
            let at = |e: usize| e * layout.rows / 64;
            for w in edges.windows(2) {
                let mut band = ColumnBand::new(out, layout.rows, at(w[0])..at(w[1]));
                gather_bands(input, idx, layout, tier, &mut band);
            }
        };
        let mut scratch = vec![T::default(); src.len()];
        fused(src, m1, sched.layouts[0], &mut dst);
        fused(&dst, m2, sched.layouts[1], &mut scratch);
        let cols = sched.layouts[2].cols;
        gather_rows(&scratch, g3, cols, 0, tier, &mut dst);
        dst
    }

    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar, Tier::Unrolled];
        if let Some(token) = simd::avx2_token() {
            tiers.push(Tier::Avx2(token));
        }
        tiers
    }

    /// Every split of every route on every tier, at element type `T`:
    /// the three sweeps on König plans at square and rectangular shapes
    /// (and one with fewer rows than a band, from a width-8 plan) and on
    /// a structured plan with `computed_index` off; the one pass on two
    /// structured plans.
    fn check_ragged_bands<T>(make: impl Fn(u32) -> T)
    where
        T: Copy + Default + PartialEq + core::fmt::Debug,
    {
        let n = 1 << 12;
        let plans = [
            (families::random(n, 81), W, false),
            (families::random(2 * n, 84), W, false),
            (families::random(1 << 7, 85), 8, false),
            (families::bit_reversal(n).unwrap(), W, false),
            (families::bit_reversal(n).unwrap(), W, true),
            (families::random_bmmc(n, 82).unwrap(), W, true),
        ];
        for (p, width, computed_index) in plans {
            let src: Vec<T> = (0..p.len() as u32)
                .map(|v| make(v.wrapping_mul(2654435761)))
                .collect();
            let mut want = vec![T::default(); p.len()];
            p.permute(&src, &mut want).unwrap();
            let ir = PlanIr::build(&p, width).unwrap();
            let cfg = KernelConfig {
                computed_index,
                ..KernelConfig::default()
            };
            let sched = NativeScheduled::from_plan_with(&ir, cfg);
            assert_eq!(sched.computed_index(), computed_index);
            // Edges inside a band, one whole split, and splits shorter
            // than one 8-element vector (a few lines, on the one pass).
            let splits: [&[usize]; 3] = [&[0, 5, 37, 64], &[0, 64], &[0, 3, 61, 64]];
            for edges in splits {
                for tier in tiers() {
                    assert_eq!(
                        run_banded(&sched, &src, edges, tier),
                        want,
                        "n={} {edges:?} {tier:?} computed={computed_index}",
                        p.len()
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_ragged_input_row_bands_match_the_reference() {
        check_ragged_bands(|v| v);
        check_ragged_bands(|v| (v as u64) << 32 | (v ^ 0xabcd) as u64);
        check_ragged_bands(|v| {
            let mut e = [0u8; 16];
            e[..4].copy_from_slice(&v.to_le_bytes());
            e[12..].copy_from_slice(&v.rotate_left(9).to_be_bytes());
            e
        });
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
        assert_eq!(sched.kernel_config(), KernelConfig::default());
        let ir = PlanIr::build(&p, W).unwrap();
        let scalar = NativeScheduled::from_plan_with(&ir, KernelConfig::scalar());
        assert_eq!(scalar.kernel_config(), KernelConfig::scalar());
    }
}
