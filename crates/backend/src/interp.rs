//! The deterministic CPU interpreter — the IR's reference consumer and
//! the second registered backend.
//!
//! [`InterpExec`] prepares a scheduled plan by lowering it to [`SweepIr`]
//! and then *interprets* the five steps literally: single thread, no
//! SIMD, the tiled transpose staged through an explicit
//! `(tile + pad) × tile` buffer with the same layout a GPU's shared
//! memory tile would have. It exists to be read and trusted, not to be
//! fast — the conformance suite pins it byte-identical against the
//! native fused executor and the naive reference, which makes it the
//! oracle that transitively certifies the WGSL the code generator emits
//! (the shaders encode the same IR this module executes).
//!
//! Scatter plans interpret as the one-line serial loop
//! ([`serial_scatter`]: `dst[p[i]] = src[i]`), so the interpreter covers
//! both routes and can be dropped into every engine test unchanged.
//! Neither form depends on the element type: one prepared executable
//! runs any `T` per call.

use crate::config::KernelConfig;
use crate::sweep::{BufferId, IndexSource, SweepIr, SweepKernel, SweepStep};
use hmm_perm::Permutation;
use hmm_plan::PlanIr;

/// A prepared scheduled plan: the lowered program plus the config it was
/// lowered under.
#[derive(Debug)]
pub struct InterpExec {
    ir: SweepIr,
    config: KernelConfig,
}

impl InterpExec {
    /// Lower `ir` under `config`.
    pub fn new(ir: &PlanIr, config: KernelConfig) -> Self {
        InterpExec {
            ir: SweepIr::lower(ir, &config),
            config,
        }
    }

    /// The lowered program this executable interprets — the seam the
    /// snapshot tests and the WGSL generator share.
    pub fn sweep_ir(&self) -> &SweepIr {
        &self.ir
    }

    /// The kernel config the plan was lowered under.
    pub fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    /// Number of elements one run permutes.
    pub fn len(&self) -> usize {
        self.ir.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scratch elements [`InterpExec::run`] requires: `2n`, because the
    /// five unfused steps ping-pong between two temporaries.
    pub fn scratch_len(&self) -> usize {
        2 * self.ir.len()
    }

    /// Execute `dst[P[i]] = src[i]` with `scratch` of exactly
    /// [`InterpExec::scratch_len`] elements.
    ///
    /// # Panics
    /// Panics when `src`/`dst`/`scratch` lengths disagree with the plan.
    pub fn run<T: Copy + Default>(&self, src: &[T], dst: &mut [T], scratch: &mut [T]) {
        let n = self.ir.len();
        assert_eq!(src.len(), n, "src length mismatch");
        assert_eq!(dst.len(), n, "dst length mismatch");
        assert_eq!(scratch.len(), 2 * n, "scratch length mismatch");
        let (a, b) = scratch.split_at_mut(n);
        for step in self.ir.steps() {
            // Borrow exactly the two buffers the step names. Input/Output
            // never alias the scratch halves, and the lowering never emits
            // A→A or B→B, so every arm below is a disjoint pair.
            match (step.src, step.dst) {
                (BufferId::Input, BufferId::ScratchA) => exec_step(&self.ir, step, src, a),
                (BufferId::ScratchA, BufferId::ScratchB) => exec_step(&self.ir, step, a, b),
                (BufferId::ScratchB, BufferId::ScratchA) => exec_step(&self.ir, step, b, a),
                (BufferId::ScratchB, BufferId::Output) => exec_step(&self.ir, step, b, dst),
                (src_id, dst_id) => {
                    unreachable!("lowering never emits a {src_id:?} -> {dst_id:?} step")
                }
            }
        }
    }
}

/// The interpreter's scatter route: the serial reference loop
/// `dst[p[i]] = src[i]`.
///
/// # Panics
/// Panics when `src` or `dst` length differs from `p.len()`.
pub fn serial_scatter<T: Copy>(p: &Permutation, src: &[T], dst: &mut [T]) {
    let n = p.len();
    assert_eq!(src.len(), n, "src length mismatch");
    assert_eq!(dst.len(), n, "dst length mismatch");
    for (i, &d) in p.as_slice().iter().enumerate() {
        dst[d] = src[i];
    }
}

/// Interpret one step: `inp` is the step's `rows × cols` source matrix,
/// `out` its destination (same length; the transpose writes it as
/// `cols × rows`).
fn exec_step<T: Copy + Default>(ir: &SweepIr, step: &SweepStep, inp: &[T], out: &mut [T]) {
    match step.kernel {
        SweepKernel::Gather { map } | SweepKernel::RowPermute { map } => {
            let cols = step.cols;
            match ir.index_source(map) {
                IndexSource::Materialized(g) => {
                    debug_assert_eq!(g.len(), out.len());
                    for (i, slot) in out.iter_mut().enumerate() {
                        let base = (i / cols) * cols;
                        *slot = inp[base + g[i] as usize];
                    }
                }
                IndexSource::Affine(step_a) => {
                    // Computed-index form: within a row the gather index
                    // is an XOR-fold of the descriptor's low masks, so
                    // walk positions in Gray-delta style — consecutive k
                    // differ in the masks selected by the bits that flip
                    // between k and k+1. The interpreter keeps the
                    // simpler direct fold per element (it is the oracle,
                    // not the fast path).
                    debug_assert_eq!(step_a.col_bits(), cols.trailing_zeros());
                    for (row, out_row) in out.chunks_mut(cols).enumerate() {
                        let base = row * cols;
                        let row_base = step_a.row_base(row);
                        for (k, slot) in out_row.iter_mut().enumerate() {
                            let mut idx = row_base;
                            let mut rest = k;
                            while rest != 0 {
                                let b = rest.trailing_zeros();
                                idx ^= step_a.lo_masks()[b as usize];
                                rest &= rest - 1;
                            }
                            *slot = inp[base + idx as usize];
                        }
                    }
                }
            }
        }
        SweepKernel::TiledTranspose { tile, bank_pad } => {
            tiled_transpose(inp, step.rows, step.cols, tile, bank_pad, out);
        }
    }
}

/// Transpose `rows × cols` → `cols × rows` through an explicit staging
/// tile of `(tile + bank_pad)` columns — the same padded layout the WGSL
/// kernel declares as its workgroup array, so the interpreter exercises
/// the exact buffer geometry the shader does (on a CPU the pad buys
/// nothing; it is kept for fidelity, not speed).
fn tiled_transpose<T: Copy + Default>(
    inp: &[T],
    rows: usize,
    cols: usize,
    tile: usize,
    bank_pad: usize,
    out: &mut [T],
) {
    debug_assert_eq!(inp.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let stride = tile + bank_pad;
    let mut stage = vec![T::default(); stride * tile];
    for i0 in (0..rows).step_by(tile) {
        let ih = tile.min(rows - i0);
        for j0 in (0..cols).step_by(tile) {
            let jw = tile.min(cols - j0);
            // Load phase: stage[ti][tj] = in[i0+ti][j0+tj].
            for ti in 0..ih {
                let row = &inp[(i0 + ti) * cols + j0..(i0 + ti) * cols + j0 + jw];
                stage[ti * stride..ti * stride + jw].copy_from_slice(row);
            }
            // Store phase (after the barrier, on a GPU): read the stage
            // transposed — the access the pad de-conflicts.
            for tj in 0..jw {
                for ti in 0..ih {
                    out[(j0 + tj) * rows + (i0 + ti)] = stage[ti * stride + tj];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    fn naive_reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; src.len()];
        for (i, &d) in p.as_slice().iter().enumerate() {
            out[d] = src[i];
        }
        out
    }

    fn run_scheduled(p: &Permutation, cfg: KernelConfig) -> Vec<u32> {
        let ir = PlanIr::build(p, 32).unwrap();
        let exec = InterpExec::new(&ir, cfg);
        let n = p.len();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; exec.scratch_len()];
        exec.run(&src, &mut dst, &mut scratch);
        assert_eq!(dst, naive_reference(p, &src));
        dst
    }

    #[test]
    fn scheduled_interpretation_matches_the_naive_reference() {
        for n in [1usize << 10, 1 << 12, 1 << 14] {
            for seed in [1, 7] {
                let p = families::random(n, seed);
                run_scheduled(&p, KernelConfig::default());
            }
        }
    }

    #[test]
    fn tile_geometry_does_not_change_the_answer() {
        let p = families::random(1 << 12, 3);
        let base = run_scheduled(&p, KernelConfig::default());
        for tile in [8, 16, 33, 64, 100] {
            let cfg = KernelConfig {
                tile,
                ..KernelConfig::default()
            };
            assert_eq!(run_scheduled(&p, cfg), base, "tile={tile}");
        }
    }

    #[test]
    fn computed_index_interpretation_is_byte_identical() {
        // Structured plans carry affine descriptors, so the default
        // (computed-index) config interprets them map-free; the scalar
        // config forces materialized maps. Both must match the naive
        // reference bit-for-bit — run_scheduled asserts that — and each
        // other.
        for n in [1usize << 10, 1 << 12] {
            for p in [
                families::bit_reversal(n).unwrap(),
                families::shuffle(n).unwrap(),
                families::transpose_square(n).unwrap(),
            ] {
                let computed = run_scheduled(&p, KernelConfig::default());
                let materialized = run_scheduled(&p, KernelConfig::scalar());
                assert_eq!(computed, materialized);
            }
        }
    }

    #[test]
    fn computed_index_executions_really_lower_map_free() {
        let p = families::bit_reversal(1 << 12).unwrap();
        let ir = PlanIr::build(&p, 32).unwrap();
        let exec = InterpExec::new(&ir, KernelConfig::default());
        assert!(exec.sweep_ir().affine().is_some(), "descriptors carried");
        for which in [
            crate::sweep::GatherMap::G1,
            crate::sweep::GatherMap::G2,
            crate::sweep::GatherMap::G3,
        ] {
            assert!(exec.sweep_ir().map(which).is_empty(), "maps elided");
        }
    }

    #[test]
    fn scatter_interpretation_matches_the_naive_reference() {
        let p = families::random(1 << 10, 9);
        let src: Vec<u64> = (0..1u64 << 10).map(|v| v.wrapping_mul(0x9E37)).collect();
        let mut dst = vec![0u64; src.len()];
        serial_scatter(&p, &src, &mut dst);
        let mut want = vec![0u64; src.len()];
        for (i, &d) in p.as_slice().iter().enumerate() {
            want[d] = src[i];
        }
        assert_eq!(dst, want);
    }

    #[test]
    fn bare_transpose_is_exact_on_ragged_tiles() {
        // 5×7 with tile 4 exercises partial tiles on both edges.
        let (rows, cols, tile) = (5usize, 7usize, 4usize);
        let inp: Vec<u32> = (0..(rows * cols) as u32).collect();
        let mut out = vec![0u32; rows * cols];
        tiled_transpose(&inp, rows, cols, tile, 1, &mut out);
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(out[j * rows + i], inp[i * cols + j]);
            }
        }
    }
}
