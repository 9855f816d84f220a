//! The sweep-kernel IR — layer 2 of the backend split.
//!
//! [`SweepIr::lower`] turns a [`PlanIr`] plus a
//! [`KernelConfig`] into an explicit five-step program over four logical
//! buffers. The steps are the *unfused* form of the paper's three-pass
//! schedule (the form the seed executed, and the form a GPU executes as
//! five kernel launches):
//!
//! ```text
//! PlanIr { g1 (r×c), g2 (c×r), g3 (r×c) }      KernelConfig { tile }
//!        │                                             │
//!        └──────────────── lower ─────────────────────┘
//!                            │
//!   step 1  Gather(G1)        r×c   Input    → ScratchA
//!   step 2  TiledTranspose    r×c   ScratchA → ScratchB   (tile, pad)
//!   step 3  Gather(G2)        c×r   ScratchB → ScratchA
//!   step 4  TiledTranspose    c×r   ScratchA → ScratchB   (tile, pad)
//!   step 5  RowPermute(G3)    r×c   ScratchB → Output
//! ```
//!
//! Three kernel *kinds* cover all five steps, which is why the WGSL
//! generator has exactly three templates. The gather and row-permute
//! kernels are the same memory access pattern (`out[row][k] =
//! in[row][g[row][k]]`); they are distinct IR nodes because the final
//! row permute is the only step whose destination is the caller's output
//! buffer — a GPU backend can fuse a layout conversion or an epilogue
//! into it without touching the interior steps.
//!
//! The tile side and the shared-memory bank-offset pad are explicit IR
//! parameters. The pad (+1 column on the workgroup tile) is the standard
//! remedy for shared-memory bank conflicts in a tiled transpose: without
//! it, a 32×32 tile of 4-byte words puts an entire tile column in one
//! bank and the transposed read serialises 32-way. The CPU interpreter
//! carries the pad faithfully (same buffer layout, stride `tile + pad`)
//! so the interpreted execution is step-for-step the program a GPU runs.

use crate::config::KernelConfig;
use hmm_plan::{AffineStep, PlanIr};
use std::sync::Arc;

/// Smallest tile side the lowering will emit. A degenerate configured
/// tile (0 or 1) would turn the tiled transpose into a scalar loop with
/// all of the indexing overhead and none of the locality.
pub const MIN_TILE: usize = 8;

/// Shared-tile bank-offset pad in elements: the `+1` column that breaks
/// shared-memory bank conflicts in the transposed read.
pub const BANK_PAD: usize = 1;

/// Which of the plan's three gather maps a step applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMap {
    /// First-pass map (`r×c`, row-local over the input matrix).
    G1,
    /// Second-pass map (`c×r`, row-local over the transposed matrix).
    G2,
    /// Third-pass map (`r×c`, the final row permute).
    G3,
}

/// The four logical buffers a sweep program addresses. The binding to
/// real storage is the consumer's business: the interpreter splits one
/// caller scratch slice in two, a GPU backend binds four device buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferId {
    /// The caller's source buffer (read-only).
    Input,
    /// First temporary, `n` elements.
    ScratchA,
    /// Second temporary, `n` elements.
    ScratchB,
    /// The caller's destination buffer (write-only).
    Output,
}

/// One kernel kind, with its parameters. The gather maps themselves are
/// *not* stored in the kernel (they are plan-sized data, not program
/// text); a kernel names which map it applies and the consumer fetches
/// it from the owning [`SweepIr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKernel {
    /// Row-local gather: `out[i*cols + k] = in[i*cols + g[i*cols + k]]`.
    Gather {
        /// The gather map this step applies.
        map: GatherMap,
    },
    /// Tiled transpose of a `rows×cols` matrix:
    /// `out[j*rows + i] = in[i*cols + j]`, staged through a
    /// `(tile + bank_pad) × tile` tile.
    TiledTranspose {
        /// Tile side in elements.
        tile: usize,
        /// Extra pad columns on the staging tile (bank-conflict remedy).
        bank_pad: usize,
    },
    /// Row-local gather whose destination is the caller's output — the
    /// schedule's final pass. Same access pattern as [`SweepKernel::Gather`].
    RowPermute {
        /// The gather map this step applies.
        map: GatherMap,
    },
}

/// One step of a sweep program: a kernel, the matrix geometry it runs
/// over, and its source/destination buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStep {
    /// The kernel this step launches.
    pub kernel: SweepKernel,
    /// Rows of the matrix this step reads.
    pub rows: usize,
    /// Columns of the matrix this step reads.
    pub cols: usize,
    /// Buffer the step reads from.
    pub src: BufferId,
    /// Buffer the step writes to.
    pub dst: BufferId,
}

impl SweepStep {
    /// Elements this step moves (`rows * cols`, always the plan's `n`).
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True for a zero-element step (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a gather step's indices reach the kernel: loaded from a
/// materialized plan-sized map, or computed in registers from an affine
/// descriptor (an XOR-fold over O(log n) masks). Both describe the same
/// row-local function `k ↦ g[k]`; the computed form trades a dependent
/// memory load per element for a handful of register ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource<'a> {
    /// Indices are loaded from this plan-sized map.
    Materialized(&'a [u32]),
    /// Indices are computed from this verified affine descriptor.
    Affine(&'a AffineStep),
}

/// A lowered sweep program: five [`SweepStep`]s plus the index data the
/// gather steps reference — either the plan's three materialized maps,
/// shared with it, or, for structured plans lowered under a
/// computed-index config, the three affine descriptors (the program then
/// carries O(log² n) bytes of index data instead of O(n)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepIr {
    rows: usize,
    cols: usize,
    steps: [SweepStep; 5],
    index: Index,
}

/// The index data of a [`SweepIr`]: one form or the other, never both.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Index {
    /// The plan's gather maps (`PlanIr::gathers`), order `g1, g2, g3`.
    Maps([Arc<[u32]>; 3]),
    /// The plan's verified affine descriptors, order `g1, g2, g3`.
    Affine([AffineStep; 3]),
}

impl SweepIr {
    /// Lower a plan into the five-step program above. `config.tile`
    /// becomes the transpose tile side, clamped to at least
    /// [`MIN_TILE`]; the bank pad is always [`BANK_PAD`].
    ///
    /// Lowering is pure structure: a [`PlanIr`] holds its contract by
    /// construction, so the program gathers in bounds without a check.
    ///
    /// When the plan carries affine descriptors and
    /// `config.computed_index` is set, the gather steps resolve to
    /// [`IndexSource::Affine`] and the maps are left out; otherwise the
    /// program shares the plan's maps and the steps resolve to
    /// [`IndexSource::Materialized`].
    pub fn lower(ir: &PlanIr, config: &KernelConfig) -> Self {
        let shape = ir.shape();
        let (r, c) = (shape.rows, shape.cols);
        let index = match ir.affine() {
            Some(steps) if config.computed_index => Index::Affine(steps.clone()),
            _ => Index::Maps(ir.gathers().clone()),
        };
        let tile = config.tile.max(MIN_TILE);
        let transpose = SweepKernel::TiledTranspose {
            tile,
            bank_pad: BANK_PAD,
        };
        let step = |kernel, rows, cols, src, dst| SweepStep {
            kernel,
            rows,
            cols,
            src,
            dst,
        };
        use BufferId::*;
        SweepIr {
            rows: r,
            cols: c,
            steps: [
                step(
                    SweepKernel::Gather { map: GatherMap::G1 },
                    r,
                    c,
                    Input,
                    ScratchA,
                ),
                step(transpose, r, c, ScratchA, ScratchB),
                step(
                    SweepKernel::Gather { map: GatherMap::G2 },
                    c,
                    r,
                    ScratchB,
                    ScratchA,
                ),
                step(transpose, c, r, ScratchA, ScratchB),
                step(
                    SweepKernel::RowPermute { map: GatherMap::G3 },
                    r,
                    c,
                    ScratchB,
                    Output,
                ),
            ],
            index,
        }
    }

    /// Rows of the plan's matrix view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the plan's matrix view.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of elements the program permutes.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True for the empty program (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The five steps, in execution order.
    pub fn steps(&self) -> &[SweepStep; 5] {
        &self.steps
    }

    /// Resolve a [`GatherMap`] name to the materialized map's data.
    /// Empty when the program was lowered computed-index (the maps were
    /// left out) — consumers that execute either form go through
    /// [`SweepIr::index_source`] instead.
    pub fn map(&self, which: GatherMap) -> &[u32] {
        match self.index_source(which) {
            IndexSource::Materialized(map) => map,
            IndexSource::Affine(_) => &[],
        }
    }

    /// Resolve a [`GatherMap`] name to the form the program carries:
    /// the affine descriptor when lowered computed-index, the
    /// materialized map otherwise.
    pub fn index_source(&self, which: GatherMap) -> IndexSource<'_> {
        let pass = which as usize; // G1, G2, G3 are passes 0, 1, 2
        match &self.index {
            Index::Maps(maps) => IndexSource::Materialized(&maps[pass]),
            Index::Affine(steps) => IndexSource::Affine(&steps[pass]),
        }
    }

    /// The affine descriptors the program carries, if it was lowered
    /// computed-index from a structured plan (order `g1, g2, g3`).
    pub fn affine(&self) -> Option<&[AffineStep; 3]> {
        match &self.index {
            Index::Affine(steps) => Some(steps),
            Index::Maps(_) => None,
        }
    }

    /// The transpose tile side the program was lowered with.
    pub fn tile(&self) -> usize {
        match self.steps[1].kernel {
            SweepKernel::TiledTranspose { tile, .. } => tile,
            _ => unreachable!("step 2 is always the first transpose"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    fn lowered(n: usize, tile: usize) -> SweepIr {
        let p = families::random(n, 42);
        let ir = PlanIr::build(&p, 32).unwrap();
        let cfg = KernelConfig {
            tile,
            ..KernelConfig::default()
        };
        SweepIr::lower(&ir, &cfg)
    }

    #[test]
    fn five_steps_in_the_canonical_shape() {
        let ir = lowered(1 << 10, 64);
        let (r, c) = (ir.rows(), ir.cols());
        assert_eq!(r * c, 1 << 10);
        let s = ir.steps();
        use BufferId::*;
        // Kernel kinds and geometry.
        assert!(matches!(
            s[0].kernel,
            SweepKernel::Gather { map: GatherMap::G1 }
        ));
        assert_eq!((s[0].rows, s[0].cols), (r, c));
        assert!(matches!(s[1].kernel, SweepKernel::TiledTranspose { .. }));
        assert_eq!((s[1].rows, s[1].cols), (r, c));
        assert!(matches!(
            s[2].kernel,
            SweepKernel::Gather { map: GatherMap::G2 }
        ));
        assert_eq!((s[2].rows, s[2].cols), (c, r));
        assert!(matches!(s[3].kernel, SweepKernel::TiledTranspose { .. }));
        assert_eq!((s[3].rows, s[3].cols), (c, r));
        assert!(matches!(
            s[4].kernel,
            SweepKernel::RowPermute { map: GatherMap::G3 }
        ));
        assert_eq!((s[4].rows, s[4].cols), (r, c));
        // Buffer chaining: Input → A → B → A → B → Output, each step
        // reading what the previous one wrote.
        assert_eq!((s[0].src, s[0].dst), (Input, ScratchA));
        assert_eq!((s[1].src, s[1].dst), (ScratchA, ScratchB));
        assert_eq!((s[2].src, s[2].dst), (ScratchB, ScratchA));
        assert_eq!((s[3].src, s[3].dst), (ScratchA, ScratchB));
        assert_eq!((s[4].src, s[4].dst), (ScratchB, Output));
        for w in s.windows(2) {
            assert_eq!(w[0].dst, w[1].src, "steps must chain");
        }
    }

    #[test]
    fn gather_maps_have_step_sized_lengths() {
        let ir = lowered(1 << 12, 64);
        let n = ir.len();
        assert_eq!(ir.map(GatherMap::G1).len(), n);
        assert_eq!(ir.map(GatherMap::G2).len(), n);
        assert_eq!(ir.map(GatherMap::G3).len(), n);
        // Every map entry is row-local: g[i] < cols of that step's matrix.
        let s = ir.steps();
        for (map, cols) in [
            (GatherMap::G1, s[0].cols),
            (GatherMap::G2, s[2].cols),
            (GatherMap::G3, s[4].cols),
        ] {
            assert!(ir.map(map).iter().all(|&g| (g as usize) < cols));
        }
    }

    #[test]
    fn tile_comes_from_the_config_and_is_clamped() {
        assert_eq!(lowered(1 << 10, 64).tile(), 64);
        assert_eq!(lowered(1 << 10, 16).tile(), 16);
        // Degenerate configured tiles are clamped up to MIN_TILE.
        assert_eq!(lowered(1 << 10, 0).tile(), MIN_TILE);
        assert_eq!(lowered(1 << 10, 3).tile(), MIN_TILE);
        // The pad is always the single bank-offset column.
        match lowered(1 << 10, 64).steps()[1].kernel {
            SweepKernel::TiledTranspose { bank_pad, .. } => assert_eq!(bank_pad, BANK_PAD),
            _ => unreachable!(),
        }
    }

    #[test]
    fn structured_plans_lower_map_free_under_computed_index() {
        let p = families::bit_reversal(1 << 12).unwrap();
        let ir = PlanIr::build(&p, 32).unwrap();
        assert!(ir.affine().is_some(), "structured plan carries descriptors");

        // Computed-index config: maps elided, steps resolve to Affine,
        // and each descriptor reproduces the plan's gather exactly.
        let computed = SweepIr::lower(&ir, &KernelConfig::default());
        assert!(computed.affine().is_some());
        for (which, gather) in [GatherMap::G1, GatherMap::G2, GatherMap::G3]
            .into_iter()
            .zip(ir.gathers())
        {
            assert!(computed.map(which).is_empty(), "map copies are elided");
            match computed.index_source(which) {
                IndexSource::Affine(step) => assert!(step.matches_map(gather)),
                IndexSource::Materialized(_) => panic!("expected affine source"),
            }
        }

        // Scalar (reference) config: same plan lowers to materialized
        // maps — the flag, not the plan, picks the form.
        let materialized = SweepIr::lower(&ir, &KernelConfig::scalar());
        assert!(materialized.affine().is_none());
        for which in [GatherMap::G1, GatherMap::G2, GatherMap::G3] {
            match materialized.index_source(which) {
                IndexSource::Materialized(map) => assert_eq!(map.len(), 1 << 12),
                IndexSource::Affine(_) => panic!("expected materialized source"),
            }
        }
    }

    #[test]
    fn unstructured_plans_always_lower_materialized() {
        let ir = lowered(1 << 10, 64);
        assert!(ir.affine().is_none());
        for which in [GatherMap::G1, GatherMap::G2, GatherMap::G3] {
            match ir.index_source(which) {
                IndexSource::Materialized(map) => assert_eq!(map.len(), 1 << 10),
                IndexSource::Affine(_) => panic!("random plans have no descriptors"),
            }
        }
    }

    /// Structural pin of the lowering itself: the sweep IR an interp
    /// executable holds has exactly the five-step shape DESIGN §13
    /// documents, and its gather maps are the plan's own (transposed for
    /// pass 2).
    #[test]
    fn lowered_sweep_ir_has_the_documented_shape() {
        let n = 1 << 12;
        let p = families::random(n, 31);
        let ir = PlanIr::build(&p, 32).unwrap();
        let lowered = SweepIr::lower(&ir, &KernelConfig::default());
        assert_eq!(lowered.rows() * lowered.cols(), n);
        assert_eq!(lowered.steps().len(), 5);
        assert_eq!(lowered.map(GatherMap::G1).len(), n);
        assert_eq!(lowered.map(GatherMap::G2).len(), n);
        assert_eq!(lowered.map(GatherMap::G3).len(), n);
        // The same lowering is what the `interp` backend executes.
        let exec = crate::InterpExec::new(&ir, KernelConfig::default());
        assert_eq!(exec.sweep_ir(), &lowered);
        assert_eq!(exec.scratch_len(), 2 * n, "interp needs two scratch arrays");
    }
}
