//! The backend-neutral plan IR: the offline König decomposition of one
//! permutation as a first-class, reusable artifact.
//!
//! The paper's premise is that schedule construction is *offline*: the
//! expensive part of the scheduled permutation — edge-coloring the
//! `c`-regular bipartite transfer multigraph so the three passes are
//! conflict-free — is paid once and the result reused for every
//! application of the permutation. [`PlanIr`] is that result, decoupled
//! from any executor:
//!
//! * the matrix shape `r × c` and the machine width `w` the plan was
//!   built for;
//! * the three per-pass **gather maps**, the plan's only representation:
//!   pass 1 gathers each row into color order, pass 2 (on the transposed
//!   matrix) gathers each color's elements into destination-row order,
//!   pass 3 gathers each row into destination-column order (the Figure 6
//!   argument). The coloring's *step* maps (where each element goes) are
//!   their per-row inverses: the builders compute them as locals, the
//!   codec writes them, and the simulator's staging derives them;
//! * the measured distribution `γ_w(P)` (the scatter/scheduled crossover
//!   input) and the permutation's 64-bit fingerprint (the cache identity).
//!
//! A `PlanIr` holds its contract by construction — every gather row is a
//! permutation of its row. The fields are private; the builders emit
//! valid maps, and the codec's decode constructors check each row of
//! foreign bytes as they read it. So the executors (`hmm-native`,
//! `hmm-backend`) share the gathers through [`PlanIr::gathers`] without
//! a copy or a second check, and the simulator (`hmm-offperm`) stages
//! its row/column schedules from them. None of them re-runs the coloring.

use crate::affine::AffineStep;
use crate::error::{PlanError, Result};
use hmm_graph::{color_blocks, ColorBlocks, Parallelism, Strategy};
use hmm_perm::distribution::warp_group_counts;
use hmm_perm::{scheduled_shape, Bmmc, MatrixShape, Permutation};
use std::sync::Arc;

/// A built, backend-neutral permutation plan (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanIr {
    shape: MatrixShape,
    width: usize,
    /// The gather maps in pass order: `g1` (`r × c`), `g2` (`c × r`, on
    /// the transposed matrix), `g3` (`r × c`). Each row is a permutation
    /// of `0..cols` of its pass ([`PassLayout::cols`]).
    gathers: [Arc<[u32]>; 3],
    /// Measured distribution γ_w(P) at `width`.
    gamma: f64,
    /// `Permutation::fingerprint()` of the source permutation.
    fingerprint: u64,
    /// Closed-form descriptors of the three gather maps, present exactly
    /// when the plan came out of the BMMC emitter: each is fit from its
    /// materialized map and verified entry-by-entry, so executors may
    /// compute `g[p]` in registers instead of loading it. `None` for
    /// König-colored plans (their gathers are not affine).
    affine: Option<[AffineStep; 3]>,
}

impl PlanIr {
    /// Build the plan for `p` on a width-`width` machine. Consults the
    /// BMMC recognizer first: structured permutations (transpose,
    /// bit-reversal, shuffle/omega, hypercube, ...) get their three pass
    /// permutations emitted in closed form — pure index arithmetic, no
    /// transfer multigraph, no König coloring — which turns a multi-second
    /// cold build at 4M into milliseconds. Everything else falls back to
    /// the general coloring pipeline with the default strategy. Use
    /// [`PlanIr::build_with`] to force the general pipeline.
    pub fn build(p: &Permutation, width: usize) -> Result<Self> {
        if let Some(plan) = Self::build_structured(p, width) {
            return plan;
        }
        Self::build_with(p, width, Strategy::Hybrid)
    }

    /// [`PlanIr::build`] with an explicit coloring strategy.
    pub fn build_with(p: &Permutation, width: usize, strategy: Strategy) -> Result<Self> {
        let shape = scheduled_shape(p.len(), width)?;
        Self::build_for_shape(p, shape, width, strategy)
    }

    /// The parallel plan compiler: [`PlanIr::build`] fanned out over a
    /// scoped-thread budget of `threads`. Every stage parallelises — the
    /// König coloring forks its split tree, and the gather fills (read
    /// straight from the colorer's color blocks), row inversions, and γ_w
    /// measurement chunk over rows. The result is **byte-identical** to
    /// the sequential builder at any thread count: the budget relocates
    /// work, it never reorders the deterministic partitions (pinned by
    /// `tests/parallel.rs` and the `hmm-graph` determinism suite).
    /// `threads <= 1` *is* the sequential builder.
    /// Like [`PlanIr::build`], the recognizer runs first: structured
    /// permutations take the closed-form path (also fanned out over the
    /// budget) and skip the coloring entirely.
    pub fn build_par(p: &Permutation, width: usize, threads: usize) -> Result<Self> {
        if let Some(plan) = Self::build_structured_par(p, width, threads) {
            return plan;
        }
        let shape = scheduled_shape(p.len(), width)?;
        Self::build_koenig(
            p,
            shape,
            width,
            Strategy::Hybrid,
            Parallelism::threads(threads),
        )
    }

    /// The structured fast path alone: `Some(plan)` when `p` is a BMMC
    /// (affine bit-matrix) permutation, `None` otherwise. The plan's
    /// three pass permutations are emitted in closed form from the bit
    /// matrix — see [`PlanIr::build_bmmc`] for the construction — so no
    /// transfer multigraph or König coloring is ever built. Exposed so
    /// engines can count structured builds separately from colorings.
    pub fn build_structured(p: &Permutation, width: usize) -> Option<Result<Self>> {
        Self::build_structured_par(p, width, 1)
    }

    /// [`PlanIr::build_structured`] over a scoped-thread budget. Like
    /// [`PlanIr::build_par`], the result is byte-identical at any thread
    /// count (every fill is a pure function of the output position).
    pub fn build_structured_par(
        p: &Permutation,
        width: usize,
        threads: usize,
    ) -> Option<Result<Self>> {
        let bmmc = p.as_bmmc()?;
        Some(Self::build_bmmc_par(p, &bmmc, width, threads))
    }

    /// Emit the closed-form plan of a recognized BMMC permutation
    /// (`bmmc` must realise `p`; pass the recognizer's output).
    ///
    /// Split each index into `ρ = log r` row bits and `γ = log c` column
    /// bits, partitioning the bit matrix `M` into blocks `[A B; C D]`
    /// (`A`: row→row, `B`: col→row). Element `(i, j)` is colored
    /// `k = G·i ⊕ j`, where the γ×ρ mixer `G` is completed greedily so
    /// that `A ⊕ B·G` is invertible — such a `G` always exists because
    /// `[A B]` has full row rank (`M` is invertible). Then for a fixed
    /// color `k`, the destination row of row `i`'s color-`k` element is
    /// `(A ⊕ B·G)·i ⊕ B·k ⊕ b_hi`: affine in `i` with invertible linear
    /// part, i.e. each step-2 row is a permutation — exactly the
    /// conflict-freedom the König coloring buys for general
    /// permutations, obtained here by index arithmetic alone. For the
    /// square transpose `G = I`, recovering the classic diagonal
    /// staging of the paper's Figure 4.
    pub fn build_bmmc(p: &Permutation, bmmc: &Bmmc, width: usize) -> Result<Self> {
        Self::build_bmmc_par(p, bmmc, width, 1)
    }

    /// [`PlanIr::build_bmmc`] over a scoped-thread budget (byte-identical
    /// at any thread count).
    pub fn build_bmmc_par(
        p: &Permutation,
        bmmc: &Bmmc,
        width: usize,
        threads: usize,
    ) -> Result<Self> {
        let n = p.len();
        if bmmc.len() != n {
            return Err(PlanError::SizeMismatch {
                expected: n,
                got: bmmc.len(),
            });
        }
        let shape = scheduled_shape(n, width)?;
        let par = Parallelism::threads(threads);
        let (r, c) = (shape.rows, shape.cols);
        debug_assert!(r.is_power_of_two() && c.is_power_of_two());
        let cb = c.trailing_zeros();

        // Per-row color mix `mix[i] = G·i` and the two halves of the
        // destination map `dest(i·c + j) = rowm[i] ⊕ colm[j] ⊕ offset`,
        // each filled by an incremental Gray-style walk (consecutive
        // indices differ in few bits).
        let g = color_mixer(bmmc, r.trailing_zeros(), cb);
        let mix = gray_table(r, |t| g[t]);
        let rowm = gray_table(r, |t| bmmc.col(cb + t as u32));
        let colm = gray_table(c, |t| bmmc.col(t as u32));
        let off = bmmc.offset();
        let cmask = c - 1;

        // Step 1 routes element (i, j) to color k = mix[i] ⊕ j. XOR by a
        // row constant is an involution, so step 1 is its own gather map.
        let g1 = {
            let mix = &mix;
            shared_map(n, c, par, |first_row, chunk| {
                for (rr, row) in chunk.chunks_exact_mut(c).enumerate() {
                    let m = mix[first_row + rr];
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = (m ^ j) as u32;
                    }
                }
            })
        };

        // Step 2 (`c × r`): the color-k element of row i sits at column
        // j = k ⊕ mix[i]; its destination row is the high half of the
        // affine map.
        let mut step2 = vec![0u32; n];
        {
            let (mix, rowm, colm) = (&mix, &rowm, &colm);
            par.run_rows(&mut step2, r, |first_k, chunk| {
                for (kk, row) in chunk.chunks_exact_mut(r).enumerate() {
                    let k = first_k + kk;
                    for (i, slot) in row.iter_mut().enumerate() {
                        let dest = rowm[i] ^ colm[k ^ mix[i]] ^ off;
                        *slot = (dest >> cb) as u32;
                    }
                }
            });
        }
        let g2 = invert_rows(&step2, r, par);
        drop(step2);

        // Step 3 (`r × c`): recover the source row of the color-k element
        // now in destination row di, and emit its destination column.
        let mut step3 = vec![0u32; n];
        {
            let (mix, rowm, colm, g2) = (&mix, &rowm, &colm, &g2);
            par.run_rows(&mut step3, c, |first_di, chunk| {
                for (dd, row) in chunk.chunks_exact_mut(c).enumerate() {
                    let di = first_di + dd;
                    for (k, slot) in row.iter_mut().enumerate() {
                        let i = g2[k * r + di] as usize;
                        let dest = rowm[i] ^ colm[k ^ mix[i]] ^ off;
                        *slot = (dest & cmask) as u32;
                    }
                }
            });
        }
        let g3 = invert_rows(&step3, c, par);

        debug_assert!(rows_are_permutations(&g1, c));
        debug_assert!(rows_are_permutations(&g2, r));
        debug_assert!(rows_are_permutations(&g3, c));

        // Every gather map above is affine over the flat-position bits
        // (each is built from XORs of per-bit constants), so the fit
        // always succeeds; it still runs the full O(n) verification, so
        // a descriptor is attached only when provably exact.
        let affine = (|| {
            Some([
                AffineStep::fit(&g1, c)?,
                AffineStep::fit(&g2, r)?,
                AffineStep::fit(&g3, c)?,
            ])
        })();
        debug_assert!(affine.is_some(), "BMMC gather maps are affine");

        Ok(PlanIr {
            shape,
            width,
            gathers: [g1, g2, g3],
            gamma: distribution_par(p, width, par),
            fingerprint: p.fingerprint(),
            affine,
        })
    }

    /// The plan of the composite permutation "apply `first`, then
    /// `self`" — plan fusion. A fused chain costs one 3-sweep memory
    /// round trip where executing the plans back to back costs one per
    /// link. When both plans realise BMMC permutations the composite is
    /// computed as a GF(2) matrix product and emitted closed-form;
    /// otherwise the permutations are composed and the composite planned
    /// once (at most one König build per fused chain). The result is
    /// keyed by the composite permutation's own fingerprint, so engine
    /// caches treat it like any other plan.
    pub fn compose(&self, first: &PlanIr) -> Result<PlanIr> {
        self.compose_par(first, 1)
    }

    /// [`PlanIr::compose`] over a scoped-thread budget.
    pub fn compose_par(&self, first: &PlanIr, threads: usize) -> Result<PlanIr> {
        if first.len() != self.len() {
            return Err(PlanError::SizeMismatch {
                expected: self.len(),
                got: first.len(),
            });
        }
        let p2 = self.recompose();
        let p1 = first.recompose();
        if let (Some(b2), Some(b1)) = (p2.as_bmmc(), p1.as_bmmc()) {
            let fused = b2.compose(&b1);
            return Self::build_bmmc_par(&fused.to_permutation(), &fused, self.width, threads);
        }
        Self::build_par(&p2.compose(&p1), self.width, threads)
    }

    /// Build on an explicit matrix shape (exposed for tests with
    /// non-default shapes; `shape.len()` must equal `p.len()`).
    pub fn build_for_shape(
        p: &Permutation,
        shape: MatrixShape,
        width: usize,
        strategy: Strategy,
    ) -> Result<Self> {
        Self::build_koenig(p, shape, width, strategy, Parallelism::sequential())
    }

    /// The general pipeline on a thread budget: König-color the transfer
    /// graph and fill the three gathers straight from the colorer's blocks.
    /// Every fill owns whole output rows, so the plan does not depend on
    /// the budget.
    fn build_koenig(
        p: &Permutation,
        shape: MatrixShape,
        width: usize,
        strategy: Strategy,
        par: Parallelism,
    ) -> Result<Self> {
        let n = p.len();
        if shape.len() != n {
            return Err(PlanError::SizeMismatch {
                expected: n,
                got: shape.len(),
            });
        }
        let (r, c) = (shape.rows, shape.cols);

        // Bipartite multigraph: source row -> destination row, one edge per
        // element; c-regular since each row holds c elements and receives
        // c. Its edges are the elements in row-major order.
        let mut dest_rows = vec![0u32; n];
        par.run_rows(&mut dest_rows, c, |first_row, chunk| {
            let base = first_row * c;
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (p.apply(base + off) / c) as u32;
            }
        });
        // Block `k` lists every row's color-`k` element: `ids[k·r + i]` is
        // the source index of row `i`'s, and `rights[k·r + i]` its
        // destination row, which is step 2 as it stands.
        let ColorBlocks { mut ids, rights } = color_blocks(r, dest_rows, strategy, par)?;
        let g1 = shared_map(n, c, par, |first_i, rows| {
            transpose_rows(&ids, r, first_i, rows, c, |row, k, id| {
                row[k] = id % c as u32;
            });
        });
        let g2 = invert_rows(&rights, r, par);
        drop(rights);
        // Destination row `di` receives its color-`k` element from row
        // `g2[k·r + di]`; that element's destination column takes `k`.
        // Each block of `ids` becomes its elements' destination columns,
        // then is gathered into destination-row order through its row of
        // `g2`, so `ids[k·r + di]` is step 3 transposed.
        par.run_rows(&mut ids, r, |first_k, blocks| {
            let mut cols = vec![0u32; r];
            for (kk, block) in blocks.chunks_exact_mut(r).enumerate() {
                let k = first_k + kk;
                for (col, &id) in cols.iter_mut().zip(block.iter()) {
                    *col = (p.apply(id as usize) % c) as u32;
                }
                for (slot, &i) in block.iter_mut().zip(&g2[k * r..(k + 1) * r]) {
                    *slot = cols[i as usize];
                }
            }
        });
        let g3 = shared_map(n, c, par, |first_di, rows| {
            transpose_rows(&ids, r, first_di, rows, c, |row, k, dj| {
                row[dj as usize] = k as u32;
            });
        });

        Ok(PlanIr {
            shape,
            width,
            gathers: [g1, g2, g3],
            gamma: distribution_par(p, width, par),
            fingerprint: p.fingerprint(),
            affine: None,
        })
    }

    /// Reassemble a plan from the codec's full (kind 0) sections: the
    /// three step maps, each `n` little-endian `u32`s, as the file
    /// carries them. Each section is inverted into its gather map in one
    /// pass that checks every row as it goes, so an entry out of its
    /// row's range or repeated within its row yields
    /// [`PlanError::Codec`], never a panic or an invalid plan.
    pub(crate) fn from_steps(
        shape: MatrixShape,
        width: usize,
        steps: [&[u8]; 3],
        gamma: f64,
        fingerprint: u64,
    ) -> Result<Self> {
        let n = shape.len();
        let [l1, l2, l3] = pass_layouts(shape);
        let [s1, s2, s3] = steps;
        Ok(PlanIr {
            shape,
            width,
            gathers: [
                invert_checked("step1", s1, n, l1.cols)?,
                invert_checked("step2", s2, n, l2.cols)?,
                invert_checked("step3", s3, n, l3.cols)?,
            ],
            gamma,
            fingerprint,
            affine: None,
        })
    }

    /// Reassemble a plan from its compact descriptor form — the codec's
    /// decode path for structured plan files, which carry only the three
    /// [`AffineStep`]s (O(log² n) bytes) instead of the maps. Each
    /// descriptor's geometry is checked *before* any size-`n` allocation,
    /// then its rows are checked as permutations from the masks alone (a
    /// GF(2) rank check, exact once the geometry holds) and only then is
    /// its gather map materialized, so hostile descriptor bytes yield
    /// [`PlanError::Codec`], never a panic or an invalid plan. Fitting on
    /// the encode side verified the descriptors against the built maps
    /// entry-by-entry, so this reconstruction is field-identical to the
    /// plan that was encoded.
    pub(crate) fn from_affine(
        shape: MatrixShape,
        width: usize,
        affine: [AffineStep; 3],
        gamma: f64,
        fingerprint: u64,
    ) -> Result<Self> {
        let n = shape.len();
        let materialize = |name: &str, step: &AffineStep, cols: usize| -> Result<Arc<[u32]>> {
            step.check_geometry(name, n, cols)?;
            if !step.rows_are_permutations() {
                return Err(PlanError::Codec {
                    reason: format!("{name} does not materialize row permutations of 0..{cols}"),
                });
            }
            Ok(step.materialize())
        };
        let [l1, l2, l3] = pass_layouts(shape);
        let gathers = [
            materialize("affine1", &affine[0], l1.cols)?,
            materialize("affine2", &affine[1], l2.cols)?,
            materialize("affine3", &affine[2], l3.cols)?,
        ];
        Ok(PlanIr {
            shape,
            width,
            gathers,
            gamma,
            fingerprint,
            affine: Some(affine),
        })
    }

    /// The matrix shape of the three passes.
    pub fn shape(&self) -> MatrixShape {
        self.shape
    }

    /// The machine width the plan was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True for a zero-element plan (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The measured distribution γ_w(P) recorded at build time, in
    /// `[1, width]` (decode refuses a file that records anything else).
    /// Engines route a verified store hit on it.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The 64-bit fingerprint of the source permutation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The three gather maps in pass order, in shared storage: pass 1
    /// (`r × c`) is `out[i][k] = in[i][g1[i·c + k]]`, pass 2 (`c × r`)
    /// runs on the transposed matrix, pass 3 (`r × c`) is the final row
    /// permute. Every row is a permutation of its pass's `0..cols`
    /// ([`PlanIr::pass_layouts`]), so executors clone the `Arc`s and run
    /// them without a copy or a check.
    pub fn gathers(&self) -> &[Arc<[u32]>; 3] {
        &self.gathers
    }

    /// Closed-form descriptors of the three gather maps (pass order), or
    /// `None` for König-colored plans. When present, each descriptor is
    /// verified-exact against its map: `affine[k].eval(p) == gather(p)`
    /// for every flat position, so computed-index executors are
    /// byte-equivalent to map-loading ones by construction.
    pub fn affine(&self) -> Option<&[AffineStep; 3]> {
        self.affine.as_ref()
    }

    /// The whole plan as one gather-direction BMMC `G`, with
    /// `dst[y] = src[G(y)]` — the inverse of the permutation the plan
    /// realises — or `None` for König-colored plans.
    ///
    /// Derived from the three verified descriptors alone, never from the
    /// maps: destination `y = di·c + dj` takes color `k = g3(y)` from
    /// source row `i = g2(k·r + di)`, which it left from column
    /// `g1(i·c + k)`. Each step is affine, so their composition is, and
    /// evaluating it at `0` and at every unit vector reads off the offset
    /// and the columns: `log n + 1` evaluations of `O(log n)` each, so a
    /// store hit gains no `O(n)` pass by asking.
    pub fn gather_bmmc(&self) -> Option<Bmmc> {
        let [a1, a2, a3] = self.affine.as_ref()?;
        let rb = self.shape.rows.trailing_zeros();
        let cb = self.shape.cols.trailing_zeros();
        let g = |y: usize| {
            let k = a3.eval(y) as usize;
            let i = a2.eval(k << rb | y >> cb) as usize;
            i << cb | a1.eval(i << cb | k) as usize
        };
        let offset = g(0);
        let cols = (0..rb + cb).map(|b| g(1 << b) ^ offset).collect();
        let bmmc = Bmmc::from_cols(cols, offset).ok();
        debug_assert!(
            bmmc.is_some(),
            "verified descriptors compose to a bijection"
        );
        bmmc
    }

    /// Per-pass geometry hints for sweep executors: the matrix view each
    /// of the three passes runs over, in execution order (pass 2 runs on
    /// the transposed matrix), and whether a fused executor folds a
    /// transpose into the pass's write side.
    ///
    /// The layouts are **derived** from the stored shape — they are never
    /// serialised, so exposing them changes no wire byte and a decoded
    /// plan reports exactly the layouts of the plan that was encoded.
    pub fn pass_layouts(&self) -> [PassLayout; 3] {
        pass_layouts(self.shape)
    }

    /// Flat source index of the element destination row `di` takes as
    /// color `k` (`k = g3[di][dj]` for its destination column `dj`): it
    /// sits in source row `i = g2[k][di]`, which it left from column
    /// `g1[i][k]`. Callers walk destination rows and columns directly,
    /// so no destination is ever divided into its row and column.
    #[inline]
    fn source_of(&self, di: usize, k: u32) -> usize {
        let (r, c) = (self.shape.rows, self.shape.cols);
        let [g1, g2, _] = &self.gathers;
        let k = k as usize;
        let i = g2[k * r + di] as usize;
        i * c + g1[i * c + k] as usize
    }

    /// Compose the three passes back into the flat permutation the plan
    /// realises.
    pub fn recompose(&self) -> Permutation {
        let c = self.shape.cols;
        let mut map = vec![0usize; self.len()];
        for (di, row) in self.gathers[2].chunks_exact(c).enumerate() {
            for (dj, &k) in row.iter().enumerate() {
                map[self.source_of(di, k)] = di * c + dj;
            }
        }
        Permutation::from_vec_unchecked(map)
    }

    /// True iff this plan realises exactly `p` — the collision check every
    /// store hit runs before a decoded plan is trusted: the same walk as
    /// [`PlanIr::recompose`], comparing every destination with `p`
    /// instead of writing it (O(n), no allocation, one branch per row).
    pub fn matches(&self, p: &Permutation) -> bool {
        let p = p.as_slice();
        let c = self.shape.cols;
        self.len() == p.len()
            && self.gathers[2]
                .chunks_exact(c)
                .enumerate()
                .all(|(di, row)| {
                    let diff = row.iter().enumerate().fold(0, |diff, (dj, &k)| {
                        diff | (p[self.source_of(di, k)] ^ (di * c + dj))
                    });
                    diff == 0
                })
    }

    /// Re-check the plan's contract: three gather maps sized to the
    /// shape, every row a permutation of its pass's row, and, on
    /// structured plans, every descriptor reproducing its map.
    /// Violations yield [`PlanError::Invalid`].
    ///
    /// Every constructor already guarantees the contract — the builders
    /// by construction, the decoders by checking foreign bytes as they
    /// read them — so no load or prepare path runs this. It stays as an
    /// explicit, public re-check.
    pub fn validate(&self) -> Result<()> {
        let n = self.len();
        let names = ["gather1", "gather2", "gather3"];
        for ((name, gather), layout) in names.iter().zip(&self.gathers).zip(self.pass_layouts()) {
            if gather.len() != n {
                return Err(PlanError::Invalid {
                    reason: format!("{name} has {} entries, shape needs {n}", gather.len()),
                });
            }
            if !rows_are_permutations(gather, layout.cols) {
                return Err(PlanError::Invalid {
                    reason: format!("{name} rows are not permutations of 0..{}", layout.cols),
                });
            }
        }
        if let Some(affine) = &self.affine {
            for (k, (step, gather)) in affine.iter().zip(&self.gathers).enumerate() {
                if !step.matches_map(gather) {
                    return Err(PlanError::Invalid {
                        reason: format!(
                            "affine{} descriptor does not reproduce its gather map",
                            k + 1
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The step-1 destination maps as one [`Permutation`] per row — the
    /// staging form the simulator's row-wise schedules consume, each the
    /// inverse of a pass-1 gather row.
    pub fn step1_row_perms(&self) -> Vec<Permutation> {
        inverse_row_perms(&self.gathers[0], self.shape.cols)
    }

    /// The step-2 destination maps as one [`Permutation`] per column.
    pub fn step2_col_perms(&self) -> Vec<Permutation> {
        inverse_row_perms(&self.gathers[1], self.shape.rows)
    }

    /// The step-3 destination maps as one [`Permutation`] per row.
    pub fn step3_row_perms(&self) -> Vec<Permutation> {
        inverse_row_perms(&self.gathers[2], self.shape.cols)
    }
}

/// The three pass geometries of a `shape` (see [`PlanIr::pass_layouts`]).
fn pass_layouts(shape: MatrixShape) -> [PassLayout; 3] {
    let MatrixShape { rows: r, cols: c } = shape;
    [
        PassLayout {
            rows: r,
            cols: c,
            fused_transpose: true,
        },
        PassLayout {
            rows: c,
            cols: r,
            fused_transpose: true,
        },
        PassLayout {
            rows: r,
            cols: c,
            fused_transpose: false,
        },
    ]
}

/// Geometry of one executor sweep, derived from the plan shape (see
/// [`PlanIr::pass_layouts`]): the `rows × cols` matrix view the pass
/// iterates, where every gather map indexes within one `cols`-element
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassLayout {
    /// Input rows of this pass's matrix view.
    pub rows: usize,
    /// Row length — the range the pass's gather indices live in.
    pub cols: usize,
    /// True when a fused executor writes this pass's output transposed
    /// (passes 1 and 2 of the three-sweep CPU executor).
    pub fused_transpose: bool,
}

/// Derive the γ×ρ color mixer `G` of the closed-form BMMC plan (see
/// [`PlanIr::build_bmmc`]): one γ-bit column per row bit, chosen so that
/// `A ⊕ B·G` is invertible, where `A`/`B` are the row-part blocks of the
/// bit matrix over the row/column bits.
///
/// Greedy GF(2) rank completion: columns of `A` that extend the running
/// basis keep `g_t = 0`; each dependent column is repaired with the first
/// column of `B` that restores independence (`g_t = e_u`). `[A B]` has
/// full row rank ρ because the whole matrix is invertible, so while the
/// basis is deficient some unused `B` column is always independent —
/// `col_a[t] ⊕ col_b[u]` extends the basis exactly when `col_b[u]` does,
/// since `col_a[t]` already lies in its span.
fn color_mixer(bmmc: &Bmmc, row_bits: u32, col_bits: u32) -> Vec<usize> {
    let rb = row_bits as usize;
    let col_a: Vec<usize> = (0..row_bits)
        .map(|t| bmmc.col(col_bits + t) >> col_bits)
        .collect();
    let col_b: Vec<usize> = (0..col_bits).map(|u| bmmc.col(u) >> col_bits).collect();
    // Leading-bit echelon basis of GF(2)^ρ: by_msb[b] is the inserted
    // vector whose highest set bit is b (or 0 when that slot is free).
    let mut by_msb = vec![0usize; rb.max(1)];
    fn reduce(by_msb: &[usize], mut v: usize) -> usize {
        while v != 0 {
            let b = by_msb[v.ilog2() as usize];
            if b == 0 {
                return v;
            }
            v ^= b;
        }
        0
    }
    let mut g = vec![0usize; rb];
    let mut deferred = Vec::new();
    for (t, &ca) in col_a.iter().enumerate() {
        let red = reduce(&by_msb, ca);
        if red != 0 {
            by_msb[red.ilog2() as usize] = red;
        } else {
            deferred.push(t);
        }
    }
    let mut u = 0usize;
    for t in deferred {
        loop {
            debug_assert!(u < col_b.len(), "invertible BMMC always completes");
            let red = reduce(&by_msb, col_a[t] ^ col_b[u]);
            u += 1;
            if red != 0 {
                by_msb[red.ilog2() as usize] = red;
                g[t] = 1usize << (u - 1);
                break;
            }
        }
    }
    g
}

/// Tabulate `f_fold(x) = XOR of col(t) over the set bits t of x` for
/// `x` in `0..len` by an incremental Gray-style walk: each step XORs
/// only the columns of the bits that changed, so the fill is O(len)
/// amortized.
fn gray_table(len: usize, col: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut out = vec![0usize; len];
    let mut val = 0usize;
    for (i, slot) in out.iter_mut().enumerate().skip(1) {
        let mut changed = (i - 1) ^ i;
        while changed != 0 {
            val ^= col(changed.trailing_zeros() as usize);
            changed &= changed - 1;
        }
        *slot = val;
    }
    out
}

/// An `n`-entry map allocated straight into its shared storage (one
/// allocation, no copy) and filled by `fill(first_row, rows)` over whole
/// rows of `cols` on the thread budget.
fn shared_map(
    n: usize,
    cols: usize,
    par: Parallelism,
    fill: impl Fn(usize, &mut [u32]) + Sync,
) -> Arc<[u32]> {
    let mut map: Arc<[u32]> = std::iter::repeat_n(0, n).collect();
    par.run_rows(
        Arc::get_mut(&mut map).expect("a fresh map is unshared"),
        cols,
        fill,
    );
    map
}

/// Per-row inverse of a flat destination map, `out[row·cols + flat[row·cols
/// + j]] = j`, over a thread budget (each output row is owned by exactly one
/// chunk, so the result does not depend on it). Requires each row to be a
/// permutation of `0..cols`.
fn invert_rows(flat: &[u32], cols: usize, par: Parallelism) -> Arc<[u32]> {
    shared_map(flat.len(), cols, par, |first_row, chunk| {
        for (rr, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let base = (first_row + rr) * cols;
            for (j, &d) in flat[base..base + cols].iter().enumerate() {
                orow[d as usize] = j as u32;
            }
        }
    })
}

/// Walk the rows `first_row..` of an `r × cols` output held in `rows`
/// against the transposed source `src` (`cols × r`, so row `i`'s column
/// `k` is `src[k·r + i]`), calling `put(row, k, src[k·r + i])` for each.
/// The walk goes in 16 × 16 tiles staged on the stack, so every source
/// line is read whole once instead of once per output row: rows of `src`
/// lie a power of two apart and would otherwise evict each other.
fn transpose_rows(
    src: &[u32],
    r: usize,
    first_row: usize,
    rows: &mut [u32],
    cols: usize,
    put: impl Fn(&mut [u32], usize, u32),
) {
    const T: usize = 16;
    let mut tile = [[0u32; T]; T];
    for (t, band) in rows.chunks_mut(T * cols).enumerate() {
        let i0 = first_row + t * T;
        let ti = band.len() / cols;
        for k0 in (0..cols).step_by(T) {
            let tk = T.min(cols - k0);
            for (kk, line) in tile[..tk].iter_mut().enumerate() {
                let s = (k0 + kk) * r + i0;
                line[..ti].copy_from_slice(&src[s..s + ti]);
            }
            for (ii, row) in band.chunks_exact_mut(cols).enumerate() {
                for (kk, line) in tile[..tk].iter().enumerate() {
                    put(row, k0 + kk, line[ii]);
                }
            }
        }
    }
}

/// Invert one step section of a plan file (`n` little-endian `u32`s in
/// rows of `cols`, `cols` dividing `n`) into its gather map, checking every row as it goes:
/// each entry must lie in `0..cols` and appear once in its row.
fn invert_checked(name: &str, bytes: &[u8], n: usize, cols: usize) -> Result<Arc<[u32]>> {
    let bad = |reason: String| PlanError::Codec { reason };
    if Some(bytes.len()) != n.checked_mul(4) {
        return Err(bad(format!(
            "{name} has {} bytes, shape needs 4 × {n}",
            bytes.len()
        )));
    }
    // Every slot starts as a sentinel no in-row index equals, so a second
    // write to one slot is a repeated entry.
    let mut gather: Arc<[u32]> = std::iter::repeat_n(u32::MAX, bytes.len() / 4).collect();
    let out = Arc::get_mut(&mut gather).expect("a fresh map is unshared");
    for (row, (orow, src)) in out
        .chunks_exact_mut(cols)
        .zip(bytes.chunks_exact(4 * cols))
        .enumerate()
    {
        for (j, entry) in src.chunks_exact(4).enumerate() {
            let d = u32::from_le_bytes(entry.try_into().expect("4-byte entry"));
            match orow.get_mut(d as usize) {
                Some(slot) if *slot == u32::MAX => *slot = j as u32,
                _ => {
                    return Err(bad(format!(
                        "{name} row {row} is not a permutation of 0..{cols}"
                    )))
                }
            }
        }
    }
    Ok(gather)
}

/// γ_w(P) over a thread budget: each range of warps is counted by the
/// same [`warp_group_counts`] that [`distribution`] folds, and the
/// integer chunk sums combine into exactly the sequential value.
fn distribution_par(p: &Permutation, width: usize, par: Parallelism) -> f64 {
    let n = p.len();
    if n == 0 {
        return 0.0;
    }
    let warps = n.div_ceil(width);
    let slice = p.as_slice();
    let parts = par.map_ranges(warps, 256, |w0, w1| {
        warp_group_counts(&slice[w0 * width..(w1 * width).min(n)], width).sum::<usize>()
    });
    let total: usize = parts.iter().sum();
    total as f64 / warps as f64
}

/// True iff every `cols`-chunk of `flat` is a permutation of `0..cols`.
pub(crate) fn rows_are_permutations(flat: &[u32], cols: usize) -> bool {
    let mut seen = vec![false; cols];
    for row in flat.chunks_exact(cols) {
        seen.iter_mut().for_each(|s| *s = false);
        for &d in row {
            let d = d as usize;
            if d >= cols || seen[d] {
                return false;
            }
            seen[d] = true;
        }
    }
    true
}

/// The per-row inverses of a gather map as one [`Permutation`] per row.
fn inverse_row_perms(gather: &[u32], cols: usize) -> Vec<Permutation> {
    gather
        .chunks_exact(cols)
        .map(|row| {
            let mut map = vec![0usize; cols];
            for (k, &j) in row.iter().enumerate() {
                map[j as usize] = k;
            }
            Permutation::from_vec_unchecked(map)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::distribution::distribution;
    use hmm_perm::families;

    const W: usize = 8;

    #[test]
    fn plan_recomposes_for_all_families() {
        let n = 1 << 10;
        for fam in families::Family::ALL {
            let p = fam.build(n, 21).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            assert_eq!(ir.recompose(), p, "{}", fam.name());
            assert!(ir.matches(&p), "{}", fam.name());
            assert_eq!(ir.fingerprint(), p.fingerprint());
            assert_eq!(ir.width(), W);
        }
    }

    #[test]
    fn parallel_builder_equals_sequential_for_all_families() {
        let n = 1 << 10;
        for fam in families::Family::ALL {
            let p = fam.build(n, 5).unwrap();
            let seq = PlanIr::build(&p, W).unwrap();
            for t in [2usize, 3, 8] {
                let par = PlanIr::build_par(&p, W, t).unwrap();
                assert_eq!(par, seq, "{} threads={t}", fam.name());
            }
        }
    }

    #[test]
    fn parallel_builder_with_one_thread_is_the_sequential_builder() {
        let p = families::random(1 << 10, 44);
        assert_eq!(
            PlanIr::build_par(&p, W, 1).unwrap(),
            PlanIr::build(&p, W).unwrap()
        );
    }

    #[test]
    fn matches_rejects_other_permutations() {
        let n = 1 << 10;
        let ir = PlanIr::build(&families::random(n, 1), W).unwrap();
        assert!(!ir.matches(&families::random(n, 2)));
        assert!(!ir.matches(&families::random(n * 2, 1)));
    }

    /// `matches` walks destination rows and columns where the code it
    /// replaced divided each destination; the check must stay exactly
    /// "the plan recomposes to `q`", on square and rectangular shapes,
    /// for the plan's own permutation and for near misses.
    #[test]
    fn matches_is_exactly_recompose_equality() {
        for n in [1usize << 10, 1 << 11] {
            for fam in families::Family::ALL {
                let p = fam.build(n, 23).unwrap();
                let ir = PlanIr::build(&p, W).unwrap();
                if n == 1 << 11 {
                    assert_ne!(ir.shape().rows, ir.shape().cols);
                }
                let mut swapped = p.as_slice().to_vec();
                swapped.swap(3, n - 5);
                let swapped = Permutation::from_vec(swapped).unwrap();
                let candidates = [
                    p.clone(),
                    swapped,
                    families::random(n, 24),
                    p.inverse(),
                    Permutation::identity(n),
                ];
                let recomposed = ir.recompose();
                for (k, q) in candidates.iter().enumerate() {
                    assert_eq!(
                        ir.matches(q),
                        recomposed == *q,
                        "{} n={n} candidate {k}",
                        fam.name()
                    );
                }
                assert!(ir.matches(&p), "{} n={n}", fam.name());
                assert!(!ir.matches(&candidates[1]), "{} n={n}", fam.name());
            }
        }
    }

    /// Every builder records the γ_w the sequential `distribution`
    /// measures, bit for bit — engines route store hits on it.
    #[test]
    fn every_builder_records_the_sequential_gamma() {
        for n in [1usize << 10, 1 << 11] {
            for fam in families::Family::ALL {
                let p = fam.build(n, 25).unwrap();
                let want = distribution(&p, W).to_bits();
                for t in [1usize, 2, 3] {
                    let ir = PlanIr::build_par(&p, W, t).unwrap();
                    assert_eq!(ir.gamma().to_bits(), want, "{} n={n} t={t}", fam.name());
                }
                let shape = scheduled_shape(n, W).unwrap();
                let general = PlanIr::build_for_shape(&p, shape, W, Strategy::Hybrid).unwrap();
                assert_eq!(general.gamma().to_bits(), want, "{} n={n}", fam.name());
            }
        }
        // The range split also agrees off the warp grid: a length that is
        // not a multiple of the width, at budgets that split unevenly.
        for (n, width) in [(1000usize, 32usize), (100_003, 32), (4097, 7)] {
            let p = families::random(n, 26);
            let want = distribution(&p, width).to_bits();
            for t in [1usize, 2, 3, 5] {
                let got = distribution_par(&p, width, Parallelism::threads(t));
                assert_eq!(got.to_bits(), want, "n={n} w={width} t={t}");
            }
        }
    }

    #[test]
    fn gather_maps_invert_the_steps() {
        let n = 1 << 10;
        let p = families::random(n, 9);
        let ir = PlanIr::build(&p, W).unwrap();
        let (r, c) = (ir.shape().rows, ir.shape().cols);
        let [g1, g2, g3] = ir.gathers();
        for (i, q) in ir.step1_row_perms().iter().enumerate() {
            for j in 0..c {
                assert_eq!(g1[i * c + q.apply(j)] as usize, j);
            }
        }
        for (k, q) in ir.step2_col_perms().iter().enumerate() {
            for i in 0..r {
                assert_eq!(g2[k * r + q.apply(i)] as usize, i);
            }
        }
        for (di, q) in ir.step3_row_perms().iter().enumerate() {
            for k in 0..c {
                assert_eq!(g3[di * c + q.apply(k)] as usize, k);
            }
        }
    }

    #[test]
    fn row_perm_staging_matches_flat_steps() {
        // The staged steps compose back to the permutation: element
        // (i, j) takes color k, row di, then column dj.
        let n = 1 << 10;
        let p = families::bit_reversal(n).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        let (r, c) = (ir.shape().rows, ir.shape().cols);
        let (s1, s2, s3) = (
            ir.step1_row_perms(),
            ir.step2_col_perms(),
            ir.step3_row_perms(),
        );
        assert_eq!((s1.len(), s2.len(), s3.len()), (r, c, r));
        for (i, row) in s1.iter().enumerate() {
            for j in 0..c {
                let k = row.apply(j);
                let di = s2[k].apply(i);
                assert_eq!(di * c + s3[di].apply(k), p.apply(i * c + j));
            }
        }
    }

    #[test]
    fn explicit_shape_must_match_length() {
        let p = families::random(64, 6);
        let shape = MatrixShape::new(4, 8).unwrap();
        assert!(matches!(
            PlanIr::build_for_shape(&p, shape, W, Strategy::Hybrid),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        assert!(PlanIr::build(&families::random(100, 7), W).is_err());
        assert!(PlanIr::build(&families::random(32, 8), W).is_err());
    }

    /// A step section's little-endian bytes, as the codec carries it.
    fn step_bytes(rows: &[Permutation]) -> Vec<u8> {
        rows.iter()
            .flat_map(|q| q.as_slice().iter().flat_map(|&d| (d as u32).to_le_bytes()))
            .collect()
    }

    #[test]
    fn from_steps_validates_rows() {
        let p = families::random(256, 3);
        let ir = PlanIr::build(&p, W).unwrap();
        let steps = [
            step_bytes(&ir.step1_row_perms()),
            step_bytes(&ir.step2_col_perms()),
            step_bytes(&ir.step3_row_perms()),
        ];
        let decode = |steps: &[Vec<u8>; 3]| {
            let [s1, s2, s3] = steps;
            PlanIr::from_steps(ir.shape(), W, [s1, s2, s3], ir.gamma(), ir.fingerprint())
        };
        assert_eq!(decode(&steps).unwrap(), ir);
        for pass in 0..3 {
            // A duplicated entry breaks the permutation property.
            let mut dup = steps.clone();
            let first = dup[pass][..4].to_vec();
            dup[pass][4..8].copy_from_slice(&first);
            assert!(matches!(decode(&dup), Err(PlanError::Codec { .. })));
            // An out-of-range entry is caught, not indexed.
            let mut oob = steps.clone();
            oob[pass][..4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(decode(&oob), Err(PlanError::Codec { .. })));
            // A short section is refused before it is read.
            let mut short = steps.clone();
            short[pass].truncate(4);
            assert!(matches!(decode(&short), Err(PlanError::Codec { .. })));
        }
    }

    #[test]
    fn pass_layouts_follow_the_shape() {
        let p = families::random(1 << 11, 41); // rectangular (odd exponent)
        let ir = PlanIr::build(&p, W).unwrap();
        let MatrixShape { rows: r, cols: c } = ir.shape();
        let [l1, l2, l3] = ir.pass_layouts();
        assert_eq!((l1.rows, l1.cols, l1.fused_transpose), (r, c, true));
        assert_eq!((l2.rows, l2.cols, l2.fused_transpose), (c, r, true));
        assert_eq!((l3.rows, l3.cols, l3.fused_transpose), (r, c, false));
    }

    #[test]
    fn pass_layouts_are_codec_stable() {
        // Derived hints must neither change the wire bytes nor differ
        // between a built plan and its decoded round-trip.
        let p = families::random(1 << 10, 42);
        let ir = PlanIr::build(&p, W).unwrap();
        let bytes = crate::codec::encode(&ir);
        let layouts = ir.pass_layouts();
        assert_eq!(crate::codec::encode(&ir), bytes, "pass_layouts mutated");
        let decoded = crate::codec::decode(&bytes).unwrap();
        assert_eq!(decoded.pass_layouts(), layouts);
    }

    #[test]
    fn structured_plans_realise_their_permutations() {
        let n = 1 << 12;
        let cases: Vec<(&str, hmm_perm::Permutation)> = vec![
            ("identity", hmm_perm::Permutation::identity(n)),
            ("shuffle", families::shuffle(n).unwrap()),
            ("bit_reversal", families::bit_reversal(n).unwrap()),
            ("transpose", families::transpose_square(n).unwrap()),
            ("butterfly", families::butterfly(n, 5).unwrap()),
            ("gray", families::gray_code(n).unwrap()),
        ];
        for (name, p) in cases {
            let ir = PlanIr::build_structured(&p, W)
                .unwrap_or_else(|| panic!("{name} not structured"))
                .unwrap();
            assert!(ir.matches(&p), "{name}");
            assert_eq!(ir.recompose(), p, "{name}");
            assert_eq!(ir.fingerprint(), p.fingerprint(), "{name}");
            ir.validate().unwrap();
            // Same derived identity as the general König plan.
            let shape = scheduled_shape(n, W).unwrap();
            let general = PlanIr::build_for_shape(&p, shape, W, Strategy::Hybrid).unwrap();
            assert_eq!(ir.shape(), general.shape(), "{name}");
            assert_eq!(ir.width(), general.width(), "{name}");
            assert_eq!(ir.gamma(), general.gamma(), "{name}");
            assert_eq!(ir.fingerprint(), general.fingerprint(), "{name}");
            assert_eq!(general.recompose(), ir.recompose(), "{name}");
        }
    }

    #[test]
    fn structured_plans_carry_exact_affine_descriptors() {
        let n = 1 << 12;
        for (name, p) in [
            ("shuffle", families::shuffle(n).unwrap()),
            ("bit_reversal", families::bit_reversal(n).unwrap()),
            ("transpose", families::transpose_square(n).unwrap()),
        ] {
            let ir = PlanIr::build(&p, W).unwrap();
            let aff = ir
                .affine()
                .unwrap_or_else(|| panic!("{name} has no descriptors"));
            let (r, c) = (ir.shape().rows, ir.shape().cols);
            for (which, step, map, cols) in [
                ("g1", &aff[0], &ir.gathers()[0][..], c),
                ("g2", &aff[1], &ir.gathers()[1][..], r),
                ("g3", &aff[2], &ir.gathers()[2][..], c),
            ] {
                assert!(step.matches_map(map), "{name}/{which}");
                assert_eq!(&step.materialize()[..], map, "{name}/{which}");
                assert_eq!(step.col_bits(), cols.trailing_zeros(), "{name}/{which}");
                for p in [0usize, 1, 7, n / 2, n - 1] {
                    assert_eq!(step.eval(p), map[p], "{name}/{which} at {p}");
                    assert_eq!(
                        step.row_base(p / cols) ^ step.eval(p % cols) ^ step.offset(),
                        map[p],
                        "{name}/{which} split at {p}"
                    );
                }
            }
        }
        // König-colored plans carry none.
        let ir = PlanIr::build(&families::random(n, 3), W).unwrap();
        assert!(ir.affine().is_none());
    }

    #[test]
    fn structured_detection_skips_random_permutations() {
        assert!(PlanIr::build_structured(&families::random(1 << 10, 3), W).is_none());
        // Rectangular shapes (odd exponent) take the fast path too.
        let p = families::shuffle(1 << 11).unwrap();
        let ir = PlanIr::build_structured(&p, W).unwrap().unwrap();
        assert!(ir.matches(&p));
        assert_ne!(ir.shape().rows, ir.shape().cols);
    }

    #[test]
    fn structured_builder_is_thread_invariant() {
        for n in [1 << 10, 1 << 13] {
            let p = families::bit_reversal(n).unwrap();
            let seq = PlanIr::build(&p, W).unwrap();
            for t in [2usize, 5, 16] {
                assert_eq!(PlanIr::build_par(&p, W, t).unwrap(), seq, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn bmmc_builder_rejects_mismatched_sizes() {
        let p = families::shuffle(1 << 10).unwrap();
        let small = families::shuffle(1 << 8).unwrap().as_bmmc().unwrap();
        assert!(matches!(
            PlanIr::build_bmmc(&p, &small, W),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn compose_fuses_two_plans_into_one() {
        let n = 1 << 10;
        // BMMC ∘ BMMC: matrix-product path.
        let p1 = families::shuffle(n).unwrap();
        let p2 = families::bit_reversal(n).unwrap();
        let plan1 = PlanIr::build(&p1, W).unwrap();
        let plan2 = PlanIr::build(&p2, W).unwrap();
        let fused = plan2.compose(&plan1).unwrap();
        let expect = p2.compose(&p1);
        assert!(fused.matches(&expect));
        assert_eq!(fused.fingerprint(), expect.fingerprint());
        // General ∘ general: compose-then-plan-once path.
        let q1 = families::random(n, 61);
        let q2 = families::random(n, 62);
        let fused = PlanIr::build(&q2, W)
            .unwrap()
            .compose(&PlanIr::build(&q1, W).unwrap())
            .unwrap();
        assert!(fused.matches(&q2.compose(&q1)));
        // Mixed structured/general works through the general path.
        let fused = PlanIr::build(&q2, W).unwrap().compose(&plan1).unwrap();
        assert!(fused.matches(&q2.compose(&p1)));
        // Size mismatch is a typed error.
        let other = PlanIr::build(&families::random(1 << 12, 8), W).unwrap();
        assert!(matches!(
            other.compose(&plan1),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn compose_applied_once_equals_applying_both() {
        let n = 1 << 10;
        let p1 = families::random(n, 71);
        let p2 = families::bit_reversal(n).unwrap();
        let fused = PlanIr::build(&p2, W)
            .unwrap()
            .compose_par(&PlanIr::build(&p1, W).unwrap(), 4)
            .unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut mid = vec![0u32; n];
        let mut two_step = vec![0u32; n];
        p1.permute(&src, &mut mid).unwrap();
        p2.permute(&mid, &mut two_step).unwrap();
        let mut one_step = vec![0u32; n];
        fused.recompose().permute(&src, &mut one_step).unwrap();
        assert_eq!(one_step, two_step);
    }
}
