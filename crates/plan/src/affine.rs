//! Per-pass affine index descriptors: the closed form of a structured
//! plan's gather maps.
//!
//! For a BMMC (GF(2)-affine) permutation, the closed-form emitter
//! (`PlanIr::build_bmmc`) produces three gather maps that are themselves
//! affine over the bits of the flat element position: there is a mask
//! `cols[b]` per position bit and an offset such that
//!
//! ```text
//! g[p] = offset ⊕ (XOR over set bits b of p) cols[b]
//! ```
//!
//! An [`AffineStep`] is that function as data — `O(log n)` words instead
//! of the `O(n)` materialized map — and is what the computed-index
//! kernels evaluate in registers instead of loading `g[p]` from memory.
//! Descriptors are **fit from the materialized map and verified against
//! every entry** (probe the basis as `Permutation::as_bmmc` does, then
//! compare every entry), so an attached descriptor is exact by
//! construction, never a heuristic.
//!
//! One materializer turns a descriptor back into its map, and the same
//! one checks a map against it: within a row the fold is a row constant
//! XORed into one shared table of the in-row part (the XOR-mask view of
//! an affine index map, as in Bouverot-Dupuis & Sheeran's GPU affine
//! permutations), so a map costs one XOR per entry. The same view decides
//! from the masks alone whether every row is a permutation: exactly when
//! the in-row masks are linearly independent over GF(2).
//!
//! Geometry: a descriptor belongs to one pass whose matrix view has
//! `2^col_bits` columns. Gather indices live in `0..2^col_bits`, and the
//! flat position `p = row · 2^col_bits + j` splits cleanly: masks
//! `cols[..col_bits]` belong to the in-row coordinate `j` (the per-lane
//! part a SIMD kernel folds), masks `cols[col_bits..]` belong to the row
//! index (folded once per row into [`AffineStep::row_base`]).

use crate::error::{PlanError, Result};
use std::sync::Arc;

/// The affine closed form of one pass's gather map (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineStep {
    /// log₂ of the pass's row length; indices are `< 2^col_bits`.
    col_bits: u32,
    /// One mask per flat-position bit: `cols[b]` is XORed into the index
    /// when bit `b` of the position is set. `cols.len()` is log₂ of the
    /// pass's element count.
    cols: Vec<u32>,
    /// The index of flat position 0.
    offset: u32,
}

impl AffineStep {
    /// Fit a descriptor to a materialized gather map over rows of
    /// `cols` entries, verifying it reproduces **every** entry: `None`
    /// means the map is not affine (or the geometry is not a power of
    /// two), never a wrong descriptor.
    pub fn fit(map: &[u32], cols: usize) -> Option<Self> {
        let n = map.len();
        if n == 0 || !n.is_power_of_two() || cols == 0 || !cols.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        let offset = map[0];
        let masks: Vec<u32> = (0..bits).map(|b| map[1usize << b] ^ offset).collect();
        let step = AffineStep {
            col_bits: cols.trailing_zeros(),
            cols: masks,
            offset,
        };
        if step.matches_map(map) {
            Some(step)
        } else {
            None
        }
    }

    /// Reassemble from raw parts — the codec's decode path. Callers must
    /// run [`AffineStep::check_geometry`] before trusting the result.
    pub(crate) fn from_parts(col_bits: u32, cols: Vec<u32>, offset: u32) -> Self {
        AffineStep {
            col_bits,
            cols,
            offset,
        }
    }

    /// log₂ of the pass's row length.
    #[inline]
    pub fn col_bits(&self) -> u32 {
        self.col_bits
    }

    /// The per-bit masks, low (in-row) bits first.
    #[inline]
    pub fn masks(&self) -> &[u32] {
        &self.cols
    }

    /// Masks of the in-row coordinate bits — what a per-lane kernel
    /// folds for each `j` within a row.
    #[inline]
    pub fn lo_masks(&self) -> &[u32] {
        &self.cols[..self.col_bits as usize]
    }

    /// The index of flat position 0.
    #[inline]
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The row-constant part of the fold: `offset` XOR the masks of the
    /// row bits — so `eval(row · 2^col_bits + j) = row_base(row) ⊕
    /// fold(lo_masks, j)`.
    #[inline]
    pub fn row_base(&self, row: usize) -> u32 {
        let mut v = self.offset;
        let mut bits = row;
        while bits != 0 {
            v ^= self.cols[self.col_bits as usize + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        v
    }

    /// Evaluate the fold at flat position `p`.
    #[inline]
    pub fn eval(&self, p: usize) -> u32 {
        let mut v = self.offset;
        let mut bits = p;
        while bits != 0 {
            v ^= self.cols[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        v
    }

    /// True iff the descriptor reproduces `map` exactly: every entry is
    /// compared with the value the descriptor's materializer writes
    /// there (its row constant XOR the shared in-row table), without
    /// allocating the map.
    pub fn matches_map(&self, map: &[u32]) -> bool {
        let bits = self.cols.len();
        if bits >= usize::BITS as usize
            || map.len() != 1usize << bits
            || self.col_bits as usize > bits
        {
            return false;
        }
        let limit = 1u64 << self.col_bits;
        if u64::from(self.offset) >= limit || self.cols.iter().any(|&m| u64::from(m) >= limit) {
            return false;
        }
        let low = self.low_table();
        map.chunks_exact(low.len()).enumerate().all(|(row, got)| {
            let base = self.row_base(row);
            // OR of the differences: a branch-free pass per row.
            got.iter()
                .zip(&low)
                .fold(0, |acc, (&g, &l)| acc | (g ^ base ^ l))
                == 0
        })
    }

    /// The gather map this descriptor folds, allocated once into shared
    /// storage. Within a row the fold is `row_base(row) ⊕ low[j]`, where
    /// `low` is the same `2^col_bits`-entry table for every row
    /// ([`AffineStep::low_table`]), so each row is one XOR of a constant
    /// into that table — no per-entry bit walk. The geometry must hold
    /// (`col_bits ≤` the mask count): [`AffineStep::fit`] only returns
    /// such descriptors, and decode runs
    /// [`AffineStep::check_geometry`] first.
    pub(crate) fn materialize(&self) -> Arc<[u32]> {
        let low = self.low_table();
        let mut map: Arc<[u32]> = std::iter::repeat_n(0, 1usize << self.cols.len()).collect();
        let out = Arc::get_mut(&mut map).expect("a fresh map is unshared");
        for (row, chunk) in out.chunks_exact_mut(low.len()).enumerate() {
            let base = self.row_base(row);
            for (slot, &l) in chunk.iter_mut().zip(&low) {
                *slot = base ^ l;
            }
        }
        map
    }

    /// The in-row part of the fold, `low[j] = XOR of lo_masks[b] over the
    /// set bits b of j` for `j` in `0..2^col_bits`, built by doubling:
    /// the second half of each prefix is the first half XOR the next
    /// mask.
    fn low_table(&self) -> Vec<u32> {
        let mut low = Vec::with_capacity(1usize << self.col_bits);
        low.push(0);
        for &m in self.lo_masks() {
            low.extend_from_within(..);
            let half = low.len() / 2;
            low[half..].iter_mut().for_each(|v| *v ^= m);
        }
        low
    }

    /// True iff every row of the materialized map is a permutation of
    /// `0..2^col_bits`, decided from the masks alone. A row is
    /// `row_base(row) ⊕ low[j]`, and XOR by a constant is a bijection,
    /// so every row is a permutation exactly when `j ↦ low[j]` is, that
    /// is when the `col_bits` low masks are linearly independent over
    /// GF(2) — an O(col_bits²) rank check in place of an O(n) pass over
    /// the map. Exact only once [`AffineStep::check_geometry`] has
    /// bounded every mask and the offset below `2^col_bits`.
    pub(crate) fn rows_are_permutations(&self) -> bool {
        // Leading-bit echelon basis: by_msb[b] has highest set bit b.
        let mut by_msb = [0u32; 32];
        self.lo_masks().iter().all(|&m| {
            let mut v = m;
            while v != 0 {
                let top = v.ilog2() as usize;
                if by_msb[top] == 0 {
                    by_msb[top] = v;
                    return true;
                }
                v ^= by_msb[top];
            }
            false
        })
    }

    /// Validate the descriptor's geometry against the pass it claims to
    /// describe: `n` elements in rows of `cols` entries, every mask and
    /// the offset in range. Hostile bytes surface here as
    /// [`PlanError::Codec`] before any `1 << cols.len()` allocation.
    pub(crate) fn check_geometry(&self, name: &str, n: usize, cols: usize) -> Result<()> {
        let bad = |reason: String| PlanError::Codec { reason };
        if !n.is_power_of_two() || !cols.is_power_of_two() {
            return Err(bad(format!(
                "{name}: affine descriptor over non-power-of-two geometry {n}/{cols}"
            )));
        }
        if self.cols.len() != n.trailing_zeros() as usize {
            return Err(bad(format!(
                "{name}: {} masks, {n} elements need {}",
                self.cols.len(),
                n.trailing_zeros()
            )));
        }
        if self.col_bits != cols.trailing_zeros() {
            return Err(bad(format!(
                "{name}: col_bits {} does not match row length {cols}",
                self.col_bits
            )));
        }
        if self.offset as usize >= cols || self.cols.iter().any(|&m| m as usize >= cols) {
            return Err(bad(format!(
                "{name}: mask or offset out of range 0..{cols}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_and_reproduces_affine_maps() {
        // g[p] = 0b101 ^ fold of masks — 32 positions, rows of 8.
        let masks = [0b001u32, 0b110, 0b010, 0b100, 0b011];
        let map: Vec<u32> = (0..32usize)
            .map(|p| {
                let mut v = 0b101u32;
                for (b, &m) in masks.iter().enumerate() {
                    if p >> b & 1 == 1 {
                        v ^= m;
                    }
                }
                v
            })
            .collect();
        let step = AffineStep::fit(&map, 8).expect("affine map must fit");
        assert_eq!(step.offset(), 0b101);
        assert_eq!(step.masks(), &masks);
        assert_eq!(step.col_bits(), 3);
        assert_eq!(step.lo_masks(), &masks[..3]);
        assert!(step.matches_map(&map));
        assert_eq!(&step.materialize()[..], &map[..]);
        for (p, &expect) in map.iter().enumerate() {
            assert_eq!(step.eval(p), expect);
            assert_eq!(
                step.row_base(p / 8) ^ step.eval(p & 7) ^ step.offset(),
                expect
            );
        }
        step.check_geometry("g", 32, 8).unwrap();
    }

    #[test]
    fn rejects_non_affine_maps() {
        // One flipped entry away from affine.
        let mut map: Vec<u32> = (0..16u32).map(|p| p ^ 3).collect();
        assert!(AffineStep::fit(&map, 16).is_some());
        map[9] ^= 1;
        assert!(AffineStep::fit(&map, 16).is_none());
        // Non-power-of-two geometry never fits.
        assert!(AffineStep::fit(&[0u32; 12], 4).is_none());
        assert!(AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 12).is_none());
        assert!(AffineStep::fit(&[], 4).is_none());
        // Rows longer than the map: no descriptor whose in-row masks
        // outnumber its masks.
        assert!(AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 32).is_none());
    }

    #[test]
    fn geometry_violations_are_typed_errors() {
        let id: Vec<u32> = (0..16).collect();
        let step = AffineStep::fit(&id, 16).unwrap();
        step.check_geometry("g", 16, 16).unwrap();
        assert!(step.check_geometry("g", 32, 16).is_err()); // wrong element count
        assert!(step.check_geometry("g", 16, 8).is_err()); // wrong row length
        assert!(step.check_geometry("g", 12, 16).is_err()); // not a power of two
        let oob = AffineStep::from_parts(2, vec![0, 1, 4, 0], 0);
        assert!(oob.check_geometry("g", 16, 4).is_err()); // mask ≥ row length
    }

    #[test]
    fn matches_map_rejects_out_of_range_descriptors() {
        // A descriptor whose masks exceed the row length cannot claim to
        // match any in-range map.
        let step = AffineStep::from_parts(2, vec![0, 1, 8, 0], 0);
        let map: Vec<u32> = (0..16).map(|p| step.eval(p)).collect();
        assert!(!step.matches_map(&map));
        // And a length mismatch is a clean false, not a panic.
        let id = AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 16).unwrap();
        assert!(!id.matches_map(&[0, 1, 2]));
    }

    #[test]
    fn rank_check_refuses_dependent_low_masks() {
        // Rows of 8, 32 positions. Independent low masks: permutations.
        let ok = AffineStep::from_parts(3, vec![0b001, 0b011, 0b110, 0b101, 0b010], 0b100);
        ok.check_geometry("g", 32, 8).unwrap();
        assert!(ok.rows_are_permutations());
        assert!(crate::ir::rows_are_permutations(&ok.materialize(), 8));
        // Two equal low masks, a zero low mask, and a low mask that is
        // the XOR of the other two: each repeats entries in every row.
        for lo in [
            [0b001, 0b001, 0b100],
            [0b001, 0, 0b100],
            [0b011, 0b110, 0b101],
        ] {
            let mut masks = lo.to_vec();
            masks.extend([0b111, 0b001]);
            let bad = AffineStep::from_parts(3, masks, 0);
            bad.check_geometry("g", 32, 8).unwrap();
            assert!(!bad.rows_are_permutations(), "{lo:?}");
            assert!(!crate::ir::rows_are_permutations(&bad.materialize(), 8));
        }
    }

    /// The table materializer equals the per-position fold on the
    /// descriptors of every closed-form plan pass.
    #[test]
    fn materializer_equals_eval_on_random_bmmc_plans() {
        for (k, seed) in [(6u32, 1u64), (9, 2), (11, 3), (12, 4)] {
            let n = 1usize << k;
            let p = hmm_perm::families::random_bmmc(n, seed).unwrap();
            let ir = crate::PlanIr::build(&p, 8).unwrap();
            let affine = ir.affine().expect("BMMC plans carry descriptors");
            for (step, gather) in affine.iter().zip(ir.gathers()) {
                let map = step.materialize();
                assert_eq!(&map[..], &gather[..], "k={k}");
                assert!(map.iter().enumerate().all(|(p, &v)| v == step.eval(p)));
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A descriptor over `2^bits` positions in rows of `2^col_bits`,
        /// every mask and the offset in range, drawn from `seed`. `dep`
        /// picks how the low masks are drawn: 0 at random (dependent or
        /// not), 1 with one low mask copied from another, 2 with one low
        /// mask the XOR of two others.
        fn descriptor(bits: u32, col_frac: f64, dep: u8, seed: u64) -> AffineStep {
            let col_bits = ((f64::from(bits + 1) * col_frac) as u32).min(bits);
            let cols = 1u64 << col_bits;
            let mut state = seed;
            let mut draw = || {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % cols) as u32
            };
            let mut masks: Vec<u32> = (0..bits).map(|_| draw()).collect();
            let lo = col_bits as usize;
            if dep == 1 && lo >= 2 {
                masks[lo - 1] = masks[0];
            } else if dep == 2 && lo >= 3 {
                masks[lo - 1] = masks[0] ^ masks[1];
            }
            AffineStep::from_parts(col_bits, masks, draw())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The rank check decides exactly what a row-by-row scan of
            /// the materialized map decides.
            #[test]
            fn rank_check_equals_the_row_scan(
                bits in 1u32..=10,
                col_frac in 0.0f64..1.0,
                dep in 0u8..3,
                seed in any::<u64>(),
            ) {
                let step = descriptor(bits, col_frac, dep, seed);
                let col_bits = step.col_bits();
                step.check_geometry("g", 1 << bits, 1 << col_bits).unwrap();
                prop_assert_eq!(
                    step.rows_are_permutations(),
                    crate::ir::rows_are_permutations(&step.materialize(), 1 << col_bits)
                );
            }

            /// The table materializer equals the per-position fold.
            #[test]
            fn materializer_equals_eval(
                bits in 1u32..=10,
                col_frac in 0.0f64..1.0,
                dep in 0u8..3,
                seed in any::<u64>(),
            ) {
                let step = descriptor(bits, col_frac, dep, seed);
                let map = step.materialize();
                prop_assert_eq!(map.len(), 1usize << bits);
                for (p, &v) in map.iter().enumerate() {
                    prop_assert_eq!(v, step.eval(p), "position {}", p);
                }
                prop_assert!(step.matches_map(&map));
            }
        }
    }
}
