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
//! every entry** (the same probe-then-Gray-walk scheme as
//! `Permutation::as_bmmc`), so an attached descriptor is exact by
//! construction, never a heuristic.
//!
//! Geometry: a descriptor belongs to one pass whose matrix view has
//! `2^col_bits` columns. Gather indices live in `0..2^col_bits`, and the
//! flat position `p = row · 2^col_bits + j` splits cleanly: masks
//! `cols[..col_bits]` belong to the in-row coordinate `j` (the per-lane
//! part a SIMD kernel folds), masks `cols[col_bits..]` belong to the row
//! index (folded once per row into [`AffineStep::row_base`]).

use crate::error::{PlanError, Result};

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

    /// True iff the descriptor reproduces `map` exactly — an O(n)
    /// incremental Gray-style walk of the map it folds.
    pub fn matches_map(&self, map: &[u32]) -> bool {
        if self.cols.len() >= usize::BITS as usize || map.len() != 1usize << self.cols.len() {
            return false;
        }
        let limit = 1u64 << self.col_bits.min(32);
        if u64::from(self.offset) >= limit || self.cols.iter().any(|&m| u64::from(m) >= limit) {
            return false;
        }
        self.walk().eq(map.iter().copied())
    }

    /// The map's entries in order, by the incremental Gray-style walk
    /// (each step XORs only the masks of the bits that changed). An
    /// exact-size iterator over a range, so collecting it allocates once,
    /// into a `Vec` or straight into an `Arc<[u32]>`.
    pub(crate) fn walk(&self) -> impl Iterator<Item = u32> + '_ {
        let mut val = self.offset;
        (0..1usize << self.cols.len()).map(move |i| {
            let mut changed = if i == 0 { 0 } else { (i - 1) ^ i };
            while changed != 0 {
                val ^= self.cols[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            val
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
        assert_eq!(step.walk().collect::<Vec<_>>(), map);
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
        let map: Vec<u32> = step.walk().collect();
        assert!(!step.matches_map(&map));
        // And a length mismatch is a clean false, not a panic.
        let id = AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 16).unwrap();
        assert!(!id.matches_map(&[0, 1, 2]));
    }
}
