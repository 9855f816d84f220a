//! Line tiles of a BMMC gather: the geometry that runs an affine index
//! permutation as **one pass** that reads and writes whole lines.
//!
//! Take a gather-direction BMMC `G = A⁻¹` (`dst[y] = src[G(y)]`, where
//! `A` is the permutation in the destination convention) on `2^b`
//! indices, and call a coset of `L = span(e_0, …, e_{t−1})` — `2^t`
//! consecutive indices — a *line*. In destination space the subspace
//! `V = L + A(L)` has dimension at most `2t`, and so does its source
//! image `G(V) = L + A⁻¹(L)`. Both are closed under `L`, so every coset
//! `ybase ⊕ V` is a set of whole destination lines that reads a set of
//! whole source lines, at most `2^t` of each:
//!
//! * the **tile basis** `H` is the high part (bits `≥ t`) of `A·e_j` for
//!   `j < t`, reduced to `s ≤ t` vectors with distinct pivot bits that no
//!   other basis vector has set, so `V = span(H) ⊕ L`;
//! * the **free bits** — the high bits that are not pivots — enumerate
//!   the tiles: every destination line is `ybase ⊕ h` for exactly one
//!   `ybase` with zeros at the pivots and one `h ∈ span(H)`;
//! * one **offset table** `off[j·2^t + l] = G_lin(h_j ⊕ l)`, where `h_j`
//!   is the XOR of the basis vectors picked by the bits of `j`, serves
//!   every tile: line `j` of the tile at `ybase` is
//!   `dst[ybase ⊕ h_j + l] = src[G(ybase) ⊕ off[j·2^t + l]]`.
//!
//! [`LineTiles`] is that geometry as data, derived in O(b² + 2^{s+t})
//! from the matrix alone; an executor walks [`LineTiles::tiles`] and
//! gathers each line through the table. The derivation keeps `2t ≤ b`,
//! which bounds the table at `2^{2t}` entries.

use crate::matrix::Bmmc;

/// The one-pass line tiling of a gather-direction [`Bmmc`] (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineTiles {
    /// `t`: lines are `2^t` elements.
    line_bits: u32,
    /// `spans[j] = h_j`, the destination offset of line `j` within a
    /// tile: the XOR of the tile basis vectors picked by the bits of `j`
    /// (`2^s` entries, `spans[0] = 0`, each with its low `t` bits clear).
    spans: Vec<usize>,
    /// `off[j·2^t + l] = G_lin(spans[j] ⊕ l)`.
    offsets: Vec<u32>,
    /// Tile walk: stepping the tile counter `c − 1 → c` flips counter
    /// bits `0..=tz(c)`, which moves the destination base by
    /// `dst_step[tz(c)]` and the source base by `src_step[tz(c)]` (XOR
    /// prefixes over the free bits and over their images under `G_lin`).
    dst_step: Vec<usize>,
    src_step: Vec<usize>,
    /// `G(0)`: the source base of the tile at destination base 0.
    src_origin: usize,
}

impl LineTiles {
    /// Derive the tiling of the gather `g` over lines of `2^line_bits`
    /// elements, with `line_bits` clamped to `g.bits() / 2` so the
    /// offset table stays at most `2^{2t} ≤ 2^b` entries. The free bits
    /// are walked lowest rank first, a bit ranking by the lower of its
    /// destination position and the top bit of its source image.
    ///
    /// # Panics
    /// Panics when `g` has more than 32 index bits: offsets are `u32`.
    pub fn new(g: &Bmmc, line_bits: u32) -> Self {
        let bits = g.bits();
        assert!(bits <= 32, "line tiles index at most 2^32 elements");
        let t = line_bits.min(bits / 2);
        let low = (1usize << t) - 1;
        let a = g.inverse();

        // Reduced echelon basis of the high parts of A·e_j, j < t:
        // `basis[p]` is the vector whose pivot (leading) bit is `p`.
        let mut basis = [0usize; usize::BITS as usize];
        for j in 0..t {
            let mut v = a.col(j) & !low;
            while v != 0 {
                let p = v.ilog2() as usize;
                if basis[p] == 0 {
                    basis[p] = v;
                    break;
                }
                v ^= basis[p];
            }
        }
        // Clear every pivot bit from the other basis vectors.
        for p in 0..bits as usize {
            if basis[p] == 0 {
                continue;
            }
            for q in 0..bits as usize {
                if q != p && basis[q] >> p & 1 == 1 {
                    basis[q] ^= basis[p];
                }
            }
        }
        let h: Vec<usize> = basis.iter().copied().filter(|&v| v != 0).collect();
        // Free bits in walk order, the lowest-ranked varying fastest. A
        // bit ranks by the lower of its destination position and the top
        // bit of its source image, so low destination bits and low source
        // bits alternate in the inner loops: a run of consecutive tiles
        // stays on a few pages of `dst` *and* of `src`, where destination
        // order alone would move to new source pages with every tile
        // (bit reversal, transposes).
        let mut free: Vec<u32> = (t..bits).filter(|&p| basis[p as usize] == 0).collect();
        free.sort_by_key(|&p| (p.min(g.apply_linear(1 << p).ilog2()), p));
        let free: Vec<usize> = free.into_iter().map(|p| 1usize << p).collect();

        let mut spans = vec![0usize];
        for &v in &h {
            spans.extend_from_within(..);
            let half = spans.len() / 2;
            spans[half..].iter_mut().for_each(|s| *s ^= v);
        }
        let low_images: Vec<usize> = (0..=low).map(|l| g.apply_linear(l)).collect();
        let offsets = spans
            .iter()
            .flat_map(|&s| {
                let base = g.apply_linear(s);
                low_images.iter().map(move |&l| (base ^ l) as u32)
            })
            .collect();
        LineTiles {
            line_bits: t,
            spans,
            offsets,
            dst_step: xor_prefix(free.iter().copied()),
            src_step: xor_prefix(free.iter().map(|&f| g.apply_linear(f))),
            src_origin: g.offset(),
        }
    }

    /// `t`, after clamping: lines are `2^t` elements.
    #[inline]
    pub fn line_bits(&self) -> u32 {
        self.line_bits
    }

    /// Elements per line, `2^t`.
    #[inline]
    pub fn line_len(&self) -> usize {
        1 << self.line_bits
    }

    /// Size `s` of the tile basis `H`: a tile is `2^s` lines (`s ≤ t`).
    #[inline]
    pub fn basis_len(&self) -> u32 {
        self.spans.len().trailing_zeros()
    }

    /// Destination offsets `h_j` of a tile's lines, line `j` first at
    /// `j = 0` (offset 0).
    #[inline]
    pub fn spans(&self) -> &[usize] {
        &self.spans
    }

    /// The offset table, `2^s` rows of `2^t`: row `j` holds
    /// `G_lin(h_j ⊕ l)` for `l` in `0..2^t`.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of tiles, `2^(b − t − s)`.
    #[inline]
    pub fn tile_count(&self) -> usize {
        1 << self.dst_step.len()
    }

    /// Every tile as `(ybase, G(ybase))`: its destination base (zero at
    /// the low `t` bits and at the pivots of `H`) and the source base its
    /// lines gather from. One XOR per coordinate per tile; consecutive
    /// tiles differ in the free bits of lowest rank (see
    /// [`LineTiles::new`]).
    pub fn tiles(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (mut y, mut x) = (0, self.src_origin);
        (0..self.tile_count()).map(move |c| {
            if c > 0 {
                let tz = c.trailing_zeros() as usize;
                y ^= self.dst_step[tz];
                x ^= self.src_step[tz];
            }
            (y, x)
        })
    }
}

/// Inclusive XOR prefixes: `out[k] = values[0] ⊕ … ⊕ values[k]`.
fn xor_prefix(values: impl Iterator<Item = usize>) -> Vec<usize> {
    values
        .scan(0, |acc, v| {
            *acc ^= v;
            Some(*acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    /// Run the tiling as a gather and return the output.
    fn gather(tiles: &LineTiles, src: &[usize]) -> Vec<usize> {
        let line = tiles.line_len();
        let mut out = vec![usize::MAX; src.len()];
        for (ybase, xbase) in tiles.tiles() {
            for (&h, off) in tiles.spans().iter().zip(tiles.offsets().chunks_exact(line)) {
                for (l, &o) in off.iter().enumerate() {
                    out[(ybase ^ h) + l] = src[xbase ^ o as usize];
                }
            }
        }
        out
    }

    #[test]
    fn bit_reversal_tiles_are_line_transposes() {
        // Bit reversal on 2^12 with 2^3-element lines: the low bits map
        // to the high bits, so a tile is 8 lines reading 8 lines.
        let p = families::bit_reversal(1 << 12).unwrap();
        let g = p.as_bmmc().unwrap().inverse();
        let tiles = LineTiles::new(&g, 3);
        assert_eq!((tiles.line_bits(), tiles.basis_len()), (3, 3));
        assert_eq!(tiles.tile_count(), 1 << 6);
        let src: Vec<usize> = (0..1 << 12).collect();
        let mut want = vec![0; 1 << 12];
        p.permute(&src, &mut want).unwrap();
        assert_eq!(gather(&tiles, &src), want);
    }

    #[test]
    fn identity_tiles_are_single_lines() {
        let g = Bmmc::identity(10).unwrap();
        let tiles = LineTiles::new(&g, 4);
        assert_eq!(tiles.basis_len(), 0);
        assert_eq!(tiles.tile_count(), 1 << 6);
        assert_eq!(tiles.offsets(), (0..16).collect::<Vec<u32>>());
        let src: Vec<usize> = (0..1 << 10).collect();
        assert_eq!(gather(&tiles, &src), src);
    }

    #[test]
    fn line_bits_clamp_to_half_the_index_bits() {
        let g = families::random_bmmc_matrix(1 << 5, 3).unwrap();
        let tiles = LineTiles::new(&g, 7);
        assert_eq!(tiles.line_bits(), 2);
        assert!(tiles.offsets().len() <= 1 << 4);
        let src: Vec<usize> = (0..1 << 5).collect();
        let mut want = vec![0; 1 << 5];
        g.inverse()
            .to_permutation()
            .permute(&src, &mut want)
            .unwrap();
        assert_eq!(gather(&tiles, &src), want);
    }
}
