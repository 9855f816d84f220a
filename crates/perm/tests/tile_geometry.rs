//! The one-pass line tiling of a BMMC gather ([`LineTiles`]) over random
//! invertible matrices at every size from 4 to 2^20 elements: every
//! destination index is written exactly once with `src[G(y)]`, each tile
//! writes whole destination lines and reads whole source lines, and the
//! tile basis has at most `t` vectors.
//!
//! Line lengths `2^t` run over `t` in `0..=5`: lines of 4, 8 and 16 bytes
//! of 4-byte elements (`t` = 0–2), and 128-byte lines of 16-, 8- and
//! 4-byte elements (`t` = 3–5). Small sizes clamp `t` to half the index
//! bits, so the cases where the requested `2t` exceeds `log2 n` run too.

use hmm_perm::{families, Bmmc, LineTiles};
use proptest::prelude::*;

/// Check every invariant of the tiling of `g` at requested line bits `t`.
fn check(g: &Bmmc, t: u32) {
    let bits = g.bits();
    let n = g.len();
    let tiles = LineTiles::new(g, t);
    let t = tiles.line_bits();
    let s = tiles.basis_len();
    prop_assert!(2 * t <= bits, "t = {} over {} bits", t, bits);
    prop_assert!(s <= t, "|H| = {} > t = {}", s, t);
    let line = tiles.line_len();
    prop_assert_eq!(tiles.spans().len(), 1 << s);
    prop_assert_eq!(tiles.offsets().len(), (1 << s) * line);
    prop_assert_eq!(tiles.tile_count() << (s + t), n);

    let mut written = vec![0u8; n];
    let mut reads = Vec::with_capacity(tiles.offsets().len());
    for (ybase, xbase) in tiles.tiles() {
        reads.clear();
        for (&h, off) in tiles.spans().iter().zip(tiles.offsets().chunks_exact(line)) {
            let y0 = ybase ^ h;
            // A whole destination line: aligned, so `y0 + l` is the line.
            prop_assert_eq!(y0 % line, 0, "line start {} unaligned", y0);
            for (l, &o) in off.iter().enumerate() {
                let (y, x) = (y0 + l, xbase ^ o as usize);
                prop_assert!(y < n && x < n);
                written[y] += 1;
                prop_assert_eq!(x, g.apply(y), "dst[{}] gathers the wrong source", y);
                reads.push(x);
            }
        }
        // Whole source lines: sorted, the reads are aligned runs of
        // `line` consecutive indices.
        reads.sort_unstable();
        for run in reads.chunks_exact(line) {
            prop_assert_eq!(run[0] % line, 0);
            prop_assert!(run.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }
    prop_assert!(
        written.iter().all(|&w| w == 1),
        "a destination not written once"
    );
}

/// Every size `2^2 ..= 2^20` at every line length, one matrix each.
#[test]
fn every_size_and_line_length() {
    for bits in 2..=20u32 {
        for t in 0..=5 {
            let g = families::random_bmmc_matrix(1 << bits, u64::from(bits * 8 + t)).unwrap();
            check(&g, t);
            check(&g.inverse(), t);
        }
    }
}

/// Structured gathers with extreme bases: bit reversal (every low bit
/// maps high, `|H| = t`) and the identity (`|H| = 0`).
#[test]
fn structured_gathers() {
    for bits in 2..=16u32 {
        let rev = families::bit_reversal(1 << bits)
            .unwrap()
            .as_bmmc()
            .unwrap();
        let id = Bmmc::identity(bits).unwrap();
        for t in 0..=5 {
            check(&rev, t);
            check(&id, t);
            let tiles = LineTiles::new(&rev, t);
            assert_eq!(
                tiles.basis_len(),
                tiles.line_bits(),
                "bit reversal, {bits} bits"
            );
            assert_eq!(LineTiles::new(&id, t).basis_len(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bmmc_tilings_hold_their_invariants(
        bits in 2u32..=20,
        t in 0u32..=5,
        seed in any::<u64>(),
    ) {
        let g = families::random_bmmc_matrix(1 << bits, seed).unwrap();
        check(&g, t);
    }
}
