//! The **distribution** `γ_w(P)` of a permutation (Section IV).
//!
//! The distribution is the average, over the `n/w` warps of the
//! destination-designated algorithm, of the number of distinct global
//! address groups the warp's writes touch:
//!
//! ```text
//! γ_w(P) = (w/n) · Σ_j |{ ⌊P[i]/w⌋ : i ∈ warp j }|
//! ```
//!
//! `γ_w ∈ [1, w]`: 1 for the identical permutation (each warp writes one
//! group) and `w` for bit-reversal or transpose (each warp scatters to `w`
//! groups). Lemma 4 prices the conventional algorithms' casual round at
//! `γ_w(P)·n/w + l − 1` time units, which is why the conventional
//! algorithm's running time tracks the distribution while the scheduled
//! algorithm's does not.

use crate::permutation::Permutation;

/// The distribution `γ_w(P)` (average distinct destination groups per
/// warp). Returns 0.0 for an empty permutation.
pub fn distribution(p: &Permutation, width: usize) -> f64 {
    let mut total_groups = 0usize;
    let mut warps = 0usize;
    for groups in warp_group_counts(p.as_slice(), width) {
        total_groups += groups;
        warps += 1;
    }
    if warps == 0 {
        return 0.0;
    }
    total_groups as f64 / warps as f64
}

/// The per-warp counter every distribution statistic folds: for each
/// warp of `dests` (consecutive `width`-element chunks, the last one
/// possibly partial), the number of distinct destination groups
/// `⌊d/width⌋` it writes to. A caller that splits the map on warp
/// boundaries and sums the counts of its pieces gets exactly the
/// counts of the whole.
pub fn warp_group_counts(dests: &[usize], width: usize) -> impl Iterator<Item = usize> + '_ {
    assert!(width > 0, "width must be positive");
    let mut scratch: Vec<usize> = Vec::with_capacity(width);
    dests.chunks(width).map(move |warp| {
        scratch.clear();
        scratch.extend(warp.iter().map(|&d| d / width));
        scratch.sort_unstable();
        scratch.dedup();
        scratch.len()
    })
}

/// The normalized distribution `ρ_w(P) = γ_w(P)/w ∈ [1/w, 1]`, the quantity
/// reported in the paper's Table III (≈ 0.9999 for random permutations of
/// 4M elements).
pub fn normalized_distribution(p: &Permutation, width: usize) -> f64 {
    distribution(p, width) / width as f64
}

/// Histogram of per-warp distinct-destination-group counts: `hist[g - 1]`
/// = number of warps that touch exactly `g` groups (`g ∈ 1..=width`).
/// The distribution `γ_w` is the mean of this histogram; the histogram
/// itself shows whether a permutation is uniformly bad (bit-reversal: all
/// warps at `w`) or mixed.
pub fn warp_group_histogram(p: &Permutation, width: usize) -> Vec<usize> {
    let mut hist = vec![0usize; width];
    for groups in warp_group_counts(p.as_slice(), width) {
        hist[groups - 1] += 1;
    }
    hist
}

/// The index of the warp with the most distinct destination groups, with
/// its group count — the straggler that bounds the casual round under a
/// max-based (rather than sum-based) dispatch model.
pub fn worst_warp(p: &Permutation, width: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (w_idx, groups) in warp_group_counts(p.as_slice(), width).enumerate() {
        if best.is_none_or(|(_, g)| groups > g) {
            best = Some((w_idx, groups));
        }
    }
    best
}

/// Expected distribution of a uniformly random permutation: each of the `w`
/// destinations of a warp falls in one of `n/w` groups nearly independently,
/// so `E[γ_w] ≈ w·(n/w)·(1 − (1 − w/n·1/w)^w)/...`; we use the exact
/// birthday-style formula `g·(1 − (1 − 1/g)^w)` with `g = n/w` groups.
///
/// Used by tests to check that measured distributions of random
/// permutations land where theory predicts.
pub fn expected_random_distribution(n: usize, width: usize) -> f64 {
    if n == 0 || width == 0 {
        return 0.0;
    }
    let g = (n as f64 / width as f64).max(1.0);
    g * (1.0 - (1.0 - 1.0 / g).powi(width as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    const W: usize = 32;
    const N: usize = 1 << 14;

    #[test]
    fn identical_has_distribution_one() {
        let p = families::identical(N);
        assert_eq!(distribution(&p, W), 1.0);
        assert_eq!(normalized_distribution(&p, W), 1.0 / W as f64);
    }

    #[test]
    fn shuffle_has_distribution_two() {
        // A warp of w consecutive indices maps to 2w consecutive even/odd
        // slots spanning exactly 2 groups (paper: γ(shuffle) = 2).
        let p = families::shuffle(N).unwrap();
        assert_eq!(distribution(&p, W), 2.0);
    }

    #[test]
    fn bit_reversal_has_distribution_w() {
        let p = families::bit_reversal(N).unwrap();
        assert_eq!(distribution(&p, W), W as f64);
        assert_eq!(normalized_distribution(&p, W), 1.0);
    }

    #[test]
    fn transpose_has_distribution_w() {
        let p = families::transpose_square(1 << 14).unwrap();
        assert_eq!(distribution(&p, W), W as f64);
    }

    #[test]
    fn random_distribution_is_nearly_w() {
        // Paper Table III: ρ_w ≈ 0.9999 for 4M; at n = 16K it is lower but
        // still close to 1, and should match the birthday-problem formula
        // within a small tolerance.
        let p = families::random(N, 7);
        let got = distribution(&p, W);
        let want = expected_random_distribution(N, W);
        assert!(
            (got - want).abs() < 0.15,
            "measured {got}, expected ≈ {want}"
        );
        assert!(got > 30.0 && got <= 32.0);
    }

    #[test]
    fn distribution_bounds_hold_for_all_families() {
        for n in [256usize, 512, 1024] {
            for fam in families::Family::ALL {
                let p = fam.build(n, 1).unwrap();
                let g = distribution(&p, W);
                assert!((1.0..=W as f64).contains(&g), "{} n={n}: γ={g}", fam.name());
            }
        }
    }

    #[test]
    fn rotation_distribution_at_most_two() {
        for shift in [1usize, 5, 31, 32, 100] {
            let p = families::rotation(N, shift);
            assert!(distribution(&p, W) <= 2.0, "shift {shift}");
        }
    }

    #[test]
    fn partial_last_warp_is_counted() {
        // n = 48, w = 32: two warps (32 + 16 lanes).
        let p = crate::permutation::Permutation::identity(48);
        let g = distribution(&p, 32);
        // Warp 0 touches group 0; warp 1 touches group 1 -> average 1.0.
        assert_eq!(g, 1.0);
    }

    #[test]
    fn histogram_sums_to_warp_count_and_averages_to_gamma() {
        for fam in families::Family::ALL {
            let p = fam.build(N, 2).unwrap();
            let hist = warp_group_histogram(&p, W);
            let warps: usize = hist.iter().sum();
            assert_eq!(warps, N / W, "{}", fam.name());
            let mean: f64 = hist
                .iter()
                .enumerate()
                .map(|(g, &count)| (g + 1) as f64 * count as f64)
                .sum::<f64>()
                / warps as f64;
            assert!(
                (mean - distribution(&p, W)).abs() < 1e-9,
                "{}: {mean} vs γ",
                fam.name()
            );
        }
    }

    #[test]
    fn warp_counts_split_on_warp_boundaries_sum_to_the_whole() {
        // n = 1000 is not a multiple of w: the last warp is partial.
        let p = families::random(1000, 4);
        let whole: Vec<usize> = warp_group_counts(p.as_slice(), W).collect();
        assert_eq!(whole.len(), 1000usize.div_ceil(W));
        for cut in [0usize, 1, 7, whole.len()] {
            let at = (cut * W).min(1000);
            let (a, b) = p.as_slice().split_at(at);
            let pieces: Vec<usize> = warp_group_counts(a, W)
                .chain(warp_group_counts(b, W))
                .collect();
            assert_eq!(pieces, whole, "cut after warp {cut}");
        }
        assert_eq!(
            distribution(&p, W),
            whole.iter().sum::<usize>() as f64 / whole.len() as f64
        );
    }

    #[test]
    fn histogram_extremes() {
        let hist = warp_group_histogram(&families::identical(N), W);
        assert_eq!(hist[0], N / W); // all warps touch one group
        let hist = warp_group_histogram(&families::bit_reversal(N).unwrap(), W);
        assert_eq!(hist[W - 1], N / W); // all warps touch w groups
    }

    #[test]
    fn worst_warp_finds_the_max() {
        let p = families::identical(N);
        assert_eq!(worst_warp(&p, W).unwrap().1, 1);
        let p = families::bit_reversal(N).unwrap();
        assert_eq!(worst_warp(&p, W).unwrap().1, W);
        assert!(worst_warp(&crate::permutation::Permutation::identity(0), W).is_none());
    }

    #[test]
    fn empty_permutation_distribution_zero() {
        let p = crate::permutation::Permutation::identity(0);
        assert_eq!(distribution(&p, 32), 0.0);
    }

    #[test]
    fn expected_random_distribution_limits() {
        // With 1 group everything collides.
        assert!((expected_random_distribution(32, 32) - 1.0).abs() < 1e-9);
        // With many groups the expectation approaches w.
        assert!(expected_random_distribution(1 << 22, 32) > 31.99);
        assert_eq!(expected_random_distribution(0, 32), 0.0);
    }
}
