//! The validated [`Permutation`] type and its algebra.
//!
//! A permutation `P` of `{0, 1, ..., n-1}` is stored in **destination
//! convention**, matching the paper's Section IV: `P[i]` is the index that
//! element `i` of the source array moves *to*, i.e. the offline permutation
//! task is `b[P[i]] = a[i]` for all `i`.

use crate::error::{PermError, Result};
use crate::matrix::Bmmc;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// A validated permutation of `0..n` in destination convention.
///
/// The destination map lives in immutable, reference-counted storage,
/// next to its memoized [`fingerprint`](Permutation::fingerprint).
/// Cloning shares that storage (O(1)), and no method mutates it, so a
/// clone is indistinguishable from the original. Equality returns at once
/// when both sides share storage and compares the full images otherwise.
#[derive(Clone)]
pub struct Permutation {
    storage: Arc<Storage>,
}

/// The shared, immutable half of a [`Permutation`].
struct Storage {
    map: Vec<usize>,
    /// [`Permutation::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
}

impl core::fmt::Debug for Permutation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Permutation")
            .field("map", &self.storage.map)
            .finish()
    }
}

impl PartialEq for Permutation {
    /// Shared storage is equal by construction; anything else compares
    /// the full destination maps.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage) || self.storage.map == other.storage.map
    }
}

impl Eq for Permutation {}

impl Permutation {
    /// Wrap a map already known to be a bijection.
    fn new(map: Vec<usize>) -> Self {
        Permutation {
            storage: Arc::new(Storage {
                map,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// Build from an explicit mapping, validating that it is a bijection.
    pub fn from_vec(map: Vec<usize>) -> Result<Self> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &dst in &map {
            if dst >= n || seen[dst] {
                return Err(PermError::NotABijection {
                    len: n,
                    offender: dst,
                });
            }
            seen[dst] = true;
        }
        Ok(Permutation::new(map))
    }

    /// Build without validation. The caller must guarantee bijectivity; the
    /// invariant is checked in debug builds.
    pub fn from_vec_unchecked(map: Vec<usize>) -> Self {
        debug_assert!(Self::from_vec(map.clone()).is_ok());
        Permutation::new(map)
    }

    /// The identity permutation of size `n` ("identical" in the paper).
    pub fn identity(n: usize) -> Self {
        Permutation::new((0..n).collect())
    }

    /// A uniformly random permutation of size `n`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut map: Vec<usize> = (0..n).collect();
        map.shuffle(rng);
        Permutation::new(map)
    }

    /// Domain size `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.storage.map.len()
    }

    /// True for the (unique) permutation of the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.storage.map.is_empty()
    }

    /// Destination of source index `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.storage.map[i]
    }

    /// The raw destination map.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.storage.map
    }

    /// True if `P[i] == i` for all `i`.
    pub fn is_identity(&self) -> bool {
        self.storage.map.iter().enumerate().all(|(i, &d)| i == d)
    }

    /// The inverse permutation `P⁻¹` (the paper's `q`, used by the
    /// source-designated algorithm: `b[i] = a[P⁻¹[i]]`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.storage.map.len()];
        for (i, &d) in self.storage.map.iter().enumerate() {
            inv[d] = i;
        }
        Permutation::new(inv)
    }

    /// Composition `self ∘ other`: first move along `other`, then along
    /// `self`. `(self ∘ other)[i] = self[other[i]]`.
    ///
    /// # Panics
    /// Panics if the sizes differ (composition of different domains is a
    /// type error, not a data error).
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(
            self.len(),
            other.len(),
            "composing permutations of different sizes"
        );
        Permutation::new(
            other
                .storage
                .map
                .iter()
                .map(|&mid| self.storage.map[mid])
                .collect(),
        )
    }

    /// Move `src` into `dst` along the permutation: `dst[P[i]] = src[i]`.
    pub fn permute<T: Copy>(&self, src: &[T], dst: &mut [T]) -> Result<()> {
        if src.len() != self.len() {
            return Err(PermError::LengthMismatch {
                expected: self.len(),
                got: src.len(),
            });
        }
        if dst.len() != self.len() {
            return Err(PermError::LengthMismatch {
                expected: self.len(),
                got: dst.len(),
            });
        }
        for (i, &v) in src.iter().enumerate() {
            dst[self.storage.map[i]] = v;
        }
        Ok(())
    }

    /// Gather formulation of the same data movement:
    /// `dst[i] = src[P⁻¹[i]]`, computed without materializing the inverse.
    /// Equivalent to [`Permutation::permute`] on the same `(src, dst)`.
    pub fn permute_gather<T: Copy + Default>(&self, src: &[T]) -> Result<Vec<T>> {
        if src.len() != self.len() {
            return Err(PermError::LengthMismatch {
                expected: self.len(),
                got: src.len(),
            });
        }
        let mut dst = vec![T::default(); src.len()];
        self.permute(src, &mut dst)?;
        Ok(dst)
    }

    /// Apply the permutation in place using O(1) extra space per cycle
    /// (cycle-walking with a visited bitmap).
    pub fn permute_in_place<T>(&self, data: &mut [T]) -> Result<()> {
        if data.len() != self.len() {
            return Err(PermError::LengthMismatch {
                expected: self.len(),
                got: data.len(),
            });
        }
        let mut visited = vec![false; self.len()];
        for start in 0..self.len() {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            // Walk the cycle containing `start`: after `data.swap(start,
            // pos)`, slot `pos` holds its final value and slot `start`
            // carries the element still in flight.
            let mut pos = self.storage.map[start];
            while pos != start {
                data.swap(start, pos);
                visited[pos] = true;
                pos = self.storage.map[pos];
            }
        }
        Ok(())
    }

    /// Cycle decomposition: each inner vector lists one cycle's indices in
    /// traversal order, starting from its smallest element. Fixed points are
    /// returned as singleton cycles.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        let mut visited = vec![false; self.len()];
        let mut cycles = Vec::new();
        for start in 0..self.len() {
            if visited[start] {
                continue;
            }
            let mut cycle = Vec::new();
            let mut i = start;
            while !visited[i] {
                visited[i] = true;
                cycle.push(i);
                i = self.storage.map[i];
            }
            cycles.push(cycle);
        }
        cycles
    }

    /// Number of fixed points (`P[i] == i`).
    pub fn fixed_points(&self) -> usize {
        self.storage
            .map
            .iter()
            .enumerate()
            .filter(|&(i, &d)| i == d)
            .count()
    }

    /// Build from a cycle decomposition: each inner slice lists a cycle
    /// `(c₀ c₁ ... c_k)` meaning `c₀ → c₁ → ... → c_k → c₀`. Indices not
    /// mentioned are fixed points. Fails if any index is out of range or
    /// repeated.
    pub fn from_cycles(n: usize, cycles: &[&[usize]]) -> Result<Self> {
        let mut map: Vec<usize> = (0..n).collect();
        let mut seen = vec![false; n];
        for cycle in cycles {
            for (k, &i) in cycle.iter().enumerate() {
                if i >= n || seen[i] {
                    return Err(PermError::NotABijection {
                        len: n,
                        offender: i,
                    });
                }
                seen[i] = true;
                map[i] = cycle[(k + 1) % cycle.len()];
            }
        }
        Permutation::from_vec(map)
    }

    /// The permutation's order: the smallest `k ≥ 1` with `Pᵏ = identity`
    /// (the LCM of the cycle lengths). Saturates at `u128::MAX` for
    /// pathological inputs. Returns 1 for the empty permutation.
    pub fn order(&self) -> u128 {
        fn gcd(a: u128, b: u128) -> u128 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.cycles().iter().fold(1u128, |acc, c| {
            let len = c.len() as u128;
            let g = gcd(acc, len);
            (acc / g).saturating_mul(len)
        })
    }

    /// The permutation's sign: `+1` for even permutations, `-1` for odd
    /// (parity of `n − #cycles`).
    pub fn sign(&self) -> i8 {
        let transpositions = self.len() - self.cycles().len();
        if transpositions.is_multiple_of(2) {
            1
        } else {
            -1
        }
    }

    /// True if `P² = identity` (every cycle has length 1 or 2) — e.g.
    /// bit-reversal and square transpose.
    pub fn is_involution(&self) -> bool {
        self.storage
            .map
            .iter()
            .enumerate()
            .all(|(i, &d)| self.storage.map[d] == i)
    }

    /// The `k`-th power `Pᵏ` (repeated application), computed by cycle
    /// walking in `O(n)` regardless of `k`.
    pub fn power(&self, k: u64) -> Permutation {
        let n = self.len();
        let mut map = vec![0usize; n];
        for cycle in self.cycles() {
            let len = cycle.len() as u64;
            let shift = (k % len) as usize;
            for (pos, &i) in cycle.iter().enumerate() {
                map[i] = cycle[(pos + shift) % cycle.len()];
            }
        }
        Permutation::new(map)
    }

    /// A uniformly random **derangement** (no fixed points) of size
    /// `n ≥ 2`, by rejection sampling (expected ≈ e tries).
    pub fn random_derangement<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Permutation {
        assert!(n >= 2, "derangements need n >= 2");
        loop {
            let p = Permutation::random(n, rng);
            if p.fixed_points() == 0 {
                return p;
            }
        }
    }

    /// Recognize an affine bit-matrix (BMMC) structure: returns the
    /// [`Bmmc`] with `self.apply(x) == bmmc.apply(x)` for all `x`, or
    /// `None` when the permutation is not affine over GF(2) (or its size
    /// is not a power of two).
    ///
    /// The candidate is solved from O(log n) probes — `dest(0)` gives the
    /// offset, `dest(2^j) ⊕ dest(0)` gives matrix column `j` — and then
    /// verified against every entry with an incremental Gray-style walk
    /// (each step XORs only the columns of the bits that changed), so the
    /// whole recognizer is O(n) with a tiny constant. All of the paper's
    /// structured benchmark families (transpose, bit-reversal, shuffle /
    /// omega, hypercube exchange, Gray code) are detected; random
    /// permutations fail the verification at the first mismatching entry.
    pub fn as_bmmc(&self) -> Option<Bmmc> {
        let n = self.len();
        if n == 0 || !n.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        let offset = self.storage.map[0];
        let cols: Vec<usize> = (0..bits)
            .map(|j| self.storage.map[1usize << j] ^ offset)
            .collect();
        // Verify the candidate over the full domain.
        let mut val = offset;
        for i in 1..n {
            let mut changed = (i - 1) ^ i;
            while changed != 0 {
                val ^= cols[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            if self.storage.map[i] != val {
                return None;
            }
        }
        // The affine map agrees with a verified bijection on every point,
        // so its linear part is invertible and construction cannot fail.
        Some(Bmmc::from_cols(cols, offset).expect("verified bijection has invertible linear part"))
    }

    /// Compose a chain of permutations **in application order**:
    /// `compose_chain(&[p1, p2, p3])` is the single permutation whose
    /// effect equals applying `p1`, then `p2`, then `p3` — i.e.
    /// `p3 ∘ p2 ∘ p1`. Fails on an empty chain or mismatched sizes.
    pub fn compose_chain(chain: &[&Permutation]) -> Result<Permutation> {
        let first = chain.first().ok_or(PermError::LengthMismatch {
            expected: 1,
            got: 0,
        })?;
        let mut acc = (*first).clone();
        for p in &chain[1..] {
            if p.len() != acc.len() {
                return Err(PermError::LengthMismatch {
                    expected: acc.len(),
                    got: p.len(),
                });
            }
            acc = p.compose(&acc);
        }
        Ok(acc)
    }

    /// A 64-bit fingerprint of the permutation:
    /// [`hash_bytes`](crate::hash::hash_bytes) over the destination map
    /// written as little-endian `u64`s, so it is the same on every
    /// platform, and the length is mixed in. It is computed word by word,
    /// without writing those bytes. This is the shared identity used by
    /// the plan cache, the on-disk plan store, and the plan codec
    /// (`hmm-plan`), so every layer keys the same permutation the same
    /// way. Two distinct permutations colliding on both fingerprint *and*
    /// length is a ~2⁻⁶⁴ event — and every consumer verifies the full
    /// image on use, so a collision costs a rebuild, never a wrong answer.
    ///
    /// The value is memoized per storage: the first call on a permutation
    /// or any of its clones hashes the map, and every later call reads
    /// the stored value. A deep copy (`from_vec(p.as_slice().to_vec())`)
    /// has storage of its own and hashes once more, to the same value.
    pub fn fingerprint(&self) -> u64 {
        *self
            .storage
            .fingerprint
            .get_or_init(|| crate::hash::hash_words(&self.storage.map))
    }
}

impl core::fmt::Display for Permutation {
    /// Cycle notation for small permutations (`(0 2 1)(3)`), elided for
    /// large ones.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.len() > 64 {
            return write!(f, "Permutation(n = {})", self.len());
        }
        if self.is_identity() {
            return write!(f, "id({})", self.len());
        }
        for cycle in self.cycles() {
            if cycle.len() == 1 {
                continue; // conventional: omit fixed points
            }
            write!(f, "(")?;
            for (k, i) in cycle.iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{i}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_accepts_bijections() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply(0), 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn from_vec_rejects_duplicates_and_out_of_range() {
        assert_eq!(
            Permutation::from_vec(vec![0, 0, 1]),
            Err(PermError::NotABijection {
                len: 3,
                offender: 0
            })
        );
        assert_eq!(
            Permutation::from_vec(vec![0, 3, 1]),
            Err(PermError::NotABijection {
                len: 3,
                offender: 3
            })
        );
    }

    #[test]
    fn identity_properties() {
        let p = Permutation::identity(8);
        assert!(p.is_identity());
        assert_eq!(p.inverse(), p);
        assert_eq!(p.fixed_points(), 8);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = StdRng::seed_from_u64(42);
        let p = Permutation::random(100, &mut rng);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permute_moves_to_destinations() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let src = [10, 20, 30];
        let mut dst = [0; 3];
        p.permute(&src, &mut dst).unwrap();
        // b[P[i]] = a[i]: b[2]=10, b[0]=20, b[1]=30.
        assert_eq!(dst, [20, 30, 10]);
    }

    #[test]
    fn gather_equals_scatter() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Permutation::random(64, &mut rng);
        let src: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let mut scat = vec![0u32; 64];
        p.permute(&src, &mut scat).unwrap();
        assert_eq!(p.permute_gather(&src).unwrap(), scat);
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [1usize, 2, 5, 17, 64, 100] {
            let p = Permutation::random(n, &mut rng);
            let src: Vec<u64> = (0..n as u64).collect();
            let mut expect = vec![0u64; n];
            p.permute(&src, &mut expect).unwrap();
            let mut data = src.clone();
            p.permute_in_place(&mut data).unwrap();
            assert_eq!(data, expect, "n = {n}");
        }
    }

    #[test]
    fn length_mismatches_rejected() {
        let p = Permutation::identity(4);
        let mut dst = [0u8; 3];
        assert!(p.permute(&[1u8, 2, 3, 4], &mut dst).is_err());
        assert!(p.permute(&[1u8, 2, 3], &mut [0u8; 4]).is_err());
        assert!(p.permute_gather(&[1u8; 5]).is_err());
        assert!(p.permute_in_place(&mut [0u8; 2]).is_err());
    }

    #[test]
    fn cycles_partition_the_domain() {
        // (0 2 1)(3)
        let p = Permutation::from_vec(vec![2, 0, 1, 3]).unwrap();
        let cycles = p.cycles();
        assert_eq!(cycles, vec![vec![0, 2, 1], vec![3]]);
        let total: usize = cycles.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn random_is_a_bijection_and_varies_by_seed() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(2);
        let p1 = Permutation::random(256, &mut rng1);
        let p2 = Permutation::random(256, &mut rng2);
        // Re-validates internally.
        Permutation::from_vec(p1.as_slice().to_vec()).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
        assert!(p.cycles().is_empty());
        let mut nothing: [u8; 0] = [];
        p.permute_in_place(&mut nothing).unwrap();
    }

    #[test]
    fn from_cycles_builds_expected_map() {
        let p = Permutation::from_cycles(4, &[&[0, 2, 1]]).unwrap();
        assert_eq!(p.as_slice(), &[2, 0, 1, 3]);
        // Out of range / repeated indices rejected.
        assert!(Permutation::from_cycles(3, &[&[0, 3]]).is_err());
        assert!(Permutation::from_cycles(3, &[&[0, 1], &[1, 2]]).is_err());
        // Empty cycle list = identity.
        assert!(Permutation::from_cycles(5, &[]).unwrap().is_identity());
    }

    #[test]
    fn order_is_lcm_of_cycle_lengths() {
        // (0 1 2)(3 4): order 6.
        let p = Permutation::from_cycles(5, &[&[0, 1, 2], &[3, 4]]).unwrap();
        assert_eq!(p.order(), 6);
        assert_eq!(Permutation::identity(7).order(), 1);
        assert_eq!(Permutation::identity(0).order(), 1);
        // Applying P `order` times gives the identity.
        assert!(p.power(6).is_identity());
        assert!(!p.power(3).is_identity());
    }

    #[test]
    fn sign_matches_transposition_parity() {
        // A single transposition is odd.
        let swap = Permutation::from_cycles(4, &[&[0, 1]]).unwrap();
        assert_eq!(swap.sign(), -1);
        // A 3-cycle is even.
        let three = Permutation::from_cycles(4, &[&[0, 1, 2]]).unwrap();
        assert_eq!(three.sign(), 1);
        // Sign is multiplicative under composition.
        let composed = swap.compose(&three);
        assert_eq!(composed.sign(), swap.sign() * three.sign());
        assert_eq!(Permutation::identity(9).sign(), 1);
    }

    #[test]
    fn involutions_detected() {
        assert!(Permutation::identity(4).is_involution());
        assert!(Permutation::from_cycles(4, &[&[0, 1], &[2, 3]])
            .unwrap()
            .is_involution());
        assert!(!Permutation::from_cycles(4, &[&[0, 1, 2]])
            .unwrap()
            .is_involution());
    }

    #[test]
    fn power_agrees_with_repeated_composition() {
        let mut rng = StdRng::seed_from_u64(17);
        let p = Permutation::random(40, &mut rng);
        let mut by_compose = Permutation::identity(40);
        for k in 0..8u64 {
            assert_eq!(p.power(k), by_compose, "k = {k}");
            by_compose = p.compose(&by_compose);
        }
        // Large exponents reduce modulo the order.
        let ord = p.order() as u64;
        assert!(p.power(ord * 1000).is_identity());
    }

    #[test]
    fn derangements_have_no_fixed_points() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [2usize, 3, 10, 100] {
            let p = Permutation::random_derangement(n, &mut rng);
            assert_eq!(p.fixed_points(), 0, "n = {n}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = Permutation::random(1 << 10, &mut rng);
        let b = Permutation::random(1 << 10, &mut rng);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Length participates even when images prefix-match.
        assert_ne!(
            Permutation::identity(64).fingerprint(),
            Permutation::identity(128).fingerprint()
        );
    }

    #[test]
    fn clones_share_storage_and_deep_copies_do_not() {
        let mut rng = StdRng::seed_from_u64(61);
        let p = Permutation::random(1 << 10, &mut rng);
        let clone = p.clone();
        let deep = Permutation::from_vec(p.as_slice().to_vec()).unwrap();
        assert_eq!(clone.as_slice().as_ptr(), p.as_slice().as_ptr());
        assert_ne!(deep.as_slice().as_ptr(), p.as_slice().as_ptr());
        assert_eq!(clone, p);
        assert_eq!(deep, p);
    }

    #[test]
    fn memoized_fingerprint_is_the_hash_of_the_map() {
        let mut rng = StdRng::seed_from_u64(62);
        for n in [0usize, 1, 7, 1 << 10] {
            let p = Permutation::random(n, &mut rng);
            let want = crate::hash::hash_words(p.as_slice());
            // A clone taken before the first call shares the memo slot.
            let early = p.clone();
            assert_eq!(p.fingerprint(), want, "fresh, n = {n}");
            assert_eq!(early.fingerprint(), want, "early clone, n = {n}");
            assert_eq!(p.clone().fingerprint(), want, "late clone, n = {n}");
            let deep = Permutation::from_vec(p.as_slice().to_vec()).unwrap();
            assert_eq!(deep.fingerprint(), want, "deep copy, n = {n}");
        }
    }

    #[test]
    fn display_cycle_notation() {
        let p = Permutation::from_cycles(4, &[&[0, 2, 1]]).unwrap();
        assert_eq!(p.to_string(), "(0 2 1)");
        assert_eq!(Permutation::identity(3).to_string(), "id(3)");
        let big = Permutation::identity(100);
        assert!(big.to_string().contains("n = 100"));
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn compose_different_sizes_panics() {
        let _ = Permutation::identity(3).compose(&Permutation::identity(4));
    }

    #[test]
    fn as_bmmc_recognizes_structured_families() {
        use crate::families;
        let n = 1 << 10;
        let structured: Vec<(&str, Permutation)> = vec![
            ("identity", Permutation::identity(n)),
            ("shuffle", families::shuffle(n).unwrap()),
            ("unshuffle", families::unshuffle(n).unwrap()),
            ("bit_reversal", families::bit_reversal(n).unwrap()),
            ("transpose", families::transpose(32, 32, n).unwrap()),
            ("rect_transpose", families::transpose(16, 64, n).unwrap()),
            ("butterfly", families::butterfly(n, 3).unwrap()),
            ("gray_code", families::gray_code(n).unwrap()),
            // Rotation by n/2 is the affine map x ⊕ (n/2).
            ("half_rotation", families::rotation(n, n / 2)),
        ];
        for (name, p) in structured {
            let bmmc = p.as_bmmc().unwrap_or_else(|| panic!("{name} not detected"));
            for x in 0..n {
                assert_eq!(bmmc.apply(x), p.apply(x), "{name} at {x}");
            }
            assert_eq!(bmmc.to_permutation(), p, "{name}");
        }
    }

    #[test]
    fn as_bmmc_rejects_non_affine() {
        use crate::families;
        let n = 1 << 10;
        // Cyclic rotation by 1 carries between bits: not GF(2)-affine.
        assert!(families::rotation(n, 1).as_bmmc().is_none());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(Permutation::random(n, &mut rng).as_bmmc().is_none());
        // Non-power-of-two sizes are never BMMC.
        assert!(Permutation::identity(12).as_bmmc().is_none());
        assert!(Permutation::identity(0).as_bmmc().is_none());
    }

    #[test]
    fn compose_chain_applies_left_to_right() {
        use crate::families;
        let n = 1 << 8;
        let p1 = families::shuffle(n).unwrap();
        let p2 = families::bit_reversal(n).unwrap();
        let p3 = families::butterfly(n, 2).unwrap();
        let fused = Permutation::compose_chain(&[&p1, &p2, &p3]).unwrap();
        // Applying the chain to data equals applying the fused permutation.
        let src: Vec<u32> = (0..n as u32).collect();
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        p1.permute(&src, &mut a).unwrap();
        p2.permute(&a, &mut b).unwrap();
        p3.permute(&b, &mut a).unwrap();
        let mut direct = vec![0u32; n];
        fused.permute(&src, &mut direct).unwrap();
        assert_eq!(direct, a);
        // Singleton chain is the permutation itself; empty chain errors.
        assert_eq!(Permutation::compose_chain(&[&p1]).unwrap(), p1);
        assert!(Permutation::compose_chain(&[]).is_err());
        assert!(Permutation::compose_chain(&[&p1, &Permutation::identity(4)]).is_err());
    }

    #[test]
    fn compose_order_is_self_after_other() {
        // other: 0->1->2->0 rotation; self: swap 0,1.
        let other = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let swap = Permutation::from_vec(vec![1, 0, 2]).unwrap();
        let c = swap.compose(&other);
        // c[i] = swap[other[i]]: c[0]=swap[1]=0, c[1]=swap[2]=2, c[2]=swap[0]=1.
        assert_eq!(c.as_slice(), &[0, 2, 1]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `==` (pointer check, full compare otherwise) agrees with
            /// comparing the maps, over two random permutations, their
            /// clones and their deep copies. Small sizes make equal draws
            /// common, so both answers are exercised.
            #[test]
            fn eq_agrees_with_slice_eq(n in 0usize..5, a in any::<u64>(), b in any::<u64>()) {
                let p = Permutation::random(n, &mut StdRng::seed_from_u64(a));
                let q = Permutation::random(n, &mut StdRng::seed_from_u64(b));
                let deep = |x: &Permutation| Permutation::from_vec(x.as_slice().to_vec()).unwrap();
                let all = [p.clone(), p.clone(), deep(&p), q.clone(), q.clone(), deep(&q)];
                for x in &all {
                    for y in &all {
                        prop_assert_eq!(x == y, x.as_slice() == y.as_slice());
                        prop_assert_eq!(x != y, x.as_slice() != y.as_slice());
                    }
                }
            }
        }
    }
}
