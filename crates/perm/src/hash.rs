//! The workspace's one 64-bit hash: permutation fingerprints, plan-file
//! checksums and wire-frame checksums all come from here.
//!
//! The input is read as 8-byte little-endian words, the last one
//! zero-padded. Word `k` feeds lane `k mod 4`, and each of the four
//! independent `u64` lanes spends one multiply and one rotate per word:
//!
//! ```text
//! lane ← rotl((lane ⊕ word) · K, 31)
//! ```
//!
//! The lanes are then folded, in order, into a state seeded with the byte
//! length, and an fmix64 avalanche finishes it. Four independent chains
//! keep the multiplier busy, so the hash runs at memory speed instead of
//! the one-multiply-per-byte chain of the FNV-1a it replaced.
//!
//! Every step is a bijection of the lane (or fold state) for a fixed word,
//! so two inputs of equal length that differ in a single word always hash
//! apart. It is not a cryptographic hash: a fingerprint keys caches whose
//! hits are verified in full, and a checksum guards against accidents.
//! The values are part of the on-disk plan format and of wire protocol v2,
//! so the known-answer tests below pin them.

/// Independent accumulator lanes.
const LANES: usize = 4;

/// Bytes consumed per round of all lanes.
const BLOCK: usize = 8 * LANES;

/// Lane multiplier (odd, so multiplication is a bijection).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial lane states: distinct, so equal words in different lanes
/// start from different places.
const SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(K).rotate_left(31)
}

/// The fmix64 finalizer of MurmurHash3: every input bit reaches every
/// output bit.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Absorb one full `BLOCK`-byte block.
#[inline(always)]
fn absorb_block(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        *lane = round(
            *lane,
            u64::from_le_bytes(word.try_into().expect("8-byte word")),
        );
    }
}

/// Absorb a tail shorter than a block (zero-padding its last word), fold
/// the lanes into the total byte length, and avalanche.
fn finish(mut lanes: [u64; LANES], tail: &[u8], len: u64) -> u64 {
    debug_assert!(tail.len() < BLOCK);
    for (lane, chunk) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        *lane = round(*lane, u64::from_le_bytes(word));
    }
    let folded = lanes
        .iter()
        .fold(len.wrapping_mul(K), |h, &lane| round(h, lane));
    fmix64(folded)
}

/// Hash a byte string in one call. Equal to feeding the same bytes, split
/// anywhere, through [`Hasher`].
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finish()
}

/// Hash `words` as if each were written as a little-endian `u64`, without
/// materialising the bytes: `hash_words(w) == hash_bytes(le_u64_bytes(w))`.
/// This is [`Permutation::fingerprint`](crate::Permutation::fingerprint)'s
/// fast path.
pub(crate) fn hash_words(words: &[usize]) -> u64 {
    let mut lanes = SEEDS;
    let blocks = words.chunks_exact(LANES);
    let rest = blocks.remainder();
    for block in blocks {
        for (lane, &w) in lanes.iter_mut().zip(block) {
            *lane = round(*lane, w as u64);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(rest) {
        *lane = round(*lane, w as u64);
    }
    finish(lanes, &[], 8 * words.len() as u64)
}

/// Streaming form of [`hash_bytes`]: feed bytes in any number of
/// [`update`](Hasher::update) calls, then [`finish`](Hasher::finish). It
/// buffers at most one 32-byte block and allocates nothing.
#[derive(Debug, Clone)]
pub struct Hasher {
    lanes: [u64; LANES],
    buf: [u8; BLOCK],
    buffered: usize,
    len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Hasher {
            lanes: SEEDS,
            buf: [0; BLOCK],
            buffered: 0,
            len: 0,
        }
    }

    /// Append `bytes` to the hashed input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(bytes.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < BLOCK {
                return;
            }
            absorb_block(&mut self.lanes, &self.buf);
            self.buffered = 0;
        }
        let blocks = bytes.chunks_exact(BLOCK);
        let rest = blocks.remainder();
        for block in blocks {
            absorb_block(&mut self.lanes, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The hash of every byte passed to [`update`](Hasher::update) so far.
    /// Does not consume the hasher; more bytes may follow.
    pub fn finish(&self) -> u64 {
        finish(self.lanes, &self.buf[..self.buffered], self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{families, Family, Permutation};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn le_u64_bytes(p: &Permutation) -> Vec<u8> {
        p.as_slice()
            .iter()
            .flat_map(|&d| (d as u64).to_le_bytes())
            .collect()
    }

    /// Pinned outputs. A change here re-keys every plan store and breaks
    /// every plan file and wire frame already written, so it must come
    /// with a format and protocol version bump.
    #[test]
    fn known_answers() {
        let cases: [(&[u8], u64); 5] = [
            (b"", 0xabc7_8d48_89e6_99e6),
            (b"a", 0xe9fc_e952_af68_d2a2),
            (b"abc", 0x30ea_6c4f_34be_4d43),
            (b"HMMPLAN\0", 0xd64a_5abb_930a_d5b4),
            (
                b"the quick brown fox jumps over the lazy dog",
                0xe39b_7e30_370a_5460,
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hash_bytes(input), want, "{:?}", input);
        }
        assert_eq!(
            Permutation::identity(8).fingerprint(),
            0x1b41_5cbb_999e_dd0a
        );
        assert_eq!(
            families::random(1024, 1).fingerprint(),
            0x5a48_bc7c_a93e_cf21
        );
    }

    #[test]
    fn fingerprint_is_the_hash_of_le_u64_entries() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 1000, 1 << 12] {
            let p = families::random(n, n as u64);
            assert_eq!(p.fingerprint(), hash_bytes(&le_u64_bytes(&p)), "n = {n}");
        }
    }

    #[test]
    fn zero_padding_is_disambiguated_by_length() {
        let mut seen = HashSet::new();
        for len in 0..=2 * BLOCK {
            assert!(seen.insert(hash_bytes(&vec![0u8; len])), "len {len}");
        }
    }

    #[test]
    fn every_single_transposition_of_a_1k_permutation_fingerprints_apart() {
        let n = 1 << 10;
        let mut map = families::random(n, 7).as_slice().to_vec();
        let mut seen = HashSet::with_capacity(n * (n - 1) / 2 + 1);
        seen.insert(hash_words(&map));
        for i in 0..n {
            for j in i + 1..n {
                map.swap(i, j);
                assert!(seen.insert(hash_words(&map)), "swap ({i} {j}) collides");
                map.swap(i, j);
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2 + 1);
    }

    #[test]
    fn every_conformance_family_and_size_fingerprints_apart() {
        let mut seen = HashSet::new();
        for n in [1usize << 10, 1 << 16, 1 << 18] {
            let mut perms: Vec<(&str, Permutation)> = Family::ALL
                .iter()
                .map(|fam| (fam.name(), fam.build(n, 1).unwrap()))
                .collect();
            perms.push(("random_bmmc", families::random_bmmc(n, 1).unwrap()));
            for (name, p) in perms {
                assert!(seen.insert(p.fingerprint()), "{name} n={n}");
            }
        }
    }

    /// SplitMix64: a deterministic byte stream from one seed (the
    /// vendored proptest has no collection strategies).
    fn bytes_from(mut seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The streaming form equals the one-shot form at every split
        /// point, also split three ways and fed one byte at a time.
        #[test]
        fn streaming_equals_one_shot_at_every_split(len in 0usize..200, seed in any::<u64>()) {
            let bytes = bytes_from(seed, len);
            let want = hash_bytes(&bytes);
            for at in 0..=len {
                let mid = at + (len - at) / 2;
                let mut two = Hasher::new();
                two.update(&bytes[..at]);
                two.update(&bytes[at..]);
                prop_assert_eq!(two.finish(), want, "split at {}", at);
                let mut three = Hasher::new();
                three.update(&bytes[..at]);
                three.update(&bytes[at..mid]);
                three.update(&bytes[mid..]);
                prop_assert_eq!(three.finish(), want, "split at {} and {}", at, mid);
            }
            let mut bytewise = Hasher::new();
            for b in &bytes {
                bytewise.update(std::slice::from_ref(b));
            }
            prop_assert_eq!(bytewise.finish(), want);
        }

        /// The wire framing's split: a 10-byte frame header, then the body.
        #[test]
        fn frame_header_then_body_equals_one_shot(body_len in 0usize..5000, seed in any::<u64>()) {
            let frame = bytes_from(seed, 10 + body_len);
            let mut h = Hasher::new();
            h.update(&frame[..10]);
            h.update(&frame[10..]);
            prop_assert_eq!(h.finish(), hash_bytes(&frame));
        }
    }
}
