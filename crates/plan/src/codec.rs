//! Versioned, std-only binary codec for [`PlanIr`].
//!
//! The container this reproduction ships in is offline — no serde, no
//! compression crates — so the wire format is a hand-rolled little-endian
//! layout, built to be boring and hostile-input-proof:
//!
//! ```text
//! magic      8 bytes  b"HMMPLAN\0"
//! version    u32      FORMAT_VERSION
//! width      u64      machine width the plan was built for
//! rows       u64      matrix rows
//! cols       u64      matrix cols
//! gamma      u64      γ_w(P) as f64 bits
//! fingerprint u64     Permutation::fingerprint() of the source
//! kind       u32      0 = full step maps, 1 = compact affine descriptors
//! kind 0:  section ×3 u64 entry count, then that many u32 entries
//!                     (step1, step2, step3 destination maps)
//! kind 1:  descriptor ×3 (gather order g1, g2, g3), each:
//!                     u32 col_bits, u32 offset, u64 mask count,
//!                     then that many u32 masks
//! checksum   u64      over every preceding byte (see the table below)
//! ```
//!
//! The version picks the checksum, and decode checks it before it
//! interprets any other field:
//!
//! | version | sections | checksum | written |
//! |---|---|---|---|
//! | 1 | full maps, no `kind` field | FNV-1a | no, still read |
//! | 2 | `kind` 0 or 1 | FNV-1a | no, still read |
//! | 3 | `kind` 0 or 1 | [`hmm_perm::hash::hash_bytes`] | yes |
//!
//! A plan holds only its gather maps; a full file carries their per-row
//! inverses, the step maps, which is the layout every version wrote. The
//! encoder inverts gather rows into its write buffer, and decode inverts
//! each step section back into its gather map in one pass that also
//! checks the section's rows. Structured plans go further: their gathers have a verified
//! closed form ([`crate::AffineStep`]), so the file stores the three
//! descriptors — O(log² n) bytes instead of 3 × O(n) maps — and the maps
//! are rebuilt on decode by the same table materializer that verified the
//! fit, after a GF(2) rank check of each descriptor's in-row masks
//! decides, from the masks alone, that every row is a permutation.
//! Decoding never panics: truncation, a flipped byte, an unknown
//! version or kind, a recorded γ_w outside `[1, width]`, inconsistent
//! section lengths, out-of-range descriptors, or non-permutation rows all
//! surface as [`PlanError::Codec`].

use crate::affine::AffineStep;
use crate::error::{PlanError, Result};
use crate::ir::PlanIr;
use crate::store::StoreKey;
use hmm_perm::hash::{hash_bytes, Hasher};
use hmm_perm::MatrixShape;
use std::io::Write;

/// Current wire-format version. Bump on any layout or checksum change;
/// decoders reject versions they do not know (older versions this build
/// still reads are special-cased in [`decode`]).
pub const FORMAT_VERSION: u32 = 3;

/// Section kind: three full step-map sections follow the header.
const KIND_FULL: u32 = 0;
/// Section kind: three compact affine descriptors follow the header.
const KIND_COMPACT: u32 = 1;

/// Most entries a plan file may declare: 2^32, the index space of the
/// plans' `u32` maps and of the WGSL kernels. Decode refuses a larger
/// header before it allocates anything sized from it, so a few hostile
/// bytes cannot ask for terabytes.
const MAX_ENTRIES: u64 = 1 << 32;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"HMMPLAN\0";

/// FNV-1a offset basis — the initial state [`fnv1a_update`] folds bytes
/// into.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the checksum that sealed version-1 and -2
/// plan files. Nothing writes it any more; it stays so data written
/// before [`hmm_perm::hash`] replaced it (those files, and protocol-v1
/// frames in `hmm-server`) still verifies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// One incremental FNV-1a step, for checking legacy data that arrives in
/// pieces.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serialised size in bytes of a **full** (kind 0) plan for `n` elements
/// (header + kind + three length-prefixed `n`-entry sections + checksum).
/// This is the size of every König-colored plan's file; structured plans
/// encode compact — see [`compact_encoded_len`].
pub fn encoded_len(n: usize) -> usize {
    8 + 4 + 5 * 8 + 4 + 3 * (8 + 4 * n) + 8
}

/// Serialised size in bytes of a **compact** (kind 1) plan for `n`
/// elements, `n` a power of two: header + kind + three descriptors of
/// log₂ n masks each + checksum. O(log n) where [`encoded_len`] is O(n) —
/// a 4M-element structured plan is ~376 bytes on disk instead of ~48 MiB.
pub fn compact_encoded_len(n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    let k = n.trailing_zeros() as usize;
    8 + 4 + 5 * 8 + 4 + 3 * (4 + 4 + 8 + 4 * k) + 8
}

/// The fixed header bytes (everything before the three sections).
fn header_bytes(ir: &PlanIr) -> [u8; 8 + 4 + 5 * 8] {
    let mut h = [0u8; 8 + 4 + 5 * 8];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&(ir.width() as u64).to_le_bytes());
    h[20..28].copy_from_slice(&(ir.shape().rows as u64).to_le_bytes());
    h[28..36].copy_from_slice(&(ir.shape().cols as u64).to_le_bytes());
    h[36..44].copy_from_slice(&ir.gamma().to_bits().to_le_bytes());
    h[44..52].copy_from_slice(&ir.fingerprint().to_le_bytes());
    h
}

/// The wire bytes of one affine descriptor (see the module layout).
fn descriptor_bytes(step: &AffineStep) -> Vec<u8> {
    let masks = step.masks();
    let mut out = Vec::with_capacity(16 + 4 * masks.len());
    out.extend_from_slice(&step.col_bits().to_le_bytes());
    out.extend_from_slice(&step.offset().to_le_bytes());
    out.extend_from_slice(&(masks.len() as u64).to_le_bytes());
    for &m in masks {
        out.extend_from_slice(&m.to_le_bytes());
    }
    out
}

/// Encode a plan into its on-disk byte representation: [`encode_to`]
/// into a `Vec`. Plans carrying verified affine descriptors
/// ([`PlanIr::affine`]) encode compact (kind 1, O(log² n) bytes);
/// everything else encodes its full step maps.
pub fn encode(ir: &PlanIr) -> Vec<u8> {
    let mut out = Vec::new();
    encode_to(ir, &mut out).expect("writing into a Vec cannot fail");
    out
}

/// Stream a plan's encoding into `w` without materialising it: sections
/// are converted through a fixed 64 KiB buffer and the checksum is folded
/// in on the fly.
/// This is what [`crate::store::PlanStore::save`] uses, so persisting a
/// 4M-element plan (~48 MiB on disk) costs one buffer, not a second copy
/// of the plan in memory.
pub fn encode_to<W: Write>(ir: &PlanIr, w: &mut W) -> std::io::Result<()> {
    const CHUNK: usize = 16 * 1024; // u32 entries per flush: 64 KiB
    let mut hash = Hasher::new();
    let mut put = |w: &mut W, bytes: &[u8]| -> std::io::Result<()> {
        hash.update(bytes);
        w.write_all(bytes)
    };
    put(w, &header_bytes(ir))?;
    if let Some(affine) = ir.affine() {
        // Compact form is a few hundred bytes — no chunking needed.
        put(w, &KIND_COMPACT.to_le_bytes())?;
        for step in affine {
            put(w, &descriptor_bytes(step))?;
        }
    } else {
        // The file carries the step maps, each the per-row inverse of a
        // gather map: whole gather rows are inverted straight into the
        // buffer, one block of rows per flush.
        put(w, &KIND_FULL.to_le_bytes())?;
        let mut buf = Vec::new();
        for (gather, layout) in ir.gathers().iter().zip(ir.pass_layouts()) {
            let cols = layout.cols;
            // Whole rows per flush: as many as fit the chunk, at least one.
            let block = cols * (CHUNK / cols).max(1);
            buf.resize(4 * block.min(gather.len()), 0);
            put(w, &(gather.len() as u64).to_le_bytes())?;
            for rows in gather.chunks(block) {
                let bytes = &mut buf[..4 * rows.len()];
                for (row, out) in rows
                    .chunks_exact(cols)
                    .zip(bytes.chunks_exact_mut(4 * cols))
                {
                    for (k, &j) in row.iter().enumerate() {
                        out[4 * j as usize..][..4].copy_from_slice(&(k as u32).to_le_bytes());
                    }
                }
                put(w, bytes)?;
            }
        }
    }
    w.write_all(&hash.finish().to_le_bytes())
}

/// A bounds-checked little-endian reader over the input bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(PlanError::Codec {
                reason: format!("truncated while reading {what}"),
            }),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn usize(&mut self, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| PlanError::Codec {
            reason: format!("{what} value {v} exceeds this platform's usize"),
        })
    }
}

/// Error unless the cursor consumed its input exactly.
fn check_no_trailing(cur: &Cursor<'_>) -> Result<()> {
    if cur.pos != cur.bytes.len() {
        return Err(PlanError::Codec {
            reason: format!(
                "{} trailing bytes after the last section",
                cur.bytes.len() - cur.pos
            ),
        });
    }
    Ok(())
}

/// Decode a plan from bytes. Every malformed input — truncated, bit-flipped,
/// wrong magic or version, a recorded γ_w that is not finite or lies
/// outside `[1, width]`, inconsistent sections, a step row or descriptor
/// that is not a permutation — yields [`PlanError::Codec`]. This is the one
/// check a plan file gets: each section is checked in the same pass that
/// inverts it into its gather map, so a decoded plan holds the [`PlanIr`]
/// contract and goes to the executors as is. It is **not** proof the plan
/// is the one the caller wants: verify with [`PlanIr::matches`] before use.
///
/// A header that declares more than 2^32 entries is refused before
/// anything is allocated.
pub fn decode(bytes: &[u8]) -> Result<PlanIr> {
    decode_as(bytes, |_| Ok(()))
}

/// [`decode`], handing the identity the header declares to `check`
/// before any section is materialized: an `Err` from `check` is returned
/// as is. [`crate::PlanStore::load`] uses it to refuse a file filed under
/// another key without building the plan it describes.
pub(crate) fn decode_as(
    bytes: &[u8],
    check: impl FnOnce(StoreKey) -> Result<()>,
) -> Result<PlanIr> {
    // Checksum first: it covers everything, so random corruption is caught
    // before any field is interpreted. The version field only picks which
    // checksum to compute.
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(PlanError::Codec {
            reason: format!("{} bytes is too short for a plan file", bytes.len()),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let computed = match version {
        1 | 2 => fnv1a(body),
        FORMAT_VERSION => hash_bytes(body),
        _ => {
            return Err(PlanError::Codec {
                reason: format!(
                    "unknown format version {version} (this build reads 1..={FORMAT_VERSION})"
                ),
            })
        }
    };
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if stored != computed {
        return Err(PlanError::Codec {
            reason: format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        });
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    let magic = cur.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(PlanError::Codec {
            reason: "bad magic: not a plan file".into(),
        });
    }
    cur.u32("version")?; // checked with the checksum above
    let width = cur.usize("width")?;
    let rows = cur.usize("rows")?;
    let cols = cur.usize("cols")?;
    let gamma = f64::from_bits(cur.u64("gamma")?);
    let fingerprint = cur.u64("fingerprint")?;
    let n = rows.checked_mul(cols).ok_or_else(|| PlanError::Codec {
        reason: format!("shape {rows}×{cols} overflows"),
    })?;
    if rows == 0 || cols == 0 || width == 0 {
        return Err(PlanError::Codec {
            reason: format!("degenerate header: {rows}×{cols}, width {width}"),
        });
    }
    // Every builder records a γ_w in [1, w], and engines route on the
    // recorded value, so a file claiming anything else is refused.
    if !(1.0..=width as f64).contains(&gamma) {
        return Err(PlanError::Codec {
            reason: format!("recorded γ_w {gamma} lies outside [1, {width}]"),
        });
    }
    check(StoreKey {
        fingerprint,
        n,
        width,
    })?;
    if n as u64 > MAX_ENTRIES {
        return Err(PlanError::Codec {
            reason: format!("header declares {rows}×{cols} entries, more than 2^32"),
        });
    }
    let shape = MatrixShape::new(rows, cols).map_err(|_| PlanError::Codec {
        reason: format!("invalid shape {rows}×{cols}"),
    })?;
    // Version-1 files predate the kind discriminator: sections follow the
    // header directly and are always full step maps.
    let kind = if version == 1 {
        KIND_FULL
    } else {
        cur.u32("section kind")?
    };
    match kind {
        KIND_FULL => {
            let section_bytes = n.checked_mul(4).ok_or_else(|| PlanError::Codec {
                reason: format!("a {n}-entry section overflows"),
            })?;
            let mut sections: [&[u8]; 3] = [&[]; 3];
            for (section, name) in sections.iter_mut().zip(["step1", "step2", "step3"]) {
                let len = cur.usize(name)?;
                if len != n {
                    return Err(PlanError::Codec {
                        reason: format!("{name} declares {len} entries, shape needs {n}"),
                    });
                }
                *section = cur.take(section_bytes, name)?;
            }
            check_no_trailing(&cur)?;
            PlanIr::from_steps(shape, width, sections, gamma, fingerprint)
        }
        KIND_COMPACT => {
            let mut steps = Vec::with_capacity(3);
            for name in ["affine1", "affine2", "affine3"] {
                let col_bits = cur.u32(name)?;
                let offset = cur.u32(name)?;
                let count = cur.usize(name)?;
                // Mask count is pinned to the header's shape before any
                // allocation, so a hostile count cannot balloon memory.
                if !n.is_power_of_two() || count != n.trailing_zeros() as usize {
                    return Err(PlanError::Codec {
                        reason: format!("{name} declares {count} masks, shape {n} needs log₂ n"),
                    });
                }
                let raw = cur.take(4 * count, name)?;
                let masks: Vec<u32> = raw
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                steps.push(AffineStep::from_parts(col_bits, masks, offset));
            }
            check_no_trailing(&cur)?;
            let affine: [AffineStep; 3] = steps.try_into().expect("three descriptors");
            PlanIr::from_affine(shape, width, affine, gamma, fingerprint)
        }
        other => Err(PlanError::Codec {
            reason: format!("unknown section kind {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    const W: usize = 8;

    fn sample(n: usize, seed: u64) -> PlanIr {
        PlanIr::build(&families::random(n, seed), W).unwrap()
    }

    /// Re-seal a current-version file after an edit, so decode gets past
    /// the checksum.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// The exact on-disk size a plan encodes to: compact for plans that
    /// carry descriptors, full otherwise.
    fn expected_len(ir: &PlanIr) -> usize {
        if ir.affine().is_some() {
            compact_encoded_len(ir.len())
        } else {
            encoded_len(ir.len())
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        for fam in families::Family::ALL {
            let p = fam.build(1 << 10, 17).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            let bytes = encode(&ir);
            assert_eq!(bytes.len(), expected_len(&ir), "{}", fam.name());
            let back = decode(&bytes).unwrap();
            assert_eq!(back, ir, "{}", fam.name());
            assert_eq!(encode(&back), bytes, "{}", fam.name());
            assert!(back.matches(&p));
        }
    }

    #[test]
    fn structured_plans_encode_compact_and_round_trip() {
        for n in [1usize << 10, 1 << 11] {
            let p = families::bit_reversal(n).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            assert!(ir.affine().is_some());
            let bytes = encode(&ir);
            // O(log n) on the wire: orders of magnitude below the full form.
            assert_eq!(bytes.len(), compact_encoded_len(n));
            assert!(bytes.len() * 10 < encoded_len(n), "{} bytes", bytes.len());
            let back = decode(&bytes).unwrap();
            // Field-identical reconstruction: maps, descriptors, identity.
            assert_eq!(back, ir);
            assert!(back.affine().is_some());
            assert!(back.matches(&p));
            assert_eq!(encode(&back), bytes);
        }
    }

    #[test]
    fn streaming_encoder_matches_buffered_encoder_exactly() {
        // `encode_to` is the one serializer (`encode` collects it into a
        // Vec): at sizes that straddle its chunk boundary it must emit
        // exactly the documented length and a file that decodes back.
        for n in [64usize, 1 << 10, 1 << 15] {
            for fam in families::Family::ALL {
                let p = fam.build(n, 23).unwrap();
                let ir = PlanIr::build(&p, W).unwrap();
                let mut streamed = Vec::new();
                encode_to(&ir, &mut streamed).unwrap();
                let want_len = if ir.affine().is_some() {
                    compact_encoded_len(n)
                } else {
                    encoded_len(n)
                };
                assert_eq!(streamed.len(), want_len, "{} n={n}", fam.name());
                assert_eq!(streamed, encode(&ir), "{} n={n}", fam.name());
                assert_eq!(decode(&streamed).unwrap(), ir);
            }
        }
    }

    #[test]
    fn streaming_encoder_propagates_write_errors() {
        struct Failing(usize);
        impl std::io::Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ir = sample(256, 9);
        // A writer that fails mid-section must surface the error, not panic.
        assert!(encode_to(&ir, &mut Failing(100)).is_err());
        assert!(encode_to(&ir, &mut Failing(usize::MAX)).is_ok());
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let ir = sample(256, 1);
        let bytes = encode(&ir);
        // Cutting the file anywhere must error, never panic.
        for cut in [0, 1, 7, 8, 11, 12, 40, 60, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(PlanError::Codec { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let ir = sample(256, 2);
        let bytes = encode(&ir);
        // Flip one byte at a time across the whole file (header, sections,
        // checksum): the checksum (or, for checksum bytes, the mismatch
        // with the recomputed body hash) must catch each one.
        for pos in (0..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                matches!(decode(&corrupt), Err(PlanError::Codec { .. })),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn bumped_version_is_rejected() {
        let ir = sample(256, 3);
        let mut bytes = encode(&ir);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Re-seal so the version check, not the checksum, fires.
        let body_len = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn the_version_field_picks_the_checksum() {
        // Stamping an older version onto a current file makes decode check
        // the older (FNV-1a) checksum, which the file does not carry.
        for ir in [
            sample(256, 3),
            PlanIr::build(&families::shuffle(1 << 10).unwrap(), W).unwrap(),
        ] {
            for old in [1u32, 2] {
                let mut bytes = encode(&ir);
                bytes[8..12].copy_from_slice(&old.to_le_bytes());
                let err = decode(&bytes).unwrap_err();
                assert!(err.to_string().contains("checksum"), "v{old}: {err}");
            }
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let ir = sample(256, 4);
        let mut bytes = encode(&ir);
        bytes[0] = b'X';
        let body_len = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(PlanError::Codec { .. })));
    }

    #[test]
    fn resealed_section_corruption_fails_validation() {
        // Defense in depth: even if an attacker re-seals the checksum, a
        // section that is not a per-row permutation is rejected.
        let ir = sample(256, 5);
        let mut bytes = encode(&ir);
        let first_entry = 8 + 4 + 5 * 8 + 4 + 8;
        bytes[first_entry..first_entry + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(PlanError::Codec { .. })));
    }

    /// Rebuild a version-1 file (no `kind` field) from a version-2 full
    /// encoding: splice out the discriminator, stamp version 1, re-seal.
    fn as_v1_bytes(ir: &PlanIr) -> Vec<u8> {
        assert!(ir.affine().is_none(), "v1 only ever held full maps");
        let v2 = encode(ir);
        let kind_at = 8 + 4 + 5 * 8;
        let mut v1 = Vec::with_capacity(v2.len() - 4);
        v1.extend_from_slice(&v2[..kind_at]);
        v1.extend_from_slice(&v2[kind_at + 4..v2.len() - 8]);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        v1
    }

    #[test]
    fn version_1_files_still_decode() {
        // Forward-compat guard: plan files written before the descriptor
        // section existed must keep decoding bit-identically.
        for seed in [11u64, 12, 13] {
            let ir = sample(1 << 9, seed);
            let v1 = as_v1_bytes(&ir);
            assert_eq!(v1.len(), encoded_len(ir.len()) - 4);
            let back = decode(&v1).unwrap();
            assert_eq!(back, ir, "seed {seed}");
            // Re-encoding writes the current version, not v1.
            assert_eq!(&encode(&back)[8..12], &FORMAT_VERSION.to_le_bytes());
        }
    }

    #[test]
    fn unknown_section_kind_is_rejected() {
        let ir = sample(256, 6);
        let mut bytes = encode(&ir);
        let kind_at = 8 + 4 + 5 * 8;
        bytes[kind_at..kind_at + 4].copy_from_slice(&7u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn compact_truncations_and_flips_are_clean_errors() {
        let ir = PlanIr::build(&families::shuffle(1 << 10).unwrap(), W).unwrap();
        let bytes = encode(&ir);
        assert_eq!(bytes.len(), compact_encoded_len(1 << 10));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(decode(&corrupt).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn resealed_hostile_descriptors_are_rejected() {
        let ir = PlanIr::build(&families::shuffle(1 << 10).unwrap(), W).unwrap();
        let bytes = encode(&ir);
        let first_mask = 8 + 4 + 5 * 8 + 4 + 4 + 4 + 8;
        // An out-of-range mask fails descriptor geometry.
        let mut oob = bytes.clone();
        oob[first_mask..first_mask + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&reseal(oob)), Err(PlanError::Codec { .. })));
        // A mask-count that disagrees with the shape is caught before any
        // allocation sized from it.
        let count_at = 8 + 4 + 5 * 8 + 4 + 4 + 4;
        let mut huge = bytes.clone();
        huge[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&reseal(huge)),
            Err(PlanError::Codec { .. })
        ));
        // Degenerate masks (two equal low masks) materialize rows that
        // are not permutations — rejected, never gathered through.
        let mut degen = bytes.clone();
        let m0 = &degen[first_mask..first_mask + 4].to_vec();
        degen[first_mask + 4..first_mask + 8].copy_from_slice(m0);
        assert!(matches!(
            decode(&reseal(degen)),
            Err(PlanError::Codec { .. })
        ));
    }

    /// Engines route a store hit on the recorded γ_w, so a value no
    /// builder writes — not finite, below 1, above the width — is a
    /// codec error, in full and compact files alike.
    #[test]
    fn recorded_gamma_outside_one_to_width_is_refused() {
        let full = sample(256, 9);
        let compact = PlanIr::build(&families::shuffle(1 << 10).unwrap(), W).unwrap();
        for ir in [full, compact] {
            let with_gamma = |g: f64| {
                let mut bytes = encode(&ir);
                bytes[36..44].copy_from_slice(&g.to_bits().to_le_bytes());
                reseal(bytes)
            };
            for bad in [f64::NAN, f64::INFINITY, 0.5, 0.0, -1.0, W as f64 + 1.0] {
                let err = decode(&with_gamma(bad)).unwrap_err();
                assert!(matches!(err, PlanError::Codec { .. }), "{bad}: {err}");
                assert!(err.to_string().contains("γ_w"), "{bad}: {err}");
            }
            // The ends of the range are values builders do write.
            for good in [1.0, W as f64] {
                assert_eq!(decode(&with_gamma(good)).unwrap().gamma(), good);
            }
        }
    }

    #[test]
    fn a_shape_too_large_to_address_is_a_clean_error() {
        // 2^31 × 2^31 entries: the shape multiplies without overflow, but
        // it is past the 2^32-entry bound (and its 4n section bytes would
        // not fit a usize).
        let ir = sample(256, 8);
        let mut bytes = encode(&ir)[..8 + 4 + 5 * 8 + 4].to_vec();
        bytes[20..28].copy_from_slice(&(1u64 << 31).to_le_bytes());
        bytes[28..36].copy_from_slice(&(1u64 << 31).to_le_bytes());
        for _ in 0..3 {
            bytes.extend_from_slice(&(1u64 << 62).to_le_bytes());
        }
        bytes.extend_from_slice(&[0; 8]);
        let err = decode(&reseal(bytes)).unwrap_err();
        assert!(matches!(err, PlanError::Codec { .. }), "{err}");
    }

    #[test]
    fn empty_and_garbage_inputs_error() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0u8; 19]).is_err());
        let garbage: Vec<u8> = (0..4096u32)
            .map(|v| (v.wrapping_mul(2654435761)) as u8)
            .collect();
        assert!(decode(&garbage).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any family at any schedulable power-of-two size (even and
            /// odd exponents: square and rectangular shapes) round-trips
            /// bit-identically through the codec.
            #[test]
            fn round_trip_across_families_and_shapes(
                f in 0usize..families::Family::ALL.len(),
                k in 6u32..=12,
                seed in any::<u64>(),
            ) {
                let n = 1usize << k;
                let p = families::Family::ALL[f].build(n, seed).unwrap();
                let ir = PlanIr::build(&p, W).unwrap();
                let bytes = encode(&ir);
                prop_assert_eq!(bytes.len(), expected_len(&ir));
                let back = decode(&bytes).unwrap();
                prop_assert_eq!(&back, &ir);
                prop_assert_eq!(encode(&back), bytes);
                prop_assert!(back.matches(&p));
            }

            /// Random members of the affine group — arbitrary invertible
            /// bit matrices, not just the named families — round-trip
            /// through the compact descriptor section field-identically.
            #[test]
            fn compact_descriptor_round_trip(
                k in 6u32..=12,
                seed in any::<u64>(),
            ) {
                let n = 1usize << k;
                let p = families::random_bmmc(n, seed).unwrap();
                let ir = PlanIr::build(&p, W).unwrap();
                prop_assert!(ir.affine().is_some());
                let bytes = encode(&ir);
                prop_assert_eq!(bytes.len(), compact_encoded_len(n));
                let back = decode(&bytes).unwrap();
                prop_assert_eq!(&back, &ir);
                prop_assert_eq!(encode(&back), bytes);
                prop_assert!(back.matches(&p));
            }

            /// Any single-byte corruption anywhere in the file — header,
            /// sections, or the checksum trailer itself — is a clean
            /// decode error, never a panic and never a wrong plan.
            #[test]
            fn any_byte_flip_is_rejected(
                seed in any::<u64>(),
                pos_frac in 0.0f64..1.0,
                mask in 1u8..=255,
            ) {
                let ir = sample(256, seed);
                let mut bytes = encode(&ir);
                let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
                bytes[pos] ^= mask;
                prop_assert!(decode(&bytes).is_err(), "flip {mask:#x} at {pos}");
            }
        }
    }
}
