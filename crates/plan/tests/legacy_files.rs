//! Plan files keep decoding, and the current format stays byte-stable.
//! The fixtures under `tests/fixtures/` were written by earlier encoders:
//! the version-2 files by the version-2 codec (the version-1 file by
//! splicing out its `kind` field, as version-1 writers did), both sealed
//! with FNV-1a; the version-3 files by the version-3 encoder of a plan
//! that still stored its step maps next to its gather maps. A structured
//! (BMMC) file must decode to the gathers and descriptors the builder
//! produces today. A König file holds the coloring of the colorer that
//! wrote it, which a later colorer may choose differently, so its gathers
//! are pinned by a digest taken when decode and build still agreed; both
//! it and a fresh build must realise the permutation. The version-3 files
//! must also re-encode byte for byte, which pins the encoder that now
//! derives the step sections from the gathers.

use hmm_perm::families;
use hmm_perm::hash::hash_bytes;
use hmm_perm::Permutation;
use hmm_plan::{decode, encode, PlanIr, FORMAT_VERSION};
use std::path::Path;

/// The width the fixtures were built for.
const W: usize = 8;

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `hash_bytes` of the three `random-1k-full-v*` fixtures' gathers
/// (little-endian `u32`s, pass order), taken while they still equalled a
/// fresh build of `families::random(1 << 10, 1)`.
const RANDOM_1K_GATHERS: u64 = 0xc843_ab27_69a9_28eb;

/// The digest [`RANDOM_1K_GATHERS`] records.
fn gathers_digest(ir: &PlanIr) -> u64 {
    let bytes: Vec<u8> = ir
        .gathers()
        .iter()
        .flat_map(|g| g.iter().flat_map(|x| x.to_le_bytes()))
        .collect();
    hash_bytes(&bytes)
}

/// What a fixture's gathers must equal.
enum Gathers {
    /// A fresh build's (structured plans).
    Built,
    /// This digest's (König plans).
    Digest(u64),
}

/// Decode `file`, check it against `want` and a fresh build for `p`, and
/// return it with its bytes.
fn decodes_to_todays_plan(
    file: &str,
    version: u32,
    p: &Permutation,
    want: Gathers,
) -> (PlanIr, Vec<u8>) {
    let bytes = fixture(file);
    assert_eq!(bytes[8..12], version.to_le_bytes(), "{file}");
    let old = decode(&bytes).unwrap_or_else(|e| panic!("{file}: {e}"));
    let new = PlanIr::build(p, W).unwrap();
    assert_eq!(old.shape(), new.shape(), "{file}");
    assert_eq!(old.width(), new.width(), "{file}");
    assert_eq!(old.gamma().to_bits(), new.gamma().to_bits(), "{file}");
    match want {
        Gathers::Built => assert_eq!(old.gathers(), new.gathers(), "{file}"),
        Gathers::Digest(d) => assert_eq!(gathers_digest(&old), d, "{file}"),
    }
    assert_eq!(old.affine(), new.affine(), "{file}");
    assert!(old.matches(p), "{file}");
    assert!(new.matches(p), "{file}: fresh build");

    // Re-encoding writes the current version and checksum.
    let current = encode(&old);
    assert_eq!(current[8..12], FORMAT_VERSION.to_le_bytes(), "{file}");
    assert_eq!(decode(&current).unwrap(), old, "{file}");

    // The checksum is really checked: a flipped byte is refused.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x20;
    assert!(decode(&corrupt).is_err(), "{file}");
    (old, bytes)
}

#[test]
fn version_1_and_2_full_plans_still_decode() {
    let p = families::random(1 << 10, 1);
    for (file, version) in [
        ("random-1k-full-v1.hmmplan", 1),
        ("random-1k-full-v2.hmmplan", 2),
    ] {
        let (ir, _) = decodes_to_todays_plan(file, version, &p, Gathers::Digest(RANDOM_1K_GATHERS));
        assert!(ir.affine().is_none(), "{file}");
        // The header keeps the FNV-1a fingerprint the file was filed
        // under, which is no longer the permutation's fingerprint.
        assert_eq!(ir.fingerprint(), 0xea05_ce4d_5b38_d991, "{file}");
    }
}

#[test]
fn version_2_compact_plan_still_decodes() {
    let p = families::bit_reversal(1 << 10).unwrap();
    let (ir, _) = decodes_to_todays_plan("bitrev-1k-compact-v2.hmmplan", 2, &p, Gathers::Built);
    assert!(ir.affine().is_some());
    assert_eq!(ir.fingerprint(), 0x1fb3_ed26_b6b0_dc25);
}

#[test]
fn version_3_files_decode_and_re_encode_byte_for_byte() {
    for (file, p, want) in [
        (
            "random-1k-full-v3.hmmplan",
            families::random(1 << 10, 1),
            Gathers::Digest(RANDOM_1K_GATHERS),
        ),
        (
            "bitrev-1k-compact-v3.hmmplan",
            families::bit_reversal(1 << 10).unwrap(),
            Gathers::Built,
        ),
    ] {
        let compact = matches!(want, Gathers::Built);
        let (ir, bytes) = decodes_to_todays_plan(file, FORMAT_VERSION, &p, want);
        assert_eq!(ir.affine().is_some(), compact, "{file}");
        assert_eq!(ir.fingerprint(), p.fingerprint(), "{file}");
        assert_eq!(encode(&ir), bytes, "{file}: encode(decode(f)) != f");
        if compact {
            assert_eq!(encode(&PlanIr::build(&p, W).unwrap()), bytes, "{file}");
        }
    }
}
