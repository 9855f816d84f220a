//! Plan files written by earlier codec versions keep decoding. The
//! fixtures under `tests/fixtures/` were written by the version-2 codec
//! (the version-1 file by splicing out its `kind` field, as version-1
//! writers did), both sealed with FNV-1a. They must decode to the same
//! steps and descriptors the builder produces today, and re-encode as
//! the current version.

use hmm_perm::families;
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

/// Decode `file`, check it against a fresh build for `p`, and return it.
fn decodes_to_todays_plan(file: &str, version: u32, p: &Permutation) -> PlanIr {
    let bytes = fixture(file);
    assert_eq!(bytes[8..12], version.to_le_bytes(), "{file}");
    let old = decode(&bytes).unwrap_or_else(|e| panic!("{file}: {e}"));
    let new = PlanIr::build(p, W).unwrap();
    assert_eq!(old.shape(), new.shape(), "{file}");
    assert_eq!(old.width(), new.width(), "{file}");
    assert_eq!(old.gamma().to_bits(), new.gamma().to_bits(), "{file}");
    assert_eq!(old.step1(), new.step1(), "{file}");
    assert_eq!(old.step2(), new.step2(), "{file}");
    assert_eq!(old.step3(), new.step3(), "{file}");
    assert_eq!(old.affine(), new.affine(), "{file}");
    assert!(old.matches(p), "{file}");
    // The header keeps the FNV-1a fingerprint the file was filed under,
    // which is no longer the permutation's fingerprint.
    assert_ne!(old.fingerprint(), p.fingerprint(), "{file}");

    // Re-encoding writes the current version and checksum.
    let current = encode(&old);
    assert_eq!(current[8..12], FORMAT_VERSION.to_le_bytes(), "{file}");
    assert_eq!(decode(&current).unwrap(), old, "{file}");

    // The legacy checksum is really checked: a flipped byte is refused.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x20;
    assert!(decode(&corrupt).is_err(), "{file}");
    old
}

#[test]
fn version_1_and_2_full_plans_still_decode() {
    let p = families::random(1 << 10, 1);
    for (file, version) in [
        ("random-1k-full-v1.hmmplan", 1),
        ("random-1k-full-v2.hmmplan", 2),
    ] {
        let ir = decodes_to_todays_plan(file, version, &p);
        assert!(ir.affine().is_none(), "{file}");
        assert_eq!(ir.fingerprint(), 0xea05_ce4d_5b38_d991, "{file}");
    }
}

#[test]
fn version_2_compact_plan_still_decodes() {
    let p = families::bit_reversal(1 << 10).unwrap();
    let ir = decodes_to_todays_plan("bitrev-1k-compact-v2.hmmplan", 2, &p);
    assert!(ir.affine().is_some());
    assert_eq!(ir.fingerprint(), 0x1fb3_ed26_b6b0_dc25);
}
