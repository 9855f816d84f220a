//! Differential suite for [`PlanIr::gather_bmmc`], the whole-plan BMMC
//! derived from the three affine descriptors: it must be the inverse of
//! the recognizer's matrix, `p.as_bmmc()`, for every structured plan —
//! built fresh, fused by `compose`, decoded from a compact store file,
//! and decoded from the committed compact fixtures of earlier format
//! versions — and absent on a König plan.

use hmm_perm::{families, Bmmc, Permutation};
use hmm_plan::{decode, PlanIr, PlanStore, StoreKey};
use std::path::Path;

const W: usize = 32;

/// Every structured family the recognizer catches, at size `n`. Odd
/// powers of two plan on `r ≠ c` shapes, so the derivation's row and
/// column bit counts differ; the square transpose needs an even power.
fn structured(n: usize) -> Vec<(&'static str, Permutation)> {
    let mut fams = vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("unshuffle", families::unshuffle(n).unwrap()),
        (
            "transpose-rect",
            families::transpose(32, n / 32, n).unwrap(),
        ),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
        ("butterfly", families::butterfly(n, 3).unwrap()),
        ("gray-code", families::gray_code(n).unwrap()),
    ];
    if let Ok(p) = families::transpose_square(n) {
        fams.push(("transpose", p));
    }
    for seed in 1..=4 {
        fams.push(("random-bmmc", families::random_bmmc(n, seed).unwrap()));
    }
    fams
}

/// `ir.gather_bmmc()` is `p`'s matrix, inverted, and gathers `p`.
fn check(ir: &PlanIr, p: &Permutation, ctx: &str) {
    let g = ir.gather_bmmc().unwrap_or_else(|| panic!("{ctx}: no BMMC"));
    let a = p.as_bmmc().expect("structured permutation");
    assert_eq!(g.inverse(), a, "{ctx}");
    assert_eq!(a.inverse(), g, "{ctx}");
    // Spot-check the gather convention directly: dst[p(i)] = src[i].
    for i in (0..p.len()).step_by(p.len() / 64 + 1) {
        assert_eq!(g.apply(p.apply(i)), i, "{ctx}: position {i}");
    }
}

#[test]
fn fresh_plans_of_every_structured_family() {
    for n in [1 << 10, 1 << 11, 1 << 12, 1 << 15, 1 << 16] {
        for (name, p) in structured(n) {
            let ir = PlanIr::build(&p, W).unwrap();
            check(&ir, &p, &format!("{name} n={n}"));
        }
    }
}

#[test]
fn fused_chains_derive_the_product() {
    for n in [1 << 13, 1 << 14] {
        fused_chains_at(n);
    }
}

fn fused_chains_at(n: usize) {
    let fams = structured(n);
    for (n1, p1) in &fams {
        for (n2, p2) in fams.iter().step_by(3) {
            let (first, second) = (PlanIr::build(p1, W).unwrap(), PlanIr::build(p2, W).unwrap());
            let fused = second.compose(&first).unwrap();
            let p = p2.compose(p1);
            check(&fused, &p, &format!("{n2} after {n1}, n={n}"));
            let product: Bmmc = p2.as_bmmc().unwrap().compose(&p1.as_bmmc().unwrap());
            assert_eq!(fused.gather_bmmc().unwrap(), product.inverse());
        }
    }
}

#[test]
fn compact_store_files_decode_to_the_same_matrix() {
    let dir = std::env::temp_dir().join(format!("hmm-gather-bmmc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    for n in [1 << 11, 1 << 16] {
        for (name, p) in structured(n) {
            let ir = PlanIr::build(&p, W).unwrap();
            store.save(&ir).unwrap();
            let loaded = store.load(&StoreKey::of(&ir)).unwrap().unwrap();
            check(&loaded, &p, &format!("{name} n={n} (store)"));
            assert_eq!(loaded.gather_bmmc(), ir.gather_bmmc());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_compact_fixtures_decode_to_the_bit_reversal_matrix() {
    // The fixtures were built at width 8.
    let p = families::bit_reversal(1 << 10).unwrap();
    for file in [
        "bitrev-1k-compact-v2.hmmplan",
        "bitrev-1k-compact-v3.hmmplan",
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let ir = decode(&std::fs::read(&path).unwrap()).unwrap();
        check(&ir, &p, file);
    }
}

#[test]
fn koenig_plans_have_no_matrix() {
    for n in [1 << 10, 1 << 14] {
        let ir = PlanIr::build(&families::random(n, 7), W).unwrap();
        assert!(ir.affine().is_none());
        assert_eq!(ir.gather_bmmc(), None, "n={n}");
    }
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/random-1k-full-v3.hmmplan");
    let ir = decode(&std::fs::read(path).unwrap()).unwrap();
    assert_eq!(ir.gather_bmmc(), None);
}
