//! Differential suite for the parallel plan compiler: the parallel
//! builder must produce **byte-identical** plans (through the codec, i.e.
//! the exact artifact the store persists and the cache fingerprints) to
//! the sequential builder, for every paper permutation family, several
//! shapes, and thread budgets past the host's core count.
//!
//! Byte equality through `codec::encode` is deliberately stronger than
//! `PlanIr` equality: it pins the steps, the shape, γ_w's f64 bits, and
//! the fingerprint all at once, so a nondeterministic parallel stage
//! cannot hide behind a lossy comparison.

use hmm_perm::families::Family;
use hmm_plan::{encode, PlanIr};

const W: usize = 32;

#[test]
fn parallel_builder_is_byte_identical_for_all_families() {
    // Square (even exponent) and rectangular (odd exponent) shapes.
    for n in [1usize << 10, 1 << 13, 1 << 16] {
        for fam in Family::ALL {
            let p = fam.build(n, 97).unwrap();
            let seq_bytes = encode(&PlanIr::build(&p, W).unwrap());
            for threads in [2usize, 4, 16] {
                let par_bytes = encode(&PlanIr::build_par(&p, W, threads).unwrap());
                assert_eq!(
                    par_bytes,
                    seq_bytes,
                    "{} n={n} threads={threads}",
                    fam.name()
                );
            }
        }
    }
}

#[test]
fn parallel_builder_is_byte_identical_at_256k_random() {
    // One larger case so the fork threshold (8K edges) is crossed many
    // levels deep; the full 256K–4M sweep runs in the bench harness
    // (`repro native --plan-threads`), which asserts the same equality.
    let n = 1usize << 18;
    let p = Family::Random.build(n, 3).unwrap();
    let seq_bytes = encode(&PlanIr::build(&p, W).unwrap());
    let par_bytes = encode(&PlanIr::build_par(&p, W, 4).unwrap());
    assert_eq!(par_bytes, seq_bytes);
}

#[test]
fn parallel_builder_is_byte_identical_at_64k_random_on_two_and_three_threads() {
    // Odd budgets split unevenly at every fork; the plan must not notice.
    let p = Family::Random.build(1 << 16, 5).unwrap();
    let seq_bytes = encode(&PlanIr::build(&p, W).unwrap());
    for threads in [2usize, 3] {
        let par_bytes = encode(&PlanIr::build_par(&p, W, threads).unwrap());
        assert_eq!(par_bytes, seq_bytes, "threads={threads}");
    }
}

#[test]
fn parallel_builder_matches_the_permutation() {
    let n = 1usize << 12;
    for fam in Family::ALL {
        let p = fam.build(n, 11).unwrap();
        let ir = PlanIr::build_par(&p, W, 4).unwrap();
        assert!(ir.matches(&p), "{}", fam.name());
        assert_eq!(ir.recompose(), p, "{}", fam.name());
    }
}
