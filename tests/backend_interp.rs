//! Interpreter-backend conformance: the sweep-IR interpreter from
//! `hmm-backend` pinned byte-identical against both the naive reference
//! and the native backend, across all five paper families × both element
//! widths (u32, u64).
//!
//! This is the suite that makes the IR trustworthy as a codegen source:
//! [`hmm_backend::SweepIr`]'s five-step unfused program (gather,
//! transpose, gather, transpose, row-permute) is executed literally by
//! [`hmm_backend::InterpExec`], so any divergence between what the
//! WGSL generator *says* a kernel does and what the plan *means* shows up
//! here as a byte mismatch long before a GPU is involved. Unlike the
//! conformance matrix, which runs u64 through a view of a u32 engine,
//! these cells build u64 engines directly. The lowered IR's shape is
//! pinned by the `hmm-backend` sweep unit tests.

use hmm_native::{as_native_scheduled, forced_engine, Backend, Route};
use hmm_perm::{families, Permutation};

const W: usize = 32;

/// 1K and 256K: the smallest schedulable size at width 32 and one big
/// enough that every step spans many tiles and staging blocks.
const SIZES: [usize; 2] = [1 << 10, 1 << 18];

fn paper_families(n: usize) -> Vec<(&'static str, Permutation)> {
    vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("transpose", families::transpose_square(n).unwrap()),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
        ("random", families::random(n, 0xfeed ^ n as u64)),
    ]
}

/// Naive reference at any element type: `b[P[i]] = a[i]` with a plain
/// loop, sharing no code with the layers under test.
fn naive_reference<T: Copy + Default>(p: &Permutation, a: &[T]) -> Vec<T> {
    let mut b = vec![T::default(); a.len()];
    for (i, &pi) in p.as_slice().iter().enumerate() {
        b[pi] = a[i];
    }
    b
}

/// One (family, n) cell at element type `T`: interp == naive == native.
fn check_cell<T>(name: &str, p: &Permutation, make: impl Fn(usize) -> T)
where
    T: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static,
{
    let n = p.len();
    let src: Vec<T> = (0..n).map(make).collect();
    let want = naive_reference(p, &src);

    let interp = forced_engine::<T>(Backend::Interp, W, Route::Scheduled);
    let mut via_interp = vec![T::default(); n];
    interp.permute(p, &src, &mut via_interp).unwrap();
    assert_eq!(via_interp, want, "{name} n={n}: interp vs naive");
    let plan = interp.plan(p).unwrap();
    assert_eq!(plan.route(), Route::Scheduled, "{name} n={n}");
    assert_eq!(plan.executable().backend(), Backend::Interp, "{name} n={n}");

    let native = forced_engine::<T>(Backend::Native, W, Route::Scheduled);
    let mut via_native = vec![T::default(); n];
    native.permute(p, &src, &mut via_native).unwrap();
    assert_eq!(via_interp, via_native, "{name} n={n}: interp vs native");
}

/// All five families × {1K, 256K} at u32 — the paper's element width.
#[test]
fn interp_matches_native_and_naive_u32() {
    for n in SIZES {
        for (name, p) in paper_families(n) {
            check_cell(name, &p, |i| (i as u32).wrapping_mul(2_654_435_761));
        }
    }
}

/// Same matrix at u64 — the width the WGSL generator emits as
/// `vec2<u32>`, so the IR must be width-agnostic.
#[test]
fn interp_matches_native_and_naive_u64() {
    for n in SIZES {
        for (name, p) in paper_families(n) {
            check_cell(name, &p, |i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }
}

/// The interpreter's forced-scatter route also matches (its serial
/// scatter is an independent second implementation of the definition).
#[test]
fn interp_scatter_route_matches_naive() {
    let n = 1 << 12;
    for (name, p) in paper_families(n) {
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0xabcd).collect();
        let want = naive_reference(&p, &src);
        let engine = forced_engine::<u32>(Backend::Interp, W, Route::Scatter);
        let mut dst = vec![0u32; n];
        engine.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(dst, want, "{name}");
        let plan = engine.plan(&p).unwrap();
        assert_eq!(plan.route(), Route::Scatter);
        assert!(as_native_scheduled(&plan).is_none(), "{name}: not native");
    }
}
