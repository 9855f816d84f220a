//! Kernel differential suite: the vectorized sweep kernels against the
//! retained scalar reference, across every config point the seams
//! expose.
//!
//! The contract under test is the one DESIGN.md's determinism argument
//! makes: for a fixed plan, **every** kernel config — SIMD on or off, the
//! one tiled pass or the three sweeps, any tile — produces output
//! byte-identical to the `Permutation::permute` oracle, over all five
//! paper families × element widths {u32, u64, [u8; 16]} × shapes (square
//! and rectangular, and matrices with fewer rows than one 32-row band). Every
//! (config, plan) cell runs on **every registered backend** in
//! [`Backend::ALL`] — the same registry the conformance suite forces
//! routes through — so the native fused pipeline and the sweep-IR
//! interpreter are pinned to the oracle at once.
//!
//! All four `(simd, computed_index)` points are iterated in process; the
//! structured families carry affine descriptors, so on `native` both
//! kernel forms run (one tiled pass with `computed_index`, three sweeps
//! without).
//! The matrix cells are small, so `hmm_native::par`'s byte-size rule runs
//! each of their sweeps on the calling thread, at any worker count.
//! [`jobs_that_fan_out_match_the_oracle`] is the cell that splits into
//! three or more participants when the pool has them (the CI leg at
//! `HMM_NATIVE_THREADS=3` and the one at 4).

use hmm_native::par::{participants, worker_threads, PARTICIPANT_BYTES};
use hmm_native::{copy_baseline, gather_permute, scatter_permute};
use hmm_native::{Backend, ExecPlan, KernelConfig, PlanIr};
use hmm_perm::{families, Permutation};
use proptest::prelude::*;

const W: usize = 32;

/// The config points under test. `scalar` is the oracle-equivalent
/// reference; the rest turn the pipeline's knobs one at a time plus the
/// kitchen-sink default.
fn config_points() -> Vec<(&'static str, KernelConfig)> {
    vec![
        ("scalar", KernelConfig::scalar()),
        ("default", KernelConfig::default()),
        (
            "simd-map-load",
            KernelConfig {
                computed_index: false,
                ..KernelConfig::default()
            },
        ),
        (
            "scalar-computed",
            KernelConfig {
                computed_index: true,
                ..KernelConfig::scalar()
            },
        ),
        (
            // The native kernels do not read `tile`; tile 8 reaches only
            // the sweep-IR lowering (the interpreter backend's smallest
            // transpose tile), and native runs the default config.
            "simd-tile8",
            KernelConfig {
                tile: 8,
                ..KernelConfig::default()
            },
        ),
        (
            // Odd tile: only the sweep-IR lowering reads `tile`, so 48
            // gives the interpreter's transpose tiles that do not divide
            // the power-of-two row lengths; on the native kernels, which
            // ignore `tile`, this cell runs the default config.
            "simd-tile48",
            KernelConfig {
                tile: 48,
                ..KernelConfig::default()
            },
        ),
    ]
}

/// Prepare a scheduled plan on a registry backend at config `cfg` and
/// run it once — the shared per-config seam (no test names a concrete
/// executor type).
fn exec_scheduled<T>(backend: Backend, ir: &PlanIr, cfg: KernelConfig, src: &[T]) -> Vec<T>
where
    T: Copy + Send + Sync + Default + 'static,
{
    let exec = backend.prepare(ExecPlan::Scheduled(ir), cfg);
    let mut dst = vec![T::default(); src.len()];
    let mut scratch = vec![T::default(); exec.scratch_len()];
    exec.run(src, &mut dst, &mut scratch);
    dst
}

/// Run one permutation through every (backend, config) point at element
/// type `T` and demand byte-identical agreement with the safe oracle.
fn check_all_configs<T>(p: &Permutation, label: &str, make: impl Fn(usize) -> T)
where
    T: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static,
{
    let n = p.len();
    let src: Vec<T> = (0..n).map(make).collect();
    let mut want = vec![T::default(); n];
    p.permute(&src, &mut want).unwrap();
    let ir = PlanIr::build(p, W).unwrap();
    for backend in Backend::ALL {
        for (name, cfg) in config_points() {
            let dst = exec_scheduled(backend, &ir, cfg, &src);
            assert!(
                dst == want,
                "{backend:?}/{name} diverged from the oracle: {label}, n = {n}"
            );
        }
    }
}

#[test]
fn all_families_u32() {
    for n in [1 << 10, 1 << 11, 1 << 13] {
        for fam in families::Family::ALL {
            let p = fam.build(n, 0xd1ff).unwrap();
            check_all_configs(&p, fam.name(), |i| (i as u32).wrapping_mul(2654435761));
        }
    }
}

#[test]
fn all_families_u64() {
    for n in [1 << 10, 1 << 11, 1 << 13] {
        for fam in families::Family::ALL {
            let p = fam.build(n, 0xd1ff).unwrap();
            check_all_configs(&p, fam.name(), |i| {
                (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            });
        }
    }
}

#[test]
fn all_families_16_byte_elements() {
    // 16-byte elements have no AVX2 gather — they exercise the unrolled
    // clamped tier, band runs of the widest stride included.
    for n in [1 << 10, 1 << 11] {
        for fam in families::Family::ALL {
            let p = fam.build(n, 0xd1ff).unwrap();
            check_all_configs(&p, fam.name(), |i| {
                ((i as u128).wrapping_mul(0x0123_4567_89ab_cdef)).to_le_bytes()
            });
        }
    }
}

#[test]
fn n_smaller_than_one_block() {
    // A 2^10-element matrix is 32×32: each fused sweep is a single band
    // of 32 input rows, gathered by one kernel call.
    let n = 1 << 10;
    let p = families::random(n, 99);
    check_all_configs(&p, "random-small", |i| i as u32);
}

#[test]
fn tiny_matrices_every_width() {
    // 2^6..2^9: fewer rows than one 32-row band (band heights of 8 and
    // 16), rows shorter than one 8-element vector — the all-edges
    // regime. Width 8 keeps these schedulable.
    for exp in 6..=9 {
        let n = 1usize << exp;
        let p = families::random(n, exp as u64);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();
        let ir = PlanIr::build(&p, 8).unwrap();
        for backend in Backend::ALL {
            for (name, cfg) in config_points() {
                let dst = exec_scheduled(backend, &ir, cfg, &src);
                assert_eq!(dst, want, "{backend:?}/{name}, n = {n}");
            }
        }
    }
}

/// At the smallest sizes that split into three or more participants
/// (`3 × PARTICIPANT_BYTES`), every native kernel that fans out agrees
/// with the oracle: the scheduled sweeps with map-loaded and with computed
/// indices (a power-of-two `n`), and scatter, gather and copy (a ragged
/// `n` just past the boundary, so the last chunk is short).
fn check_fan_out<T>(make: impl Fn(usize) -> T)
where
    T: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static,
{
    let size = std::mem::size_of::<T>();
    let threads = worker_threads();
    let ragged = 3 * PARTICIPANT_BYTES / size + 7;
    let pow2 = (3 * PARTICIPANT_BYTES / size).next_power_of_two();
    for n in [ragged, pow2] {
        assert!(participants(n * size, threads) >= threads.min(3), "n = {n}");
    }

    let p = families::bit_reversal(pow2).unwrap();
    let src: Vec<T> = (0..pow2).map(&make).collect();
    let mut want = vec![T::default(); pow2];
    p.permute(&src, &mut want).unwrap();
    let ir = PlanIr::build(&p, W).unwrap();
    assert!(ir.affine().is_some(), "bit reversal has computed indices");
    for computed_index in [false, true] {
        let cfg = KernelConfig {
            computed_index,
            ..KernelConfig::default()
        };
        let dst = exec_scheduled(Backend::Native, &ir, cfg, &src);
        assert!(
            dst == want,
            "scheduled, computed={computed_index}, n = {pow2}"
        );
    }

    let p = families::random(ragged, 0xfa17);
    let src: Vec<T> = (0..ragged).map(&make).collect();
    let mut want = vec![T::default(); ragged];
    p.permute(&src, &mut want).unwrap();
    let mut dst = vec![T::default(); ragged];
    scatter_permute(&src, &p, &mut dst);
    assert!(dst == want, "scatter, n = {ragged}");
    dst.fill(T::default());
    gather_permute(&src, &p.inverse(), &mut dst);
    assert!(dst == want, "gather, n = {ragged}");
    dst.fill(T::default());
    copy_baseline(&src, &mut dst);
    assert!(dst == src, "copy, n = {ragged}");
}

#[test]
fn jobs_that_fan_out_match_the_oracle() {
    check_fan_out(|i| (i as u32).wrapping_mul(2654435761));
    check_fan_out(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    check_fan_out(|i| ((i as u128).wrapping_mul(0x0123_4567_89ab_cdef)).to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random family × random size × random payload: every config point
    /// agrees with the oracle.
    #[test]
    fn random_shapes_agree_everywhere(
        n_exp in 10u32..=13,
        fam_idx in 0usize..families::Family::ALL.len(),
        seed in any::<u64>(),
    ) {
        let n = 1usize << n_exp;
        let fam = families::Family::ALL[fam_idx];
        let p = fam.build(n, seed).unwrap();
        let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(seed as u32 | 1)).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        for backend in Backend::ALL {
            for (name, cfg) in config_points() {
                let dst = exec_scheduled(backend, &ir, cfg, &src);
                prop_assert_eq!(&dst, &want, "{:?}/{}, {}, n = {}", backend, name, fam.name(), n);
            }
        }
    }

    /// Config points also agree pairwise on u64 payloads (not just with
    /// the oracle): pins byte-identity of the *outputs*, the property the
    /// determinism argument claims.
    #[test]
    fn configs_agree_pairwise_u64(
        n_exp in 10u32..=12,
        seed in any::<u64>(),
    ) {
        let n = 1usize << n_exp;
        let p = families::random(n, seed);
        let src: Vec<u64> = (0..n as u64).map(|v| v.rotate_left((seed % 63) as u32)).collect();
        let ir = PlanIr::build(&p, W).unwrap();
        let outs: Vec<Vec<u64>> = Backend::ALL
            .into_iter()
            .flat_map(|backend| {
                config_points()
                    .into_iter()
                    .map(move |(_, cfg)| (backend, cfg))
            })
            .map(|(backend, cfg)| exec_scheduled(backend, &ir, cfg, &src))
            .collect();
        for pair in outs.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }
}
