//! Differential conformance suite for every engine front door.
//!
//! The paper defines offline permutation as `b[P[i]] = a[i]` (equivalently
//! `b[i] = a[P⁻¹[i]]`); this suite pins all three engine entry points —
//! blocking [`SharedEngine::permute`], blocking (queue-routed)
//! [`SharedEngine::permute_batch`], and asynchronous
//! [`SharedEngine::submit`] — against a naive index-loop reference that
//! shares no code with the permutation layer, the plan builder, or the
//! backends. Coverage is the cross product of:
//!
//! * the five paper permutation families — identity, shuffle, transpose,
//!   bit-reversal, random — plus a seeded random invertible BMMC;
//! * n ∈ {1K, 64K, 256K};
//! * every registered backend (`native`, `interp`) × both routes, each
//!   **forced** via [`hmm_native::forced_engine_on`] (γ threshold `0.0` →
//!   scheduled, `∞` → scatter) so the γ decision cannot quietly collapse
//!   the matrix onto one kernel;
//! * u32 elements through the engine and u64 elements through a
//!   [`SharedEngine::view`] of the same engine, so the u64 cells run the
//!   plans the u32 cells cached.
//!
//! Every run also asserts the plan actually executed on the forced route
//! and backend, so a regression in the forcing seam itself cannot hide.
//! The whole matrix, the unforced γ decision included, iterates the
//! backends in process: no cell depends on `HMM_BACKEND`.

use hmm_native::{backend_names, by_name, forced_engine_on, Route, SharedEngine};
use hmm_perm::{families, Permutation};
use std::sync::Arc;

const W: usize = 32;

/// n ∈ {1K, 64K, 256K}: all are `r·c` with both factors multiples of
/// `W = 32`, so the scheduled route is constructible at every size.
const SIZES: [usize; 3] = [1 << 10, 1 << 16, 1 << 18];

/// The five paper families at size `n`, plus a random invertible BMMC —
/// structured like the affine families but with dense arbitrary masks,
/// so the recognizer/computed-index path is exercised beyond the paper's
/// sparse bit-matrices.
fn paper_families(n: usize) -> Vec<(&'static str, Permutation)> {
    vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("transpose", families::transpose_square(n).unwrap()),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
        ("random", families::random(n, 0xc0ffee ^ n as u64)),
        (
            "random-bmmc",
            families::random_bmmc(n, 0xb117 ^ n as u64).unwrap(),
        ),
    ]
}

/// Element types the matrix runs at.
trait Elem: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Widen a u32 ramp value; u64 cells also set high bits, so a
    /// truncating kernel would show.
    fn from_u32(v: u32) -> Self;
}

impl Elem for u32 {
    fn from_u32(v: u32) -> Self {
        v
    }
}

impl Elem for u64 {
    fn from_u32(v: u32) -> Self {
        (u64::from(v) << 32) | u64::from(!v)
    }
}

/// Naive reference: the definition applied with a plain loop,
/// `b[P[i]] = a[i]` — no shared code with any code path under test.
fn naive_reference<T: Elem>(p: &Permutation, a: &[T]) -> Vec<T> {
    let mut b = vec![T::default(); a.len()];
    for (i, &pi) in p.as_slice().iter().enumerate() {
        b[pi] = a[i];
    }
    b
}

/// Input that is not the identity ramp, so index/value confusions show.
/// `salt` varies the batch members.
fn input<T: Elem>(n: usize, salt: u32) -> Vec<T> {
    (0..n as u32)
        .map(|v| T::from_u32((v.wrapping_mul(0x9e37_79b9) ^ 0x5eed).wrapping_add(salt)))
        .collect()
}

/// Differential check of all three front doors for one (family, n,
/// backend, route, element type) cell, on one shared engine so the plan
/// is built once.
fn check_cell<T: Elem>(engine: &SharedEngine<T>, name: &str, p: &Permutation, route: Route) {
    let n = p.len();
    let src = input::<T>(n, 0);
    let want = naive_reference(p, &src);
    let ctx = format!(
        "{name} n={n} backend={:?} route={route:?} elem={}",
        engine.backend(),
        std::any::type_name::<T>()
    );

    // The plan must actually execute on the forced backend and route.
    let plan = engine.plan(p).unwrap();
    assert_eq!(plan.route(), route, "{ctx}: forcing seam regressed");
    assert_eq!(
        plan.executable().backend(),
        engine.backend(),
        "{ctx}: plan prepared off-backend"
    );

    // Front door 1: blocking permute.
    let mut dst = vec![T::default(); n];
    engine.permute(p, &src, &mut dst).unwrap();
    assert_eq!(dst, want, "{ctx}: permute diverged from naive reference");

    // Front door 2: blocking permute_batch (queue-routed members).
    let srcs: Vec<Vec<T>> = (0..3).map(|k| input::<T>(n, k)).collect();
    let mut dsts: Vec<Vec<T>> = vec![vec![T::default(); n]; srcs.len()];
    engine
        .permute_batch(
            p,
            srcs.iter()
                .map(Vec::as_slice)
                .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
        )
        .unwrap();
    for (k, (s, d)) in srcs.iter().zip(&dsts).enumerate() {
        assert_eq!(
            d,
            &naive_reference(p, s),
            "{ctx}: permute_batch member {k} diverged"
        );
    }

    // Front door 3: queued submit.
    let shared: Arc<[T]> = src.clone().into();
    let report = engine
        .submit(p, Arc::clone(&shared), vec![T::default(); n])
        .wait()
        .unwrap();
    assert_eq!(report.route, route, "{ctx}: queued job ran off-route");
    assert_eq!(
        report.dst, want,
        "{ctx}: submit diverged from naive reference"
    );
}

/// Full family × size sweep for one (backend name, route) pair, at u32
/// and — through a view of the same engine — at u64.
fn run_route(backend: &str, route: Route) {
    for n in SIZES {
        let engine = forced_engine_on::<u32>(backend, W, route)
            .unwrap_or_else(|| panic!("backend {backend} not registered"));
        let wide = engine.view::<u64>();
        for (name, p) in paper_families(n) {
            check_cell(&engine, name, &p, route);
            check_cell(&wide, name, &p, route);
        }
    }
}

/// Scatter route on every registered backend: all five families ×
/// {1K, 64K, 256K} × three front doors against the naive reference.
#[test]
fn conformance_scatter_route_all_backends_all_families_all_sizes() {
    for backend in backend_names() {
        run_route(backend, Route::Scatter);
    }
}

/// Scheduled route, same matrix: γ threshold 0 forces the three-pass
/// König-scheduled plan even for identity/shuffle — executed as the fused
/// sweeps on `native` and as the five-step sweep IR on `interp`.
#[test]
fn conformance_scheduled_route_all_backends_all_families_all_sizes() {
    for backend in backend_names() {
        run_route(backend, Route::Scheduled);
    }
}

/// The γ decision itself (no forcing), on every registered backend:
/// whatever route the engine picks, outputs still match the naive
/// reference for every family and size.
#[test]
fn conformance_default_gamma_decision_is_correct() {
    for backend in backend_names() {
        for n in SIZES {
            let engine: SharedEngine<u32> =
                SharedEngine::with_backend(W, by_name(backend).unwrap());
            for (name, p) in paper_families(n) {
                let src = input::<u32>(n, 0);
                let want = naive_reference(&p, &src);
                let mut dst = vec![0u32; n];
                engine.permute(&p, &src, &mut dst).unwrap();
                assert_eq!(
                    dst, want,
                    "{name} n={n} backend={backend}: default γ decision diverged"
                );
            }
        }
    }
}
