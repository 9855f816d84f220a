//! Differential conformance suite for every engine front door.
//!
//! The paper defines offline permutation as `b[P[i]] = a[i]` (equivalently
//! `b[i] = a[P⁻¹[i]]`); this suite pins all three engine entry points —
//! blocking [`SharedEngine::permute`], blocking
//! [`SharedEngine::permute_batch`], and the counted job path
//! [`SharedEngine::run_job`] — against a naive index-loop reference that
//! shares no code with the permutation layer, the plan builder, or the
//! backends. Coverage is the cross product of:
//!
//! * the five paper permutation families — identity, shuffle, transpose,
//!   bit-reversal, random — plus a seeded random invertible BMMC;
//! * n ∈ {1K, 64K, 256K};
//! * every registered backend ([`Backend::ALL`]) × both routes, each
//!   **forced** via [`hmm_native::forced_engine`] (γ threshold `0.0` →
//!   scheduled, `∞` → scatter) so the γ decision cannot quietly collapse
//!   the matrix onto one kernel;
//! * on native scheduled cells, all four `(simd, computed_index)` kernel
//!   configs, set on a fresh engine before its first plan. Interp and
//!   scatter cells run once: scatter reads no kernel config, and the
//!   interpreter has no SIMD tier (its map-load lowering is pinned by
//!   `kernel_differential`);
//! * u32 elements through the engine and u64 elements through a
//!   [`SharedEngine::view`] of the same engine, so the u64 cells run the
//!   plans the u32 cells cached;
//! * on scheduled cells, a fourth front door: a second forced engine
//!   that loads the plan the first one saved to a warm [`PlanStore`], so
//!   decoded full (König) and compact (structured) files are checked
//!   against the naive reference like freshly built plans.
//! * byte lanes, `[u8; 4]` and `[u8; 8]` through views of a native
//!   engine, at aligned and odd byte offsets — how `hmm-server` permutes
//!   wire bytes — checked against the typed output and the reference.
//!
//! Every run also asserts the plan actually executed on the forced route,
//! backend and kernel config, that structured families were planned with
//! affine descriptors, and which native kernel a scheduled cell runs: the
//! one tiled pass for a structured plan with `computed_index` set, the
//! three fused sweeps otherwise. So a regression in the forcing seams
//! cannot hide. The whole matrix runs in one process; only the worker-pool size
//! (`HMM_NATIVE_THREADS`) is left to the environment.

use hmm_native::{
    as_native_scheduled, forced_engine, Backend, KernelConfig, PlanStore, Route, SharedEngine,
};
use hmm_perm::{families, Permutation};

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

/// The four `(simd, computed_index)` kernel configs native scheduled
/// cells run at; the other fields keep their defaults.
fn kernel_configs() -> [KernelConfig; 4] {
    [(true, true), (true, false), (false, true), (false, false)].map(|(simd, computed_index)| {
        KernelConfig {
            simd,
            computed_index,
            ..KernelConfig::default()
        }
    })
}

/// The `(backend, kernel config)` points one route runs at: native
/// scheduled at every kernel config, every other cell once at the
/// default config.
fn points(route: Route) -> Vec<(Backend, KernelConfig)> {
    let mut points = Vec::new();
    for backend in Backend::ALL {
        if backend == Backend::Native && route == Route::Scheduled {
            points.extend(kernel_configs().map(|cfg| (backend, cfg)));
        } else {
            points.push((backend, KernelConfig::default()));
        }
    }
    points
}

/// Differential check of all three front doors for one (family, n,
/// backend, route, kernel config, element type) cell, on one shared
/// engine so the plan is built once.
fn check_cell<T: Elem>(
    engine: &SharedEngine<T>,
    name: &str,
    p: &Permutation,
    route: Route,
    config: KernelConfig,
) {
    let n = p.len();
    let src = input::<T>(n, 0);
    let want = naive_reference(p, &src);
    let ctx = format!(
        "{name} n={n} backend={:?} route={route:?} config={config:?} elem={}",
        engine.backend(),
        std::any::type_name::<T>()
    );

    // The plan must actually execute on the forced backend, route and
    // kernel config (scatter executables read no config).
    let plan = engine.plan(p).unwrap();
    assert_eq!(plan.route(), route, "{ctx}: forcing seam regressed");
    assert_eq!(
        plan.executable().backend(),
        engine.backend(),
        "{ctx}: plan prepared off-backend"
    );
    let want_config = (route == Route::Scheduled).then_some(config);
    assert_eq!(
        plan.executable().kernel_config(),
        want_config,
        "{ctx}: plan prepared off-config"
    );
    assert_native_kernel(&plan, name, config, &ctx);

    // Front door 1: blocking permute.
    let mut dst = vec![T::default(); n];
    engine.permute(p, &src, &mut dst).unwrap();
    assert_eq!(dst, want, "{ctx}: permute diverged from naive reference");

    // Front door 2: blocking permute_batch (one plan, members inline).
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

    // Front door 3: a counted job.
    let mut dst = vec![T::default(); n];
    let ran = engine.run_job(p, &src, &mut dst).unwrap();
    assert_eq!(ran, route, "{ctx}: job ran off-route");
    assert_eq!(dst, want, "{ctx}: run_job diverged from naive reference");
}

/// On a native scheduled plan, the kernel that runs: one tiled pass for
/// every structured family (all but `random`) with `computed_index` set,
/// the three fused sweeps for König plans or with it off.
fn assert_native_kernel<T>(
    plan: &hmm_native::PermutePlan<T>,
    name: &str,
    config: KernelConfig,
    ctx: &str,
) {
    if let Some(sched) = as_native_scheduled(plan) {
        let one_pass = name != "random" && config.computed_index;
        assert_eq!(
            sched.passes(),
            if one_pass { 1 } else { 3 },
            "{ctx}: wrong kernel"
        );
        assert_eq!(sched.computed_index(), one_pass, "{ctx}");
    }
}

/// Full family × size sweep for one route at every `(backend, kernel
/// config)` point: each cell on a fresh forced engine, at u32 and —
/// through a view of the same engine — at u64. Scheduled cells run a
/// second time on a fresh engine that loads the plan the first engine
/// saved to a warm [`PlanStore`]: full files for König plans, compact
/// ones for structured plans, so the decode path is held to the same
/// reference as the builder.
fn run_route(route: Route) {
    for (backend, config) in points(route) {
        let dir = std::env::temp_dir().join(format!(
            "hmm-conformance-{}-{route:?}-{backend:?}-{}-{}",
            std::process::id(),
            config.simd,
            config.computed_index
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::open(&dir).unwrap();
        for n in SIZES {
            for (name, p) in paper_families(n) {
                let mut engine = forced_engine::<u32>(backend, W, route);
                engine.set_store(store.clone());
                engine.set_kernel_config(config);
                check_cell(&engine, name, &p, route, config);
                check_cell(&engine.view::<u64>(), name, &p, route, config);
                if route == Route::Scatter {
                    continue;
                }
                // Structured families must plan with affine
                // descriptors, or the computed-index axis would run
                // the map-load kernels at every point.
                let affine = engine.stats().plans_affine;
                if name == "random" {
                    assert_eq!(affine, 0, "{name} n={n} {backend:?}: König plan");
                } else {
                    assert!(affine > 0, "{name} n={n} {backend:?}: no descriptors");
                }

                // Front door 4: the same cell from the warm store.
                let mut loaded = forced_engine::<u32>(backend, W, route);
                loaded.set_store(store.clone());
                loaded.set_kernel_config(config);
                check_cell(&loaded, name, &p, route, config);
                check_cell(&loaded.view::<u64>(), name, &p, route, config);
                let s = loaded.stats();
                assert_eq!(
                    (s.store_hits, s.builds, s.plans_structured, s.store_rejects),
                    (1, 0, 0, 0),
                    "{name} n={n} {backend:?} {config:?}: not served from the store"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Scatter route on every registered backend: all six families ×
/// {1K, 64K, 256K} × three front doors against the naive reference.
#[test]
fn conformance_scatter_route_all_backends_all_families_all_sizes() {
    run_route(Route::Scatter);
}

/// Scheduled route, same matrix: γ threshold 0 forces the three-pass
/// scheduled plan even for identity/shuffle — executed on `native` at all
/// four kernel configs (the one tiled pass for structured plans with
/// `computed_index` set, the fused sweeps otherwise) and as the five-step
/// sweep IR on `interp`.
#[test]
fn conformance_scheduled_route_all_backends_all_families_all_sizes() {
    run_route(Route::Scheduled);
}

/// The γ decision itself (no forcing), on every registered backend:
/// whatever route the engine picks, outputs still match the naive
/// reference for every family and size.
#[test]
fn conformance_default_gamma_decision_is_correct() {
    for backend in Backend::ALL {
        for n in SIZES {
            let engine: SharedEngine<u32> = SharedEngine::with_backend(W, backend);
            for (name, p) in paper_families(n) {
                let src = input::<u32>(n, 0);
                let want = naive_reference(&p, &src);
                let mut dst = vec![0u32; n];
                engine.permute(&p, &src, &mut dst).unwrap();
                assert_eq!(
                    dst, want,
                    "{name} n={n} backend={backend:?}: default γ decision diverged"
                );
            }
        }
    }
}

/// Byte lanes ≡ typed elements ≡ naive. A server permutes wire bytes as
/// `[u8; 4]` / `[u8; 8]` lanes through views of one engine, so on every
/// family and size, on both forced routes and at every native kernel
/// config (map-load and computed-index, SIMD on and off), the lane
/// output must be the little-endian bytes of the typed `u32` / `u64`
/// output and of the naive reference. Source and destination lanes also
/// sit at odd byte offsets of their buffers, as a request body and a
/// reply frame place them.
#[test]
fn byte_lanes_match_typed_elements_and_the_naive_reference() {
    for route in [Route::Scatter, Route::Scheduled] {
        let configs = match route {
            Route::Scheduled => kernel_configs().to_vec(),
            Route::Scatter => vec![KernelConfig::default()],
        };
        for config in configs {
            for n in SIZES {
                for (name, p) in paper_families(n) {
                    let engine = forced_engine::<u32>(Backend::Native, W, route);
                    engine.set_kernel_config(config);
                    let ctx = format!("{name} n={n} route={route:?} config={config:?}");
                    let plan = engine.plan(&p).unwrap();
                    assert_eq!(plan.route(), route, "{ctx}: forcing seam regressed");
                    assert_eq!(
                        plan.executable().kernel_config(),
                        (route == Route::Scheduled).then_some(config),
                        "{ctx}: plan prepared off-config"
                    );
                    assert_native_kernel(&plan, name, config, &ctx);
                    check_lanes(&engine, &engine.view(), &p, &ctx, u32::to_le_bytes);
                    check_lanes(&engine.view(), &engine.view(), &p, &ctx, u64::to_le_bytes);
                }
            }
        }
    }
}

/// One cell of the byte-lane differential: typed `T` through `typed`,
/// then `B`-byte lanes through `lanes` at several source/destination
/// byte offsets, each against the naive reference's bytes.
fn check_lanes<T: Elem, const B: usize>(
    typed: &SharedEngine<T>,
    lanes: &SharedEngine<[u8; B]>,
    p: &Permutation,
    ctx: &str,
    le: fn(T) -> [u8; B],
) where
    [u8; B]: Default,
{
    let n = p.len();
    let src = input::<T>(n, 0);
    let want: Vec<[u8; B]> = naive_reference(p, &src).into_iter().map(le).collect();
    let mut typed_out = vec![T::default(); n];
    let route = typed.run_job(p, &src, &mut typed_out).unwrap();
    let typed_out: Vec<[u8; B]> = typed_out.into_iter().map(le).collect();
    assert_eq!(typed_out, want, "{ctx}: typed {B}-byte output");
    for (src_off, dst_off) in [(0, 0), (1, 7), (3, 2), (6, 5)] {
        let mut src_bytes = vec![0u8; src_off];
        src_bytes.extend(src.iter().flat_map(|&v| le(v)));
        let src_lanes = src_bytes[src_off..].as_chunks::<B>().0;
        let mut dst_bytes = vec![0xa5u8; dst_off + n * B];
        let dst_lanes = dst_bytes[dst_off..].as_chunks_mut::<B>().0;
        let ran = lanes.run_job(p, src_lanes, dst_lanes).unwrap();
        assert_eq!(ran, route, "{ctx}: lanes ran off-route");
        assert_eq!(
            dst_lanes,
            &want[..],
            "{ctx}: [u8; {B}] lanes at byte offsets {src_off}/{dst_off}"
        );
    }
}
