//! Integration tests for the native throughput engine: worker pool
//! behaviour through the public API, fused-sweep correctness against the
//! scatter backend (property-tested), the plan cache, and decomposition
//! sharing between the simulator and the native backend.

use hmm_machine::{Hmm, MachineConfig, Word};
use hmm_native::par::{par_chunks_mut, worker_threads};
use hmm_native::plan::DEFAULT_CAPACITY;
use hmm_native::{scatter_permute, NativeScheduled, Route, SharedEngine};
use hmm_offperm::driver::run_scheduled_decomposition;
use hmm_offperm::schedule::Decomposition;
use hmm_perm::families::{self, Family};
use hmm_perm::Permutation;
use hmm_plan::PlanIr;
use proptest::prelude::*;

const W: usize = 32;

fn scatter_reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; src.len()];
    scatter_permute(src, p, &mut out);
    out
}

/// Strategy: any paper family at a power-of-two size 1K..=16K — even
/// exponents give square matrices, odd ones rectangular (r = 2c).
fn family_case() -> impl Strategy<Value = (Permutation, usize)> {
    (0usize..Family::ALL.len(), 10u32..=14, any::<u64>()).prop_map(|(f, k, seed)| {
        let n = 1usize << k;
        (Family::ALL[f].build(n, seed).unwrap(), n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_three_sweep_matches_scatter((p, n) in family_case()) {
        let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
        let sched = NativeScheduled::build(&p, W).unwrap();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; sched.scratch_len()];
        sched.run_with_scratch(&src, &mut dst, &mut scratch);
        prop_assert_eq!(dst, scatter_reference(&p, &src));
    }

    #[test]
    fn engine_matches_scatter((p, n) in family_case()) {
        let src: Vec<u32> = (0..n as u32).collect();
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        let mut dst = vec![0u32; n];
        engine.permute(&p, &src, &mut dst).unwrap();
        prop_assert_eq!(dst, scatter_reference(&p, &src));
    }
}

#[test]
fn fused_matches_scatter_on_rectangular_shapes() {
    // Odd exponents force r != c in the decomposition's matrix shape.
    for k in [11usize, 13, 15] {
        let n = 1 << k;
        let p = families::random(n, k as u64);
        let src: Vec<u32> = (0..n as u32).collect();
        let sched = NativeScheduled::build(&p, W).unwrap();
        assert_ne!(sched.shape().rows, sched.shape().cols, "want rectangular");
        let mut dst = vec![0u32; n];
        sched.run(&src, &mut dst);
        assert_eq!(dst, scatter_reference(&p, &src), "n = {n}");
    }
}

#[test]
fn one_plan_ir_drives_simulator_and_native_identically() {
    let cfg = MachineConfig::pure(8, 16);
    let n = 1 << 10;
    let p = families::random(n, 2013);
    let input: Vec<Word> = (0..n as Word).map(|v| v * 5 + 1).collect();

    // One König coloring, staged twice: the backend-neutral plan IR...
    let ir = PlanIr::build(&p, cfg.width).unwrap();

    // ...drives the simulator through the staging adapter...
    let d = Decomposition::from_ir(&ir);
    let mut hmm = Hmm::new(cfg).unwrap();
    let (_, simulated) = run_scheduled_decomposition(&mut hmm, &d, &input).unwrap();

    // ...and the native backend directly, with no second coloring.
    let native_plan = NativeScheduled::from_plan(&ir);
    let mut native_out = vec![0 as Word; n];
    native_plan.run(&input, &mut native_out);

    assert_eq!(simulated, native_out);
    let mut want = vec![0 as Word; n];
    p.permute(&input, &mut want).unwrap();
    assert_eq!(native_out, want);
}

#[test]
fn engine_caches_and_evicts() {
    let n = 1 << 10;
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, 2);
    let perms: Vec<Permutation> = (0..3).map(|s| families::random(n, s)).collect();
    for p in &perms {
        engine.permute(p, &src, &mut dst).unwrap();
    }
    assert_eq!(engine.stats().misses, 3);
    assert_eq!(engine.stats().evictions, 1);
    assert_eq!(engine.cached_plans(), 2);
    // Most-recent plan is still cached.
    engine.permute(&perms[2], &src, &mut dst).unwrap();
    assert_eq!(engine.stats().hits, 1);
    assert_eq!(dst, scatter_reference(&perms[2], &src));
}

#[test]
fn engine_gamma_fallback_picks_scatter_for_coalesced_families() {
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
    // identical: γ = 1 — one address group per warp, scatter wins.
    let scatter_plan = engine.plan(&families::identical(n)).unwrap();
    assert_eq!(scatter_plan.route(), Route::Scatter);
    // bit-reversal: γ = w — the scheduled algorithm's home turf.
    let sched_plan = engine.plan(&families::bit_reversal(n).unwrap()).unwrap();
    assert_eq!(sched_plan.route(), Route::Scheduled);
}

#[test]
fn engine_batch_applies_one_plan_to_many_arrays() {
    let n = 1 << 11;
    let p = families::random(n, 42);
    let srcs: Vec<Vec<u32>> = (0..3)
        .map(|k| (0..n as u32).map(|v| v.rotate_left(k)).collect())
        .collect();
    let mut dsts = vec![vec![0u32; n]; 3];
    let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
    engine
        .permute_batch(
            &p,
            srcs.iter()
                .map(Vec::as_slice)
                .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
        )
        .unwrap();
    assert_eq!(engine.stats().misses, 1);
    for (src, dst) in srcs.iter().zip(&dsts) {
        assert_eq!(dst, &scatter_reference(&p, src));
    }
}

#[test]
fn pool_survives_task_panics_and_keeps_serving() {
    // A panic inside a parallel region (4 MiB, so above the fan-out
    // floor: the chunks go through the pool) must surface on the caller...
    let mut data = vec![0u32; 1 << 20];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par_chunks_mut(&mut data, |start, _| {
            if start == 0 {
                panic!("deliberate test panic");
            }
        });
    }));
    assert!(caught.is_err(), "panic must propagate to the caller");

    // ...and the pool (a process-wide singleton) must keep working: run a
    // real permutation end-to-end afterwards.
    let n = 1 << 12;
    let p = families::random(n, 99);
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    NativeScheduled::build(&p, W).unwrap().run(&src, &mut dst);
    assert_eq!(dst, scatter_reference(&p, &src));
    assert!(worker_threads() >= 1);
}

#[test]
fn repeated_runs_reuse_the_pool() {
    // 50 dispatches through every code path; thread count stays fixed
    // (the pool would OOM or slow to a crawl if it spawned per chunk).
    let threads = worker_threads();
    let n = 1 << 14;
    let p = families::random(n, 7);
    let sched = NativeScheduled::build(&p, W).unwrap();
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    let mut scratch = vec![0u32; n];
    for _ in 0..50 {
        sched.run_with_scratch(&src, &mut dst, &mut scratch);
    }
    assert_eq!(worker_threads(), threads);
    assert_eq!(dst, scatter_reference(&p, &src));
}
