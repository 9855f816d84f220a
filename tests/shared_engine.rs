//! Concurrency stress tests for the shared plan service: one
//! `SharedEngine` hammered from many threads over mixed permutation
//! families, single-flight build dedup proven by the stats, fingerprint
//! collisions injected through the test seam, batch dispatch through
//! the worker pool under external contention, the on-disk tier-2
//! plan store (cold-process reuse, corruption and collision rejection),
//! store hits routed on the γ_w their files record and hostile store
//! files refused, jobs run inline through `run_job` (many submitters on one ledger,
//! build errors and panics returned as typed errors), and views of one
//! engine core at other element types sharing its cache.

use hmm_native::plan::DEFAULT_CAPACITY;
use hmm_native::pool::WorkerPool;
use hmm_native::{JobError, Route, SharedEngine};
use hmm_perm::families;
use hmm_perm::Permutation;
use hmm_plan::{decode, PlanError, StoreKey};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const W: usize = 32;

fn reference<T: Copy + Default>(p: &Permutation, src: &[T]) -> Vec<T> {
    let mut out = vec![T::default(); src.len()];
    p.permute(src, &mut out).unwrap();
    out
}

/// The acceptance stress test: one engine, 8 threads, 5 distinct
/// permutations across both backends, reference-equal output on every
/// thread and every round, and stats that prove single-flight dedup.
#[test]
fn shared_engine_stress_eight_threads_mixed_families() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let perms: Vec<Permutation> = vec![
        families::identical(n),             // γ = 1  -> scatter
        families::shuffle(n).unwrap(),      // low γ  -> scatter
        families::random(n, 1),             // high γ -> scheduled
        families::random(n, 2),             // high γ -> scheduled
        families::bit_reversal(n).unwrap(), // γ = w  -> scheduled
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let refs: Vec<Vec<u32>> = perms.iter().map(|p| reference(p, &src)).collect();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let perms = &perms;
            let refs = &refs;
            let src = &src;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait(); // maximise racing on the cold cache
                for r in 0..ROUNDS {
                    let k = (t + r) % perms.len();
                    engine.permute(&perms[k], src, &mut dst).unwrap();
                    assert_eq!(dst, refs[k], "thread {t} round {r} perm {k}");
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (THREADS * ROUNDS) as u64;
    let distinct = perms.len() as u64;
    // Every call is accounted for exactly once.
    assert_eq!(
        stats.hits + stats.misses + stats.builds_deduped + stats.collisions,
        total
    );
    assert_eq!(stats.scatter_runs + stats.scheduled_runs, total);
    // Real fingerprints: no collisions among these permutations.
    assert_eq!(stats.collisions, 0);
    // Single-flight: each distinct permutation is built exactly once, no
    // matter how many threads raced for it (the acceptance inequality).
    assert_eq!(stats.misses, distinct);
    assert!(stats.misses + stats.collisions <= distinct + stats.builds_deduped);
    assert_eq!(stats.evictions, 0);
    assert_eq!(engine.cached_plans(), perms.len());
}

/// All 8 threads request the *same* uncached permutation simultaneously:
/// exactly one build may happen; everyone else hits or waits (dedups).
#[test]
fn shared_engine_single_flight_under_max_contention() {
    const THREADS: usize = 8;
    let n = 1 << 13;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let p = families::random(n, 99);
    let src: Vec<u32> = (0..n as u32).collect();
    let want = reference(&p, &src);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = &engine;
            let p = &p;
            let src = &src;
            let want = &want;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait();
                engine.permute(p, src, &mut dst).unwrap();
                assert_eq!(&dst, want);
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "one König coloring for eight threads");
    assert_eq!(stats.hits + stats.builds_deduped, (THREADS - 1) as u64);
    assert_eq!(stats.collisions, 0);
}

/// A forced fingerprint collision through the public test seam: the cache
/// must detect the full-image mismatch, rebuild, return the *correct*
/// output, and count exactly one collision.
#[test]
fn shared_engine_detects_injected_fingerprint_collision() {
    let n = 1 << 11;
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    let mut engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_fingerprint_fn(|_| 0x5eed); // every permutation collides
    let p1 = families::random(n, 7);
    let p2 = families::random(n, 8);

    engine.permute(&p1, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p1, &src));
    engine.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(&p2, &src),
        "collision must be detected, not silently applied"
    );
    let stats = engine.stats();
    assert_eq!(stats.collisions, 1);
    assert_eq!(stats.misses, 2);
}

/// Same collision injection through a one-shard engine (one global LRU):
/// the replacement plan takes the colliding key.
#[test]
fn one_shard_engine_detects_injected_fingerprint_collision() {
    let n = 1 << 10;
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    let mut engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
    engine.set_fingerprint_fn(|_| 1);
    let p1 = families::random(n, 3);
    let p2 = families::random(n, 4);
    engine.permute(&p1, &src, &mut dst).unwrap();
    engine.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p2, &src));
    assert_eq!(engine.stats().collisions, 1);
    // The replacement is cached: repeating p2 is a verified hit.
    engine.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(engine.stats().hits, 1);
}

/// `permute_batch` dispatches its jobs across the worker pool; outputs
/// must be reference-equal even when several batches run from different
/// threads against one engine.
#[test]
fn shared_engine_concurrent_batches_are_correct() {
    const THREADS: usize = 4;
    const JOBS: usize = 6;
    let n = 1 << 11;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let p = families::random(n, 13);
    let srcs: Vec<Vec<u32>> = (0..JOBS)
        .map(|k| (0..n as u32).map(|v| v.wrapping_add(k as u32)).collect())
        .collect();
    let refs: Vec<Vec<u32>> = srcs.iter().map(|s| reference(&p, s)).collect();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = &engine;
            let p = &p;
            let srcs = &srcs;
            let refs = &refs;
            s.spawn(move || {
                let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; JOBS];
                engine
                    .permute_batch(
                        p,
                        srcs.iter()
                            .map(Vec::as_slice)
                            .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
                    )
                    .unwrap();
                for (dst, want) in dsts.iter().zip(refs) {
                    assert_eq!(dst, want);
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.scatter_runs + stats.scheduled_runs,
        (THREADS * JOBS) as u64
    );
}

/// Fresh, empty temp directory for one store test.
fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hmm-shared-engine-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The cross-process acceptance path through the public API: an engine
/// with a store builds and persists plans; a *second* engine (standing in
/// for a cold process) serves the same permutations with **zero** König
/// builds, and every output still verifies. Scatter-backed permutations
/// never involve the store.
#[test]
fn cold_engine_with_warm_store_builds_nothing_and_verifies() {
    let n = 1 << 12;
    let dir = temp_store_dir("cold-start");
    let perms = [
        families::random(n, 1),             // scheduled
        families::bit_reversal(n).unwrap(), // scheduled
        families::identical(n),             // scatter: store not involved
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let mut dst = vec![0u32; n];

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    for p in &perms {
        warm.permute(p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(p, &src));
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.builds, 1, "random is the only König coloring");
    assert_eq!(
        warm_stats.plans_structured, 1,
        "bit-reversal takes the closed-form BMMC path"
    );
    // Both scheduled plans — colored and structured — are persisted.
    assert_eq!(warm.store().unwrap().entries().unwrap().len(), 2);

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    for p in &perms {
        dst.fill(0);
        cold.permute(p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(p, &src), "store-served output must verify");
    }
    let stats = cold.stats();
    assert_eq!(stats.builds, 0, "warm store: the cold process never colors");
    assert_eq!(stats.store_hits, 2);
    assert_eq!(stats.store_rejects, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store file renamed onto another permutation's key — the on-disk
/// equivalent of a fingerprint collision. The decoded identity check must
/// reject it, delete the file, and rebuild; output stays correct.
#[test]
fn renamed_store_file_is_rejected_not_trusted() {
    let n = 1 << 12;
    let dir = temp_store_dir("renamed");
    let p1 = families::random(n, 21);
    let p2 = families::random(n, 22);
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];

    let first: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    first.permute(&p1, &src, &mut dst).unwrap();

    // Graft p1's plan file onto p2's store key.
    let p1_file = dir.join(format!("plan-{:016x}-n{n}-w{W}.hmmplan", p1.fingerprint()));
    let p2_file = dir.join(format!("plan-{:016x}-n{n}-w{W}.hmmplan", p2.fingerprint()));
    std::fs::rename(&p1_file, &p2_file).unwrap();

    let second: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    second.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(&p2, &src),
        "wrong plan must never be applied"
    );
    let stats = second.stats();
    assert_eq!(stats.store_rejects, 1, "the grafted file is rejected");
    assert_eq!(stats.builds, 1, "and p2's plan rebuilt from scratch");
    // The reject deleted the graft and the rebuild re-saved p2's real
    // plan, so a third engine is a clean hit.
    let third: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    third.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p2, &src));
    assert_eq!(third.stats().store_hits, 1);
    assert_eq!(third.stats().builds, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A miss hashes the permutation once: the cache key's fingerprint also
/// names the store file to load, so the `set_fingerprint_fn` seam drives
/// both lookups and runs once per miss. A store file under the seam's
/// key that holds another permutation's plan is rejected, never applied.
#[test]
fn miss_fingerprints_once_and_keys_the_store_lookup_with_it() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    const KEY: u64 = 0x5eed;
    let n = 1 << 12;
    let dir = temp_store_dir("fingerprint-once");
    let p1 = families::random(n, 31);
    let p2 = families::random(n, 32);
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];

    // File p1's plan under the key the seam below returns for everything.
    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    warm.permute(&p1, &src, &mut dst).unwrap();
    std::fs::rename(
        dir.join(format!("plan-{:016x}-n{n}-w{W}.hmmplan", p1.fingerprint())),
        dir.join(format!("plan-{KEY:016x}-n{n}-w{W}.hmmplan")),
    )
    .unwrap();

    let mut engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    engine.set_fingerprint_fn(|_| {
        CALLS.fetch_add(1, Ordering::Relaxed);
        KEY
    });
    engine.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(&p2, &src),
        "wrong plan must never be applied"
    );
    assert_eq!(CALLS.load(Ordering::Relaxed), 1, "one fingerprint per miss");
    let stats = engine.stats();
    assert_eq!(
        stats.store_rejects, 1,
        "the store was read under the seam's key"
    );
    assert_eq!(stats.builds, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent cold start against a warm store: many threads race the
/// single-flight slot, exactly one of them performs the disk load, and
/// nobody colors.
#[test]
fn concurrent_cold_start_loads_from_store_once() {
    const THREADS: usize = 8;
    let n = 1 << 12;
    let dir = temp_store_dir("concurrent");
    let p = families::random(n, 31);
    let src: Vec<u32> = (0..n as u32).collect();
    let want = reference(&p, &src);

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let mut dst = vec![0u32; n];
    warm.permute(&p, &src, &mut dst).unwrap();

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cold = &cold;
            let p = &p;
            let src = &src;
            let want = &want;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait();
                cold.permute(p, src, &mut dst).unwrap();
                assert_eq!(&dst, want);
            });
        }
    });
    let stats = cold.stats();
    assert_eq!(stats.builds, 0);
    assert_eq!(
        stats.store_hits, 1,
        "single-flight covers the disk load too"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store key a plan for `p` at width `W` is filed under.
fn store_key(p: &Permutation) -> StoreKey {
    StoreKey {
        fingerprint: p.fingerprint(),
        n: p.len(),
        width: W,
    }
}

/// Byte offset of the recorded γ_w in a plan file's header.
const GAMMA_AT: usize = 36;
/// Byte offset of the first mask of a compact file's first descriptor.
const FIRST_MASK_AT: usize = 8 + 4 + 5 * 8 + 4 + 4 + 4 + 8;

/// Rewrite the plan file at `path` with `edit` applied and its checksum
/// re-sealed, so decode gets past the checksum to the edited field.
fn reseal_file(path: &Path, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    let body = bytes.len() - 8;
    let sum = hmm_perm::hash::hash_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
    bytes
}

/// Plan `p` through `engine`, run it, and check the output against the
/// naive reference; returns the plan's route.
fn run_checked(engine: &SharedEngine<u32>, p: &Permutation, ctx: &str) -> Route {
    let src: Vec<u32> = (0..p.len() as u32)
        .map(|v| v.wrapping_mul(0x9e37_79b9))
        .collect();
    let plan = engine.plan(p).unwrap();
    let mut dst = vec![0u32; p.len()];
    engine.run_plan(&plan, &src, &mut dst);
    assert_eq!(dst, reference(p, &src), "{ctx}");
    plan.route()
}

/// A verified store hit routes on the γ_w its file records instead of
/// measuring it again: with the true γ the hit is scheduled and nothing
/// is built; with the header re-sealed to γ = 1 the same hit routes
/// scatter. Either route is correct for every permutation, so the lying
/// header costs speed, never output.
#[test]
fn store_hit_routes_on_the_recorded_gamma() {
    let n = 1 << 12;
    let dir = temp_store_dir("recorded-gamma");
    let p = families::random(n, 41);
    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    assert_eq!(run_checked(&warm, &p, "warm"), Route::Scheduled);
    let built_gamma = warm.plan(&p).unwrap().gamma();

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    assert_eq!(run_checked(&cold, &p, "true γ"), Route::Scheduled);
    assert_eq!(cold.plan(&p).unwrap().gamma(), built_gamma);
    let s = cold.stats();
    assert_eq!((s.store_hits, s.builds, s.plans_structured), (1, 0, 0));
    assert_eq!(s.store_rejects, 0);

    reseal_file(&warm.store().unwrap().path_for(&store_key(&p)), |b| {
        b[GAMMA_AT..GAMMA_AT + 8].copy_from_slice(&1.0f64.to_bits().to_le_bytes())
    });
    let lied: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    assert_eq!(run_checked(&lied, &p, "γ re-sealed to 1"), Route::Scatter);
    assert_eq!(lied.plan(&p).unwrap().gamma(), 1.0);
    let s = lied.stats();
    assert_eq!((s.store_hits, s.builds, s.store_rejects), (1, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The threshold still decides over a warm store: ∞ forces scatter and
/// 0 forces the scheduled route on a store hit, and a low-γ plan filed
/// under a 0 threshold is served as scatter at the default one.
#[test]
fn threshold_overrides_still_force_a_route_over_a_warm_store() {
    let n = 1 << 12;
    let dir = temp_store_dir("threshold-warm");
    let p = families::random(n, 42);
    let q = families::identical(n); // γ_w = 1
    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    warm.set_gamma_threshold(0.0);
    assert_eq!(run_checked(&warm, &p, "warm p"), Route::Scheduled);
    assert_eq!(run_checked(&warm, &q, "warm q"), Route::Scheduled);
    assert_eq!(warm.store().unwrap().entries().unwrap().len(), 2);

    let scatter: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    scatter.set_gamma_threshold(f64::INFINITY);
    assert_eq!(run_checked(&scatter, &p, "∞"), Route::Scatter);
    let scheduled: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    scheduled.set_gamma_threshold(0.0);
    assert_eq!(run_checked(&scheduled, &p, "0"), Route::Scheduled);
    assert_eq!(run_checked(&scheduled, &q, "0, low γ"), Route::Scheduled);
    let default: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    assert_eq!(run_checked(&default, &q, "default, low γ"), Route::Scatter);
    for (engine, hits) in [(&scatter, 1), (&scheduled, 2), (&default, 1)] {
        let s = engine.stats();
        assert_eq!((s.store_hits, s.builds, s.plans_structured), (hits, 0, 0));
        assert_eq!(s.store_rejects, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A permutation that routes scatter on a store-backed engine only pays
/// the failed lookup: it is never built, saved or counted as a reject.
#[test]
fn low_gamma_permutations_on_a_store_backed_engine_write_no_file() {
    let n = 1 << 12;
    let dir = temp_store_dir("low-gamma");
    let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let perms = [
        families::identical(n),
        families::rotation(n, 5),
        families::shuffle(n).unwrap(),
    ];
    for (k, p) in perms.iter().enumerate() {
        assert_eq!(
            run_checked(&engine, p, &format!("perm {k}")),
            Route::Scatter
        );
    }
    assert!(engine.store().unwrap().entries().unwrap().is_empty());
    let s = engine.stats();
    assert_eq!((s.store_hits, s.store_rejects), (0, 0));
    assert_eq!((s.builds, s.plans_structured), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file whose re-sealed header records a γ_w no builder writes (not
/// finite, below 1, above the width) is a codec error through `decode`
/// and `PlanStore::load`; the engine counts a reject, rebuilds, and
/// serves the naive reference's output.
#[test]
fn recorded_gamma_outside_one_to_width_is_a_store_reject() {
    let n = 1 << 12;
    let dir = temp_store_dir("bad-gamma");
    let p = families::random(n, 43);
    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    run_checked(&warm, &p, "warm");
    for bad in [f64::NAN, 0.5, W as f64 + 1.0] {
        let bytes = reseal_file(&warm.store().unwrap().path_for(&store_key(&p)), |b| {
            b[GAMMA_AT..GAMMA_AT + 8].copy_from_slice(&bad.to_bits().to_le_bytes())
        });
        assert!(
            matches!(decode(&bytes), Err(PlanError::Codec { .. })),
            "{bad}"
        );
        assert!(
            matches!(
                warm.store().unwrap().load(&store_key(&p)),
                Err(PlanError::Codec { .. })
            ),
            "{bad}"
        );
        let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        assert_eq!(run_checked(&cold, &p, "rebuilt"), Route::Scheduled);
        let s = cold.stats();
        assert_eq!(
            (s.store_rejects, s.store_hits, s.builds),
            (1, 0, 1),
            "{bad}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compact (descriptor-form) file whose re-sealed descriptor repeats a
/// low mask would materialize rows that are not permutations. The rank
/// check refuses it through `decode` and `PlanStore::load`, the engine
/// counts a reject and rebuilds the closed-form plan, and the re-saved
/// file is a clean hit for the next engine.
#[test]
fn compact_file_with_dependent_low_masks_is_a_store_reject() {
    let n = 1 << 12;
    let dir = temp_store_dir("dependent-masks");
    let p = families::bit_reversal(n).unwrap();
    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    run_checked(&warm, &p, "warm");
    let bytes = reseal_file(&warm.store().unwrap().path_for(&store_key(&p)), |b| {
        let first: [u8; 4] = b[FIRST_MASK_AT..FIRST_MASK_AT + 4].try_into().unwrap();
        assert_ne!(b[FIRST_MASK_AT + 4..FIRST_MASK_AT + 8], first);
        b[FIRST_MASK_AT + 4..FIRST_MASK_AT + 8].copy_from_slice(&first);
    });
    assert!(matches!(decode(&bytes), Err(PlanError::Codec { .. })));
    assert!(matches!(
        warm.store().unwrap().load(&store_key(&p)),
        Err(PlanError::Codec { .. })
    ));

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    assert_eq!(run_checked(&cold, &p, "rebuilt"), Route::Scheduled);
    let s = cold.stats();
    assert_eq!((s.store_rejects, s.store_hits), (1, 0));
    assert_eq!((s.plans_structured, s.builds), (1, 0));
    let again: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    run_checked(&again, &p, "re-saved");
    assert_eq!(again.stats().store_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// WorkerPool under dispatch contention from multiple non-pool threads
/// (the integration-level cousin of the pool's unit test): permutation
/// work dispatched concurrently from several OS threads stays correct.
#[test]
fn worker_pool_serves_concurrent_external_dispatchers() {
    const DISPATCHERS: usize = 5;
    const ROUNDS: usize = 10;
    const TASKS: usize = 128;
    let pool = WorkerPool::new(4);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..DISPATCHERS {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    pool.run(TASKS, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), DISPATCHERS * ROUNDS * TASKS);
}

// ---------------------------------------------------------------------------
// Inline jobs
// ---------------------------------------------------------------------------

/// The inline-job stress test: 8 submitter threads run `run_job` on one
/// engine over mixed permutations (scatter and scheduled) at once. Every
/// output is reference-equal, every job reports its plan's route, and
/// the ledger counts each job once.
#[test]
fn inline_stress_eight_submitters_mixed_permutations() {
    const THREADS: usize = 8;
    const JOBS_PER_THREAD: usize = 16;
    let n = 1 << 11;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let perms: Vec<Permutation> = vec![
        families::identical(n),             // scatter
        families::random(n, 41),            // scheduled
        families::bit_reversal(n).unwrap(), // scheduled
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let refs: Vec<Vec<u32>> = perms.iter().map(|p| reference(p, &src)).collect();
    let routes: Vec<Route> = perms
        .iter()
        .map(|p| engine.plan(p).unwrap().route())
        .collect();
    assert_eq!(routes, [Route::Scatter, Route::Scheduled, Route::Scheduled]);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (engine, perms, refs, routes, src, barrier) =
                (&engine, &perms, &refs, &routes, &src, &barrier);
            s.spawn(move || {
                barrier.wait(); // all 8 start at once
                let mut dst = vec![0u32; n];
                for j in 0..JOBS_PER_THREAD {
                    let k = (t + j) % perms.len();
                    let route = engine
                        .run_job(&perms[k], src, &mut dst)
                        .expect("no job may fail");
                    assert_eq!(route, routes[k], "thread {t} perm {k}");
                    assert_eq!(dst, refs[k], "thread {t} perm {k}");
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (THREADS * JOBS_PER_THREAD) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.misses, 3, "one plan per permutation");
}

/// `run_job` is `permute` with a ledger and typed errors: for the same
/// job it writes what `permute` writes and reports the plan's route; a
/// size mismatch and a build error come back as [`JobError::Plan`]
/// (the build error equal to the blocking path's), and a panic as
/// [`JobError::Panicked`] with its message while the engine keeps
/// serving. Every job, failed ones too, counts once in the ledger.
#[test]
fn run_job_matches_permute_and_shares_its_ledger() {
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    for (k, n) in [(0u64, 1usize << 10), (1, 1 << 12)] {
        for p in [
            families::random(n, 70 + k),
            families::bit_reversal(n).unwrap(),
        ] {
            let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37)).collect();
            let mut blocking = vec![0u32; n];
            engine.permute(&p, &src, &mut blocking).unwrap();
            let mut dst = vec![0u32; n];
            let route = engine.run_job(&p, &src, &mut dst).unwrap();
            assert_eq!(dst, blocking);
            assert_eq!(route, engine.plan(&p).unwrap().route());
        }
    }
    let p = families::random(1 << 10, 3);
    let src = vec![0u32; 1 << 10];
    let mismatch = engine.run_job(&p, &src, &mut [0u32; 7]);
    assert_eq!(
        mismatch,
        Err(JobError::Plan(hmm_plan::PlanError::SizeMismatch {
            expected: 1 << 10,
            got: 7
        }))
    );
    let stats = engine.stats();
    assert_eq!(stats.submitted, 5, "{stats:?}");
    assert_eq!(stats.submitted, stats.completed);

    // A build error is the blocking path's error.
    let unschedulable: SharedEngine<u32> = SharedEngine::new(W);
    unschedulable.set_gamma_threshold(0.0);
    let p = families::random(100, 61); // no r·c = 100 with both multiples of W
    let src: Vec<u32> = (0..100).collect();
    let inline = unschedulable.run_job(&p, &src, &mut [0u32; 100]);
    let blocking = unschedulable
        .plan(&p)
        .expect_err("n = 100 is unschedulable");
    assert_eq!(inline, Err(JobError::Plan(blocking)));

    // A panic is caught, keeps its message, and the engine keeps serving.
    let mut panicky: SharedEngine<u32> = SharedEngine::new(W);
    panicky.set_fingerprint_fn(|_| panic!("injected fingerprint panic"));
    let p = families::random(1 << 10, 52);
    let src: Vec<u32> = (0..1 << 10).collect();
    for round in 0..2 {
        match panicky.run_job(&p, &src, &mut vec![0u32; 1 << 10]) {
            Err(JobError::Panicked(msg)) => {
                assert!(msg.contains("injected fingerprint panic"), "{msg}")
            }
            other => panic!("round {round}: expected Panicked, got {other:?}"),
        }
    }
    let stats = panicky.stats();
    assert_eq!((stats.submitted, stats.completed), (2, 2), "{stats:?}");
}

/// Permute `src` through `engine` and demand the reference output.
fn permute_checked<T>(engine: &SharedEngine<T>, p: &Permutation, src: &[T], ctx: &str)
where
    T: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static,
{
    let mut dst = vec![T::default(); src.len()];
    engine.permute(p, src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(p, src),
        "{ctx}: collision leaked a wrong plan"
    );
}

/// Forced fingerprint collisions on one core shared by three element
/// types: every permutation maps to one cache key, so a plan cached
/// through one handle is the collision candidate for every other handle.
/// Verification must catch each mismatch whatever the element type, and
/// every output must equal the reference `b[P[i]] = a[i]`.
#[test]
fn forced_collisions_on_one_core_stay_correct_at_every_element_type() {
    let n = 1 << 10;
    let mut engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
    engine.set_fingerprint_fn(|_| 0);
    let wide = engine.view::<u64>();
    let bytes = engine.view::<[u8; 16]>();
    let p1 = families::random(n, 17);
    let p2 = families::random(n, 18);
    let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let src64: Vec<u64> = (0..n as u64)
        .map(|v| v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let src16: Vec<[u8; 16]> = (0..n)
        .map(|i| std::array::from_fn(|b| (i * 31 + b * 7) as u8))
        .collect();

    // One permutation through all three handles, then the other: the
    // first request of each is a miss, the rest verified hits, and the
    // switch to p2 collides once.
    for p in [&p1, &p2] {
        permute_checked(&engine, p, &src32, "u32");
        permute_checked(&wide, p, &src64, "u64");
        permute_checked(&bytes, p, &src16, "[u8; 16]");
    }
    let s = engine.stats();
    assert_eq!((s.misses, s.hits, s.collisions), (2, 4, 1), "{s:?}");

    // Alternate permutations across handles: every request now finds the
    // other permutation's plan under the shared key.
    for (k, p) in [&p1, &p2, &p1, &p2, &p1, &p2].into_iter().enumerate() {
        match k % 3 {
            0 => permute_checked(&engine, p, &src32, "u32"),
            1 => permute_checked(&wide, p, &src64, "u64"),
            _ => permute_checked(&bytes, p, &src16, "[u8; 16]"),
        }
    }
    let s = engine.stats();
    assert_eq!(s.collisions, 7, "each alternation is a detected collision");
    assert_eq!(s.misses, 8);
    assert_eq!(wide.stats(), s, "one core, one set of counters");
    assert_eq!(engine.cached_plans(), 1);
}

/// A plan cached through the u32 handle is a verified hit through a u64
/// view — the very same plan object — and is built once.
#[test]
fn plan_cached_at_u32_is_a_verified_hit_at_u64() {
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let wide = engine.view::<u64>();
    let p = families::random(n, 19);
    let narrow_plan = engine.plan(&p).unwrap();
    let wide_plan = wide.plan(&p).unwrap();
    assert_eq!(
        Arc::as_ptr(&narrow_plan).cast::<()>(),
        Arc::as_ptr(&wide_plan).cast::<()>(),
        "both handles must serve the one cached plan"
    );
    let src: Vec<u64> = (0..n as u64).map(|v| v << 33 | v).collect();
    let mut dst = vec![0u64; n];
    wide.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p, &src));
    let s = engine.stats();
    assert_eq!(s.misses, 1, "one build serves both widths: {s:?}");
    assert_eq!(s.hits, 2);
    assert_eq!(s.collisions, 0);
}

/// A copy of `p` with storage of its own (a clone would share `p`'s).
fn deep_copy(p: &Permutation) -> Permutation {
    Permutation::from_vec(p.as_slice().to_vec()).unwrap()
}

/// A warm plan re-requested with the planning object itself, a clone
/// (shared storage: pointer-verified) and a deep copy (own storage: full
/// compare) is a hit every time, on every route, with reference output.
#[test]
fn warm_plan_hits_with_the_same_object_a_clone_and_a_deep_copy() {
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let src: Vec<u32> = (0..n as u32).map(|v| v.rotate_left(7)).collect();
    let perms = [
        families::random(n, 61),            // König build
        families::bit_reversal(n).unwrap(), // structured build
        families::identical(n),             // scatter
    ];
    for (k, p) in perms.iter().enumerate() {
        permute_checked(&engine, p, &src, "miss");
        permute_checked(&engine, p, &src, "same object");
        permute_checked(&engine, &p.clone(), &src, "clone");
        permute_checked(&engine, &deep_copy(p), &src, "deep copy");
        let s = engine.stats();
        assert_eq!(
            (s.misses, s.hits),
            (k as u64 + 1, 3 * (k as u64 + 1)),
            "{s:?}"
        );
    }
    assert_eq!(engine.stats().collisions, 0);
}

/// Whichever arm produced it — a König build, a structured build, the
/// scatter route or a plan-store load — the cached plan holds the
/// planning caller's own storage rather than a map recomposed from the
/// IR, and keeps it when a later caller hits with a deep copy.
#[test]
fn cached_plans_hold_the_planning_callers_storage() {
    let n = 1 << 12;
    let dir = temp_store_dir("caller-storage");
    let random = families::random(n, 62);
    let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    for (p, route) in [
        (&random, Route::Scheduled),
        (&families::bit_reversal(n).unwrap(), Route::Scheduled),
        (&families::identical(n), Route::Scatter),
    ] {
        let plan = engine.plan(p).unwrap();
        assert_eq!(plan.route(), route);
        assert_eq!(
            plan.permutation().as_slice().as_ptr(),
            p.as_slice().as_ptr()
        );
        let again = engine.plan(&deep_copy(p)).unwrap();
        assert_eq!(
            again.permutation().as_slice().as_ptr(),
            p.as_slice().as_ptr()
        );
    }
    let s = engine.stats();
    assert_eq!((s.builds, s.plans_structured), (1, 1), "{s:?}");

    // A cold engine loads the random plan from the store.
    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let caller = deep_copy(&random);
    let plan = cold.plan(&caller).unwrap();
    assert_eq!(cold.stats().store_hits, 1);
    assert_eq!(
        plan.permutation().as_slice().as_ptr(),
        caller.as_slice().as_ptr()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With every permutation forced onto one key and every request carrying
/// a fresh deep copy, no hit check can take the pointer shortcut: equal
/// maps still hit through the full compare, distinct ones still collide,
/// and each request gets its own output.
#[test]
fn forced_collisions_between_deep_copies_use_the_full_compare() {
    let n = 1 << 10;
    let mut engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
    engine.set_fingerprint_fn(|_| 0);
    let perms = [families::random(n, 63), families::random(n, 64)];
    let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0x00ff_00ff).collect();
    for k in [0, 0, 1, 1, 0, 1] {
        permute_checked(&engine, &deep_copy(&perms[k]), &src, "deep copy");
    }
    let s = engine.stats();
    // 0 miss, 0 hit, 1 collision, 1 hit, 0 collision, 1 collision.
    assert_eq!((s.misses, s.hits, s.collisions), (4, 2, 3), "{s:?}");
}

/// The memoized fingerprint does not bypass the `set_fingerprint_fn`
/// seam: the engine calls it once per request — blocking or `run_job`,
/// miss or hit, same object or copy.
#[test]
fn fingerprint_seam_runs_once_per_request() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = 1 << 10;
    let mut engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_fingerprint_fn(|p| {
        CALLS.fetch_add(1, Ordering::Relaxed);
        p.len() as u64
    });
    let p = families::random(n, 65);
    let src: Vec<u32> = (0..n as u32).collect();
    permute_checked(&engine, &p, &src, "miss");
    permute_checked(&engine, &p, &src, "same object");
    permute_checked(&engine, &p.clone(), &src, "clone");
    permute_checked(&engine, &deep_copy(&p), &src, "deep copy");
    assert_eq!(CALLS.load(Ordering::Relaxed), 4);
    let mut dst = vec![0u32; n];
    engine.run_job(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p, &src));
    assert_eq!(CALLS.load(Ordering::Relaxed), 5);
    let s = engine.stats();
    assert_eq!((s.misses, s.hits), (1, 4));
}
