//! Wall-clock experiments on the CPU backend: the Table II comparison with
//! real time instead of model time (see DESIGN.md §2 — this is the
//! substitution for the paper's GPU measurements).
//!
//! Four experiment groups:
//! * **kernels** — scatter / gather / fused 3-sweep scheduled / copy, per
//!   family and size;
//! * **plan cache** — steady-state `SharedEngine::permute` (plan cached,
//!   pooled scratch) versus rebuilding the plan on every call;
//! * **plan store** — cold König build-and-save versus a cold engine
//!   loading the same plan from a warm on-disk store (the cross-process
//!   path: decode + verify instead of coloring);
//! * **contended** — one `SharedEngine` hammered by T threads over a mix
//!   of permutation families (the concurrent plan-service workload:
//!   warm cache, per-thread outputs, aggregate throughput);
//! * **queued** — T submitters pushing the same job mix through the
//!   bounded submission queue (one `submit_batch` per submitter, every
//!   job in flight at once, handles waited at the end) against the
//!   blocking `permute_batch` convoy (sequential chunks, the submitter
//!   parked until each chunk fully lands).
//!
//! [`to_json`] serialises a full report as `BENCH_native.json` (flat rows
//! of `{family, n, backend, seconds, elements_per_sec}` — the format
//! documented in EXPERIMENTS.md), written by `repro native --json`.

use crate::tables::{size_label, TextTable};
use hmm_native::par::worker_threads;
use hmm_native::{
    copy_baseline, gather_permute, scatter_permute, Backend, ExecPlan, KernelConfig,
    NativeScheduled, SharedEngine,
};
use hmm_offperm::Result;
use hmm_perm::families::{self, Family};
use hmm_perm::Permutation;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schedule width used throughout (matches the GPU warp).
const W: usize = 32;

/// Median wall-clock of `reps` runs of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// One row of the native kernel comparison.
#[derive(Debug, Clone)]
pub struct NativeRow {
    /// Permutation family.
    pub family: &'static str,
    /// Array size.
    pub n: usize,
    /// Parallel scatter (`dst[p[i]] = src[i]`).
    pub scatter: Duration,
    /// Parallel gather (`dst[i] = src[q[i]]`).
    pub gather: Duration,
    /// Fused three-sweep scheduled permutation (scratch reused).
    pub scheduled: Duration,
    /// Plain parallel copy (bandwidth ceiling).
    pub copy: Duration,
}

/// One row of the per-sweep kernel comparison: the three fused sweeps of
/// the scheduled path timed individually (`NativeScheduled::
/// run_sweeps_timed`), once with the vectorized pipeline and once with the scalar reference config, over the same plan.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Array size (family: random — the scheduled backend's workload).
    pub n: usize,
    /// `[gather-transpose 1, gather-transpose 2, row pass]` with the
    /// default (SIMD) config.
    pub simd_on: [Duration; 3],
    /// The same sweeps with `KernelConfig::scalar()`.
    pub simd_off: [Duration; 3],
}

impl SweepRow {
    /// Total fused-path time with the vectorized pipeline.
    pub fn total_on(&self) -> Duration {
        self.simd_on.iter().sum()
    }

    /// Total fused-path time with the scalar reference config.
    pub fn total_off(&self) -> Duration {
        self.simd_off.iter().sum()
    }
}

/// Elementwise median of repeated `[Duration; 3]` sweep measurements.
fn median_sweeps(reps: usize, mut f: impl FnMut() -> [Duration; 3]) -> [Duration; 3] {
    let samples: Vec<[Duration; 3]> = (0..reps.max(1)).map(|_| f()).collect();
    std::array::from_fn(|k| {
        let mut col: Vec<Duration> = samples.iter().map(|s| s[k]).collect();
        col.sort();
        col[col.len() / 2]
    })
}

/// Time each of the three sweeps with the SIMD pipeline on and off, per
/// size, over one shared plan (random family) — the before/after data
/// behind EXPERIMENTS.md's per-sweep table.
pub fn sweeps(sizes: &[usize], reps: usize) -> Result<Vec<SweepRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let p = hmm_perm::families::random(n, 5);
        let ir = hmm_plan::PlanIr::build_par(&p, W, worker_threads())?;
        let on = NativeScheduled::from_plan_with(&ir, KernelConfig::default())?;
        let off = NativeScheduled::from_plan_with(&ir, KernelConfig::scalar())?;
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; n];
        let simd_on = median_sweeps(reps, || on.run_sweeps_timed(&src, &mut dst, &mut scratch));
        let simd_off = median_sweeps(reps, || off.run_sweeps_timed(&src, &mut dst, &mut scratch));
        rows.push(SweepRow {
            n,
            simd_on,
            simd_off,
        });
    }
    Ok(rows)
}

/// One row of the plan-cache comparison.
#[derive(Debug, Clone)]
pub struct PlanCacheRow {
    /// Array size (family: random, the cache's target workload).
    pub n: usize,
    /// One plan build (König coloring + gather maps).
    pub build: Duration,
    /// Steady-state `SharedEngine::permute` (cache hit, pooled scratch).
    pub cached: Duration,
    /// Rebuild-per-call: plan build + one run, no cache.
    pub rebuild: Duration,
}

/// One row of the plan-compiler scaling measurement: the sequential König
/// build against the parallel compiler at a fixed thread budget, over the
/// same random permutation.
#[derive(Debug, Clone)]
pub struct PlanBuildRow {
    /// Array size (family: random).
    pub n: usize,
    /// Thread budget of the parallel build.
    pub threads: usize,
    /// Sequential `PlanIr::build`.
    pub seq: Duration,
    /// Parallel `PlanIr::build_par` at `threads`.
    pub par: Duration,
}

/// Measure the plan compiler: sequential build against the parallel
/// builder at `threads`, per size. Before timing, the two builds are
/// checked **byte-identical through the codec** at every size — the
/// determinism contract the plan cache and store rely on — so a scaling
/// number can never be quoted for a compiler that diverged.
pub fn plan_build_scaling(
    sizes: &[usize],
    reps: usize,
    threads: usize,
) -> Result<Vec<PlanBuildRow>> {
    use hmm_plan::PlanIr;
    let threads = threads.max(1);
    let mut rows = Vec::new();
    for &n in sizes {
        let p = hmm_perm::families::random(n, 5);
        let seq_ir = PlanIr::build(&p, W)?;
        let par_ir = PlanIr::build_par(&p, W, threads)?;
        assert_eq!(
            hmm_plan::encode(&par_ir),
            hmm_plan::encode(&seq_ir),
            "parallel plan diverged from sequential at n={n}, {threads} threads"
        );
        drop((seq_ir, par_ir));
        let seq = median_time(reps.min(3), || {
            let ir = PlanIr::build(&p, W).unwrap();
            std::hint::black_box(&ir);
        });
        let par = median_time(reps.min(3), || {
            let ir = PlanIr::build_par(&p, W, threads).unwrap();
            std::hint::black_box(&ir);
        });
        rows.push(PlanBuildRow {
            n,
            threads,
            seq,
            par,
        });
    }
    Ok(rows)
}

/// One row of the structured-planner comparison: the closed-form BMMC
/// emitter against the general König coloring, over the same affine
/// permutation.
#[derive(Debug, Clone)]
pub struct StructuredRow {
    /// Permutation family (affine: the recognizer must catch it).
    pub family: &'static str,
    /// Array size.
    pub n: usize,
    /// `PlanIr::build` — detection plus the closed-form emitter.
    pub structured: Duration,
    /// `PlanIr::build_for_shape` with the Hybrid strategy — the general
    /// multigraph coloring, forced.
    pub koenig: Duration,
}

/// Measure the structured fast path: closed-form plan emission against
/// the forced König coloring, per affine family and size. Both plans are
/// checked to realise the same permutation before any time is reported.
pub fn structured_plan_build(sizes: &[usize], reps: usize) -> Result<Vec<StructuredRow>> {
    use hmm_plan::PlanIr;
    let mut rows = Vec::new();
    for &n in sizes {
        let cases: [(&'static str, Permutation); 3] = [
            ("shuffle", families::shuffle(n)?),
            ("transpose", families::transpose_square(n)?),
            ("bit-reversal", families::bit_reversal(n)?),
        ];
        for (family, p) in cases {
            let shape = hmm_perm::scheduled_shape(n, W)?;
            let fast = PlanIr::build(&p, W)?;
            let slow = PlanIr::build_for_shape(&p, shape, W, hmm_graph::Strategy::Hybrid)?;
            assert!(fast.matches(&p) && slow.matches(&p), "{family} n={n}");
            drop((fast, slow));
            let structured = median_time(reps.min(3), || {
                let ir = PlanIr::build(&p, W).unwrap();
                std::hint::black_box(&ir);
            });
            let koenig = median_time(reps.min(3), || {
                let ir =
                    PlanIr::build_for_shape(&p, shape, W, hmm_graph::Strategy::Hybrid).unwrap();
                std::hint::black_box(&ir);
            });
            rows.push(StructuredRow {
                family,
                n,
                structured,
                koenig,
            });
        }
    }
    Ok(rows)
}

/// One row of the fusion comparison: a bit-reversal → transpose pipeline
/// executed as one fused plan (three sweeps, one memory round trip)
/// versus the unfused two-plan chain (six sweeps, an intermediate
/// buffer).
#[derive(Debug, Clone)]
pub struct FusedRow {
    /// Array size.
    pub n: usize,
    /// Scheduled sweeps the fused plan executes (always 3).
    pub fused_sweeps: usize,
    /// Scheduled sweeps the unfused chain executes (3 per link).
    pub chained_sweeps: usize,
    /// One `permute_fused` of the 2-chain, plan warm.
    pub fused: Duration,
    /// The two `permute` calls plus the intermediate buffer, plans warm.
    pub chained: Duration,
}

/// Measure plan fusion on the bit-reversal → transpose 2-chain (the
/// six-step FFT's reorder). Sweep counts are taken from the engine's
/// `scheduled_runs` counter — 1 plan × 3 sweeps fused vs 2 × 3 chained —
/// and outputs are checked equal before any time is reported.
pub fn fused_chain(sizes: &[usize], reps: usize) -> Result<Vec<FusedRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let p1 = families::bit_reversal(n)?;
        let p2 = families::transpose_square(n)?;
        let chain = [&p1, &p2];
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        engine.set_gamma_threshold(0.0); // force the scheduled backend
        let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
        let mut fused_out = vec![0u32; n];
        let mut mid = vec![0u32; n];
        let mut chained_out = vec![0u32; n];
        // Warm both plans and verify the fusion before timing.
        let runs0 = engine.stats().scheduled_runs;
        engine.permute_fused(&chain, &src, &mut fused_out)?;
        let fused_runs = engine.stats().scheduled_runs - runs0;
        engine.permute(&p1, &src, &mut mid)?;
        engine.permute(&p2, &mid, &mut chained_out)?;
        let chained_runs = engine.stats().scheduled_runs - runs0 - fused_runs;
        assert_eq!(fused_out, chained_out, "fusion diverged at n={n}");
        let fused = median_time(reps.min(5), || {
            engine.permute_fused(&chain, &src, &mut fused_out).unwrap();
        });
        let chained = median_time(reps.min(5), || {
            engine.permute(&p1, &src, &mut mid).unwrap();
            engine.permute(&p2, &mid, &mut chained_out).unwrap();
        });
        rows.push(FusedRow {
            n,
            fused_sweeps: fused_runs as usize * 3,
            chained_sweeps: chained_runs as usize * 3,
            fused,
            chained,
        });
    }
    Ok(rows)
}

/// One row of the computed-index kernel comparison: the same structured
/// plan executed with the affine fold evaluated in registers (map-free
/// gathers) against the materialized gather-map loads, over the fused
/// three-sweep pipeline.
#[derive(Debug, Clone)]
pub struct ComputedRow {
    /// Permutation family (affine — only structured plans carry the
    /// descriptors the computed kernels need).
    pub family: &'static str,
    /// Array size.
    pub n: usize,
    /// Fused three-sweep run with computed-index kernels (the default).
    pub computed: Duration,
    /// The same plan with `computed_index` off: gather indices loaded
    /// from the materialized maps.
    pub map_load: Duration,
}

impl ComputedRow {
    /// Map-load time over computed time (> 1 means computed wins).
    pub fn speedup(&self) -> f64 {
        self.map_load.as_secs_f64() / self.computed.as_secs_f64().max(1e-12)
    }
}

/// Measure the computed-index kernels against the map-load kernels over
/// the same structured plans: per affine family and size, one
/// `NativeScheduled` prepared with the default config (descriptors
/// carried, fold in registers, maps never read) and one with
/// `computed_index` off. Outputs are asserted byte-identical to the
/// `Permutation::permute` reference — and to each other — before any
/// time is reported, and both executions are checked to actually take
/// the kernel form their row claims.
pub fn computed_index(sizes: &[usize], reps: usize) -> Result<Vec<ComputedRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let cases: [(&'static str, Permutation); 3] = [
            ("shuffle", families::shuffle(n)?),
            ("transpose", families::transpose_square(n)?),
            ("bit-reversal", families::bit_reversal(n)?),
        ];
        for (family, p) in cases {
            let ir = hmm_plan::PlanIr::build(&p, W)?;
            assert!(
                ir.affine().is_some(),
                "{family} n={n}: structured plan must carry affine descriptors"
            );
            let on = NativeScheduled::from_plan_with(&ir, KernelConfig::default())?;
            let off = NativeScheduled::from_plan_with(
                &ir,
                KernelConfig {
                    computed_index: false,
                    ..KernelConfig::default()
                },
            )?;
            assert!(on.computed_index() && !off.computed_index());
            let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
            let mut want = vec![0u32; n];
            p.permute(&src, &mut want).expect("reference permute");
            let mut dst = vec![0u32; n];
            let mut scratch = vec![0u32; n];
            on.run_with_scratch(&src, &mut dst, &mut scratch);
            assert_eq!(dst, want, "{family} n={n}: computed diverged");
            off.run_with_scratch(&src, &mut dst, &mut scratch);
            assert_eq!(dst, want, "{family} n={n}: map-load diverged");
            let computed = median_time(reps, || on.run_with_scratch(&src, &mut dst, &mut scratch));
            let map_load = median_time(reps, || off.run_with_scratch(&src, &mut dst, &mut scratch));
            rows.push(ComputedRow {
                family,
                n,
                computed,
                map_load,
            });
        }
    }
    Ok(rows)
}

/// One row of the plan-store comparison: the same scheduled plan produced
/// by a cold König build (and persisted) versus materialised by a *cold
/// engine* from a warm on-disk store — the cross-process reuse the store
/// exists for.
#[derive(Debug, Clone)]
pub struct PlanStoreRow {
    /// Array size (family: random).
    pub n: usize,
    /// Cold store: König coloring + gather maps + encode + atomic write.
    pub build_and_save: Duration,
    /// Warm store, fresh engine: read + checksum + decode + full-image
    /// verification + gather-map derivation. No coloring.
    pub cold_load: Duration,
}

/// Measure the plan store: build-and-save against a cold-engine load at
/// each size. Every load is asserted to be a verified store hit (zero
/// König builds) before its time is reported.
pub fn plan_store(sizes: &[usize], reps: usize) -> Result<Vec<PlanStoreRow>> {
    let dir = std::env::temp_dir().join(format!("hmm-bench-plan-store-{}", std::process::id()));
    let mut rows = Vec::new();
    for &n in sizes {
        let p = hmm_perm::families::random(n, 5);
        let build_and_save = median_time(reps.min(3), || {
            let _ = std::fs::remove_dir_all(&dir);
            let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
            let plan = engine.plan(&p).unwrap();
            std::hint::black_box(&plan);
            assert_eq!(engine.stats().builds, 1, "cold store must build");
        });
        let cold_load = median_time(reps.min(3), || {
            let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
            let plan = engine.plan(&p).unwrap();
            std::hint::black_box(&plan);
            let stats = engine.stats();
            assert_eq!(stats.builds, 0, "warm store must not re-color");
            assert_eq!(stats.store_hits, 1, "warm store must hit");
        });
        rows.push(PlanStoreRow {
            n,
            build_and_save,
            cold_load,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rows)
}

/// One row of the contended `SharedEngine` throughput measurement.
#[derive(Debug, Clone)]
pub struct ContendedRow {
    /// Concurrent caller threads sharing the engine.
    pub threads: usize,
    /// Array size.
    pub n: usize,
    /// Total permutes completed across all threads.
    pub total_runs: usize,
    /// Wall-clock for the whole contended phase (cache pre-warmed).
    pub seconds: Duration,
}

impl ContendedRow {
    /// Aggregate elements permuted per second across all threads.
    pub fn elements_per_sec(&self) -> f64 {
        let secs = self.seconds.as_secs_f64();
        if secs > 0.0 {
            (self.total_runs * self.n) as f64 / secs
        } else {
            0.0
        }
    }
}

/// One row of the queued-vs-blocking submission comparison: the same
/// `threads × jobs` workload pushed through `SharedEngine::submit_batch`
/// (every job in flight at once, waited via the returned handles) and
/// through blocking `SharedEngine::permute_batch` calls (sequential
/// convoys per submitter thread).
#[derive(Debug, Clone)]
pub struct QueuedRow {
    /// Concurrent submitter threads sharing the engine.
    pub threads: usize,
    /// Array size per job.
    pub n: usize,
    /// Total jobs across all submitters.
    pub total_jobs: usize,
    /// Wall-clock with queued submission (`submit` + wait-all).
    pub queued: Duration,
    /// Wall-clock with blocking `permute_batch` per submitter.
    pub blocking: Duration,
}

impl QueuedRow {
    /// Aggregate elements permuted per second for one mode's wall-clock.
    fn eps(&self, d: Duration) -> f64 {
        let secs = d.as_secs_f64();
        if secs > 0.0 {
            (self.total_jobs * self.n) as f64 / secs
        } else {
            0.0
        }
    }

    /// Aggregate throughput of the queued-submission mode.
    pub fn queued_elements_per_sec(&self) -> f64 {
        self.eps(self.queued)
    }

    /// Aggregate throughput of the blocking-batch mode.
    pub fn blocking_elements_per_sec(&self) -> f64 {
        self.eps(self.blocking)
    }
}

/// Jobs per chunk in the queued-vs-blocking measurement: each submitter
/// thread issues its jobs as a sequence of chunks this big, the shape
/// under which the two modes genuinely differ (see [`queued`]): every
/// chunk boundary is a full convoy drain for the blocking mode and a
/// seamless hand-off for the queued mode.
const QUEUED_CHUNK: usize = 2;

/// Measure queued submission against the blocking batch convoy: one
/// engine, plans pre-warmed, `threads` submitters each pushing
/// `jobs_per_thread` jobs of a mixed-family working set. The blocking
/// mode is restricted by its API to sequential convoys: one
/// `permute_batch` of [`QUEUED_CHUNK`] jobs at a time, the submitter
/// parked until the whole chunk lands before it may issue the next, a
/// fresh permutation hand-off per call. The queued mode exploits the
/// asynchronous API: each submitter fires its entire workload in a
/// single `submit_batch` (one permutation hand-off, every job in
/// flight at once, interleaving with all other submitters on the
/// shared queue) and waits the handles at the end.
pub fn queued(
    sizes: &[usize],
    threads: usize,
    jobs_per_thread: usize,
    reps: usize,
) -> Result<Vec<QueuedRow>> {
    let threads = threads.max(1);
    let chunks = jobs_per_thread.div_ceil(QUEUED_CHUNK).max(1);
    let chunk = jobs_per_thread.clamp(1, QUEUED_CHUNK);
    let mut rows = Vec::new();
    for &n in sizes {
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        let perms = contended_mix(n)?;
        for p in &perms {
            engine.plan(p)?; // warm: measure serving, not building
        }
        let src: Vec<u32> = (0..n as u32).collect();
        let shared: Arc<[u32]> = src.clone().into();
        let run_blocking = || {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let engine = &engine;
                    let p = &perms[t % perms.len()];
                    let src = &src;
                    s.spawn(move || {
                        for _ in 0..chunks {
                            let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; chunk];
                            engine
                                .permute_batch(
                                    p,
                                    std::iter::repeat_n(src.as_slice(), chunk)
                                        .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
                                )
                                .expect("blocking batch");
                        }
                    });
                }
            });
        };
        let run_queued = || {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let engine = &engine;
                    let p = &perms[t % perms.len()];
                    let shared = &shared;
                    s.spawn(move || {
                        let b = engine.submit_batch(
                            p,
                            (0..chunks * chunk).map(|_| (Arc::clone(shared), vec![0u32; n])),
                        );
                        for outcome in b.wait() {
                            outcome.expect("queued job");
                        }
                    });
                }
            });
        };
        // Interleave the reps with alternating order so slow clock drift
        // (thermal or hypervisor throttling over a long repro run) cannot
        // systematically punish whichever mode is measured second.
        let time_once = |f: &dyn Fn()| {
            let t = Instant::now();
            f();
            t.elapsed()
        };
        let r = reps.clamp(1, 3);
        let mut bt = Vec::with_capacity(r);
        let mut qt = Vec::with_capacity(r);
        for i in 0..r {
            if i % 2 == 0 {
                bt.push(time_once(&run_blocking));
                qt.push(time_once(&run_queued));
            } else {
                qt.push(time_once(&run_queued));
                bt.push(time_once(&run_blocking));
            }
        }
        bt.sort();
        qt.sort();
        rows.push(QueuedRow {
            threads,
            n,
            total_jobs: threads * chunks * chunk,
            queued: qt[r / 2],
            blocking: bt[r / 2],
        });
    }
    Ok(rows)
}

/// Everything `repro native` measures, plus the environment it ran in.
#[derive(Debug, Clone)]
pub struct NativeReport {
    /// Worker-pool size the measurements used.
    pub threads: usize,
    /// Repetitions behind each median.
    pub reps: usize,
    /// Kernel comparison rows.
    pub rows: Vec<NativeRow>,
    /// Per-sweep SIMD on/off rows.
    pub sweep_rows: Vec<SweepRow>,
    /// Plan-cache comparison rows.
    pub plan_rows: Vec<PlanCacheRow>,
    /// Plan-store comparison rows (cold build+save vs cold-engine load).
    pub store_rows: Vec<PlanStoreRow>,
    /// Plan-compiler scaling rows (sequential vs `plan_threads`).
    pub plan_build_rows: Vec<PlanBuildRow>,
    /// Contended `SharedEngine` rows (1 thread and T threads, for the
    /// scaling comparison).
    pub contended_rows: Vec<ContendedRow>,
    /// Queued-vs-blocking submission rows.
    pub queued_rows: Vec<QueuedRow>,
}

/// Measure all kernels for every family at the given sizes.
pub fn run(sizes: &[usize], reps: usize) -> Result<Vec<NativeRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; n];
        for fam in Family::ALL {
            let p = fam.build(n, 5)?;
            let q = p.inverse();
            let sched = NativeScheduled::build(&p, W)?;
            let scatter = median_time(reps, || scatter_permute(&src, &p, &mut dst));
            let gather = median_time(reps, || gather_permute(&src, &q, &mut dst));
            let scheduled = median_time(reps, || {
                sched.run_with_scratch(&src, &mut dst, &mut scratch)
            });
            let copy = median_time(reps, || copy_baseline(&src, &mut dst));
            rows.push(NativeRow {
                family: fam.name(),
                n,
                scatter,
                gather,
                scheduled,
                copy,
            });
        }
    }
    Ok(rows)
}

/// Measure the plan cache at the given sizes (random permutations — the
/// high-γ workload the scheduled backend exists for).
pub fn plan_cache(sizes: &[usize], reps: usize) -> Result<Vec<PlanCacheRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let p = hmm_perm::families::random(n, 5);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let build = median_time(reps.min(3), || {
            let plan = NativeScheduled::build(&p, W).unwrap();
            std::hint::black_box(&plan);
        });
        let engine: SharedEngine<u32> =
            SharedEngine::with_shards(W, 1, hmm_native::plan::DEFAULT_CAPACITY);
        engine.permute(&p, &src, &mut dst)?; // warm the cache
        let cached = median_time(reps, || engine.permute(&p, &src, &mut dst).unwrap());
        let rebuild = median_time(reps.min(3), || {
            let plan = NativeScheduled::build(&p, W).unwrap();
            plan.run(&src, &mut dst);
        });
        rows.push(PlanCacheRow {
            n,
            build,
            cached,
            rebuild,
        });
    }
    Ok(rows)
}

/// The permutation mix the contended benchmark cycles through: two
/// low-γ (scatter-backed) and two high-γ (scheduled-backed) families,
/// so the measurement exercises both backends and several cache keys.
fn contended_mix(n: usize) -> Result<Vec<Permutation>> {
    Ok(vec![
        families::identical(n),
        families::shuffle(n)?,
        families::random(n, 5),
        families::bit_reversal(n)?,
    ])
}

/// Hammer one [`SharedEngine`] from `threads` concurrent callers over a
/// mixed-family working set: plans are pre-warmed (steady-state cache),
/// then every thread runs `runs_per_thread` permutes, cycling through the
/// mix from a per-thread offset. Returns one row per size.
pub fn contended(
    sizes: &[usize],
    threads: usize,
    runs_per_thread: usize,
) -> Result<Vec<ContendedRow>> {
    let threads = threads.max(1);
    let mut rows = Vec::new();
    for &n in sizes {
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        let perms = contended_mix(n)?;
        for p in &perms {
            engine.plan(p)?; // warm: measure serving, not building
        }
        let src: Vec<u32> = (0..n as u32).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let engine = &engine;
                let perms = &perms;
                let src = &src;
                s.spawn(move || {
                    let mut dst = vec![0u32; n];
                    for r in 0..runs_per_thread {
                        let p = &perms[(t + r) % perms.len()];
                        engine.permute(p, src, &mut dst).expect("contended permute");
                    }
                });
            }
        });
        rows.push(ContendedRow {
            threads,
            n,
            total_runs: threads * runs_per_thread,
            seconds: start.elapsed(),
        });
    }
    Ok(rows)
}

/// Largest size the contended phase runs at — the working set is capped so
/// the contended rows stay cheap next to the kernel sweeps.
const CONTENDED_MAX_N: usize = 1 << 20;

/// Run all experiment groups and package them with the environment.
/// Contended rows are measured at 1 thread and at `contended_threads`
/// (sizes capped at 1M elements), so the JSON records a scaling pair.
/// Queued rows are measured at `queued_threads` submitters over the same
/// capped sizes (`0` skips the queued group). Plan-compiler rows pair the
/// sequential builder with `plan_threads` threads at every size (`0`
/// skips the group).
pub fn report(
    sizes: &[usize],
    reps: usize,
    contended_threads: usize,
    queued_threads: usize,
    plan_threads: usize,
) -> Result<NativeReport> {
    let csizes: Vec<usize> = {
        let kept: Vec<usize> = sizes
            .iter()
            .copied()
            .filter(|&n| n <= CONTENDED_MAX_N)
            .collect();
        if kept.is_empty() {
            sizes.iter().copied().min().into_iter().collect()
        } else {
            kept
        }
    };
    let runs_per_thread = 16;
    let mut contended_rows = contended(&csizes, 1, runs_per_thread)?;
    if contended_threads > 1 {
        contended_rows.extend(contended(&csizes, contended_threads, runs_per_thread)?);
    }
    let queued_rows = if queued_threads > 0 {
        queued(&csizes, queued_threads, runs_per_thread, reps)?
    } else {
        Vec::new()
    };
    let plan_build_rows = if plan_threads > 0 {
        plan_build_scaling(sizes, reps, plan_threads)?
    } else {
        Vec::new()
    };
    Ok(NativeReport {
        threads: worker_threads(),
        reps,
        rows: run(sizes, reps)?,
        sweep_rows: sweeps(sizes, reps)?,
        plan_rows: plan_cache(sizes, reps)?,
        store_rows: plan_store(sizes, reps)?,
        plan_build_rows,
        contended_rows,
        queued_rows,
    })
}

/// Render the native kernel comparison table.
pub fn render(rows: &[NativeRow]) -> String {
    let mut t = TextTable::new(vec![
        "n",
        "permutation",
        "scatter",
        "gather",
        "sched(fused)",
        "copy",
    ]);
    for r in rows {
        t.row(vec![
            size_label(r.n),
            r.family.to_string(),
            format!("{:.2?}", r.scatter),
            format!("{:.2?}", r.gather),
            format!("{:.2?}", r.scheduled),
            format!("{:.2?}", r.copy),
        ]);
    }
    t.render()
}

/// Render the per-sweep SIMD on/off comparison table.
pub fn render_sweeps(rows: &[SweepRow]) -> String {
    let mut t = TextTable::new(vec!["n", "sweep", "simd+pipeline", "scalar", "speedup"]);
    for r in rows {
        for (k, sweep) in ["gather-transpose-1", "gather-transpose-2", "row-pass"]
            .iter()
            .enumerate()
        {
            let speedup = r.simd_off[k].as_secs_f64() / r.simd_on[k].as_secs_f64().max(1e-12);
            t.row(vec![
                size_label(r.n),
                sweep.to_string(),
                format!("{:.2?}", r.simd_on[k]),
                format!("{:.2?}", r.simd_off[k]),
                format!("{speedup:.2}x"),
            ]);
        }
        let speedup = r.total_off().as_secs_f64() / r.total_on().as_secs_f64().max(1e-12);
        t.row(vec![
            size_label(r.n),
            "total".to_string(),
            format!("{:.2?}", r.total_on()),
            format!("{:.2?}", r.total_off()),
            format!("{speedup:.2}x"),
        ]);
    }
    t.render()
}

/// One row of the backend comparison: one registered backend executing
/// the same scheduled plan (random family) at one size.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Registry name of the backend (`native`, `interp`).
    pub name: &'static str,
    /// Array size.
    pub n: usize,
    /// Median wall-clock of one prepared-plan execution.
    pub seconds: Duration,
}

impl BackendRow {
    /// The `backend` label the JSON rows use (`backend_native`,
    /// `backend_interp`) — prefixed so the backend comparison is
    /// filterable among the kernel rows of `BENCH_native.json`.
    pub fn label(&self) -> String {
        format!("backend_{}", self.name)
    }

    /// Elements moved per second.
    pub fn elements_per_sec(&self) -> f64 {
        self.n as f64 / self.seconds.as_secs_f64().max(1e-12)
    }
}

/// Execute one scheduled plan on **every registered backend** through the
/// backend registry and time each prepared executable. Each backend's
/// output is asserted byte-identical to the `Permutation::permute`
/// reference before timing, so a row can never report the speed of a
/// wrong answer. The interpreter is a serial correctness oracle, not a
/// contender — EXPERIMENTS.md documents the expected slowdown.
pub fn backends(sizes: &[usize], reps: usize) -> Result<Vec<BackendRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let p = families::random(n, 5);
        let ir = hmm_plan::PlanIr::build_par(&p, W, worker_threads())?;
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).expect("reference permute");
        for backend in Backend::ALL {
            let name = backend.name();
            let exec = backend.prepare(ExecPlan::Scheduled(&ir), KernelConfig::default())?;
            let mut dst = vec![0u32; n];
            let mut scratch = vec![0u32; exec.scratch_len()];
            exec.run(&src, &mut dst, &mut scratch);
            assert_eq!(dst, want, "{name}: backend diverged from the reference");
            let seconds = median_time(reps, || exec.run(&src, &mut dst, &mut scratch));
            rows.push(BackendRow { name, n, seconds });
        }
    }
    Ok(rows)
}

/// Render the backend comparison table (slowdown is relative to the
/// native backend at the same size).
pub fn render_backends(rows: &[BackendRow]) -> String {
    let mut t = TextTable::new(vec!["n", "backend", "time", "Melem/s", "vs native"]);
    for r in rows {
        let native = rows
            .iter()
            .find(|o| o.n == r.n && o.name == "native")
            .map(|o| o.seconds.as_secs_f64())
            .unwrap_or(0.0);
        let rel = r.seconds.as_secs_f64() / native.max(1e-12);
        t.row(vec![
            size_label(r.n),
            r.name.to_string(),
            format!("{:.2?}", r.seconds),
            format!("{:.1}", r.elements_per_sec() / 1e6),
            format!("{rel:.2}x"),
        ]);
    }
    t.render()
}

/// Render the plan-cache comparison table.
pub fn render_plan(rows: &[PlanCacheRow]) -> String {
    let mut t = TextTable::new(vec![
        "n",
        "plan build",
        "cached run",
        "rebuild+run",
        "speedup",
    ]);
    for r in rows {
        let speedup = r.rebuild.as_secs_f64() / r.cached.as_secs_f64().max(1e-12);
        t.row(vec![
            size_label(r.n),
            format!("{:.2?}", r.build),
            format!("{:.2?}", r.cached),
            format!("{:.2?}", r.rebuild),
            format!("{speedup:.1}x"),
        ]);
    }
    t.render()
}

/// Render the plan-store comparison table.
pub fn render_store(rows: &[PlanStoreRow]) -> String {
    let mut t = TextTable::new(vec!["n", "build+save", "cold load", "speedup"]);
    for r in rows {
        let speedup = r.build_and_save.as_secs_f64() / r.cold_load.as_secs_f64().max(1e-12);
        t.row(vec![
            size_label(r.n),
            format!("{:.2?}", r.build_and_save),
            format!("{:.2?}", r.cold_load),
            format!("{speedup:.1}x"),
        ]);
    }
    t.render()
}

/// Render the plan-compiler scaling table.
pub fn render_plan_build(rows: &[PlanBuildRow]) -> String {
    let mut t = TextTable::new(vec!["n", "threads", "seq build", "par build", "speedup"]);
    for r in rows {
        let speedup = r.seq.as_secs_f64() / r.par.as_secs_f64().max(1e-12);
        t.row(vec![
            size_label(r.n),
            r.threads.to_string(),
            format!("{:.2?}", r.seq),
            format!("{:.2?}", r.par),
            format!("{speedup:.2}x"),
        ]);
    }
    t.render()
}

/// Render the computed-vs-map-load kernel table.
pub fn render_computed(rows: &[ComputedRow]) -> String {
    let mut t = TextTable::new(vec!["family", "n", "computed", "map-load", "speedup"]);
    for r in rows {
        t.row(vec![
            r.family.to_string(),
            size_label(r.n),
            format!("{:.2?}", r.computed),
            format!("{:.2?}", r.map_load),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t.render()
}

/// Render the structured-vs-König plan-build table.
pub fn render_structured(rows: &[StructuredRow]) -> String {
    let mut t = TextTable::new(vec!["family", "n", "structured", "König", "speedup"]);
    for r in rows {
        let speedup = r.koenig.as_secs_f64() / r.structured.as_secs_f64().max(1e-12);
        t.row(vec![
            r.family.to_string(),
            size_label(r.n),
            format!("{:.2?}", r.structured),
            format!("{:.2?}", r.koenig),
            format!("{speedup:.0}x"),
        ]);
    }
    t.render()
}

/// Render the fused-vs-chained pipeline table.
pub fn render_fused(rows: &[FusedRow]) -> String {
    let mut t = TextTable::new(vec![
        "n",
        "fused sweeps",
        "chained sweeps",
        "fused wall",
        "chained wall",
        "speedup",
    ]);
    for r in rows {
        let speedup = r.chained.as_secs_f64() / r.fused.as_secs_f64().max(1e-12);
        t.row(vec![
            size_label(r.n),
            r.fused_sweeps.to_string(),
            r.chained_sweeps.to_string(),
            format!("{:.2?}", r.fused),
            format!("{:.2?}", r.chained),
            format!("{speedup:.2}x"),
        ]);
    }
    t.render()
}

/// Render the contended `SharedEngine` throughput table.
pub fn render_contended(rows: &[ContendedRow]) -> String {
    let mut t = TextTable::new(vec![
        "n",
        "threads",
        "permutes",
        "wall",
        "aggregate Melem/s",
    ]);
    for r in rows {
        t.row(vec![
            size_label(r.n),
            r.threads.to_string(),
            r.total_runs.to_string(),
            format!("{:.2?}", r.seconds),
            format!("{:.1}", r.elements_per_sec() / 1e6),
        ]);
    }
    t.render()
}

/// Render the queued-vs-blocking submission table.
pub fn render_queued(rows: &[QueuedRow]) -> String {
    let mut t = TextTable::new(vec![
        "n",
        "submitters",
        "jobs",
        "queued wall",
        "batch wall",
        "queued Melem/s",
        "batch Melem/s",
    ]);
    for r in rows {
        t.row(vec![
            size_label(r.n),
            r.threads.to_string(),
            r.total_jobs.to_string(),
            format!("{:.2?}", r.queued),
            format!("{:.2?}", r.blocking),
            format!("{:.1}", r.queued_elements_per_sec() / 1e6),
            format!("{:.1}", r.blocking_elements_per_sec() / 1e6),
        ]);
    }
    t.render()
}

fn json_row_raw(out: &mut String, family: &str, n: usize, backend: &str, secs: f64, eps: f64) {
    out.push_str(&format!(
        "    {{\"family\": \"{family}\", \"n\": {n}, \"backend\": \"{backend}\", \
         \"seconds\": {secs:.9}, \"elements_per_sec\": {eps:.1}}}"
    ));
}

fn json_row(out: &mut String, family: &str, n: usize, backend: &str, d: Duration) {
    let secs = d.as_secs_f64();
    let eps = if secs > 0.0 { n as f64 / secs } else { 0.0 };
    json_row_raw(out, family, n, backend, secs, eps);
}

/// Serialise a report as the `BENCH_native.json` document (hand-rolled —
/// serde is not on the offline dependency list).
pub fn to_json(report: &NativeReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"native\",\n");
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    out.push_str(&format!("  \"reps\": {},\n", report.reps));
    out.push_str("  \"rows\": [\n");
    let mut first = true;
    for r in &report.rows {
        for (backend, d) in [
            ("scatter", r.scatter),
            ("gather", r.gather),
            ("scheduled", r.scheduled),
            ("copy", r.copy),
        ] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row(&mut out, r.family, r.n, backend, d);
        }
    }
    for r in &report.sweep_rows {
        for (backend, d) in [
            ("sweep_gather", r.simd_on[0]),
            ("sweep_transpose", r.simd_on[1]),
            ("sweep_row", r.simd_on[2]),
            ("sweep_gather_scalar", r.simd_off[0]),
            ("sweep_transpose_scalar", r.simd_off[1]),
            ("sweep_row_scalar", r.simd_off[2]),
            ("engine_simd_on", r.total_on()),
            ("engine_simd_off", r.total_off()),
        ] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row(&mut out, "random", r.n, backend, d);
        }
    }
    for r in &report.plan_rows {
        for (backend, d) in [
            ("plan_build", r.build),
            ("engine_cached", r.cached),
            ("rebuild_per_call", r.rebuild),
        ] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row(&mut out, "random", r.n, backend, d);
        }
    }
    for r in &report.store_rows {
        for (backend, d) in [
            ("plan_store_build", r.build_and_save),
            ("plan_store_cold", r.cold_load),
        ] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row(&mut out, "random", r.n, backend, d);
        }
    }
    for r in &report.plan_build_rows {
        // Thread count in the backend name, like the contended rows; the
        // sequential arm is always reported as `plan_build_1t` so a pair
        // exists even when `threads` == 1 collapses them.
        let mut arms = vec![("plan_build_1t".to_string(), r.seq)];
        if r.threads > 1 {
            arms.push((format!("plan_build_{}t", r.threads), r.par));
        }
        for (backend, d) in arms {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row(&mut out, "random", r.n, &backend, d);
        }
    }
    for r in &report.contended_rows {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        // Aggregate throughput across all contending threads; the thread
        // count is encoded in the backend name (schema stays flat).
        json_row_raw(
            &mut out,
            "mixed",
            r.n,
            &format!("engine_contended_{}t", r.threads),
            r.seconds.as_secs_f64(),
            r.elements_per_sec(),
        );
    }
    for r in &report.queued_rows {
        for (backend, d, eps) in [
            (
                format!("engine_queued_{}t", r.threads),
                r.queued,
                r.queued_elements_per_sec(),
            ),
            (
                format!("engine_batch_blocking_{}t", r.threads),
                r.blocking,
                r.blocking_elements_per_sec(),
            ),
        ] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            json_row_raw(&mut out, "mixed", r.n, &backend, d.as_secs_f64(), eps);
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Merge backend-comparison rows into an existing `BENCH_native.json`
/// document (or start a fresh one when `existing` is `None`): previous
/// `backend_*` rows are dropped, every other row is kept verbatim, and
/// the new rows are appended. The parse is the line discipline [`to_json`]
/// emits — one row object per line under `"rows": [` — so a full
/// `repro native --json` run and a quick `repro backends --json` run can
/// update the same file in either order without clobbering each other.
pub fn merge_backends_json(existing: Option<&str>, rows: &[BackendRow]) -> String {
    let new_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut s = String::new();
            json_row(&mut s, "random", r.n, &r.label(), r.seconds);
            s
        })
        .collect();
    merge_rows_json(existing, "\"backend\": \"backend_", new_rows)
}

/// Merge computed-index rows (`computed_on` / `computed_off` per affine
/// family and size) into an existing `BENCH_native.json`, replacing any
/// stale `computed_*` rows — the same line discipline as
/// [`merge_backends_json`], written by `repro computed --json`.
pub fn merge_computed_json(existing: Option<&str>, rows: &[ComputedRow]) -> String {
    let mut new_rows = Vec::new();
    for r in rows {
        for (backend, d) in [("computed_on", r.computed), ("computed_off", r.map_load)] {
            let mut s = String::new();
            json_row(&mut s, r.family, r.n, backend, d);
            new_rows.push(s);
        }
    }
    merge_rows_json(existing, "\"backend\": \"computed_", new_rows)
}

/// Shared row-merge discipline: keep every row of `existing` whose line
/// does not contain `drop_marker`, then append `new_rows`. Starts a
/// fresh document when `existing` is `None` or not in [`to_json`]'s
/// shape.
fn merge_rows_json(existing: Option<&str>, drop_marker: &str, new_rows: Vec<String>) -> String {
    let rebuild = |head: &str, kept: Vec<String>| {
        let mut out = String::from(head);
        out.push('\n');
        let all: Vec<String> = kept.into_iter().chain(new_rows.iter().cloned()).collect();
        out.push_str(&all.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    };
    match existing.and_then(|doc| doc.find("\"rows\": [").map(|at| (doc, at))) {
        Some((doc, at)) => {
            let start = at + "\"rows\": [".len();
            let kept: Vec<String> = doc[start..]
                .lines()
                .filter(|l| l.trim_start().starts_with('{'))
                .filter(|l| !l.contains(drop_marker))
                .map(|l| l.trim_end().trim_end_matches(',').to_string())
                .collect();
            rebuild(&doc[..start], kept)
        }
        None => rebuild(
            &format!(
                "{{\n  \"bench\": \"native\",\n  \"threads\": {},\n  \"reps\": 0,\n  \"rows\": [",
                worker_threads()
            ),
            Vec::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_renders_small() {
        let rows = run(&[1 << 12], 1).unwrap();
        assert_eq!(rows.len(), 5);
        let s = render(&rows);
        assert!(s.contains("scatter"));
        assert!(s.contains("fused"));
        assert!(s.contains("4K"));
    }

    #[test]
    fn plan_cache_rows_and_json_shape() {
        let report = report(&[1 << 12], 1, 2, 2, 2).unwrap();
        assert_eq!(report.plan_rows.len(), 1);
        // Plan-compiler pair: sequential + 2-thread arms at the single size.
        assert_eq!(report.plan_build_rows.len(), 1);
        assert_eq!(report.plan_build_rows[0].threads, 2);
        let build_table = render_plan_build(&report.plan_build_rows);
        assert!(build_table.contains("par build"));
        let plan_table = render_plan(&report.plan_rows);
        assert!(plan_table.contains("rebuild"));
        // Contended pair: 1 thread and 2 threads at the single size.
        assert_eq!(report.contended_rows.len(), 2);
        assert_eq!(report.contended_rows[0].threads, 1);
        assert_eq!(report.contended_rows[1].threads, 2);
        let contended_table = render_contended(&report.contended_rows);
        assert!(contended_table.contains("threads"));
        // Queued pair at the single size: queued + blocking modes.
        assert_eq!(report.queued_rows.len(), 1);
        assert_eq!(report.queued_rows[0].threads, 2);
        let queued_table = render_queued(&report.queued_rows);
        assert!(queued_table.contains("submitters"));
        // Per-sweep rows: one SweepRow at the single size.
        assert_eq!(report.sweep_rows.len(), 1);
        let sweep_table = render_sweeps(&report.sweep_rows);
        assert!(sweep_table.contains("row-pass"));
        assert!(sweep_table.contains("total"));
        let json = to_json(&report);
        // 5 families x 4 backends + 8 sweep rows + 3 plan-cache rows
        // + 2 plan-store rows + 2 plan-build rows + 2 contended rows
        // + 2 queued rows.
        assert_eq!(json.matches("\"backend\"").count(), 39);
        for key in [
            "\"bench\": \"native\"",
            "\"threads\"",
            "\"elements_per_sec\"",
            "\"backend\": \"scheduled\"",
            "\"sweep_gather\"",
            "\"sweep_transpose_scalar\"",
            "\"sweep_row\"",
            "\"engine_simd_on\"",
            "\"engine_simd_off\"",
            "\"engine_cached\"",
            "\"rebuild_per_call\"",
            "\"plan_store_build\"",
            "\"plan_store_cold\"",
            "\"plan_build_1t\"",
            "\"plan_build_2t\"",
            "\"engine_contended_1t\"",
            "\"engine_contended_2t\"",
            "\"engine_queued_2t\"",
            "\"engine_batch_blocking_2t\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Must be parseable by eye and by simple tooling: balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn queued_rows_complete_and_report_throughput() {
        let rows = queued(&[1 << 12], 2, 4, 1).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].threads, 2);
        assert_eq!(rows[0].total_jobs, 8);
        assert!(rows[0].queued_elements_per_sec() > 0.0);
        assert!(rows[0].blocking_elements_per_sec() > 0.0);
    }

    #[test]
    fn contended_runs_complete_and_report_throughput() {
        let rows = contended(&[1 << 12], 3, 4).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].threads, 3);
        assert_eq!(rows[0].total_runs, 12);
        assert!(rows[0].elements_per_sec() > 0.0);
    }

    #[test]
    fn backends_measures_every_registered_backend() {
        let rows = backends(&[1 << 12], 1).unwrap();
        assert_eq!(rows.len(), Backend::ALL.len());
        for r in &rows {
            assert!(r.elements_per_sec() > 0.0, "{}", r.name);
        }
        let table = render_backends(&rows);
        assert!(table.contains("native"));
        assert!(table.contains("interp"));
        assert!(table.contains("vs native"));
    }

    #[test]
    fn computed_rows_verify_and_merge_without_clobbering() {
        let rows = computed_index(&[1 << 12], 1).unwrap();
        assert_eq!(rows.len(), 3, "three affine families per size");
        for r in &rows {
            assert!(r.computed > Duration::ZERO && r.map_load > Duration::ZERO);
        }
        let table = render_computed(&rows);
        assert!(table.contains("bit-reversal"));
        assert!(table.contains("map-load"));

        let report = report(&[1 << 12], 1, 0, 0, 0).unwrap();
        let base = to_json(&report);
        let once = merge_computed_json(Some(&base), &rows);
        let twice = merge_computed_json(Some(&once), &rows);
        assert_eq!(
            once.matches("\"backend\": \"computed_").count(),
            rows.len() * 2,
            "one computed_on + one computed_off row per (family, size)"
        );
        assert_eq!(
            once.matches("\"backend\": \"computed_").count(),
            twice.matches("\"backend\": \"computed_").count(),
            "re-merging must not duplicate computed rows"
        );
        assert!(once.contains("\"backend\": \"scheduled\""));
        assert_eq!(twice.matches('{').count(), twice.matches('}').count());

        // A fresh document (no prior native run) is still well formed.
        let fresh = merge_computed_json(None, &rows);
        assert!(fresh.contains("\"backend\": \"computed_on\""));
        assert_eq!(fresh.matches('{').count(), fresh.matches('}').count());
    }

    #[test]
    fn merge_backends_json_replaces_only_backend_rows() {
        let rows = backends(&[1 << 12], 1).unwrap();
        // Fresh document: standalone but the same shape as to_json's.
        let fresh = merge_backends_json(None, &rows);
        assert!(fresh.contains("\"backend\": \"backend_native\""));
        assert!(fresh.contains("\"backend\": \"backend_interp\""));
        assert_eq!(fresh.matches('{').count(), fresh.matches('}').count());

        // Merging into a full report keeps every non-backend row and
        // replaces stale backend rows instead of duplicating them.
        let report = report(&[1 << 12], 1, 0, 0, 0).unwrap();
        let base = to_json(&report);
        let once = merge_backends_json(Some(&base), &rows);
        let twice = merge_backends_json(Some(&once), &rows);
        assert_eq!(
            once.matches("\"backend\": \"backend_").count(),
            twice.matches("\"backend\": \"backend_").count(),
            "re-merging must not duplicate backend rows"
        );
        assert_eq!(
            base.matches("\"backend\"").count() + rows.len(),
            once.matches("\"backend\"").count(),
            "non-backend rows must survive the merge"
        );
        assert!(once.contains("\"backend\": \"scheduled\""));
        assert_eq!(twice.matches('{').count(), twice.matches('}').count());
    }
}
