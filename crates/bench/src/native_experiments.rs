//! Wall-clock experiments on the CPU backend: the Table II comparison with
//! real time instead of model time (see DESIGN.md §2 — this is the
//! substitution for the paper's GPU measurements).
//!
//! `repro native` measures three groups, all at the kernel layer:
//! * **kernels** — scatter / gather / fused 3-sweep scheduled / copy, per
//!   family and size;
//! * **per-sweep** — each of the three fused sweeps, SIMD pipeline
//!   against the scalar reference config;
//! * **plan compiler** — the sequential König build against the parallel
//!   one.
//!
//! `repro backends`, `repro computed` and `repro structured` use the
//! backend, computed-index, structured-planner and fusion measurements
//! below. The engine paths above the kernels (plan cache, plan store,
//! contention, the wire) are measured end to end
//! by the `bench-e2e` workloads, not here.
//!
//! [`to_json`] serialises a full report as `BENCH_native.json` (flat rows
//! of `{family, n, backend, seconds, elements_per_sec}` — the format
//! documented in EXPERIMENTS.md), written by `repro native --json`.

use crate::tables::{size_label, TextTable};
use hmm_native::par::worker_threads;
use hmm_native::{
    copy_baseline, gather_permute, scatter_permute, Backend, ExecPlan, KernelConfig,
    NativeScheduled, ScratchBuf, SharedEngine,
};
use hmm_offperm::Result;
use hmm_perm::families::{self, Family};
use hmm_perm::Permutation;
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
        // The engine's scratch rule: a window starting on a cache line.
        let mut scratch = ScratchBuf::new(n);
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
            let mut scratch = ScratchBuf::new(n);
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
    /// Plan-compiler scaling rows (sequential vs `plan_threads`).
    pub plan_build_rows: Vec<PlanBuildRow>,
}

/// Measure all kernels for every family at the given sizes.
pub fn run(sizes: &[usize], reps: usize) -> Result<Vec<NativeRow>> {
    let mut rows = Vec::new();
    for &n in sizes {
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = ScratchBuf::new(n);
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

/// Run all experiment groups and package them with the environment.
/// Plan-compiler rows pair the sequential builder with `plan_threads`
/// threads at every size (`0` skips the group).
pub fn report(sizes: &[usize], reps: usize, plan_threads: usize) -> Result<NativeReport> {
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
        plan_build_rows,
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
            let mut scratch = ScratchBuf::new(exec.scratch_len());
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

/// One `BENCH_native.json` row object, on one line.
fn json_row(family: &str, n: usize, backend: &str, d: Duration) -> String {
    let secs = d.as_secs_f64();
    let eps = if secs > 0.0 { n as f64 / secs } else { 0.0 };
    format!(
        "    {{\"family\": \"{family}\", \"n\": {n}, \"backend\": \"{backend}\", \
         \"seconds\": {secs:.9}, \"elements_per_sec\": {eps:.1}}}"
    )
}

/// Serialise a report as the `BENCH_native.json` document (hand-rolled —
/// serde is not on the offline dependency list).
pub fn to_json(report: &NativeReport) -> String {
    let mut rows = Vec::new();
    let mut row = |family: &str, n: usize, backend: &str, d: Duration| {
        rows.push(json_row(family, n, backend, d));
    };
    for r in &report.rows {
        for (backend, d) in [
            ("scatter", r.scatter),
            ("gather", r.gather),
            ("scheduled", r.scheduled),
            ("copy", r.copy),
        ] {
            row(r.family, r.n, backend, d);
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
            row("random", r.n, backend, d);
        }
    }
    for r in &report.plan_build_rows {
        // Thread count in the backend name (the schema stays flat); the
        // sequential arm is always reported as `plan_build_1t` so a pair
        // exists even when `threads` == 1 collapses them.
        row("random", r.n, "plan_build_1t", r.seq);
        if r.threads > 1 {
            row("random", r.n, &format!("plan_build_{}t", r.threads), r.par);
        }
    }
    format!(
        "{{\n  \"bench\": \"native\",\n  \"threads\": {},\n  \"reps\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        report.threads,
        report.reps,
        rows.join(",\n")
    )
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
        .map(|r| json_row("random", r.n, &r.label(), r.seconds))
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
            new_rows.push(json_row(r.family, r.n, backend, d));
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
        let report = report(&[1 << 12], 1, 2).unwrap();
        // Plan-compiler pair: sequential + 2-thread arms at the single size.
        assert_eq!(report.plan_build_rows.len(), 1);
        assert_eq!(report.plan_build_rows[0].threads, 2);
        let build_table = render_plan_build(&report.plan_build_rows);
        assert!(build_table.contains("par build"));
        // Per-sweep rows: one SweepRow at the single size.
        assert_eq!(report.sweep_rows.len(), 1);
        let sweep_table = render_sweeps(&report.sweep_rows);
        assert!(sweep_table.contains("row-pass"));
        assert!(sweep_table.contains("total"));
        let json = to_json(&report);
        // 5 families x 4 backends + 8 sweep rows + 2 plan-build rows.
        assert_eq!(json.matches("\"backend\"").count(), 30);
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
            "\"plan_build_1t\"",
            "\"plan_build_2t\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Must be parseable by eye and by simple tooling: balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
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

        let report = report(&[1 << 12], 1, 0).unwrap();
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
        let report = report(&[1 << 12], 1, 0).unwrap();
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
