//! Throughput-engine benchmarks: what the plan cache and the fused sweeps
//! buy on the steady-state path.
//!
//! Three measurements per size (random permutations — the high-γ workload):
//! * `cached`          — `SharedEngine::permute` with a warm cache (the
//!   product path);
//! * `rebuild`         — plan built from scratch on every call (no cache);
//! * `fused_run`       — one fused 3-sweep execution, plan + scratch prebuilt.
//!
//! Plus `plan_build` (the König coloring + gather-map cost the cache
//! amortises) and one `scatter` row as the crossover baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmm_native::plan::DEFAULT_CAPACITY;
use hmm_native::{scatter_permute, NativeScheduled, SharedEngine};
use hmm_perm::families;

const W: usize = 32;

fn sizes() -> Vec<usize> {
    if std::env::var("HMM_BENCH_FULL").is_ok() {
        vec![1 << 18, 1 << 20, 1 << 22]
    } else {
        vec![1 << 14, 1 << 16]
    }
}

fn bench_engine(c: &mut Criterion) {
    for n in sizes() {
        let p = families::random(n, 7);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];

        let mut group = c.benchmark_group(format!("engine/{}", n));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);

        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine.permute(&p, &src, &mut dst).unwrap(); // warm the cache
        group.bench_with_input(BenchmarkId::new("cached", n), &p, |b, p| {
            b.iter(|| engine.permute(p, &src, &mut dst).unwrap())
        });

        group.bench_with_input(BenchmarkId::new("rebuild", n), &p, |b, p| {
            b.iter(|| {
                let sched = NativeScheduled::build(p, W).unwrap();
                sched.run(&src, &mut dst);
            })
        });

        let sched = NativeScheduled::build(&p, W).unwrap();
        let mut scratch = vec![0u32; sched.scratch_len()];
        group.bench_function(BenchmarkId::new("fused_run", n), |b| {
            b.iter(|| sched.run_with_scratch(&src, &mut dst, &mut scratch))
        });

        group.bench_with_input(BenchmarkId::new("plan_build", n), &p, |b, p| {
            b.iter(|| NativeScheduled::build(p, W).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("scatter", n), &p, |b, p| {
            b.iter(|| scatter_permute(&src, p, &mut dst))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
