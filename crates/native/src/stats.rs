//! The engine's counters: [`EngineStats`] snapshots and the atomics
//! behind them, one set per engine core whatever the element types of
//! its handles.

use crate::config::KernelConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache/engine counters, for tests and bench reports. A snapshot of the
/// engine's atomics — reading them never takes a lock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Cache hits (plan reused, full permutation verified).
    pub hits: u64,
    /// Cache misses (this caller built a plan).
    pub misses: u64,
    /// Plans evicted to respect capacity.
    pub evictions: u64,
    /// Fingerprint collisions detected on hit verification (the stored
    /// plan's permutation differed from the requested one; the entry was
    /// rebuilt and the output stayed correct).
    pub collisions: u64,
    /// Builds avoided by single-flight: callers that waited for another
    /// thread's in-flight construction of the same plan instead of
    /// duplicating the work.
    pub builds_deduped: u64,
    /// Executions that took the scatter backend.
    pub scatter_runs: u64,
    /// Executions that took the scheduled backend.
    pub scheduled_runs: u64,
    /// König colorings actually performed by this process: scheduled
    /// plans constructed from scratch rather than served from the
    /// on-disk store. A cold process running against a warm store
    /// reports 0.
    pub builds: u64,
    /// Scheduled plans emitted by the structured (BMMC) fast path: the
    /// permutation was recognised as affine over GF(2) and its three
    /// pass permutations were produced in closed form, with no König
    /// coloring. Disjoint from [`EngineStats::builds`].
    pub plans_structured: u64,
    /// Scheduled plans prepared from an IR carrying verified affine
    /// descriptors — the plans that run map-free (on the native backend,
    /// as one tiled pass) when [`EngineStats::kernel_computed_index`] is
    /// set. Counts structured
    /// builds and store loads alike (a compact store entry rebuilds its
    /// maps from the descriptors, so a warm-store cold start is still
    /// descriptor-backed); König-colored plans never carry descriptors.
    pub plans_affine: u64,
    /// Plans served from the on-disk store, each verified against the
    /// requested permutation before use. A hit routes on the γ_w its
    /// file records, so one recorded at or below the threshold is served
    /// as a scatter plan.
    pub store_hits: u64,
    /// Store files discarded: unreadable, corrupt, wrong format version,
    /// or decoded fine but encoding a *different* permutation than the
    /// requested one (a fingerprint collision). Each reject deletes the
    /// file and falls through to a fresh build.
    pub store_rejects: u64,
    /// Jobs started by [`crate::plan::SharedEngine::run_job`], counted
    /// before the job runs.
    pub submitted: u64,
    /// Jobs [`crate::plan::SharedEngine::run_job`] has finished,
    /// successfully or with an error (failed build, size mismatch,
    /// panic). `submitted == completed` whenever no job is running.
    pub completed: u64,
    /// Jobs or registrations an admission-control layer refused before
    /// any job ran (so disjoint from `submitted`).
    /// The engine itself admits everything; front doors with quotas —
    /// the `hmm-server` per-client limits — report their rejections here
    /// via [`crate::plan::SharedEngine::note_admission_reject`] so one snapshot tells
    /// the whole story.
    pub admission_rejects: u64,
    /// The γ_w scatter/scheduled crossover in effect at snapshot time —
    /// [`crate::plan::DEFAULT_GAMMA_THRESHOLD`] or a
    /// [`crate::plan::SharedEngine::set_gamma_threshold`] override.
    pub gamma_threshold: f64,
    /// Retired: always 0 — the fused sweeps stage nothing, so there is no
    /// staging budget. Kept because `bench-e2e`'s provenance block reads
    /// it.
    pub kernel_stage_bytes: usize,
    /// Whether the kernel config enables the vectorized sweep tiers.
    pub kernel_simd: bool,
    /// Whether the kernel config enables the map-free kernels (on the
    /// native backend, the one tiled pass) for plans that carry
    /// descriptors.
    pub kernel_computed_index: bool,
    /// Registry name of the backend this engine prepares plans on
    /// (`"native"`, `"interp"`, ...). Empty in a default-constructed
    /// snapshot.
    pub backend: &'static str,
}

/// The engine's live counters, on atomics so `&self` paths can bump them
/// and `stats()` can snapshot without locking.
#[derive(Default)]
pub(crate) struct AtomicStats {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) collisions: AtomicU64,
    pub(crate) builds_deduped: AtomicU64,
    pub(crate) scatter_runs: AtomicU64,
    pub(crate) scheduled_runs: AtomicU64,
    pub(crate) builds: AtomicU64,
    pub(crate) plans_structured: AtomicU64,
    pub(crate) plans_affine: AtomicU64,
    pub(crate) store_hits: AtomicU64,
    pub(crate) store_rejects: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) admission_rejects: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn snapshot(
        &self,
        gamma_threshold: f64,
        kernel: KernelConfig,
        backend: &'static str,
    ) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            builds_deduped: self.builds_deduped.load(Ordering::Relaxed),
            scatter_runs: self.scatter_runs.load(Ordering::Relaxed),
            scheduled_runs: self.scheduled_runs.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            plans_structured: self.plans_structured.load(Ordering::Relaxed),
            plans_affine: self.plans_affine.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_rejects: self.store_rejects.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            gamma_threshold,
            kernel_stage_bytes: 0,
            kernel_simd: kernel.simd,
            kernel_computed_index: kernel.computed_index,
            backend,
        }
    }
}
