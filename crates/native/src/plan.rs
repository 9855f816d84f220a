//! Plan cache and throughput engine for repeated permutations.
//!
//! Building a scheduled plan is expensive — a König edge-coloring of the
//! r×c transfer matrix plus three gather-map materialisations — while
//! *executing* one is three memory sweeps. Offline permutation workloads
//! (FFT reorderings, matrix layouts, routing tables) apply the same few
//! permutations over and over, so the front door caches built plans in an
//! LRU keyed by a 64-bit fingerprint of the permutation, and keeps a small
//! pool of scratch buffers so steady-state calls allocate nothing.
//!
//! The front door is [`SharedEngine`], the concurrent plan service:
//! usable as `&self` from any number of threads, with a **sharded**
//! `RwLock` LRU (readers never contend across shards), **single-flight**
//! plan construction (N threads requesting the same uncached permutation
//! pay one König coloring; the rest wait on that build, not on the
//! cache), a **lock-free** scratch-buffer pool, and [`EngineStats`]
//! counters kept on atomics so they are readable without locking.
//! `SharedEngine::with_shards(width, 1, capacity)` is one global LRU of
//! `capacity` plans.
//!
//! Every cache hit verifies the stored permutation against the requested
//! one (an O(n) memcmp, trivial next to the run): a 64-bit fingerprint
//! collision is therefore *detected* rather than silently applying the
//! wrong plan — the mismatch counts as [`EngineStats::collisions`] and the
//! entry is rebuilt for the requested permutation.
//!
//! Below the in-memory LRU sits an optional **tier-2 on-disk store**
//! ([`SharedEngine::with_store`]): scheduled plans are serialized through
//! [`hmm_plan`]'s versioned codec and keyed by `(fingerprint, n, width)`,
//! so a *cold process* pointed at a warm store skips the König coloring
//! entirely ([`EngineStats::builds`] stays 0). Disk is never trusted:
//! every load re-verifies the decoded plan against the requested
//! permutation, and corrupt or colliding files are counted
//! ([`EngineStats::store_rejects`]), deleted, and rebuilt.
//!
//! The engine also chooses the backend per plan: the paper's Table II shows
//! the conventional (scatter) kernel beating the scheduled one when the
//! distribution `γ_w(P)` is small — few distinct destination groups per
//! warp means the single scattered pass is nearly coalesced, and no
//! three-sweep rewrite can beat one sweep. The same crossover exists on the
//! CPU with cache lines in place of address groups, so plans are built with
//! a measured-γ decision: `γ_w(P) ≤ threshold` → scatter, else scheduled.
//! The threshold defaults to the static [`DEFAULT_GAMMA_THRESHOLD`]; set
//! `HMM_NATIVE_CALIBRATE=1` (or call
//! [`SharedEngine::calibrate_gamma_threshold`]) to replace it with a
//! crossover measured on the running host.

use crate::config::KernelConfig;
use crate::queue::{
    BatchHandle, Bounded, JobError, JobHandle, JobReport, JobState, Payload, QueuedJob,
    DEFAULT_QUEUE_CAPACITY,
};
use hmm_backend::{Backend, ExecPlan, Executable, Route};
use hmm_perm::distribution::distribution;
use hmm_perm::{families, Permutation};
use hmm_plan::{PlanError, PlanIr, PlanStore, Result, StoreKey};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock, Weak};
use std::time::{Duration, Instant};

/// Default per-shard LRU capacity (plans held at once per shard).
pub const DEFAULT_CAPACITY: usize = 8;

/// Default shard count for [`SharedEngine::new`].
pub const DEFAULT_SHARDS: usize = 8;

/// Default γ_w crossover: at or below this measured distribution the
/// scatter kernel wins. One scattered sweep costs about `γ/w` cache lines
/// per element versus the fused path's three sequential sweeps, so the
/// break-even sits in the low single digits; 4 matches the paper's
/// Table II shape (scatter wins for identical/rotation/shuffle classes,
/// scheduled for random/bit-reversal/transpose).
pub const DEFAULT_GAMMA_THRESHOLD: f64 = 4.0;

/// Scratch buffers retained for reuse.
const SCRATCH_POOL_CAP: usize = 4;

/// Environment variable: set to `1` to run
/// [`SharedEngine::calibrate_gamma_threshold`] automatically at engine
/// construction, replacing [`DEFAULT_GAMMA_THRESHOLD`] with a crossover
/// measured on this host.
pub const CALIBRATE_ENV: &str = "HMM_NATIVE_CALIBRATE";

/// The engine's default fingerprint: [`Permutation::fingerprint`] — the
/// one identity shared by the in-memory cache, the on-disk store, the
/// codec, and the CLI. Two distinct permutations colliding on both
/// fingerprint *and* length is a ~2⁻⁶⁴ event — and since every hit
/// verifies the full image, a collision costs a rebuild rather than a
/// wrong answer.
fn default_fingerprint(p: &Permutation) -> u64 {
    p.fingerprint()
}

/// Best-of-`reps` wall-clock time of `f` — the minimum filters scheduler
/// noise better than a mean at these sub-millisecond scales.
fn min_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Measure the γ_w crossover between the scatter and scheduled routes
/// on this host, at a probe size large enough to spill the cache hierarchy
/// the way real workloads do. Probes run on `backend` — the crossover
/// belongs to whichever implementation will actually execute the plans.
///
/// Model: a scattered pass costs `a + b·γ` (more destination groups per
/// warp-sized window ⇒ more distinct cache lines touched), while the fused
/// three-sweep costs a γ-independent constant. Two scatter samples (low-γ
/// rotation, high-γ random) pin the line; one scheduled sample pins the
/// constant; the intersection is the crossover. Returns `None` when the
/// width cannot be scheduled at the probe size, the backend lacks a
/// route, or the fitted slope is non-positive (timer noise) — callers
/// keep the static default then.
fn measured_crossover(
    backend: &dyn Backend<u32>,
    width: usize,
    config: KernelConfig,
) -> Option<f64> {
    let caps = backend.capabilities();
    if !(caps.scatter && caps.scheduled) {
        return None;
    }
    let n = width
        .saturating_mul(width)
        .next_power_of_two()
        .clamp(1 << 14, 1 << 22);
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];

    let p_lo = families::rotation(n, width.max(2) / 2);
    let p_hi = families::random(n, 0x5eed);
    let g_lo = distribution(&p_lo, width);
    let g_hi = distribution(&p_hi, width);
    if g_hi <= g_lo + 1e-9 {
        return None;
    }

    let ir = PlanIr::build_par(&p_hi, width, crate::par::worker_threads()).ok()?;
    let sched = backend.prepare(ExecPlan::Scheduled(&ir), config).ok()?;
    let scatter_lo = backend.prepare(ExecPlan::Scatter(&p_lo), config).ok()?;
    let scatter_hi = backend.prepare(ExecPlan::Scatter(&p_hi), config).ok()?;
    let mut scratch = vec![0u32; sched.scratch_len()];
    let reps = 3;
    let t_sched = min_time(reps, || sched.run(&src, &mut dst, &mut scratch));
    let t_lo = min_time(reps, || scatter_lo.run(&src, &mut dst, &mut []));
    let t_hi = min_time(reps, || scatter_hi.run(&src, &mut dst, &mut []));

    let b = (t_hi.as_secs_f64() - t_lo.as_secs_f64()) / (g_hi - g_lo);
    if !(b.is_finite() && b > 0.0) {
        return None;
    }
    let a = t_lo.as_secs_f64() - b * g_lo;
    let crossover = (t_sched.as_secs_f64() - a) / b;
    if !crossover.is_finite() {
        return None;
    }
    Some(crossover.clamp(1.0, width as f64))
}

/// Cache key: permutation fingerprint + length + schedule width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    fingerprint: u64,
    len: usize,
    width: usize,
}

/// A built, cached execution plan for one permutation: the route
/// decision (γ_w against the engine's threshold) plus the [`Executable`]
/// some [`Backend`] prepared for it. The engines never name a concrete
/// executor — scatter and scheduled plans alike run through the boxed
/// trait object.
pub struct PermutePlan<T> {
    route: Route,
    gamma: f64,
    exec: Box<dyn Executable<T>>,
    /// Kept for hit verification and for callers that want it back.
    permutation: Permutation,
}

impl<T> std::fmt::Debug for PermutePlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PermutePlan")
            .field("route", &self.route)
            .field("gamma", &self.gamma)
            .field("backend", &self.exec.backend_name())
            .field("len", &self.permutation.len())
            .finish()
    }
}

impl<T: Copy + Send + Sync + Default + 'static> PermutePlan<T> {
    /// Build a plan on the process-default backend, measuring γ_w(P) to
    /// pick the route.
    pub fn build(p: &Permutation, width: usize, gamma_threshold: f64) -> Result<Self> {
        let backend = crate::backend::default_backend::<T>();
        let gamma = distribution(p, width);
        if gamma <= gamma_threshold && backend.capabilities().scatter {
            Self::scatter_on(&*backend, p, gamma, KernelConfig::global())
        } else {
            Self::from_ir_on(
                &*backend,
                &PlanIr::build_par(p, width, crate::par::worker_threads())?,
                KernelConfig::global(),
            )
        }
    }

    /// Wrap an already-built backend-neutral [`PlanIr`] as a scheduled
    /// plan — no König coloring happens here. The permutation the plan
    /// answers for is recomposed from the IR's own three passes, so the
    /// wrapper is correct for exactly the permutation the IR encodes,
    /// wherever the IR came from (a fresh build, another engine, or a
    /// plan-store file). Prepared on the process-default backend with the
    /// process-wide [`KernelConfig::global`]. Fails with a typed error
    /// when the IR violates its contract (`PlanIr::validate`).
    pub fn from_ir(ir: &PlanIr) -> Result<Self> {
        Self::from_ir_with(ir, KernelConfig::global())
    }

    /// [`from_ir`](Self::from_ir) with an explicit kernel config — the
    /// seam through which the engines thread their (possibly
    /// caller-overridden) config into every scheduled execution,
    /// whichever front door ran it: blocking `permute`, `permute_batch`,
    /// or the queue drainers behind `submit`.
    pub fn from_ir_with(ir: &PlanIr, config: KernelConfig) -> Result<Self> {
        Self::from_ir_on(&*crate::backend::default_backend::<T>(), ir, config)
    }

    /// Prepare a scheduled plan for this IR on an explicit backend — the
    /// one construction path every engine plan build funnels through.
    pub fn from_ir_on(backend: &dyn Backend<T>, ir: &PlanIr, config: KernelConfig) -> Result<Self> {
        Ok(PermutePlan {
            route: Route::Scheduled,
            gamma: ir.gamma(),
            exec: backend.prepare(ExecPlan::Scheduled(ir), config)?,
            permutation: ir.recompose(),
        })
    }

    /// Prepare a scatter plan on an explicit backend.
    pub fn scatter_on(
        backend: &dyn Backend<T>,
        p: &Permutation,
        gamma: f64,
        config: KernelConfig,
    ) -> Result<Self> {
        Ok(PermutePlan {
            route: Route::Scatter,
            gamma,
            exec: backend.prepare(ExecPlan::Scatter(p), config)?,
            permutation: p.clone(),
        })
    }
}

impl<T> PermutePlan<T> {
    /// The route (scatter or scheduled) this plan executes with.
    pub fn route(&self) -> Route {
        self.route
    }

    /// The measured distribution γ_w(P) the decision was based on.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The permutation this plan was built for.
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// The prepared executable behind this plan — the seam for
    /// capability checks, stats ([`Executable::runs`]), and
    /// backend-specific downcasts
    /// ([`crate::backend::as_native_scheduled`]).
    pub fn executable(&self) -> &dyn Executable<T> {
        &*self.exec
    }

    /// Scratch elements [`PermutePlan::run_with_scratch`] requires (0
    /// for scatter plans).
    pub fn scratch_len(&self) -> usize {
        self.exec.scratch_len()
    }

    /// Execute `dst[P[i]] = src[i]` with caller-provided scratch of
    /// exactly [`PermutePlan::scratch_len`] elements (scatter plans take
    /// an empty slice).
    pub fn run_with_scratch(&self, src: &[T], dst: &mut [T], scratch: &mut [T]) {
        self.exec.run(src, dst, scratch);
    }
}

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
    /// descriptors — the plans whose gather sweeps run the
    /// computed-index kernels when
    /// [`EngineStats::kernel_computed_index`] is set. Counts structured
    /// builds and store loads alike (a compact store entry rebuilds its
    /// maps from the descriptors, so a warm-store cold start is still
    /// descriptor-backed); König-colored plans never carry descriptors.
    pub plans_affine: u64,
    /// Scheduled plans served from the on-disk store, each verified
    /// against the requested permutation before use.
    pub store_hits: u64,
    /// Store files discarded: unreadable, corrupt, wrong format version,
    /// or decoded fine but encoding a *different* permutation than the
    /// requested one (a fingerprint collision). Each reject deletes the
    /// file and falls through to a fresh build.
    pub store_rejects: u64,
    /// Jobs accepted by [`SharedEngine::submit`] /
    /// [`SharedEngine::submit_batch`] — queue-routed
    /// [`SharedEngine::permute_batch`] members included. Every submitted
    /// job eventually lands in exactly one of [`EngineStats::completed`]
    /// or [`EngineStats::cancelled`].
    pub submitted: u64,
    /// Queued jobs resolved by a worker — successfully or with an error
    /// (failed build, panic, shutdown). `submitted == completed +
    /// cancelled` once every handle has resolved.
    pub completed: u64,
    /// Queued jobs cancelled (via [`JobHandle::cancel`]) before a worker
    /// began executing them.
    pub cancelled: u64,
    /// Jobs or registrations an admission-control layer refused *before*
    /// submission (never enqueued, so disjoint from every queue counter).
    /// The engine itself admits everything; front doors with quotas —
    /// the `hmm-server` per-client limits — report their rejections here
    /// via [`SharedEngine::note_admission_reject`] so one snapshot tells
    /// the whole story.
    pub admission_rejects: u64,
    /// Jobs sitting in the submission queue at snapshot time — a gauge,
    /// not a counter (in-flight jobs a worker has claimed are excluded).
    pub queue_depth: u64,
    /// The γ_w scatter/scheduled crossover in effect at snapshot time.
    pub gamma_threshold: f64,
    /// True once [`SharedEngine::calibrate_gamma_threshold`] has replaced
    /// the static default with a measured crossover.
    pub calibrated: bool,
    /// Staging-block budget (bytes) of the kernel config scheduled plans
    /// are built with at snapshot time — the default or a
    /// [`SharedEngine::set_kernel_config`] override.
    pub kernel_stage_bytes: usize,
    /// Whether the kernel config enables the vectorized sweep tiers.
    pub kernel_simd: bool,
    /// Whether the kernel config enables the computed-index (affine
    /// fold) gather kernels for plans that carry descriptors.
    pub kernel_computed_index: bool,
    /// Registry name of the backend this engine prepares plans on
    /// (`"native"`, `"interp"`, ...). Empty in a default-constructed
    /// snapshot.
    pub backend: &'static str,
}

/// The engine's live counters, on atomics so `&self` paths can bump them
/// and `stats()` can snapshot without locking. Shared (via `Arc`) with
/// job handles and queue workers, so cancellation and completion stay
/// countable after the engine itself is gone.
#[derive(Default)]
pub(crate) struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    builds_deduped: AtomicU64,
    scatter_runs: AtomicU64,
    scheduled_runs: AtomicU64,
    builds: AtomicU64,
    plans_structured: AtomicU64,
    plans_affine: AtomicU64,
    store_hits: AtomicU64,
    store_rejects: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) admission_rejects: AtomicU64,
}

impl AtomicStats {
    fn snapshot(
        &self,
        gamma_threshold: f64,
        calibrated: bool,
        queue_depth: u64,
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
            cancelled: self.cancelled.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            queue_depth,
            gamma_threshold,
            calibrated,
            kernel_stage_bytes: kernel.stage_bytes,
            kernel_simd: kernel.simd,
            kernel_computed_index: kernel.computed_index,
            backend,
        }
    }
}

/// Single-flight build slot: the first thread to miss inserts one in the
/// `Building` state and constructs the plan outside every lock; later
/// threads wait on the condvar instead of re-running the König coloring.
struct BuildSlot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

enum SlotState<T> {
    Building,
    Ready(Arc<PermutePlan<T>>),
    Failed(PlanError),
}

impl<T> BuildSlot<T> {
    fn new() -> Self {
        BuildSlot {
            state: Mutex::new(SlotState::Building),
            cv: Condvar::new(),
        }
    }

    /// Block until the slot resolves. Returns the outcome and whether this
    /// caller had to wait for an in-flight build (a deduped build).
    fn wait(&self) -> (Result<Arc<PermutePlan<T>>>, bool) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        loop {
            match &*st {
                SlotState::Building => {
                    waited = true;
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Ready(plan) => return (Ok(Arc::clone(plan)), waited),
                SlotState::Failed(e) => return (Err(e.clone()), waited),
            }
        }
    }

    fn fill(&self, outcome: Result<Arc<PermutePlan<T>>>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *st = match outcome {
            Ok(plan) => SlotState::Ready(plan),
            Err(e) => SlotState::Failed(e),
        };
        self.cv.notify_all();
    }

    fn is_building(&self) -> bool {
        matches!(
            &*self.state.lock().unwrap_or_else(PoisonError::into_inner),
            SlotState::Building
        )
    }
}

/// Fills a slot with an error if the build panics, so waiters are not
/// stranded in `Building` forever.
struct FillOnPanic<'a, T> {
    slot: &'a BuildSlot<T>,
    n: usize,
    armed: bool,
}

impl<T> Drop for FillOnPanic<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.slot.fill(Err(PlanError::UnsupportedSize {
                n: self.n,
                reason: "plan construction panicked",
            }));
        }
    }
}

struct ShardEntry<T> {
    slot: Arc<BuildSlot<T>>,
    /// Engine-clock timestamp of the last touch; an atomic so hits can
    /// refresh it under the shard's *read* lock.
    last_used: AtomicU64,
}

type Shard<T> = RwLock<HashMap<PlanKey, ShardEntry<T>>>;

/// Lock-free pool of scratch buffers: a fixed array of `AtomicPtr` slots.
/// `take` swaps a buffer out (or allocates), `put` swaps one back in (or
/// drops it when every slot is occupied) — steady-state `permute` never
/// takes an exclusive lock for scratch.
struct ScratchPool<T> {
    slots: [AtomicPtr<Vec<T>>; SCRATCH_POOL_CAP],
}

// SAFETY: the pool owns the pointed-to `Vec<T>`s exclusively (a buffer is
// either in exactly one slot or checked out by exactly one caller — the
// `swap`/`compare_exchange` transitions are atomic), so sharing the pool
// is safe whenever the element type can move between threads.
unsafe impl<T: Send> Send for ScratchPool<T> {}
unsafe impl<T: Send> Sync for ScratchPool<T> {}

impl<T: Copy + Default> ScratchPool<T> {
    fn new() -> Self {
        ScratchPool {
            slots: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    fn take(&self, n: usize) -> Vec<T> {
        for slot in &self.slots {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: the pointer came from `Box::into_raw` in `put`
                // and the swap above made this thread its sole owner.
                let mut buf = *unsafe { Box::from_raw(p) };
                if buf.len() != n {
                    buf.clear();
                    buf.resize(n, T::default());
                }
                return buf;
            }
        }
        vec![T::default(); n]
    }

    fn put(&self, buf: Vec<T>) {
        let p = Box::into_raw(Box::new(buf));
        for slot in &self.slots {
            if slot
                .compare_exchange(ptr::null_mut(), p, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
        // Pool full: release the buffer.
        // SAFETY: `p` was just created by `Box::into_raw` and no slot
        // accepted it, so this thread still owns it.
        drop(unsafe { Box::from_raw(p) });
    }

    fn pooled(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Acquire).is_null())
            .count()
    }
}

impl<T> Drop for ScratchPool<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: sole owner at drop time; pointer from Box::into_raw.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// The engine's queued-submission runtime: a lazily-started bounded MPMC
/// queue plus its drainer threads. Nothing is spawned until the first
/// queued job, so engines that only use the blocking `permute` path cost
/// no threads.
struct QueueRuntime<T> {
    /// The queue, once started. Starting it freezes `capacity`/`workers`.
    slot: OnceLock<Arc<Bounded<QueuedJob<T>>>>,
    /// Capacity the queue will be created with.
    capacity: AtomicUsize,
    /// Drainer-thread count the queue will be started with (0 = match
    /// the worker pool's thread count).
    workers: AtomicUsize,
    /// Monotonic job ids, in submission order.
    next_job_id: AtomicU64,
}

impl<T> QueueRuntime<T> {
    fn new() -> Self {
        QueueRuntime {
            slot: OnceLock::new(),
            capacity: AtomicUsize::new(DEFAULT_QUEUE_CAPACITY),
            workers: AtomicUsize::new(0),
            next_job_id: AtomicU64::new(0),
        }
    }
}

/// The concurrent plan service: an LRU plan cache plus a scratch-buffer
/// pool, usable as `&self` from any number of threads.
///
/// * **Sharded LRU** — entries are distributed over [`SharedEngine::shards`]
///   independent `RwLock`ed maps by fingerprint, so lookups from different
///   threads rarely touch the same lock, and a hit takes only a read lock.
/// * **Single-flight builds** — a miss publishes a `Building` slot before
///   constructing the plan outside all locks; concurrent requests for the
///   same permutation wait on that slot (counted in
///   [`EngineStats::builds_deduped`]) instead of duplicating the König
///   coloring, and requests for *other* permutations proceed unimpeded.
/// * **Verified hits** — every hit compares the cached plan's full
///   permutation image with the requested one; a fingerprint collision is
///   counted ([`EngineStats::collisions`]) and treated as a miss that
///   replaces the entry, so the output is always correct.
/// * **Lock-free scratch** — scheduled runs borrow scratch from a
///   fixed-slot [`AtomicPtr`] pool; scatter runs skip scratch entirely.
/// * **Atomic stats** — [`SharedEngine::stats`] snapshots counters without
///   locking anything.
///
/// ```
/// use hmm_native::SharedEngine;
/// use hmm_perm::families;
///
/// let engine: SharedEngine<u32> = SharedEngine::new(32);
/// let p = families::random(1 << 12, 1);
/// let src: Vec<u32> = (0..1u32 << 12).collect();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             let mut dst = vec![0u32; 1 << 12];
///             engine.permute(&p, &src, &mut dst).unwrap();
///         });
///     }
/// });
/// let stats = engine.stats();
/// assert_eq!(stats.misses, 1, "single-flight: one build for four threads");
/// ```
pub struct SharedEngine<T> {
    core: Arc<EngineCore<T>>,
}

/// Cloning a [`SharedEngine`] clones a cheap handle to the same engine:
/// one cache, one scratch pool, one submission queue, one set of
/// counters. The engine itself shuts down (closing the queue and
/// resolving still-queued jobs with [`JobError::ShutDown`]) when the last
/// handle drops.
impl<T> Clone for SharedEngine<T> {
    fn clone(&self) -> Self {
        SharedEngine {
            core: Arc::clone(&self.core),
        }
    }
}

/// The engine state every [`SharedEngine`] handle (and every queue
/// drainer, via a `Weak`) shares. Dropping the last strong reference
/// closes the submission queue, which lets the drainer threads exit after
/// resolving whatever is still queued.
struct EngineCore<T> {
    width: usize,
    /// The execution backend every plan is prepared on. Swappable
    /// ([`SharedEngine::with_backend`]) but fixed per engine: cached
    /// executables belong to this backend.
    backend: Arc<dyn Backend<T>>,
    shards: Box<[Shard<T>]>,
    per_shard_capacity: usize,
    /// γ_w crossover, stored as `f64` bits so it is settable via `&self`.
    gamma_threshold: AtomicU64,
    /// True once the threshold came from a measurement rather than the
    /// static default.
    calibrated: AtomicBool,
    /// Kernel config scheduled plans are built with. A plain mutex — it
    /// is read once per plan *build*, never on the run path.
    kernel: Mutex<KernelConfig>,
    fingerprint_fn: fn(&Permutation) -> u64,
    /// Tier-2 cache: the on-disk plan store, when attached. Scheduled
    /// plans are loaded from (and saved to) it; the in-memory LRU stays
    /// tier 1.
    store: Option<PlanStore>,
    clock: AtomicU64,
    scratch: ScratchPool<T>,
    /// Shared with job handles and queue drainers, so completion and
    /// cancellation counting outlive the engine.
    stats: Arc<AtomicStats>,
    queue: QueueRuntime<T>,
}

impl<T> Drop for EngineCore<T> {
    fn drop(&mut self) {
        // Refuse new jobs and wake blocked pushers/poppers; the drainers
        // (holding only a `Weak` to this core) resolve remaining jobs
        // with `JobError::ShutDown` and exit.
        if let Some(q) = self.queue.slot.get() {
            q.close();
        }
    }
}

impl<T: Copy + Send + Sync + Default + 'static> SharedEngine<T> {
    /// Engine with the given schedule width and the default shard count
    /// and per-shard capacity.
    pub fn new(width: usize) -> Self {
        Self::with_shards(width, DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// Engine on an explicit execution backend (see
    /// [`crate::backend::by_name`] for the registry) with the default
    /// shard count and per-shard capacity. Plans cached by this engine
    /// are prepared — and therefore executed — by `backend`.
    pub fn with_backend(width: usize, backend: Arc<dyn Backend<T>>) -> Self {
        Self::with_parts(width, DEFAULT_SHARDS, DEFAULT_CAPACITY, backend)
    }

    /// Engine with explicit sharding: `shards` independent LRU maps of
    /// `per_shard_capacity` plans each (both ≥ 1). One shard is a single
    /// global LRU.
    pub fn with_shards(width: usize, shards: usize, per_shard_capacity: usize) -> Self {
        Self::with_parts(
            width,
            shards,
            per_shard_capacity,
            crate::backend::default_backend::<T>(),
        )
    }

    fn with_parts(
        width: usize,
        shards: usize,
        per_shard_capacity: usize,
        backend: Arc<dyn Backend<T>>,
    ) -> Self {
        assert!(width > 0, "width must be positive");
        assert!(shards > 0, "shards must be positive");
        assert!(per_shard_capacity > 0, "capacity must be positive");
        let engine = SharedEngine {
            core: Arc::new(EngineCore {
                width,
                backend,
                shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
                per_shard_capacity,
                gamma_threshold: AtomicU64::new(DEFAULT_GAMMA_THRESHOLD.to_bits()),
                calibrated: AtomicBool::new(false),
                kernel: Mutex::new(KernelConfig::global()),
                fingerprint_fn: default_fingerprint,
                store: None,
                clock: AtomicU64::new(0),
                scratch: ScratchPool::new(),
                stats: Arc::new(AtomicStats::default()),
                queue: QueueRuntime::new(),
            }),
        };
        if std::env::var(CALIBRATE_ENV).as_deref() == Ok("1") {
            engine.calibrate_gamma_threshold();
        }
        engine
    }

    /// Exclusive access to the core, for the few `&mut self` setters.
    /// Valid only while this handle is the engine's sole owner — before
    /// any clone, and before the first queued submission starts the
    /// drainer threads (which hold weak references).
    fn core_mut(&mut self) -> &mut EngineCore<T> {
        Arc::get_mut(&mut self.core).expect(
            "engine mutation requires sole ownership: call before cloning \
             the engine or submitting queued jobs",
        )
    }

    /// Engine with an on-disk **tier-2 plan store** at `dir` (created if
    /// missing): scheduled plans built by any process land in the store,
    /// and a cold process finds them there instead of re-running the
    /// König coloring — with a warm store, [`EngineStats::builds`] stays
    /// 0 while outputs still verify, because every disk hit is checked
    /// against the requested permutation (corrupt or colliding files are
    /// counted in [`EngineStats::store_rejects`], deleted, and rebuilt —
    /// never trusted).
    pub fn with_store(width: usize, dir: impl Into<PathBuf>) -> Result<Self> {
        let mut engine = Self::with_shards(width, DEFAULT_SHARDS, DEFAULT_CAPACITY);
        engine.core_mut().store = Some(PlanStore::open(dir)?);
        Ok(engine)
    }

    /// Attach (or replace) the on-disk plan store after construction.
    /// Requires sole ownership (call before cloning the engine or
    /// submitting queued jobs).
    pub fn set_store(&mut self, store: PlanStore) {
        self.core_mut().store = Some(store);
    }

    /// The attached on-disk plan store, if any.
    pub fn store(&self) -> Option<&PlanStore> {
        self.core.store.as_ref()
    }

    /// Measure the scatter/scheduled crossover on *this* host and adopt
    /// it as the engine's γ_w threshold, replacing the static
    /// [`DEFAULT_GAMMA_THRESHOLD`]. The measurement times one fused
    /// three-sweep run (its cost is γ-independent) against scattered
    /// runs at a low-γ and a high-γ point, fits the affine scatter cost
    /// `a + b·γ`, and solves for the break-even γ, clamped to
    /// `[1, width]`. Falls back to the default when the measurement is
    /// degenerate (e.g. the width cannot be scheduled, or timer noise
    /// swamps the slope). The kernel config is left untouched.
    ///
    /// Off by default — construction runs it automatically only when the
    /// environment variable [`CALIBRATE_ENV`] (`HMM_NATIVE_CALIBRATE`)
    /// is set to `1`. Returns the threshold now in effect; the result is
    /// surfaced as [`EngineStats::gamma_threshold`] /
    /// [`EngineStats::calibrated`]. Affects plans built after the call.
    pub fn calibrate_gamma_threshold(&self) -> f64 {
        // Probes run over u32 payloads; re-resolve this engine's backend
        // (by registry name) at that element type so the measurement
        // times the implementation that will actually execute the plans.
        let probe = crate::backend::by_name::<u32>(self.core.backend.name())
            .unwrap_or_else(crate::backend::default_backend::<u32>);
        let t = measured_crossover(&*probe, self.core.width, self.kernel_config())
            .unwrap_or(DEFAULT_GAMMA_THRESHOLD);
        self.set_gamma_threshold(t);
        self.core.calibrated.store(true, Ordering::Relaxed);
        t
    }

    /// Override the kernel config scheduled plans are built with (block
    /// size, tile, SIMD, computed-index). Affects plans built after the
    /// call; already-cached plans keep the config they were built with.
    pub fn set_kernel_config(&self, config: KernelConfig) {
        *self
            .core
            .kernel
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = config;
    }

    /// The kernel config scheduled plans are currently built with.
    pub fn kernel_config(&self) -> KernelConfig {
        *self
            .core
            .kernel
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Override the γ_w crossover below which scatter is chosen. Set to
    /// `0.0` to force the scheduled backend, `f64::INFINITY` to force
    /// scatter. Affects plans built after the call.
    pub fn set_gamma_threshold(&self, threshold: f64) {
        self.core
            .gamma_threshold
            .store(threshold.to_bits(), Ordering::Relaxed);
    }

    /// Test seam: replace the fingerprint function (e.g. with a constant
    /// to force collisions, or a panicking one to inject worker-side
    /// failures). Call before caching anything — existing entries were
    /// keyed with the previous function — and before cloning the engine
    /// or submitting queued jobs (requires sole ownership).
    pub fn set_fingerprint_fn(&mut self, f: fn(&Permutation) -> u64) {
        self.core_mut().fingerprint_fn = f;
    }

    /// The schedule width plans are built with.
    pub fn width(&self) -> usize {
        self.core.width
    }

    /// Number of cache shards.
    pub fn shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Registry name of the backend this engine prepares plans on.
    pub fn backend_name(&self) -> &'static str {
        self.core.backend.name()
    }

    /// Replace the execution backend. Requires sole ownership (call
    /// before cloning the engine, caching plans, or submitting queued
    /// jobs) — cached plans belong to the backend that prepared them, so
    /// swapping mid-flight would mix executables across backends.
    pub fn set_backend(&mut self, backend: Arc<dyn Backend<T>>) {
        self.core_mut().backend = backend;
    }

    /// Counters since construction — a lock-free snapshot.
    pub fn stats(&self) -> EngineStats {
        self.core.stats.snapshot(
            self.gamma_threshold(),
            self.core.calibrated.load(Ordering::Relaxed),
            self.queue_depth() as u64,
            self.kernel_config(),
            self.core.backend.name(),
        )
    }

    /// Number of plans currently cached (in-flight builds included).
    pub fn cached_plans(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Scratch buffers currently parked in the lock-free pool.
    pub fn pooled_scratch_buffers(&self) -> usize {
        self.core.scratch.pooled()
    }

    fn gamma_threshold(&self) -> f64 {
        f64::from_bits(self.core.gamma_threshold.load(Ordering::Relaxed))
    }

    fn tick(&self) -> u64 {
        self.core.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard_for(&self, fp: u64) -> &Shard<T> {
        // The low fingerprint bits feed the in-shard HashMap, so pick the
        // shard from a multiplicative mix of the high bits.
        let mixed = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.core.shards[(mixed % self.core.shards.len() as u64) as usize]
    }

    /// Fetch (or build and cache) the plan for `p`. Concurrent callers for
    /// the same uncached permutation trigger exactly one build.
    pub fn plan(&self, p: &Permutation) -> Result<Arc<PermutePlan<T>>> {
        let key = PlanKey {
            fingerprint: (self.core.fingerprint_fn)(p),
            len: p.len(),
            width: self.core.width,
        };
        let shard = self.shard_for(key.fingerprint);
        loop {
            // Fast path: a read lock, a touch, a slot clone.
            let existing = {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                map.get(&key).map(|e| {
                    e.last_used.store(self.tick(), Ordering::Relaxed);
                    Arc::clone(&e.slot)
                })
            };
            let slot = match existing {
                Some(slot) => slot,
                None => {
                    // Miss path: write lock, double-check (another thread
                    // may have inserted since the read), publish Building.
                    let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                    match map.get(&key) {
                        Some(e) => {
                            e.last_used.store(self.tick(), Ordering::Relaxed);
                            Arc::clone(&e.slot)
                        }
                        None => {
                            self.evict_to_fit(&mut map);
                            let slot = Arc::new(BuildSlot::new());
                            map.insert(
                                key,
                                ShardEntry {
                                    slot: Arc::clone(&slot),
                                    last_used: AtomicU64::new(self.tick()),
                                },
                            );
                            drop(map);
                            self.core.stats.misses.fetch_add(1, Ordering::Relaxed);
                            return self.build_into(&slot, shard, key, p);
                        }
                    }
                }
            };
            let (outcome, waited) = slot.wait();
            match outcome {
                Ok(plan) => {
                    if plan.permutation.as_slice() == p.as_slice() {
                        let counter = if waited {
                            &self.core.stats.builds_deduped
                        } else {
                            &self.core.stats.hits
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        return Ok(plan);
                    }
                    // Fingerprint collision: the cached plan is for a
                    // *different* permutation with the same key. Count it,
                    // then treat it as a miss that replaces the entry.
                    self.core.stats.collisions.fetch_add(1, Ordering::Relaxed);
                    let replacement = {
                        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                        match map.get_mut(&key) {
                            // Replace only the slot we verified against; a
                            // concurrent replacement means the entry may
                            // now match `p` — retry the lookup instead.
                            Some(e) if Arc::ptr_eq(&e.slot, &slot) => {
                                let fresh = Arc::new(BuildSlot::new());
                                e.slot = Arc::clone(&fresh);
                                e.last_used.store(self.tick(), Ordering::Relaxed);
                                Some(fresh)
                            }
                            _ => None,
                        }
                    };
                    match replacement {
                        Some(fresh) => {
                            self.core.stats.misses.fetch_add(1, Ordering::Relaxed);
                            return self.build_into(&fresh, shard, key, p);
                        }
                        None => continue,
                    }
                }
                Err(e) => {
                    // The owning build failed; it already unpublished the
                    // entry, so waiters report the same error and later
                    // calls start a fresh build.
                    return Err(e);
                }
            }
        }
    }

    /// Construct the plan for a slot this thread owns, publish the result,
    /// and unpublish the map entry on failure so the error is not sticky.
    fn build_into(
        &self,
        slot: &Arc<BuildSlot<T>>,
        shard: &Shard<T>,
        key: PlanKey,
        p: &Permutation,
    ) -> Result<Arc<PermutePlan<T>>> {
        let mut guard = FillOnPanic {
            slot,
            n: p.len(),
            armed: true,
        };
        let built = self.construct_plan(p, key.fingerprint);
        guard.armed = false;
        match built {
            Ok(plan) => {
                let plan = Arc::new(plan);
                slot.fill(Ok(Arc::clone(&plan)));
                Ok(plan)
            }
            Err(e) => {
                {
                    let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                    if let Some(entry) = map.get(&key) {
                        if Arc::ptr_eq(&entry.slot, slot) {
                            map.remove(&key);
                        }
                    }
                }
                slot.fill(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Produce the plan for `p` at this engine's width: the γ decision
    /// first (scatter plans are cheap and never touch the store), then
    /// the tier-2 store when attached, then the structured (BMMC) fast
    /// path — a closed-form plan counted in
    /// [`EngineStats::plans_structured`] — and only for genuinely
    /// unstructured permutations a fresh König build, counted in
    /// [`EngineStats::builds`]. Both kinds of built plan are saved back
    /// to the store. Every arm ends in a [`Backend::prepare`] on the
    /// engine's backend — the γ decision only picks the *route*, gated
    /// by what the backend can execute ([`Backend::capabilities`]).
    /// `fingerprint` is the cache key's, so a miss hashes `p` once and
    /// the store is looked up under the same key the cache uses.
    fn construct_plan(&self, p: &Permutation, fingerprint: u64) -> Result<PermutePlan<T>> {
        let backend = &*self.core.backend;
        let caps = backend.capabilities();
        let gamma = distribution(p, self.core.width);
        if caps.scatter && (gamma <= self.gamma_threshold() || !caps.scheduled) {
            return PermutePlan::scatter_on(backend, p, gamma, self.kernel_config());
        }
        if let Some(store) = &self.core.store {
            let key = StoreKey {
                fingerprint,
                n: p.len(),
                width: self.core.width,
            };
            match store.load(&key) {
                Ok(Some(ir)) if ir.matches(p) => {
                    self.core.stats.store_hits.fetch_add(1, Ordering::Relaxed);
                    self.note_affine(&ir);
                    return PermutePlan::from_ir_on(backend, &ir, self.kernel_config());
                }
                Ok(None) => {}
                // A decodable plan for a *different* permutation (a
                // fingerprint collision) or an unreadable/corrupt file:
                // count it, delete the file, fall through to a fresh
                // build. A store file is never trusted past verification.
                Ok(Some(_)) | Err(_) => {
                    self.core
                        .stats
                        .store_rejects
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = store.remove(&key);
                }
            }
        }
        // Structured fast path: affine/BMMC permutations (transpose,
        // bit-reversal, shuffle, hypercube, ...) get their pass
        // permutations emitted in closed form — milliseconds where the
        // coloring below takes seconds at 4M. Counted separately so the
        // `builds` seam keeps meaning "König colorings actually
        // performed".
        if let Some(built) =
            PlanIr::build_structured_par(p, self.core.width, crate::par::worker_threads())
        {
            let ir = built?;
            self.core
                .stats
                .plans_structured
                .fetch_add(1, Ordering::Relaxed);
            self.note_affine(&ir);
            if let Some(store) = &self.core.store {
                // Saved like any built plan, so cross-process cold starts
                // stay store-driven for every family.
                let _ = store.save(&ir);
            }
            return PermutePlan::from_ir_on(backend, &ir, self.kernel_config());
        }
        // Cold build: route through the parallel plan compiler on the
        // engine's thread budget. Output is byte-identical to the
        // sequential builder at any budget, so cached, stored, and
        // freshly-built plans can never disagree. (Detection above
        // already said no, so this is always a genuine coloring.)
        let ir = PlanIr::build_par(p, self.core.width, crate::par::worker_threads())?;
        self.core.stats.builds.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.core.store {
            // Best effort: a failed save must never fail the permute.
            let _ = store.save(&ir);
        }
        PermutePlan::from_ir_on(backend, &ir, self.kernel_config())
    }

    /// Count a prepared IR that carries affine descriptors
    /// ([`EngineStats::plans_affine`]).
    fn note_affine(&self, ir: &PlanIr) {
        if ir.affine().is_some() {
            self.core.stats.plans_affine.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict least-recently-used resolved entries until an insert fits.
    /// In-flight builds are skipped (their builder and waiters hold the
    /// slot), so a shard can transiently exceed capacity while every
    /// resident plan is still being constructed.
    fn evict_to_fit(&self, map: &mut HashMap<PlanKey, ShardEntry<T>>) {
        while map.len() >= self.core.per_shard_capacity {
            let victim = map
                .iter()
                .filter(|(_, e)| !e.slot.is_building())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.core.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Execute `dst[P[i]] = src[i]` through the cache: plan lookup (or
    /// single-flight build), pooled scratch, backend dispatch.
    ///
    /// # Panics
    /// Panics if `src.len() != dst.len()` or either differs from `p.len()`.
    pub fn permute(&self, p: &Permutation, src: &[T], dst: &mut [T]) -> Result<()> {
        let plan = self.plan(p)?;
        self.run_plan(&plan, src, dst);
        Ok(())
    }

    /// Fetch (or build and cache) one plan for the whole `chain` of
    /// permutations, given in **application order**: the plan realises
    /// `chain[k-1] ∘ … ∘ chain[0]`, i.e. applying it once equals
    /// applying `chain[0]` first and `chain[k-1]` last. The composite is
    /// keyed into the same fingerprint→plan cache as any other
    /// permutation, so repeated pipelines (a bitonic exchange stage, the
    /// six-step FFT's transpose∘bit-reversal) pay composition once and
    /// hit thereafter. When every link is affine the composite is too,
    /// and planning takes the structured fast path: one memory round
    /// trip per fused chain, three sweeps instead of `3·k`.
    ///
    /// Errors with [`PermError::LengthMismatch`] (via
    /// [`Permutation::compose_chain`]) on an empty chain or mismatched
    /// lengths.
    ///
    /// [`PermError::LengthMismatch`]: hmm_perm::PermError::LengthMismatch
    pub fn plan_fused(&self, chain: &[&Permutation]) -> Result<Arc<PermutePlan<T>>> {
        let composite = Permutation::compose_chain(chain).map_err(hmm_plan::PlanError::from)?;
        self.plan(&composite)
    }

    /// Execute an entire permutation `chain` (application order, see
    /// [`SharedEngine::plan_fused`]) in one pass: `dst` receives what
    /// applying every link in sequence would have produced, without the
    /// intermediate round trips.
    ///
    /// # Panics
    /// Panics if `src.len() != dst.len()` or either differs from the
    /// chain's length.
    pub fn permute_fused(&self, chain: &[&Permutation], src: &[T], dst: &mut [T]) -> Result<()> {
        let plan = self.plan_fused(chain)?;
        self.run_plan(&plan, src, dst);
        Ok(())
    }

    /// Execute an already-fetched plan with pooled scratch. Plans that
    /// need no scratch ([`PermutePlan::scratch_len`] of 0 — every
    /// scatter plan) never touch (or allocate) the pool; others borrow a
    /// buffer of exactly the executable's declared size, whatever
    /// backend prepared it.
    pub fn run_plan(&self, plan: &PermutePlan<T>, src: &[T], dst: &mut [T]) {
        let scratch_len = plan.scratch_len();
        if scratch_len == 0 {
            plan.run_with_scratch(src, dst, &mut []);
        } else {
            let mut scratch = self.core.scratch.take(scratch_len);
            plan.run_with_scratch(src, dst, &mut scratch);
            self.core.scratch.put(scratch);
        }
        let counter = match plan.route() {
            Route::Scatter => &self.core.stats.scatter_runs,
            Route::Scheduled => &self.core.stats.scheduled_runs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply one permutation to many `(src, dst)` pairs.
    ///
    /// The members are routed through the **submission queue** (see
    /// [`SharedEngine::submit`]) and this call blocks until every one has
    /// resolved — so concurrent `permute_batch` calls and [`submit`]ters
    /// interleave their jobs across the same drainer threads instead of
    /// convoying behind one caller's batch. Plan resolution happens once
    /// under the single-flight machinery no matter how many members the
    /// batch has. Called from inside a worker-pool task, the jobs run
    /// inline instead (waiting on the queue there could deadlock the
    /// pool's dispatch lock).
    ///
    /// [`submit`]: SharedEngine::submit
    ///
    /// # Panics
    /// Panics if any job's `src.len()` or `dst.len()` differs from
    /// `p.len()`, or if a queued member's execution panics.
    pub fn permute_batch<'a, I>(&self, p: &Permutation, jobs: I) -> Result<()>
    where
        I: IntoIterator<Item = (&'a [T], &'a mut [T])>,
        T: 'a,
    {
        let jobs: Vec<(&'a [T], &'a mut [T])> = jobs.into_iter().collect();
        if jobs.is_empty() {
            return Ok(());
        }
        // Validate every member before any pointer is enqueued, so the
        // borrowed payloads below never outlive a panicking caller.
        for (src, dst) in &jobs {
            assert!(
                src.len() == p.len() && dst.len() == p.len(),
                "permute_batch: job buffers must match the permutation length"
            );
        }
        if crate::pool::in_pool_task() {
            // Blocking on queue drainers from inside a pool task would
            // deadlock the pool's run lock; run the members inline.
            let plan = self.plan(p)?;
            for (src, dst) in jobs {
                self.run_plan(&plan, src, dst);
            }
            return Ok(());
        }
        let p = Arc::new(p.clone());
        let handles: Vec<JobHandle<T>> = jobs
            .into_iter()
            .map(|(src, dst)| {
                self.submit_payload(
                    Arc::clone(&p),
                    Payload::Borrowed {
                        src: src.as_ptr(),
                        dst: dst.as_mut_ptr(),
                        len: src.len(),
                    },
                )
            })
            .collect();
        // Wait for EVERY member before returning — even after an error —
        // because the queue holds raw pointers into the caller's slices
        // until each job resolves.
        let mut first_err: Option<JobError> = None;
        for h in handles {
            if let Err(e) = h.wait() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(JobError::Plan(e)) => Err(e),
            Some(JobError::Panicked(msg)) => panic!("queued batch job panicked: {msg}"),
            // Cancelled/ShutDown/AlreadyRetrieved cannot reach these
            // private handles while `&self` keeps the engine alive.
            Some(other) => panic!("unexpected queued batch outcome: {other}"),
        }
    }

    /// The submission queue, started (with its drainer threads) on first
    /// use. The drainers hold a `Weak` to the engine core, so they never
    /// keep a dropped engine alive — they drain, resolve, and exit.
    fn queue(&self) -> &Arc<Bounded<QueuedJob<T>>> {
        self.core.queue.slot.get_or_init(|| {
            let cap = self.core.queue.capacity.load(Ordering::Relaxed);
            let queue = Arc::new(Bounded::new(cap));
            let drainers = match self.core.queue.workers.load(Ordering::Relaxed) {
                0 => crate::par::worker_threads(),
                w => w,
            };
            for i in 0..drainers {
                let q = Arc::clone(&queue);
                let weak = Arc::downgrade(&self.core);
                let stats = Arc::clone(&self.core.stats);
                std::thread::Builder::new()
                    .name(format!("hmm-native-queue-{i}"))
                    .spawn(move || queue_drainer_loop(&q, &weak, &stats))
                    .expect("failed to spawn queue drainer");
            }
            queue
        })
    }

    /// Configure the submission queue **before its first use**: `capacity`
    /// bounds how many jobs may wait (pushes beyond it block — that is the
    /// backpressure the stress suite leans on), and `drainers` sets the
    /// drainer-thread count (`0` = match the worker pool). Returns `false`
    /// (and changes nothing) once the queue has already started.
    pub fn set_queue_config(&self, capacity: usize, drainers: usize) -> bool {
        if self.core.queue.slot.get().is_some() {
            return false;
        }
        self.core
            .queue
            .capacity
            .store(capacity.max(1), Ordering::Relaxed);
        self.core.queue.workers.store(drainers, Ordering::Relaxed);
        self.core.queue.slot.get().is_none()
    }

    /// Jobs currently waiting in the submission queue (a gauge; 0 when
    /// the queue has never been used). Jobs a drainer has already claimed
    /// are not counted.
    pub fn queue_depth(&self) -> usize {
        self.core.queue.slot.get().map_or(0, |q| q.len())
    }

    /// The submission queue's bounded capacity (the configured value
    /// until the queue starts, the frozen one after).
    pub fn queue_capacity(&self) -> usize {
        self.core
            .queue
            .slot
            .get()
            .map(|q| q.capacity())
            .unwrap_or_else(|| self.core.queue.capacity.load(Ordering::Relaxed))
    }

    /// Record one admission-control rejection in this engine's stats
    /// ([`EngineStats::admission_rejects`]). The engine never rejects
    /// anything itself — this is the reporting seam for front doors that
    /// gate submissions with their own quotas (the `hmm-server`
    /// per-client plan and in-flight limits), so operators read one
    /// counter set for the whole service.
    pub fn note_admission_reject(&self) {
        self.core
            .stats
            .admission_rejects
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Block until every job ever submitted to this engine has resolved
    /// (`submitted == completed + cancelled`) — the flush half of a
    /// graceful shutdown: stop feeding the engine, `drain()`, then drop
    /// it. Returns immediately when the queue was never used. The
    /// balance is re-read until it holds on two consecutive sleeps, so a
    /// drainer mid-`finish` cannot satisfy the check transiently.
    ///
    /// `drain` only waits for jobs already counted in
    /// [`EngineStats::submitted`]; the caller owns the guarantee that no
    /// new `submit` races the drain (in `hmm-server`, the accept loop is
    /// closed and every connection refuses new work first).
    pub fn drain(&self) {
        let mut stable = 0u32;
        loop {
            let s = &self.core.stats;
            let submitted = s.submitted.load(Ordering::Relaxed);
            let resolved =
                s.completed.load(Ordering::Relaxed) + s.cancelled.load(Ordering::Relaxed);
            if submitted == resolved {
                stable += 1;
                if stable >= 2 {
                    return;
                }
            } else {
                stable = 0;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Enqueue one permutation job and return immediately with a
    /// [`JobHandle`]. The job's plan is resolved **on the drainer side**
    /// (cache → store → König build, under the engine's single-flight
    /// machinery), so a dispatcher can enqueue hundreds of heterogeneous
    /// permutations without ever blocking on a build. `submit` blocks
    /// only when the bounded queue is full (backpressure).
    ///
    /// The handle always resolves: success carries the permuted `dst`
    /// back in a [`JobReport`]; a failed build, a drainer panic, a
    /// cancellation, or an engine shutdown resolve it with the matching
    /// [`JobError`] instead of hanging the waiter. A size mismatch
    /// between `p`, `src`, and `dst` resolves the handle immediately
    /// with [`PlanError::SizeMismatch`] (the blocking [`permute`] panics
    /// instead).
    ///
    /// [`permute`]: SharedEngine::permute
    ///
    /// ```
    /// use hmm_native::SharedEngine;
    /// use hmm_perm::families;
    ///
    /// let engine: SharedEngine<u32> = SharedEngine::new(32);
    /// let p = families::random(1 << 10, 1);
    /// let src: Vec<u32> = (0..1u32 << 10).collect();
    /// let handle = engine.submit(&p, src.clone(), vec![0u32; 1 << 10]);
    /// let report = handle.wait().unwrap();
    /// let mut expect = vec![0u32; 1 << 10];
    /// p.permute(&src, &mut expect).unwrap();
    /// assert_eq!(report.dst, expect);
    /// ```
    pub fn submit(&self, p: &Permutation, src: impl Into<Arc<[T]>>, dst: Vec<T>) -> JobHandle<T> {
        self.submit_payload(
            Arc::new(p.clone()),
            Payload::Owned {
                src: src.into(),
                dst,
            },
        )
    }

    /// Enqueue one permutation applied to many `(src, dst)` pairs and
    /// return immediately with a [`BatchHandle`] (one [`JobHandle`] per
    /// member, in submission order). Unlike the blocking
    /// [`permute_batch`], the caller keeps running while the members
    /// execute — and members interleave with every other submitter's
    /// jobs on the same queue.
    ///
    /// [`permute_batch`]: SharedEngine::permute_batch
    pub fn submit_batch<I>(&self, p: &Permutation, jobs: I) -> BatchHandle<T>
    where
        I: IntoIterator<Item = (Arc<[T]>, Vec<T>)>,
    {
        let p = Arc::new(p.clone());
        BatchHandle::new(
            jobs.into_iter()
                .map(|(src, dst)| self.submit_payload(Arc::clone(&p), Payload::Owned { src, dst }))
                .collect(),
        )
    }

    /// Common submission path: count the job, validate sizes, enqueue.
    fn submit_payload(&self, p: Arc<Permutation>, payload: Payload<T>) -> JobHandle<T> {
        let stats = &self.core.stats;
        let id = self.core.queue.next_job_id.fetch_add(1, Ordering::Relaxed);
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        let state = JobState::new();
        let handle = JobHandle::new(Arc::clone(&state), Arc::clone(stats), id);
        let (src_len, dst_len) = (payload.src_len(), payload.dst_len());
        if src_len != p.len() || dst_len != p.len() {
            // Resolve without a queue round-trip; counters stay balanced
            // (`submitted == completed + cancelled`).
            let got = if src_len != p.len() { src_len } else { dst_len };
            stats.completed.fetch_add(1, Ordering::Relaxed);
            state.begin();
            state.finish(Err(JobError::Plan(PlanError::SizeMismatch {
                expected: p.len(),
                got,
            })));
            return handle;
        }
        let job = QueuedJob { p, payload, state };
        if let Err(job) = self.queue().push(job) {
            // Only reachable if the queue closed mid-push — a teardown
            // race; resolve the handle instead of losing the job.
            job.resolve_shutdown(stats);
        }
        handle
    }

    /// Drainer-side execution of one claimed job: resolve the plan, run
    /// it, and resolve the handle — with panics caught so a failed build
    /// (or an injected fingerprint panic) resolves waiters instead of
    /// stranding them, and the drainer thread keeps serving.
    fn execute_job(&self, job: QueuedJob<T>) {
        let QueuedJob { p, payload, state } = job;
        if !state.begin() {
            // Cancelled while queued; `cancel()` already counted it.
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = self.plan(&p)?;
            let route = plan.route();
            let dst = match payload {
                Payload::Owned { src, mut dst } => {
                    self.run_plan(&plan, &src, &mut dst);
                    dst
                }
                Payload::Borrowed { src, dst, len } => {
                    // SAFETY: the `permute_batch` caller that erased these
                    // borrows blocks until this job's state resolves, and
                    // each member's dst slice is exclusive to one job.
                    let src = unsafe { std::slice::from_raw_parts(src, len) };
                    let dst = unsafe { std::slice::from_raw_parts_mut(dst, len) };
                    self.run_plan(&plan, src, dst);
                    Vec::new()
                }
            };
            Ok(JobReport { dst, route })
        }));
        let result = match outcome {
            Ok(done) => done,
            Err(panic) => Err(JobError::Panicked(panic_message(panic.as_ref()))),
        };
        // Count before notifying, so a waiter that wakes immediately
        // already sees the job accounted for in the stats.
        self.core.stats.completed.fetch_add(1, Ordering::Relaxed);
        state.finish(result);
    }
}

/// Render a caught panic payload for [`JobError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One queue drainer: claim jobs until the queue closes and drains. The
/// engine is reached through a `Weak` so drainers never keep a dropped
/// engine alive; once the last handle is gone, remaining jobs resolve
/// with [`JobError::ShutDown`].
fn queue_drainer_loop<T: Copy + Send + Sync + Default + 'static>(
    queue: &Bounded<QueuedJob<T>>,
    core: &Weak<EngineCore<T>>,
    stats: &Arc<AtomicStats>,
) {
    while let Some(job) = queue.pop() {
        match core.upgrade() {
            Some(core) => SharedEngine { core }.execute_job(job),
            None => job.resolve_shutdown(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    const W: usize = 32;

    fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    #[test]
    fn engines_are_send_and_sync() {
        fn assert_sync_send<X: Sync + Send>() {}
        assert_sync_send::<SharedEngine<u32>>();
        assert_sync_send::<SharedEngine<u64>>();
    }

    #[test]
    fn engine_is_correct_for_all_families() {
        let n = 1 << 12;
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0xdead_beef).collect();
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        for fam in families::Family::ALL {
            let p = fam.build(n, 3).unwrap();
            let mut dst = vec![0u32; n];
            engine.permute(&p, &src, &mut dst).unwrap();
            assert_eq!(dst, reference(&p, &src), "{}", fam.name());
        }
    }

    #[test]
    fn repeat_calls_hit_the_cache() {
        let n = 1 << 12;
        let p = families::random(n, 11);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        for _ in 0..5 {
            engine.permute(&p, &src, &mut dst).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.collisions, 0);
        assert_eq!(engine.cached_plans(), 1);
        assert_eq!(dst, reference(&p, &src));
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let n = 1 << 10;
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, 2);
        let perms: Vec<Permutation> = (0..3).map(|s| families::random(n, 100 + s)).collect();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        // Fill: p0, p1. Touch p0 so p1 becomes LRU. Insert p2 -> evict p1.
        engine.permute(&perms[0], &src, &mut dst).unwrap();
        engine.permute(&perms[1], &src, &mut dst).unwrap();
        engine.permute(&perms[0], &src, &mut dst).unwrap();
        engine.permute(&perms[2], &src, &mut dst).unwrap();
        assert_eq!(engine.stats().evictions, 1);
        assert_eq!(engine.cached_plans(), 2);
        // p0 survived (hit), p1 was evicted (miss again), totals check out.
        engine.permute(&perms[0], &src, &mut dst).unwrap();
        engine.permute(&perms[1], &src, &mut dst).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.misses, 4); // p0, p1, p2, p1-again
        assert_eq!(stats.hits, 2); // p0 twice
    }

    #[test]
    fn gamma_decision_picks_backends_like_table_ii() {
        let n = 1 << 12;
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        let ident = engine.plan(&families::identical(n)).unwrap();
        assert_eq!(ident.route(), Route::Scatter);
        assert!(ident.gamma() <= 2.0);
        let rand = engine.plan(&families::random(n, 7)).unwrap();
        assert_eq!(rand.route(), Route::Scheduled);
        assert!(rand.gamma() > DEFAULT_GAMMA_THRESHOLD);
        let bitrev = engine.plan(&families::bit_reversal(n).unwrap()).unwrap();
        assert_eq!(bitrev.route(), Route::Scheduled);
    }

    #[test]
    fn threshold_overrides_force_a_backend() {
        let n = 1 << 10;
        let p = families::random(n, 9);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];

        let force_scatter: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        force_scatter.set_gamma_threshold(f64::INFINITY);
        force_scatter.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(force_scatter.stats().scatter_runs, 1);
        assert_eq!(dst, reference(&p, &src));

        let force_sched: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        force_sched.set_gamma_threshold(0.0);
        force_sched.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(force_sched.stats().scheduled_runs, 1);
        assert_eq!(dst, reference(&p, &src));
    }

    #[test]
    fn kernel_config_threads_through_plans() {
        let n = 1 << 10;
        let p = families::random(n, 44);
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine.set_gamma_threshold(0.0); // force the scheduled backend
        let cfg = KernelConfig {
            stage_bytes: 8192,
            simd: false,
            ..KernelConfig::default()
        };
        engine.set_kernel_config(cfg);
        assert_eq!(engine.kernel_config(), cfg);
        let plan = engine.plan(&p).unwrap();
        assert_eq!(plan.executable().kernel_config(), cfg);
        let stats = engine.stats();
        assert_eq!(stats.kernel_stage_bytes, 8192);
        assert!(!stats.kernel_simd);
        // The snapshot names whatever backend the engine resolved
        // (HMM_BACKEND can redirect a whole test run).
        assert_eq!(stats.backend, plan.executable().backend_name());
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        engine.run_plan(&plan, &src, &mut dst);
        assert_eq!(dst, reference(&p, &src));
    }

    #[test]
    fn batch_reuses_one_plan_lookup() {
        let n = 1 << 11;
        let p = families::random(n, 21);
        let srcs: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..n as u32).map(|v| v.wrapping_add(k)).collect())
            .collect();
        let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; 4];
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine
            .permute_batch(
                &p,
                srcs.iter()
                    .map(|s| s.as_slice())
                    .zip(dsts.iter_mut().map(|d| d.as_mut_slice())),
            )
            .unwrap();
        let stats = engine.stats();
        // Queue-routed members each call plan(), but single-flight plus
        // the cache keep the build count at one.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.scheduled_runs + stats.scatter_runs, 4);
        assert_eq!(stats.submitted, 4, "batch members route through the queue");
        assert_eq!(stats.completed, 4);
        for (src, dst) in srcs.iter().zip(&dsts) {
            assert_eq!(dst, &reference(&p, src));
        }
    }

    #[test]
    fn fingerprint_distinguishes_permutations() {
        // The engine keys by the shared `Permutation::fingerprint`; the
        // hash's properties themselves are tested in hmm-perm.
        let n = 1 << 10;
        let a = default_fingerprint(&families::random(n, 1));
        let b = default_fingerprint(&families::random(n, 2));
        let ident = default_fingerprint(&Permutation::identity(n));
        assert_ne!(a, b);
        assert_ne!(a, ident);
        // Deterministic: same permutation, same fingerprint.
        assert_eq!(a, families::random(n, 1).fingerprint());
        // Length participates even when images prefix-match.
        assert_ne!(
            default_fingerprint(&Permutation::identity(64)),
            default_fingerprint(&Permutation::identity(128))
        );
    }

    #[test]
    fn collision_is_detected_counted_and_corrected() {
        // Force every permutation onto one PlanKey: the cache must notice
        // the full-image mismatch instead of running the wrong plan.
        let n = 1 << 10;
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine.set_fingerprint_fn(|_| 0xdead_beef);
        let p1 = families::random(n, 1);
        let p2 = families::random(n, 2);

        engine.permute(&p1, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(&p1, &src));
        // Same key, different permutation: collision, rebuilt, correct.
        engine.permute(&p2, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(&p2, &src), "collision must not corrupt");
        let stats = engine.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
        // p2 now owns the key: a repeat is a verified hit.
        engine.permute(&p2, &src, &mut dst).unwrap();
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.cached_plans(), 1);
    }

    #[test]
    fn scratch_pool_is_bounded_and_reused() {
        let n = 1 << 10;
        let p = families::random(n, 33); // high γ -> scheduled -> scratch
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        for _ in 0..10 {
            engine.permute(&p, &src, &mut dst).unwrap();
        }
        let pooled = engine.pooled_scratch_buffers();
        assert!(pooled >= 1, "scheduled runs must park scratch for reuse");
        assert!(pooled <= SCRATCH_POOL_CAP);
    }

    #[test]
    fn scatter_plans_never_touch_the_scratch_pool() {
        // A scatter-only engine must not allocate (or pool) n-element
        // scratch buffers the backend never reads.
        let n = 1 << 12;
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine.set_gamma_threshold(f64::INFINITY); // force scatter
        for seed in 0..4 {
            let p = families::random(n, seed);
            engine.permute(&p, &src, &mut dst).unwrap();
            assert_eq!(dst, reference(&p, &src));
        }
        assert_eq!(engine.stats().scatter_runs, 4);
        assert_eq!(
            engine.pooled_scratch_buffers(),
            0,
            "scatter-only engines keep an empty scratch pool"
        );
    }

    #[test]
    fn shared_engine_basic_reuse_and_stats() {
        let n = 1 << 12;
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        let p = families::random(n, 5);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        for _ in 0..3 {
            engine.permute(&p, &src, &mut dst).unwrap();
        }
        assert_eq!(dst, reference(&p, &src));
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(engine.cached_plans(), 1);
        assert_eq!(engine.shards(), DEFAULT_SHARDS);
    }

    #[test]
    fn shared_engine_single_flight_dedupes_concurrent_builds() {
        let n = 1 << 12;
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        let p = families::random(n, 77);
        let src: Vec<u32> = (0..n as u32).collect();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut dst = vec![0u32; n];
                    barrier.wait();
                    engine.permute(&p, &src, &mut dst).unwrap();
                    assert_eq!(dst, reference(&p, &src));
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "exactly one build, no matter the race");
        assert_eq!(stats.hits + stats.builds_deduped, 3);
    }

    #[test]
    fn shared_engine_batch_runs_jobs_across_the_pool() {
        let n = 1 << 11;
        let p = families::random(n, 21);
        let srcs: Vec<Vec<u32>> = (0..6)
            .map(|k| (0..n as u32).map(|v| v.rotate_left(k)).collect())
            .collect();
        let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; 6];
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        engine
            .permute_batch(
                &p,
                srcs.iter()
                    .map(Vec::as_slice)
                    .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
            )
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.scheduled_runs + stats.scatter_runs, 6);
        for (src, dst) in srcs.iter().zip(&dsts) {
            assert_eq!(dst, &reference(&p, src));
        }
    }

    #[test]
    fn shared_engine_per_shard_lru_evicts() {
        let n = 1 << 10;
        // One shard, capacity 2: global LRU semantics, concurrent API.
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, 2);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        for s in 0..3 {
            engine
                .permute(&families::random(n, s), &src, &mut dst)
                .unwrap();
        }
        assert_eq!(engine.stats().evictions, 1);
        assert_eq!(engine.cached_plans(), 2);
    }

    /// Fresh, empty temp directory for one store test.
    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hmm-native-plan-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_skips_the_koenig_build() {
        let n = 1 << 12;
        let dir = temp_store_dir("warm");
        let p = families::random(n, 41); // high γ ⇒ scheduled ⇒ stored
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];

        let first: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        first.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(&p, &src));
        let s = first.stats();
        assert_eq!(s.builds, 1, "cold store: the plan is built once");
        assert_eq!(s.store_hits, 0);

        // A second engine — standing in for a fresh process — must find
        // the plan on disk and never run the coloring.
        let second: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        dst.fill(0);
        second.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(&p, &src));
        let s = second.stats();
        assert_eq!(s.builds, 0, "warm store: no König build");
        assert_eq!(s.store_hits, 1);
        assert_eq!(s.store_rejects, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scatter_plans_stay_out_of_the_store() {
        let n = 1 << 12;
        let dir = temp_store_dir("scatter");
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        engine
            .permute(&families::identical(n), &src, &mut dst)
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.scatter_runs, 1);
        assert_eq!(s.builds, 0);
        assert!(engine.store().unwrap().entries().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_file_is_rejected_and_rebuilt() {
        let n = 1 << 12;
        let dir = temp_store_dir("corrupt");
        let p = families::random(n, 43);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];

        let first: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        first.permute(&p, &src, &mut dst).unwrap();

        // Flip one byte in the middle of the stored plan.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|f| f.extension().is_some_and(|x| x == "hmmplan"))
            .expect("the scheduled plan must be on disk");
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&file, bytes).unwrap();

        let second: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        dst.fill(0);
        second.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(
            dst,
            reference(&p, &src),
            "corruption must not corrupt output"
        );
        let s = second.stats();
        assert_eq!(s.store_rejects, 1, "the damaged file is counted");
        assert_eq!(s.builds, 1, "and the plan rebuilt from scratch");

        // The rebuild re-saved a good file: a third engine hits it.
        let third: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        dst.fill(0);
        third.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(&p, &src));
        assert_eq!(third.stats().store_hits, 1);
        assert_eq!(third.stats().builds, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn calibration_sets_threshold_and_flag() {
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        // A fresh engine is uncalibrated — unless the suite itself runs
        // under HMM_NATIVE_CALIBRATE=1, which auto-calibrates at creation.
        let env_calibrated = std::env::var(CALIBRATE_ENV).as_deref() == Ok("1");
        let before = engine.stats();
        assert_eq!(before.calibrated, env_calibrated);
        if !env_calibrated {
            assert_eq!(before.gamma_threshold, DEFAULT_GAMMA_THRESHOLD);
        }
        let t = engine.calibrate_gamma_threshold();
        assert!((1.0..=W as f64).contains(&t) || t == DEFAULT_GAMMA_THRESHOLD);
        let after = engine.stats();
        assert!(after.calibrated);
        assert_eq!(after.gamma_threshold, t);
    }

    #[test]
    fn failed_builds_are_not_sticky() {
        // Length 0 is rejected by the permutation layer before any build;
        // use a permutation the backend cannot schedule? All families
        // build, so exercise the error path via a poisoned gamma choice:
        // scheduled backend on a non-factorable size.
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap(); // n = 3
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        engine.set_gamma_threshold(0.0); // force scheduled backend
        let err = engine.plan(&p);
        if err.is_err() {
            // The failure must not wedge the key: a scatter retry works.
            engine.set_gamma_threshold(f64::INFINITY);
            let plan = engine.plan(&p).unwrap();
            assert_eq!(plan.route(), Route::Scatter);
        }
    }
}
