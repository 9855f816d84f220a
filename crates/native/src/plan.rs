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
//! Plans are element-agnostic: the paper derives its three-pass schedule
//! from `P` alone and runs the same schedule on float and double arrays.
//! So everything above data movement lives in one `T`-free core — the
//! cache, the γ/kernel/store/fingerprint settings and the stats — and
//! [`SharedEngine<T>`] is a typed handle on it that adds only a scratch
//! pool of `T`. [`SharedEngine::view`] opens another element type on the
//! same core: a permutation planned through a u32 handle is a verified
//! hit through its u64 view.
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
//! one: a pointer check when the caller passes the storage the plan was
//! built from (a [`Permutation`] clone shares it), a full image compare
//! otherwise. A 64-bit fingerprint collision is therefore *detected*
//! rather than silently applying the wrong plan — the mismatch counts as
//! [`EngineStats::collisions`] and the entry is rebuilt for the requested
//! permutation. The default fingerprint is memoized per storage, so a hit
//! with the planning caller's object hashes nothing and compares nothing
//! element by element.
//!
//! Below the in-memory LRU sits an optional **tier-2 on-disk store**
//! ([`SharedEngine::with_store`]): scheduled plans are serialized through
//! [`hmm_plan`]'s versioned codec and keyed by `(fingerprint, n, width)`
//! (`width` is the schedule width `w`, never the element size),
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
//! The threshold is the fixed [`DEFAULT_GAMMA_THRESHOLD`];
//! [`SharedEngine::set_gamma_threshold`] overrides it per engine.

use crate::backend::{Backend, Executable};
use crate::cache::Shard;
use crate::config::KernelConfig;
use crate::scratch::ScratchPool;
use crate::stats::{AtomicStats, EngineStats};
use hmm_backend::{ExecPlan, Route};
use hmm_perm::distribution::distribution;
use hmm_perm::Permutation;
use hmm_plan::{PlanError, PlanIr, PlanStore, Result, StoreKey};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

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

/// The engine's default fingerprint: [`Permutation::fingerprint`] — the
/// one identity shared by the in-memory cache, the on-disk store, the
/// codec, and the CLI. Two distinct permutations colliding on both
/// fingerprint *and* length is a ~2⁻⁶⁴ event — and since every hit
/// verifies the full image, a collision costs a rebuild rather than a
/// wrong answer.
fn default_fingerprint(p: &Permutation) -> u64 {
    p.fingerprint()
}

/// Refuse a freshly built IR that does not realise `p`, so a faulty
/// builder surfaces as a typed error on its own miss call instead of
/// being served and cached.
fn check_built(ir: &PlanIr, p: &Permutation, builder: &str) -> Result<()> {
    if ir.matches(p) {
        Ok(())
    } else {
        Err(PlanError::Invalid {
            reason: format!("the {builder} build does not realise the requested permutation"),
        })
    }
}

/// A built, cached execution plan for one permutation, with no element
/// type: the γ_w route decision plus the [`Executable`] a [`Backend`]
/// prepared for it. One plan serves every typed handle on a core.
pub(crate) struct Plan {
    gamma: f64,
    exec: Executable,
    /// Kept for hit verification and for callers that want it back. It
    /// shares the storage of the permutation the plan was built for, so
    /// a hit with that object (or any clone of it) verifies by pointer.
    pub(crate) permutation: Permutation,
}

impl Plan {
    /// Prepare the single scattered pass of `p`.
    fn scatter(backend: Backend, p: &Permutation, gamma: f64) -> Result<Self> {
        Ok(Plan {
            gamma,
            // Scatter executables read no kernel config.
            exec: backend.prepare(ExecPlan::Scatter(p), KernelConfig::default())?,
            permutation: p.clone(),
        })
    }

    /// Prepare a scheduled plan for this IR — no König coloring happens
    /// here. `permutation` must be the one the IR realises: the engine
    /// passes the planning caller's own value after `ir.matches(p)`, so
    /// the plan shares the caller's storage and a later hit with that
    /// object verifies by pointer.
    fn scheduled(
        backend: Backend,
        ir: &PlanIr,
        config: KernelConfig,
        permutation: Permutation,
    ) -> Result<Self> {
        Ok(Plan {
            gamma: ir.gamma(),
            exec: backend.prepare(ExecPlan::Scheduled(ir), config)?,
            permutation,
        })
    }
}

/// A cached plan seen through a handle of element type `T`: a zero-cost
/// typed face on the width-free plan the engine caches, so the typed run
/// methods only accept `T` buffers.
#[repr(transparent)]
pub struct PermutePlan<T> {
    plan: Plan,
    _elem: PhantomData<fn(T) -> T>,
}

impl<T> std::fmt::Debug for PermutePlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PermutePlan")
            .field("route", &self.route())
            .field("gamma", &self.plan.gamma)
            .field("backend", &self.plan.exec.backend())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> PermutePlan<T> {
    /// Wrap an already-built backend-neutral [`PlanIr`] as a scheduled
    /// plan on the native backend with an explicit kernel
    /// config — no König coloring happens here, and no cache is touched.
    /// Fails with a typed error when the IR violates its contract
    /// (`PlanIr::validate`). The plan's [`permutation`] is recomposed
    /// from the IR's own three passes.
    ///
    /// [`permutation`]: PermutePlan::permutation
    pub fn from_ir_with(ir: &PlanIr, config: KernelConfig) -> Result<Self> {
        Ok(PermutePlan {
            plan: Plan::scheduled(Backend::Native, ir, config, ir.recompose())?,
            _elem: PhantomData,
        })
    }

    /// The typed face of a cached width-free plan, without a copy.
    fn typed(plan: Arc<Plan>) -> Arc<Self> {
        // SAFETY: `PermutePlan<T>` is `repr(transparent)` over `Plan` (its
        // only other field is a zero-sized `PhantomData`), so the two have
        // the same size and alignment, which is what `Arc::from_raw`
        // requires of a pointer that `Arc::<Plan>::into_raw` produced.
        // Dropping the result runs `Plan`'s drop glue, as the original
        // `Arc` would have.
        unsafe { Arc::from_raw(Arc::into_raw(plan).cast::<Self>()) }
    }

    /// The route (scatter or scheduled) this plan executes with.
    pub fn route(&self) -> Route {
        self.plan.exec.route()
    }

    /// The measured distribution γ_w(P) the decision was based on.
    pub fn gamma(&self) -> f64 {
        self.plan.gamma
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        self.plan.permutation.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The permutation this plan was built for. For a plan the engine
    /// cached, this is the planning caller's own value (its storage is
    /// shared, not copied), so cloning it hands out the identity a later
    /// hit verifies by pointer.
    pub fn permutation(&self) -> &Permutation {
        &self.plan.permutation
    }

    /// The prepared executable behind this plan — the seam for
    /// backend-specific tooling ([`crate::backend::as_native_scheduled`]).
    pub fn executable(&self) -> &Executable {
        &self.plan.exec
    }

    /// Scratch elements [`PermutePlan::run_with_scratch`] requires (0
    /// for scatter plans).
    pub fn scratch_len(&self) -> usize {
        self.plan.exec.scratch_len()
    }
}

impl<T: Copy + Send + Sync + Default> PermutePlan<T> {
    /// Execute `dst[P[i]] = src[i]` with caller-provided scratch of
    /// exactly [`PermutePlan::scratch_len`] elements (scatter plans take
    /// an empty slice).
    pub fn run_with_scratch(&self, src: &[T], dst: &mut [T], scratch: &mut [T]) {
        self.plan.exec.run(src, dst, scratch);
    }
}

/// The concurrent plan service: a typed handle on an element-agnostic
/// engine core (LRU plan cache, settings, stats) plus a scratch-buffer
/// pool of `T`, usable as `&self` from any number of threads.
///
/// * **Sharded LRU** — entries are distributed over [`SharedEngine::shards`]
///   independent `RwLock`ed maps by fingerprint, so lookups from different
///   threads rarely touch the same lock, and a hit takes only a read lock.
/// * **Single-flight builds** — a miss publishes a `Building` slot before
///   constructing the plan outside all locks; concurrent requests for the
///   same permutation wait on that slot (counted in
///   [`EngineStats::builds_deduped`]) instead of duplicating the König
///   coloring, and requests for *other* permutations proceed unimpeded.
/// * **Verified hits** — every hit checks the cached plan's permutation
///   against the requested one: by pointer when both share storage (the
///   plan holds the planning caller's permutation), by a full image
///   compare otherwise. A fingerprint collision is counted
///   ([`EngineStats::collisions`]) and treated as a miss that replaces
///   the entry, so the output is always correct.
/// * **One core for every element type** — plans carry no `T`, so
///   [`SharedEngine::view`] opens a handle of another element type on the
///   same cache and stats, with its own typed scratch pool.
/// * **Lock-free scratch** — scheduled runs borrow scratch from a
///   fixed-slot [`AtomicPtr`](std::sync::atomic::AtomicPtr) pool; scatter
///   runs skip scratch entirely.
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
    core: Arc<EngineCore>,
    scratch: Arc<ScratchPool<T>>,
}

/// Cloning a [`SharedEngine`] clones a cheap handle to the same engine:
/// one cache, one scratch pool, one set of counters.
impl<T> Clone for SharedEngine<T> {
    fn clone(&self) -> Self {
        SharedEngine {
            core: Arc::clone(&self.core),
            scratch: Arc::clone(&self.scratch),
        }
    }
}

/// The element-agnostic engine state every [`SharedEngine`] handle shares.
pub(crate) struct EngineCore {
    pub(crate) width: usize,
    /// The execution backend every plan is prepared on. Fixed per
    /// engine: cached executables belong to this backend.
    backend: Backend,
    pub(crate) shards: Box<[Shard]>,
    pub(crate) per_shard_capacity: usize,
    /// γ_w crossover, stored as `f64` bits so it is settable via `&self`.
    gamma_threshold: AtomicU64,
    /// Kernel config scheduled plans are built with. A plain mutex — it
    /// is read once per plan *build*, never on the run path.
    kernel: Mutex<KernelConfig>,
    pub(crate) fingerprint_fn: fn(&Permutation) -> u64,
    /// Tier-2 cache: the on-disk plan store, when attached. Scheduled
    /// plans are loaded from (and saved to) it; the in-memory LRU stays
    /// tier 1.
    store: Option<PlanStore>,
    pub(crate) clock: AtomicU64,
    pub(crate) stats: AtomicStats,
}

impl EngineCore {
    fn gamma_threshold(&self) -> f64 {
        f64::from_bits(self.gamma_threshold.load(Ordering::Relaxed))
    }

    fn kernel_config(&self) -> KernelConfig {
        *self.kernel.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Produce the plan for `p` at this engine's width: the γ decision
    /// first (scatter plans are cheap and never touch the store), then
    /// the tier-2 store when attached, then the structured (BMMC) fast
    /// path — a closed-form plan counted in
    /// [`EngineStats::plans_structured`] — and only for genuinely
    /// unstructured permutations a fresh König build, counted in
    /// [`EngineStats::builds`]. Both kinds of built plan are saved back
    /// to the store. Every arm ends in a [`Backend::prepare`] on the
    /// engine's backend. `fingerprint` is the cache key's, so a miss
    /// hashes `p` once and the store is looked up under the same key the
    /// cache uses.
    ///
    /// Every scheduled arm checks its IR against `p` once (`ir.matches`)
    /// and the plan then holds `p` itself — a clone sharing the caller's
    /// storage — rather than a map recomposed from the IR. A built IR
    /// that does not realise `p` fails with [`PlanError::Invalid`]
    /// instead of being cached.
    pub(crate) fn construct_plan(&self, p: &Permutation, fingerprint: u64) -> Result<Plan> {
        let gamma = distribution(p, self.width);
        if gamma <= self.gamma_threshold() {
            return Plan::scatter(self.backend, p, gamma);
        }
        if let Some(store) = &self.store {
            let key = StoreKey {
                fingerprint,
                n: p.len(),
                width: self.width,
            };
            match store.load(&key) {
                Ok(Some(ir)) if ir.matches(p) => {
                    self.stats.store_hits.fetch_add(1, Ordering::Relaxed);
                    self.note_affine(&ir);
                    return Plan::scheduled(self.backend, &ir, self.kernel_config(), p.clone());
                }
                Ok(None) => {}
                // A decodable plan for a *different* permutation (a
                // fingerprint collision) or an unreadable/corrupt file:
                // count it, delete the file, fall through to a fresh
                // build. A store file is never trusted past verification.
                Ok(Some(_)) | Err(_) => {
                    self.stats.store_rejects.fetch_add(1, Ordering::Relaxed);
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
            PlanIr::build_structured_par(p, self.width, crate::par::worker_threads())
        {
            let ir = built?;
            check_built(&ir, p, "structured")?;
            self.stats.plans_structured.fetch_add(1, Ordering::Relaxed);
            self.note_affine(&ir);
            if let Some(store) = &self.store {
                // Saved like any built plan, so cross-process cold starts
                // stay store-driven for every family.
                let _ = store.save(&ir);
            }
            return Plan::scheduled(self.backend, &ir, self.kernel_config(), p.clone());
        }
        // Cold build: route through the parallel plan compiler on the
        // engine's thread budget. Output is byte-identical to the
        // sequential builder at any budget, so cached, stored, and
        // freshly-built plans can never disagree. (Detection above
        // already said no, so this is always a genuine coloring.)
        let ir = PlanIr::build_par(p, self.width, crate::par::worker_threads())?;
        check_built(&ir, p, "König")?;
        self.stats.builds.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            // Best effort: a failed save must never fail the permute.
            let _ = store.save(&ir);
        }
        Plan::scheduled(self.backend, &ir, self.kernel_config(), p.clone())
    }

    /// Count a prepared IR that carries affine descriptors
    /// ([`EngineStats::plans_affine`]).
    fn note_affine(&self, ir: &PlanIr) {
        if ir.affine().is_some() {
            self.stats.plans_affine.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T: Copy + Send + Sync + Default + 'static> SharedEngine<T> {
    /// Engine with the given schedule width and the default shard count
    /// and per-shard capacity.
    pub fn new(width: usize) -> Self {
        Self::with_shards(width, DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// Engine on an explicit execution backend (see [`Backend::ALL`]
    /// for the registry) with the default
    /// shard count and per-shard capacity. Plans cached by this engine
    /// are prepared — and therefore executed — by `backend`.
    pub fn with_backend(width: usize, backend: Backend) -> Self {
        Self::with_parts(width, DEFAULT_SHARDS, DEFAULT_CAPACITY, backend)
    }

    /// Engine with explicit sharding: `shards` independent LRU maps of
    /// `per_shard_capacity` plans each (both ≥ 1). One shard is a single
    /// global LRU.
    pub fn with_shards(width: usize, shards: usize, per_shard_capacity: usize) -> Self {
        Self::with_parts(width, shards, per_shard_capacity, Backend::Native)
    }

    fn with_parts(
        width: usize,
        shards: usize,
        per_shard_capacity: usize,
        backend: Backend,
    ) -> Self {
        assert!(width > 0, "width must be positive");
        assert!(shards > 0, "shards must be positive");
        assert!(per_shard_capacity > 0, "capacity must be positive");
        SharedEngine {
            core: Arc::new(EngineCore {
                width,
                backend,
                shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
                per_shard_capacity,
                gamma_threshold: AtomicU64::new(DEFAULT_GAMMA_THRESHOLD.to_bits()),
                kernel: Mutex::new(KernelConfig::default()),
                fingerprint_fn: default_fingerprint,
                store: None,
                clock: AtomicU64::new(0),
                stats: AtomicStats::default(),
            }),
            scratch: Arc::new(ScratchPool::new()),
        }
    }

    /// A handle of element type `U` on this engine's core: the same plan
    /// cache, settings and stats, with a scratch pool of its own, so
    /// mixed-width traffic never reinterprets or thrashes a buffer. A
    /// permutation planned through one handle is a verified hit through
    /// every other.
    pub fn view<U: Copy + Send + Sync + Default + 'static>(&self) -> SharedEngine<U> {
        SharedEngine {
            core: Arc::clone(&self.core),
            scratch: Arc::new(ScratchPool::new()),
        }
    }

    /// Exclusive access to the core, for the few `&mut self` setters.
    /// Valid only while this handle is the engine's sole owner, before
    /// any clone or view.
    fn core_mut(&mut self) -> &mut EngineCore {
        Arc::get_mut(&mut self.core).expect(
            "engine mutation requires sole ownership: call before cloning \
             the engine or opening a view",
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
    /// Requires sole ownership (call before cloning the engine or opening
    /// a view).
    pub fn set_store(&mut self, store: PlanStore) {
        self.core_mut().store = Some(store);
    }

    /// The attached on-disk plan store, if any.
    pub fn store(&self) -> Option<&PlanStore> {
        self.core.store.as_ref()
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
        self.core.kernel_config()
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
    /// or opening a view (requires sole ownership).
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

    /// The backend this engine prepares plans on.
    pub fn backend(&self) -> Backend {
        self.core.backend
    }

    /// Counters since construction — a lock-free snapshot, the same
    /// through every handle on the core.
    pub fn stats(&self) -> EngineStats {
        self.core.stats.snapshot(
            self.core.gamma_threshold(),
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

    /// Scratch buffers currently parked in this handle's lock-free pool.
    pub fn pooled_scratch_buffers(&self) -> usize {
        self.scratch.pooled()
    }

    /// Fetch (or build and cache) the plan for `p`. Concurrent callers for
    /// the same uncached permutation trigger exactly one build.
    pub fn plan(&self, p: &Permutation) -> Result<Arc<PermutePlan<T>>> {
        self.core.plan(p).map(PermutePlan::typed)
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
            let mut scratch = self.scratch.take(scratch_len);
            plan.run_with_scratch(src, dst, &mut scratch);
            self.scratch.put(scratch);
        }
        let counter = match plan.route() {
            Route::Scatter => &self.core.stats.scatter_runs,
            Route::Scheduled => &self.core.stats.scheduled_runs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply one permutation to many `(src, dst)` pairs on the calling
    /// thread: the plan is resolved once, then every member runs through
    /// [`run_plan`](SharedEngine::run_plan). An empty batch plans nothing.
    ///
    /// # Panics
    /// Panics if any job's `src.len()` or `dst.len()` differs from
    /// `p.len()`.
    pub fn permute_batch<'a, I>(&self, p: &Permutation, jobs: I) -> Result<()>
    where
        I: IntoIterator<Item = (&'a [T], &'a mut [T])>,
        T: 'a,
    {
        let jobs: Vec<(&'a [T], &'a mut [T])> = jobs.into_iter().collect();
        if jobs.is_empty() {
            return Ok(());
        }
        for (src, dst) in &jobs {
            assert!(
                src.len() == p.len() && dst.len() == p.len(),
                "permute_batch: job buffers must match the permutation length"
            );
        }
        let plan = self.plan(p)?;
        for (src, dst) in jobs {
            self.run_plan(&plan, src, dst);
        }
        Ok(())
    }

    /// Record one admission-control rejection in this engine's stats
    /// ([`EngineStats::admission_rejects`]). The engine never rejects
    /// anything itself — this is the reporting seam for front doors that
    /// refuse requests with their own quotas before any job runs (the
    /// `hmm-server` per-session plan and jobs-per-request limits), so
    /// operators read one counter set for the whole service.
    pub fn note_admission_reject(&self) {
        self.core
            .stats
            .admission_rejects
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Run one job on the calling thread: the one execution path of every
    /// job. It counts in [`EngineStats::submitted`] before it starts and
    /// in [`EngineStats::completed`] once it has finished, so
    /// `submitted == completed` whenever no job is running. The plan is
    /// resolved as [`permute`](SharedEngine::permute) resolves it; a
    /// build error comes back as [`JobError::Plan`], a size mismatch as
    /// [`PlanError::SizeMismatch`] and a panic as [`JobError::Panicked`],
    /// never as an unwind into the caller, so the thread that ran it
    /// keeps serving.
    ///
    /// ```
    /// use hmm_native::SharedEngine;
    /// use hmm_perm::families;
    ///
    /// let engine: SharedEngine<u32> = SharedEngine::new(32);
    /// let p = families::random(1 << 10, 1);
    /// let src: Vec<u32> = (0..1u32 << 10).collect();
    /// let mut dst = vec![0u32; 1 << 10];
    /// engine.run_job(&p, &src, &mut dst).unwrap();
    /// let mut expect = vec![0u32; 1 << 10];
    /// p.permute(&src, &mut expect).unwrap();
    /// assert_eq!(dst, expect);
    /// let stats = engine.stats();
    /// assert_eq!((stats.submitted, stats.completed), (1, 1));
    /// ```
    pub fn run_job(
        &self,
        p: &Permutation,
        src: &[T],
        dst: &mut [T],
    ) -> std::result::Result<Route, JobError> {
        let stats = &self.core.stats;
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        let outcome = if src.len() != p.len() || dst.len() != p.len() {
            let got = if src.len() != p.len() {
                src.len()
            } else {
                dst.len()
            };
            Err(JobError::Plan(PlanError::SizeMismatch {
                expected: p.len(),
                got,
            }))
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                let plan = self.plan(p)?;
                self.run_plan(&plan, src, dst);
                Ok(plan.route())
            }))
            .unwrap_or_else(|panic| Err(JobError::Panicked(panic_message(panic.as_ref()))))
        };
        stats.completed.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// [`run_job`](SharedEngine::run_job) with owned buffers, returned as
    /// an already-resolved [`JobHandle`]. It exists only because the
    /// end-to-end benchmark's `queue.submit_wait` probe calls
    /// `engine.submit(p, src, dst).wait()` and reads `.dst`; it goes when
    /// the benchmark retires its `queue.*` probes.
    ///
    /// ```
    /// use hmm_native::SharedEngine;
    /// use hmm_perm::families;
    ///
    /// let engine: SharedEngine<u32> = SharedEngine::new(32);
    /// let p = families::random(1 << 10, 1);
    /// let src: Vec<u32> = (0..1u32 << 10).collect();
    /// let report = engine.submit(&p, &src, vec![0u32; 1 << 10]).wait().unwrap();
    /// let mut expect = vec![0u32; 1 << 10];
    /// p.permute(&src, &mut expect).unwrap();
    /// assert_eq!(report.dst, expect);
    /// ```
    pub fn submit(&self, p: &Permutation, src: impl AsRef<[T]>, mut dst: Vec<T>) -> JobHandle<T> {
        let outcome = self.run_job(p, src.as_ref(), &mut dst);
        JobHandle(outcome.map(|route| JobReport { dst, route }))
    }
}

/// Why a job run through [`SharedEngine::run_job`] produced no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Plan resolution failed (build error, store error, unsupported
    /// size, size mismatch): the error the blocking
    /// [`permute`](SharedEngine::permute) would have returned.
    Plan(PlanError),
    /// The job panicked while resolving or running its plan; the
    /// payload's message is kept.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Plan(e) => write!(f, "plan resolution failed: {e}"),
            JobError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Plan(e) => Some(e),
            JobError::Panicked(_) => None,
        }
    }
}

impl From<PlanError> for JobError {
    fn from(e: PlanError) -> Self {
        JobError::Plan(e)
    }
}

/// A finished job's output buffer and the route it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport<T> {
    /// The permuted output (`dst[P[i]] = src[i]`).
    pub dst: Vec<T>,
    /// The route (scatter or scheduled) the plan executed with.
    pub route: Route,
}

/// The outcome of [`SharedEngine::submit`], resolved before it is
/// returned.
#[derive(Debug)]
pub struct JobHandle<T>(std::result::Result<JobReport<T>, JobError>);

impl<T> JobHandle<T> {
    /// The job's outcome.
    pub fn wait(self) -> std::result::Result<JobReport<T>, JobError> {
        self.0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{ScratchBuf, SCRATCH_POOL_CAP};
    use hmm_perm::families::{self, Family};

    const W: usize = 32;

    fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    #[test]
    fn job_error_display_and_source() {
        let e = JobError::Panicked("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_none());
        let p = JobError::Plan(PlanError::UnsupportedSize {
            n: 96,
            reason: "not schedulable",
        });
        assert!(p.to_string().contains("not schedulable"));
        assert!(std::error::Error::source(&p).is_some());
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

        // The fixed default routes the end-to-end bench shapes (W = 32,
        // n = 64K) as the paper's Table II does: shuffle stays on the
        // one scattered pass, the rest take the three sweeps.
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        assert_eq!(engine.stats().gamma_threshold, DEFAULT_GAMMA_THRESHOLD);
        let n = 1 << 16;
        let route = |p: &Permutation| engine.plan(p).unwrap().route();
        assert_eq!(route(&families::shuffle(n).unwrap()), Route::Scatter);
        for p in [
            Family::Transpose.build(n, 0).unwrap(),
            families::random(n, 7),
            families::bit_reversal(n).unwrap(),
        ] {
            assert_eq!(route(&p), Route::Scheduled);
        }
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
    fn threshold_overrides_show_in_stats_through_every_handle() {
        let engine: SharedEngine<u32> = SharedEngine::new(W);
        let wide = engine.view::<u64>();
        for t in [0.0, 12.5, f64::INFINITY] {
            engine.set_gamma_threshold(t);
            assert_eq!(engine.stats().gamma_threshold, t);
            assert_eq!(wide.stats().gamma_threshold, t, "one core, one threshold");
        }
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
        assert_eq!(plan.executable().kernel_config(), Some(cfg));
        let stats = engine.stats();
        assert_eq!(stats.kernel_stage_bytes, 8192);
        assert!(!stats.kernel_simd);
        // The snapshot names the backend the plan was prepared on.
        assert_eq!(stats.backend, plan.executable().backend().name());
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        engine.run_plan(&plan, &src, &mut dst);
        assert_eq!(dst, reference(&p, &src));
    }

    #[test]
    fn batch_reuses_one_plan_lookup() {
        // One cache lookup per batch, whatever its width, every member run
        // on the calling thread (uncounted, like `permute`), and no lookup
        // at all for an empty batch.
        let n = 1 << 11;
        let p = families::random(n, 21);
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        let lookups = || {
            let s = engine.stats();
            s.hits + s.misses
        };
        engine.permute_batch(&p, std::iter::empty()).unwrap();
        assert_eq!(lookups(), 0, "an empty batch plans nothing");

        let srcs: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..n as u32).map(|v| v.wrapping_add(k)).collect())
            .collect();
        let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; 4];
        engine
            .permute_batch(
                &p,
                srcs.iter()
                    .map(|s| s.as_slice())
                    .zip(dsts.iter_mut().map(|d| d.as_mut_slice())),
            )
            .unwrap();
        assert_eq!(lookups(), 1, "one lookup for the u32 batch");
        for (src, dst) in srcs.iter().zip(&dsts) {
            assert_eq!(dst, &reference(&p, src));
        }

        let wide = engine.view::<u64>();
        let srcs64: Vec<Vec<u64>> = srcs
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&v| u64::from(v) << 32 | u64::from(v))
                    .collect()
            })
            .collect();
        let mut dsts64: Vec<Vec<u64>> = vec![vec![0u64; n]; 4];
        wide.permute_batch(
            &p,
            srcs64
                .iter()
                .map(|s| s.as_slice())
                .zip(dsts64.iter_mut().map(|d| d.as_mut_slice())),
        )
        .unwrap();
        assert_eq!(lookups(), 2, "one lookup for the u64 batch");
        for (src, dst) in srcs64.iter().zip(&dsts64) {
            let mut want = vec![0u64; n];
            p.permute(src, &mut want).unwrap();
            assert_eq!(dst, &want);
        }

        let stats = engine.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "one plan, both widths");
        assert_eq!(stats.scheduled_runs + stats.scatter_runs, 8);
        assert_eq!(stats.submitted, 0, "batch members are not counted jobs");
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

    /// Every buffer parked in `pool` (by data pointer), put back as found.
    fn parked_buffers<T: Copy + Default>(pool: &ScratchPool<T>, n: usize) -> Vec<usize> {
        let bufs: Vec<ScratchBuf<T>> = (0..pool.pooled()).map(|_| pool.take(n)).collect();
        let mut ptrs: Vec<usize> = bufs.iter().map(|b| b.as_ptr() as usize).collect();
        for b in bufs {
            pool.put(b);
        }
        ptrs.sort_unstable();
        ptrs
    }

    #[test]
    fn mixed_width_traffic_keeps_scratch_per_view_and_one_ledger() {
        // u32 permute, u64 run_job and u32 permute_batch alternate on
        // views of one core. Every output must match the reference, the
        // one ledger must balance, and each view must reuse its own
        // buffers: buffers are allocated per concurrent user, never per
        // request.
        let n = 1 << 10;
        let engine: SharedEngine<u32> = SharedEngine::with_shards(W, 1, DEFAULT_CAPACITY);
        engine.set_gamma_threshold(0.0); // scheduled: every run takes scratch
        let wide = engine.view::<u64>();
        let p = families::random(n, 91);
        let src32: Vec<u32> = (0..n as u32).map(|v| v ^ 0x5a5a_5a5a).collect();
        let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v).collect();
        let mut want64 = vec![0u64; n];
        p.permute(&src64, &mut want64).unwrap();

        let (mut seen32, mut seen64) = (Vec::new(), Vec::new());
        for round in 0..6 {
            let mut dst = vec![0u32; n];
            engine.permute(&p, &src32, &mut dst).unwrap();
            assert_eq!(dst, reference(&p, &src32), "round {round}: u32 permute");

            let mut dst64 = vec![0u64; n];
            let route = wide.run_job(&p, &src64, &mut dst64).unwrap();
            assert_eq!(route, Route::Scheduled);
            assert_eq!(dst64, want64, "round {round}: u64 run_job");

            let mut dsts = vec![vec![0u32; n]; 3];
            engine
                .permute_batch(&p, dsts.iter_mut().map(|d| (&src32[..], &mut d[..])))
                .unwrap();
            for d in &dsts {
                assert_eq!(d, &reference(&p, &src32), "round {round}: u32 batch");
            }

            // No parked buffer is ever dropped and replaced: what a view
            // held after the last round it still holds.
            let (now32, now64) = (
                parked_buffers(&engine.scratch, n),
                parked_buffers(&wide.scratch, n),
            );
            assert!(
                seen32.iter().all(|b| now32.contains(b)),
                "u32 buffer replaced"
            );
            assert!(
                seen64.iter().all(|b| now64.contains(b)),
                "u64 buffer replaced"
            );
            (seen32, seen64) = (now32, now64);
        }
        assert!((1..=SCRATCH_POOL_CAP).contains(&engine.pooled_scratch_buffers()));
        assert!((1..=SCRATCH_POOL_CAP).contains(&wide.pooled_scratch_buffers()));
        let stats = engine.stats();
        assert_eq!(stats.submitted, stats.completed, "{stats:?}");
        assert_eq!(stats.submitted, 6, "one ledger counts the u64 jobs");
        assert_eq!(stats.misses, 1, "one plan serves both widths");
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
