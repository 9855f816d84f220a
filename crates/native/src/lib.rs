//! # hmm-native — wall-clock CPU backend for offline permutation
//!
//! The paper's evaluation runs on a GTX-680; this crate is the substitution
//! for machines without one (see DESIGN.md §2): the same three algorithms
//! executed with real parallelism on the host CPU, where cache lines and
//! TLB entries play the role the paper's address groups play on the GPU.
//!
//! * [`scatter::scatter_permute`] / [`scatter::gather_permute`] — the
//!   conventional D-/S-designated kernels (one scattered pass);
//! * [`scheduled::NativeScheduled`] — the scheduled permutation executed
//!   as three fused memory sweeps (gather-transpose, gather-transpose,
//!   row gather), or, for a structured (BMMC) plan, as one tiled pass
//!   that reads and writes whole lines, built from the backend-neutral
//!   [`hmm_plan::PlanIr`] shared with the simulator and the on-disk plan
//!   store;
//! * [`plan::SharedEngine`] — the concurrent front door: a thread-safe
//!   plan service (`&self` from any number of threads) with a sharded LRU
//!   cache, single-flight plan construction, verified (collision-proof)
//!   hits, a lock-free scratch pool, a distribution-based scatter
//!   fallback (the paper's γ_w crossover at a fixed threshold), and an
//!   optional tier-2 on-disk plan store
//!   ([`plan::SharedEngine::with_store`]) so a cold process skips the
//!   König coloring. The engine core is element-agnostic — one cache
//!   and one stats set for every element type — and `SharedEngine<T>` is
//!   a typed handle on it ([`plan::SharedEngine::view`] opens another
//!   element type). Every job runs on its caller's thread through
//!   [`plan::SharedEngine::run_job`], counted in the engine's
//!   `submitted`/`completed` ledger, with build failures and panics
//!   returned as a [`plan::JobError`]; the engine spawns no thread of
//!   its own beyond the worker pool;
//! * [`backend`] — the backend registry: [`Backend::Native`] (this
//!   crate's kernels) and [`Backend::Interp`] (the `hmm-backend` sweep-IR
//!   interpreter) each prepare a width-free [`Executable`] whose `run` is
//!   generic per call; [`forced_engine`] pins an engine to one backend
//!   and route, the seam the test suites iterate [`Backend::ALL`] with;
//! * [`config::KernelConfig`] — the sweep-kernel tuning seam (the
//!   sweep-IR tile side, SIMD and computed-index switches; re-exported
//!   from `hmm-backend`) threaded through every front door: blocking
//!   calls and the shared engine
//!   ([`plan::SharedEngine::set_kernel_config`]).
//!   Nothing but the worker-pool size is read from the environment
//!   (`HMM_NATIVE_THREADS`, see [`par`]);
//! * [`pool`] / [`par`] — a persistent worker pool (created once per
//!   process) and the chunked parallel-for primitives built on it
//!   (`rayon` is not on this reproduction's offline dependency list).
//!
//! `unsafe` is confined to audited sites, each with a SAFETY comment:
//! the scatter kernel's disjointness argument (`scatter::ScatterTarget`),
//! the pool's type-erased task pointer (`pool::RawTask`), the chunk
//! splitter (`par::SliceParts`) and the fused sweeps' column-band view
//! (`par::ColumnBand`), the clamped-index vector kernels (`simd` — the
//! one module allowed to touch `core::arch`), the scratch pool's owned
//! pointers (`scratch`), and the typed face of a cached plan
//! (`plan::PermutePlan`, a `repr(transparent)` cast of the cached `Arc`).
//!
//! The criterion benches in `hmm-bench` compare the approaches across the
//! paper's permutation families and sizes.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
mod cache;
pub mod par;
pub mod plan;
pub mod pool;
pub mod scatter;
pub mod scheduled;
mod scratch;
mod simd;
mod stats;

pub use backend::{as_native_scheduled, forced_engine, Backend, Executable};
pub use hmm_backend::config;
pub use hmm_backend::{ExecPlan, KernelConfig, Route};
pub use hmm_plan::{PlanIr, PlanStore, StoreKey};
pub use par::THREADS_ENV;
pub use plan::{JobError, JobHandle, JobReport, PermutePlan, SharedEngine};
pub use scatter::{copy_baseline, gather_permute, scatter_permute};
pub use scheduled::NativeScheduled;
pub use scratch::ScratchBuf;
pub use stats::EngineStats;
