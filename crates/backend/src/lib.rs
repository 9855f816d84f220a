//! # hmm-backend — the backend-neutral execution layer
//!
//! The paper's headline claim is a *GPU* implementation of the 3-pass
//! offline permutation, but this reproduction's execution stack was
//! hardwired to the CPU executor inside `hmm-native`. This crate is the
//! seam that unhardwires it, split into three layers (DESIGN.md §13):
//!
//! 1. **Plans** — [`ExecPlan`] is the backend-neutral input every
//!    backend prepares from (a scatter permutation or a scheduled
//!    [`hmm_plan::PlanIr`]), and [`Route`] names its two arms. The
//!    backend registry itself lives in `hmm-native`, a closed enum over
//!    the native executors and this crate's interpreter.
//! 2. **Sweep-kernel IR** — [`SweepIr`] lowers a validated `PlanIr` +
//!    its pass layouts into five steps of three kernel kinds
//!    ([`SweepKernel`]: row-local gather, tiled transpose with an
//!    explicit bank-offset pad, row permute) over four logical buffers
//!    ([`BufferId`]). The tile side and bank pad are explicit IR
//!    parameters, not executor folklore.
//! 3. **Consumers** — [`wgsl::module_wgsl`] emits WGSL compute-shader
//!    text from the IR (kubecl-style monomorphised lowering,
//!    golden-snapshot tested), and [`InterpExec`] interprets the same
//!    IR deterministically on the CPU — the `interp` backend the
//!    conformance suite pins byte-identical against `hmm-native` and
//!    the naive reference.
//!
//! Kernel configs are never read from the environment; callers thread a
//! [`KernelConfig`] through.
//!
//! No `unsafe` anywhere in this crate: the interpreter is the *reference*
//! executor, so it stays trivially auditable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod interp;
pub mod route;
pub mod sweep;
pub mod wgsl;

pub use config::{KernelConfig, DEFAULT_STAGE_BYTES, DEFAULT_TILE};
pub use interp::{serial_scatter, InterpExec};
pub use route::{ExecPlan, Route};
pub use sweep::{BufferId, GatherMap, IndexSource, SweepIr, SweepKernel, SweepStep};
pub use wgsl::{kernel_wgsl, module_wgsl, WgslElem};
