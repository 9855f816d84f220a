//! The backend registry and the width-free executable.
//!
//! A backend is *which implementation executes* a plan: [`Backend::Native`]
//! runs this crate's fused three-sweep [`NativeScheduled`] and parallel
//! scatter kernel, [`Backend::Interp`] the deterministic sweep-IR
//! interpreter from `hmm-backend`, which the conformance suite pins
//! byte-identical against native. [`Backend::prepare`] turns a
//! backend-neutral [`ExecPlan`] into an [`Executable`]: a closed enum over
//! the four executors. None of them depends on the element type — the
//! paper derives its schedule from `P` alone — so an executable is
//! prepared once and [`Executable::run`] is generic per call: one cached
//! plan serves u32, u64 and 16-byte payloads alike.
//!
//! Engines run on [`Backend::Native`] unless built with
//! `SharedEngine::with_backend`; tests and benches iterate
//! [`Backend::ALL`] in process.

use crate::scatter::scatter_permute;
use crate::scheduled::NativeScheduled;
use hmm_backend::{serial_scatter, ExecPlan, InterpExec, KernelConfig, Route};
use hmm_perm::Permutation;
use hmm_plan::PlanIr;

/// A registered execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The CPU-parallel backend: scheduled plans execute as
    /// [`NativeScheduled`]'s three fused sweeps, scatter plans as the
    /// parallel scatter kernel.
    Native,
    /// The serial sweep-IR interpreter: scheduled plans execute as the
    /// five literal steps of [`hmm_backend::SweepIr`], scatter plans as
    /// the one-line reference loop.
    Interp,
}

impl Backend {
    /// Every registered backend, in preference order.
    pub const ALL: [Backend; 2] = [Backend::Native, Backend::Interp];

    /// Stable registry name — what `EngineStats::backend` reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Interp => "interp",
        }
    }

    /// Compile `plan` into an executable under `config`. Scheduled
    /// executables read the plan's gather maps, which a [`PlanIr`] holds
    /// valid by construction, so preparing cannot fail.
    pub fn prepare(self, plan: ExecPlan<'_>, config: KernelConfig) -> Executable {
        match plan {
            ExecPlan::Scatter(p) => match self {
                Backend::Native => Executable::NativeScatter(p.clone()),
                Backend::Interp => Executable::InterpScatter(p.clone()),
            },
            ExecPlan::Scheduled(ir) => self.prepare_scheduled(ir.clone(), config),
        }
    }

    /// [`prepare`](Self::prepare) a scheduled plan the caller hands over,
    /// so the native executor can lay the maps only the plan holds out in
    /// place ([`NativeScheduled::from_owned_plan`]).
    pub fn prepare_scheduled(self, ir: PlanIr, config: KernelConfig) -> Executable {
        match self {
            Backend::Native => Executable::Native(NativeScheduled::from_owned_plan(ir, config)),
            Backend::Interp => Executable::Interp(Box::new(InterpExec::new(&ir, config))),
        }
    }
}

/// A prepared, immutable, reusable execution of one plan on one backend,
/// for any element type.
///
/// [`Executable::run`] is `&self` and thread-safe: the engines call it
/// concurrently from many threads with distinct buffer triples.
#[derive(Debug)]
pub enum Executable {
    /// Native scheduled executor: the one tiled pass for structured
    /// plans, the three fused sweeps otherwise.
    Native(NativeScheduled),
    /// Native parallel scatter kernel over this permutation.
    NativeScatter(Permutation),
    /// Sweep-IR interpreter (boxed: its lowered program is the largest
    /// variant by far).
    Interp(Box<InterpExec>),
    /// Interpreter's serial scatter loop over this permutation.
    InterpScatter(Permutation),
}

impl Executable {
    /// Execute `dst[P[i]] = src[i]`. `scratch` must be exactly
    /// [`Executable::scratch_len`] elements; its contents on entry are
    /// irrelevant and on exit unspecified.
    ///
    /// # Panics
    /// Panics when `src`/`dst`/`scratch` lengths disagree with the plan —
    /// the engines validate before calling.
    pub fn run<T: Copy + Send + Sync + Default>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) {
        match self {
            Executable::Native(s) => s.run_with_scratch(src, dst, scratch),
            Executable::NativeScatter(p) => scatter_permute(src, p, dst),
            Executable::Interp(e) => e.run(src, dst, scratch),
            Executable::InterpScatter(p) => serial_scatter(p, src, dst),
        }
    }

    /// Scratch elements `run` requires: 0 for scatter executables and the
    /// native one-pass route, `n` for the native fused sweeps, `2n` for
    /// the IR interpreter.
    pub fn scratch_len(&self) -> usize {
        match self {
            Executable::Native(s) => s.scratch_len(),
            Executable::Interp(e) => e.scratch_len(),
            Executable::NativeScatter(_) | Executable::InterpScatter(_) => 0,
        }
    }

    /// Number of elements one run permutes.
    pub fn len(&self) -> usize {
        match self {
            Executable::Native(s) => s.len(),
            Executable::Interp(e) => e.len(),
            Executable::NativeScatter(p) | Executable::InterpScatter(p) => p.len(),
        }
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The route this executable implements.
    pub fn route(&self) -> Route {
        match self {
            Executable::Native(_) | Executable::Interp(_) => Route::Scheduled,
            Executable::NativeScatter(_) | Executable::InterpScatter(_) => Route::Scatter,
        }
    }

    /// The backend that prepared this executable.
    pub fn backend(&self) -> Backend {
        match self {
            Executable::Native(_) | Executable::NativeScatter(_) => Backend::Native,
            Executable::Interp(_) | Executable::InterpScatter(_) => Backend::Interp,
        }
    }

    /// The kernel config a scheduled executable was prepared with; `None`
    /// for scatter executables, which read no config.
    pub fn kernel_config(&self) -> Option<KernelConfig> {
        match self {
            Executable::Native(s) => Some(s.kernel_config()),
            Executable::Interp(e) => Some(e.kernel_config()),
            Executable::NativeScatter(_) | Executable::InterpScatter(_) => None,
        }
    }
}

/// Engine on `backend` with the γ threshold pinned so every plan takes
/// `route` — the forcing seam the conformance, structured, and
/// differential suites share.
pub fn forced_engine<T: Copy + Send + Sync + Default + 'static>(
    backend: Backend,
    width: usize,
    route: Route,
) -> crate::plan::SharedEngine<T> {
    let engine = crate::plan::SharedEngine::with_backend(width, backend);
    engine.set_gamma_threshold(match route {
        Route::Scheduled => 0.0,
        Route::Scatter => f64::INFINITY,
    });
    engine
}

/// The native fused executor behind a plan, when the plan is a scheduled
/// plan prepared by [`Backend::Native`]. `None` for scatter plans and for
/// other backends' executables.
pub fn as_native_scheduled<T>(plan: &crate::plan::PermutePlan<T>) -> Option<&NativeScheduled> {
    match plan.executable() {
        Executable::Native(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;
    use hmm_plan::PlanIr;

    #[test]
    fn native_executables_match_the_reference_on_both_routes() {
        let n = 1 << 12;
        let p = families::random(n, 5);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();

        let backend = Backend::Native;
        let scatter = backend.prepare(ExecPlan::Scatter(&p), KernelConfig::default());
        let mut dst = vec![0u32; n];
        scatter.run(&src, &mut dst, &mut []);
        assert_eq!(dst, want);
        assert_eq!(scatter.scratch_len(), 0);

        let ir = PlanIr::build(&p, 32).unwrap();
        let sched = backend.prepare(ExecPlan::Scheduled(&ir), KernelConfig::default());
        let mut scratch = vec![0u32; sched.scratch_len()];
        dst.fill(0);
        sched.run(&src, &mut dst, &mut scratch);
        assert_eq!(dst, want);
        assert_eq!(sched.backend(), Backend::Native);
        assert_eq!(sched.route(), Route::Scheduled);
    }

    #[test]
    fn forced_engines_pin_the_route_per_backend() {
        let n = 1 << 10;
        let p = families::random(n, 3);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();
        for backend in Backend::ALL {
            for route in [Route::Scatter, Route::Scheduled] {
                let engine = forced_engine::<u32>(backend, 32, route);
                let plan = engine.plan(&p).unwrap();
                assert_eq!(plan.route(), route, "{backend:?}");
                assert_eq!(plan.executable().backend(), backend);
                let mut dst = vec![0u32; n];
                engine.run_plan(&plan, &src, &mut dst);
                assert_eq!(dst, want, "{backend:?} {route:?}");
            }
        }
    }

    #[test]
    fn native_scheduled_plans_downcast_and_interp_plans_do_not() {
        let n = 1 << 10;
        let p = families::random(n, 8);
        let native = forced_engine::<u32>(Backend::Native, 32, Route::Scheduled);
        assert!(as_native_scheduled(&native.plan(&p).unwrap()).is_some());
        let scatter = forced_engine::<u32>(Backend::Native, 32, Route::Scatter);
        assert!(as_native_scheduled(&scatter.plan(&p).unwrap()).is_none());
        let interp = forced_engine::<u32>(Backend::Interp, 32, Route::Scheduled);
        assert!(as_native_scheduled(&interp.plan(&p).unwrap()).is_none());
    }
}
