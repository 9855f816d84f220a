//! Host calibration of the γ_w crossover between the scatter and
//! scheduled routes ([`crate::plan::SharedEngine::calibrate_gamma_threshold`]).

use crate::backend::Backend;
use crate::config::KernelConfig;
use hmm_backend::ExecPlan;
use hmm_perm::distribution::distribution;
use hmm_perm::families;
use hmm_plan::PlanIr;
use std::time::{Duration, Instant};

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
/// the way real workloads do. Probes run on `backend` over u32 payloads —
/// the crossover belongs to whichever implementation will actually
/// execute the plans, and the executables are the ones any element type
/// runs.
///
/// Model: a scattered pass costs `a + b·γ` (more destination groups per
/// warp-sized window ⇒ more distinct cache lines touched), while the fused
/// three-sweep costs a γ-independent constant. Two scatter samples (low-γ
/// rotation, high-γ random) pin the line; one scheduled sample pins the
/// constant; the intersection is the crossover. Returns `None` when the
/// width cannot be scheduled at the probe size or the fitted slope is
/// non-positive (timer noise) — callers keep the static default then.
pub(crate) fn measured_crossover(
    backend: Backend,
    width: usize,
    config: KernelConfig,
) -> Option<f64> {
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
