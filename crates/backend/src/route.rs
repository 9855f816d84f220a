//! The backend-neutral plan description every backend prepares from.
//!
//! A backend turns an [`ExecPlan`] plus a `KernelConfig` into an
//! executable, doing whatever backend-specific compilation it wants (the
//! native backend builds its fused sweep executor; the interpreter lowers
//! the plan to [`crate::sweep::SweepIr`]; a GPU backend would compile
//! shaders). The split mirrors the plan/execute split the paper's
//! Section 5 needs: plan construction (the König coloring) is
//! backend-neutral and cached; *preparation* is per-backend and cheap;
//! *execution* is the three memory sweeps. None of the three depends on
//! the element type.

use hmm_perm::Permutation;
use hmm_plan::PlanIr;

/// How a plan executes: the γ_w decision's two arms (paper Table II).
///
/// Orthogonal to *which implementation* executes (the backend): this enum
/// is *which algorithm*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Single scattered pass (`dst[P[i]] = src[i]`) — wins at low γ_w.
    Scatter,
    /// Three-sweep scheduled permutation from a [`PlanIr`].
    Scheduled,
}

/// The backend-neutral input to a backend's `prepare`: either arm carries
/// exactly what that route needs — the scatter arm has no `PlanIr` (no
/// König coloring is ever built for it), the scheduled arm nothing but
/// the IR.
#[derive(Debug, Clone, Copy)]
pub enum ExecPlan<'a> {
    /// Execute as a single scattered pass of this permutation.
    Scatter(&'a Permutation),
    /// Execute the three-sweep schedule this IR encodes.
    Scheduled(&'a PlanIr),
}

impl ExecPlan<'_> {
    /// The route this plan executes on.
    pub fn route(&self) -> Route {
        match self {
            ExecPlan::Scatter(_) => Route::Scatter,
            ExecPlan::Scheduled(_) => Route::Scheduled,
        }
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        match self {
            ExecPlan::Scatter(p) => p.len(),
            ExecPlan::Scheduled(ir) => ir.len(),
        }
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    #[test]
    fn route_and_len_follow_the_plan_arm() {
        let p = families::random(1 << 10, 1);
        let plan = ExecPlan::Scatter(&p);
        assert_eq!(plan.route(), Route::Scatter);
        assert_eq!(plan.len(), 1 << 10);
        assert!(!plan.is_empty());

        let ir = PlanIr::build(&p, 32).unwrap();
        let plan = ExecPlan::Scheduled(&ir);
        assert_eq!(plan.route(), Route::Scheduled);
        assert_eq!(plan.len(), 1 << 10);
    }
}
