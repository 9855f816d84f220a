//! Per-client admission control.
//!
//! A session runs one request at a time, and every job — a `PERMUTE`,
//! each member of a `PERMUTE_BATCH` — runs on the session's own thread,
//! so the thread-per-connection cap bounds how many jobs run at once.
//! What it cannot do is stop one greedy session from holding its thread
//! (and a share of the engine) for a long time with one request or from
//! pinning many plans — so each connection gets two quotas checked
//! before anything touches the engine:
//!
//! * **registered plans** — caps session cache footprint (every handle
//!   holds an O(1) clone of its cached plan's `Permutation`, keeping that
//!   map alive even once the plan is evicted, and claims a cached plan
//!   slot);
//! * **jobs per request** — caps how many jobs one request may start at
//!   once (a `PERMUTE` counts 1; a `PERMUTE_BATCH` of `k` payloads
//!   counts `k`, run one after another).
//!
//! Rejections are typed ([`Frame::Err`](crate::proto::Frame::Err) with
//! [`crate::proto::ErrCode::AdmissionPlans`] /
//! [`crate::proto::ErrCode::AdmissionInFlight`])
//! and counted in
//! [`EngineStats::admission_rejects`](hmm_native::EngineStats::admission_rejects),
//! so an operator can see quota pressure in the same snapshot as the
//! job ledger.

use std::fmt;

use crate::proto::ErrCode;

/// Per-session quotas. A connection is one session; disconnecting
/// releases everything it registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum plans one session may hold registered at once.
    pub max_plans: usize,
    /// Maximum jobs one request may start at once (a `PERMUTE_BATCH` of
    /// `k` payloads is `k` jobs).
    pub max_inflight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_plans: 64,
            max_inflight: 256,
        }
    }
}

/// A typed admission refusal, convertible to a wire error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The session is at its registered-plan quota.
    Plans {
        /// Plans currently registered by the session.
        registered: usize,
        /// The quota.
        max: usize,
    },
    /// The request would exceed the jobs-per-request quota.
    InFlight {
        /// Jobs the request asked to run.
        requested: usize,
        /// The quota.
        max: usize,
    },
}

impl AdmissionError {
    /// The wire error code this refusal maps to.
    pub fn code(&self) -> ErrCode {
        match self {
            AdmissionError::Plans { .. } => ErrCode::AdmissionPlans,
            AdmissionError::InFlight { .. } => ErrCode::AdmissionInFlight,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Plans { registered, max } => write!(
                f,
                "plan quota exhausted: {registered} registered, max {max}"
            ),
            AdmissionError::InFlight { requested, max } => write!(
                f,
                "in-flight quota exceeded: requested {requested} jobs, max {max}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl AdmissionConfig {
    /// Check a `REGISTER` against the plan quota.
    pub fn admit_plan(&self, registered: usize) -> Result<(), AdmissionError> {
        if registered >= self.max_plans {
            return Err(AdmissionError::Plans {
                registered,
                max: self.max_plans,
            });
        }
        Ok(())
    }

    /// Check a `PERMUTE`/`PERMUTE_BATCH` of `requested` payloads against
    /// the in-flight quota.
    pub fn admit_jobs(&self, requested: usize) -> Result<(), AdmissionError> {
        if requested > self.max_inflight {
            return Err(AdmissionError::InFlight {
                requested,
                max: self.max_inflight,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_refuse_at_the_boundary() {
        let cfg = AdmissionConfig {
            max_plans: 2,
            max_inflight: 4,
        };
        assert!(cfg.admit_plan(0).is_ok());
        assert!(cfg.admit_plan(1).is_ok());
        let err = cfg.admit_plan(2).unwrap_err();
        assert_eq!(err.code(), ErrCode::AdmissionPlans);

        assert!(cfg.admit_jobs(4).is_ok());
        let err = cfg.admit_jobs(5).unwrap_err();
        assert_eq!(err.code(), ErrCode::AdmissionInFlight);
    }

    #[test]
    fn defaults_are_nonzero() {
        let cfg = AdmissionConfig::default();
        assert!(cfg.max_plans > 0 && cfg.max_inflight > 0);
    }
}
