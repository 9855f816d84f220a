//! Error type for the plan layer.

use core::fmt;
use hmm_graph::GraphError;
use hmm_perm::PermError;

/// Errors raised while building, encoding, decoding, or storing plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A permutation was malformed or incompatible.
    Perm(PermError),
    /// Schedule construction failed in the graph substrate.
    Graph(GraphError),
    /// The input size is unsupported (the scheduled decomposition needs
    /// `n = r·c` with both factors multiples of `w`).
    UnsupportedSize {
        /// The offending size.
        n: usize,
        /// Why it is unsupported.
        reason: &'static str,
    },
    /// Sizes of two inputs disagree (e.g. permutation vs shape length).
    SizeMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// A serialized plan failed to decode: truncated, checksum mismatch,
    /// unknown version, or internally inconsistent sections. Decoding never
    /// panics on hostile bytes — every malformed input lands here.
    Codec {
        /// What the decoder objected to.
        reason: String,
    },
    /// A plan-store filesystem operation failed.
    Store {
        /// The path involved.
        path: String,
        /// The underlying I/O failure, rendered.
        reason: String,
    },
    /// A plan violates its contract: a gather row that is not a
    /// permutation ([`PlanIr::validate`](crate::PlanIr::validate)), or a
    /// freshly built plan that does not realise its permutation (the
    /// engines' check before a build is cached).
    Invalid {
        /// Which invariant failed.
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Perm(e) => write!(f, "permutation error: {e}"),
            PlanError::Graph(e) => write!(f, "graph error: {e}"),
            PlanError::UnsupportedSize { n, reason } => {
                write!(f, "unsupported size {n}: {reason}")
            }
            PlanError::SizeMismatch { expected, got } => {
                write!(f, "size mismatch: expected {expected}, got {got}")
            }
            PlanError::Codec { reason } => write!(f, "plan codec error: {reason}"),
            PlanError::Store { path, reason } => {
                write!(f, "plan store error at {path}: {reason}")
            }
            PlanError::Invalid { reason } => {
                write!(f, "plan violates its contract: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Perm(e) => Some(e),
            PlanError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PermError> for PlanError {
    fn from(e: PermError) -> Self {
        PlanError::Perm(e)
    }
}

impl From<GraphError> for PlanError {
    fn from(e: GraphError) -> Self {
        PlanError::Graph(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PlanError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: PlanError = PermError::NotPowerOfTwo { n: 3 }.into();
        assert!(e.to_string().contains("permutation"));
        assert!(std::error::Error::source(&e).is_some());
        let e = PlanError::Codec {
            reason: "truncated".into(),
        };
        assert!(e.to_string().contains("truncated"));
        assert!(std::error::Error::source(&e).is_none());
        let e = PlanError::Store {
            path: "/tmp/x".into(),
            reason: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/x"));
    }
}
