//! # hmm-plan — the permutation plan IR and its persistent store
//!
//! The offline permutation algorithm's economics rest on one asymmetry:
//! *building* a schedule (König edge-coloring of the transfer multigraph,
//! Section VII of the paper) is expensive, while *running* one is three
//! conflict-free passes. This crate owns the artifact that asymmetry
//! produces, independent of any executor:
//!
//! * [`PlanIr`] — the backend-neutral plan: matrix shape, the three
//!   per-pass gather maps the coloring yields (shared, and valid by
//!   construction), the measured distribution γ_w(P), and the
//!   permutation fingerprint. The simulator (`hmm-offperm`) and the CPU
//!   backend (`hmm-native`) both build *from* it instead of each
//!   re-deriving the coloring.
//! * [`codec`] — a versioned, std-only binary format (length-prefixed
//!   sections, a checksum from `hmm_perm::hash`; older files sealed with
//!   FNV-1a still decode) that never panics on hostile bytes and checks
//!   each section once, as it decodes it.
//! * [`PlanStore`] — a directory of encoded plans keyed by
//!   `(fingerprint, n, width)`: the cross-process cache tier that lets a
//!   cold process skip the König build entirely. Loads are verified —
//!   a corrupt or colliding file is reported for discard, never trusted.
//!
//! Dependency-wise the crate sits directly above the math (`hmm-perm`,
//! `hmm-graph`): no simulator, no machine model, no cost accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affine;
pub mod codec;
pub mod error;
pub mod ir;
pub mod store;

pub use affine::AffineStep;
pub use codec::{
    compact_encoded_len, decode, encode, encode_to, fnv1a, fnv1a_update, FNV_OFFSET, FNV_PRIME,
    FORMAT_VERSION,
};
pub use error::{PlanError, Result};
pub use ir::{PassLayout, PlanIr};
pub use store::{PlanStore, StoreEntry, StoreKey};
