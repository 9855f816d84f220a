//! # hmm-perm — permutations for the offline-permutation reproduction
//!
//! Everything the ICPP 2013 evaluation needs to talk about permutations:
//!
//! * a validated [`Permutation`] type in the paper's destination convention
//!   (`b[P[i]] = a[i]`) with inverse, composition, cycle decomposition, and
//!   in-place application;
//! * the five evaluated [`families`] (identical, shuffle, random,
//!   bit-reversal, transpose) plus classics from the same application
//!   domains (unshuffle, rotation, butterfly stages, Gray code);
//! * the warp [`distribution`](mod@distribution) metric `γ_w(P)` of Section IV that predicts
//!   the conventional algorithm's running time (Lemma 4);
//! * [`matrix`] shape helpers for viewing a flat array as the `√n × √n`
//!   (or `r × 2r`) matrix the scheduled algorithm operates on, and the
//!   affine bit-matrix [`Bmmc`] family (with the
//!   [`Permutation::as_bmmc`] recognizer) behind the structured-plan
//!   fast paths in `hmm-plan`, and the [`LineTiles`] geometry that runs
//!   a BMMC as one pass over whole lines;
//! * the workspace's one word-wise [`hash`], behind
//!   [`Permutation::fingerprint`] and the plan-file and wire-frame
//!   checksums.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distribution;
pub mod error;
pub mod families;
pub mod hash;
pub mod matrix;
pub mod permutation;
pub mod tensor;
pub mod tile;

pub use distribution::{
    distribution, expected_random_distribution, normalized_distribution, warp_group_counts,
    warp_group_histogram, worst_warp,
};
pub use error::{PermError, Result};
pub use families::Family;
pub use matrix::{scheduled_shape, Bmmc, MatrixShape};
pub use permutation::Permutation;
pub use tensor::{direct_sum, stride, tensor};
pub use tile::LineTiles;
