//! # hmm-bench — reproduction harness for the ICPP 2013 evaluation
//!
//! Regenerates every table and figure of *Kasagi, Nakano, Ito: "An Optimal
//! Offline Permutation Algorithm on the Hierarchical Memory Machine"*:
//!
//! * [`experiments::table1`] — round counts + closed-form times (Table I);
//! * [`experiments::table2`] — the three algorithms across the five
//!   permutation families and sizes, f32/f64 (Table II);
//! * [`experiments::table3`] — 1000-random-permutation statistics
//!   (Table III);
//! * [`experiments::figures`] — Figures 3–6 as text and data;
//! * [`experiments::smallperm`] — the single-DMM motivation experiment;
//! * [`experiments::ablation`] — cache / dispatch / coloring ablations;
//! * [`native_experiments`] — wall-clock CPU-backend comparison.
//!
//! Run `cargo run --release -p hmm-bench --bin repro -- all` for the full
//! text report, or see the criterion benches under `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod native_experiments;
pub mod tables;
