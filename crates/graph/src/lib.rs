//! # hmm-graph — regular bipartite multigraph edge coloring
//!
//! The scheduled offline permutation algorithm of Kasagi–Nakano–Ito reduces
//! schedule construction to **minimal edge coloring of regular bipartite
//! multigraphs** (their Theorem 6 cites König's theorem: a `Δ`-regular
//! bipartite graph is `Δ`-edge-colorable). This crate supplies that
//! substrate:
//!
//! * [`RegularBipartite`] — validated regular bipartite multigraphs with
//!   edge identities (parallel edges matter: one edge per data element);
//! * [`euler::euler_split`] — Euler-partition degree halving, in the
//!   pairing form (no adjacency lists, no circuit walk);
//! * [`matching::hopcroft_karp`] — maximum matching for odd-degree peeling;
//! * [`edge_color`] — the hybrid `Δ`-coloring, plus a matching-only
//!   baseline strategy for the ablation bench, and [`verify_coloring`];
//! * [`edge_color_par`] — the same coloring fanned out over scoped
//!   threads ([`exec::Parallelism`]), byte-identical at any thread count;
//! * [`color_blocks`] — the coloring of a graph given in left-major
//!   order, returned in the colorer's own block layout (block `k` lists
//!   every left vertex's color-`k` edge), which the plan compiler reads
//!   directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coloring;
pub mod error;
pub mod euler;
pub mod exec;
pub mod matching;
pub mod multigraph;

pub use coloring::{
    color_blocks, edge_color, edge_color_par, edge_color_with, verify_coloring, ColorBlocks,
    EdgeColoring, Strategy,
};
pub use error::{GraphError, Result};
pub use exec::Parallelism;
pub use matching::{hopcroft_karp, Matching};
pub use multigraph::RegularBipartite;
