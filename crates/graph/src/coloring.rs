//! Minimal edge coloring of regular bipartite multigraphs (König's
//! theorem — Theorem 6 of the paper).
//!
//! A regular bipartite multigraph of degree `Δ` is `Δ`-edge-colorable. The
//! constructive proof implemented here combines two classic ingredients:
//!
//! * **even degree** — an Euler partition (in its pairing form, see
//!   [`crate::euler`]) splits the graph into two halves of degree `Δ/2`,
//!   which are colored recursively with disjoint palettes;
//! * **odd degree** — a perfect matching (Hopcroft–Karp; it exists by
//!   regularity) is peeled off as one color class, leaving an even-degree
//!   graph.
//!
//! For the power-of-two degrees arising in the scheduled permutation the
//! odd branch never triggers and the total cost is `O(E log Δ)`.
//!
//! ## The block layout: in place, grouped by left vertex, forkable
//!
//! The recursion works on one edge-id buffer and a parallel buffer of
//! each edge's right vertex, kept **grouped by left vertex** in ascending
//! order. In a slice of degree `d` left vertex `u` owns positions
//! `u·d .. (u+1)·d`, so no left endpoint is ever looked up. An Euler split
//! writes its two halves in place, each grouped the same way; a matching
//! peel moves the matched color class, in left-vertex order, to the end
//! (or the front) of the slice and keeps the order of the rest. On return
//! the buffer holds `Δ` contiguous blocks of `nodes` edges: block `k` *is*
//! color class `k`, and its entry `u` is left vertex `u`'s color-`k` edge
//! ([`ColorBlocks`]). Temporaries (pending slots, partner links, matching
//! state) live in a reusable `ColorScratch`, so the ~`2Δ` recursion nodes
//! perform no per-level `O(E)` allocations.
//!
//! Because the two halves of a split are disjoint sub-slices, they can be
//! colored by different threads with `split_at_mut` — no locks, no
//! `unsafe`. The thread budget decides only *where* a sub-slice is
//! colored, never how it is partitioned, so the coloring is
//! byte-identical at every thread count — the property `hmm-plan` relies
//! on for deterministic plan bytes.

use crate::error::{GraphError, Result};
use crate::euler::{split_in_place, SplitScratch};
use crate::exec::Parallelism;
use crate::matching::{hopcroft_karp_core, MatchScratch, UNMATCHED};
use crate::multigraph::RegularBipartite;

/// A proper edge coloring: `colors[e]` is the color of edge `e`, with
/// colors drawn from `0..num_colors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeColoring {
    /// Color per edge id.
    pub colors: Vec<usize>,
    /// Size of the palette (= the graph's degree).
    pub num_colors: usize,
}

/// A proper edge coloring in the colorer's own block layout (see the
/// module docs): for left vertex `u` and color `k`, `ids[k·nodes + u]` is
/// `u`'s color-`k` edge and `rights[k·nodes + u]` its right vertex, so
/// block `k` of `rights` is a permutation of `0..nodes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorBlocks {
    /// Edge ids, block by block.
    pub ids: Vec<u32>,
    /// The right vertex of each entry of `ids`.
    pub rights: Vec<u32>,
}

/// Strategy selection for [`edge_color_with`]; [`edge_color`] picks
/// [`Strategy::Hybrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Euler partition for even degrees, matching for odd — the default.
    Hybrid,
    /// Peel one perfect matching per color, `Δ` times. Simpler and slower;
    /// kept as the baseline for the coloring ablation bench. Matchings
    /// are inherently sequential, so this strategy ignores the thread
    /// budget.
    MatchingOnly,
}

/// Don't fork below this many edges: a scoped-thread spawn costs more
/// than coloring a small slice outright.
const FORK_MIN_EDGES: usize = 1 << 13;

/// Properly color the edges of `g` with exactly `g.degree()` colors.
pub fn edge_color(g: &RegularBipartite) -> Result<EdgeColoring> {
    edge_color_with(g, Strategy::Hybrid)
}

/// Properly color the edges of `g` using the given strategy.
pub fn edge_color_with(g: &RegularBipartite, strategy: Strategy) -> Result<EdgeColoring> {
    edge_color_par(g, strategy, Parallelism::sequential())
}

/// Properly color the edges of `g`, forking the coloring recursion across
/// the scoped-thread budget `par`. The result is **identical** to
/// [`edge_color_with`] for every budget: parallelism only relocates work,
/// it never reorders the deterministic split/peel partitions.
pub fn edge_color_par(
    g: &RegularBipartite,
    strategy: Strategy,
    par: Parallelism,
) -> Result<EdgeColoring> {
    let (r, degree) = (g.nodes(), g.degree());
    let edges = g.edges();
    check_index_space(r, edges.len());
    // Stable counting sort of the edges by left vertex: the recursion's
    // input layout. Left vertex `u` owns positions `u·degree..`.
    let mut next: Vec<usize> = (0..r).map(|u| u * degree).collect();
    let mut ids = vec![0u32; edges.len()];
    let mut rights = vec![0u32; edges.len()];
    for (e, &(u, v)) in edges.iter().enumerate() {
        ids[next[u]] = e as u32;
        rights[next[u]] = v as u32;
        next[u] += 1;
    }
    color_grouped(r, degree, &mut ids, &mut rights, strategy, par)?;
    let mut colors = vec![0usize; edges.len()];
    for (k, block) in ids.chunks_exact(r).enumerate() {
        for &e in block {
            colors[e as usize] = k;
        }
    }
    Ok(EdgeColoring {
        colors,
        num_colors: degree,
    })
}

/// Color the regular bipartite multigraph on `nodes` vertices per side
/// whose edge `e` joins left vertex `e / degree` to right vertex
/// `rights[e]` — edges given in left-major order, as a transfer graph's
/// rows list their elements — and return the coloring in block form.
/// The degree is `rights.len() / nodes`; a right vertex out of range or
/// of another degree is an error. Byte-identical at every budget `par`.
pub fn color_blocks(
    nodes: usize,
    mut rights: Vec<u32>,
    strategy: Strategy,
    par: Parallelism,
) -> Result<ColorBlocks> {
    let m = rights.len();
    if nodes == 0 || m == 0 || !m.is_multiple_of(nodes) {
        return Err(GraphError::DegenerateGraph { nodes, edges: m });
    }
    check_index_space(nodes, m);
    let degree = m / nodes;
    let mut right_deg = vec![0usize; nodes];
    for &v in &rights {
        match right_deg.get_mut(v as usize) {
            Some(d) => *d += 1,
            None => {
                return Err(GraphError::NodeOutOfRange {
                    node: v as usize,
                    nodes,
                })
            }
        }
    }
    if let Some(node) = right_deg.iter().position(|&d| d != degree) {
        return Err(GraphError::NotRegular {
            node,
            degree: right_deg[node],
            expected: degree,
        });
    }
    let mut ids: Vec<u32> = (0..m as u32).collect();
    color_grouped(nodes, degree, &mut ids, &mut rights, strategy, par)?;
    Ok(ColorBlocks { ids, rights })
}

/// Edge positions and vertices are `u32`s, and `u32::MAX` marks an empty
/// pending slot.
fn check_index_space(nodes: usize, edges: usize) {
    assert!(
        edges < u32::MAX as usize && nodes < u32::MAX as usize,
        "graph exceeds u32 index space"
    );
}

/// Color a left-grouped `degree`-regular edge buffer into its blocks.
fn color_grouped(
    nodes: usize,
    degree: usize,
    ids: &mut [u32],
    rights: &mut [u32],
    strategy: Strategy,
    par: Parallelism,
) -> Result<()> {
    let mut scratch = ColorScratch::default();
    match strategy {
        Strategy::Hybrid => color_slice(par, nodes, degree, ids, rights, &mut scratch),
        Strategy::MatchingOnly => {
            // Peel color classes 0, 1, .. off the front; a 1-regular
            // remainder already is its own (final) color block.
            for d in (2..=degree).rev() {
                let start = (degree - d) * nodes;
                let (ids, rights) = (&mut ids[start..], &mut rights[start..]);
                peel_matching_in_place(nodes, d, ids, rights, &mut scratch, MatchBlock::Front)?;
            }
            Ok(())
        }
    }
}

/// The hybrid recursion over one left-grouped slice of degree `degree`.
/// On success the slice is partitioned into `degree` blocks of `nodes`
/// edges; block `k` is relative color `k`. Fork points hand the first
/// half a fresh scratch (at most `budget - 1` extra scratches ever exist)
/// and keep the caller's scratch on the second half.
fn color_slice(
    par: Parallelism,
    nodes: usize,
    degree: usize,
    ids: &mut [u32],
    rights: &mut [u32],
    scratch: &mut ColorScratch,
) -> Result<()> {
    if degree <= 1 {
        return Ok(());
    }
    let m = ids.len();
    if degree.is_multiple_of(2) {
        split_in_place(nodes, ids, rights, &mut scratch.split)?;
        let (ia, ib) = ids.split_at_mut(m / 2);
        let (ra, rb) = rights.split_at_mut(m / 2);
        let d = degree / 2;
        if par.is_parallel() && m >= FORK_MIN_EDGES {
            let (a, b) = par.join(
                |p| color_slice(p, nodes, d, ia, ra, &mut ColorScratch::default()),
                |p| color_slice(p, nodes, d, ib, rb, scratch),
            );
            a?;
            b
        } else {
            color_slice(par, nodes, d, ia, ra, scratch)?;
            color_slice(par, nodes, d, ib, rb, scratch)
        }
    } else {
        peel_matching_in_place(nodes, degree, ids, rights, scratch, MatchBlock::Tail)?;
        let keep = m - nodes;
        color_slice(
            par,
            nodes,
            degree - 1,
            &mut ids[..keep],
            &mut rights[..keep],
            scratch,
        )
    }
}

/// Where [`peel_matching_in_place`] deposits the matched color class.
enum MatchBlock {
    /// Matched block first (matching-only strategy: colors peel forward).
    Front,
    /// Matched block last (hybrid odd case: the class takes the highest
    /// relative color, `degree - 1`).
    Tail,
}

/// Reusable buffers for the coloring recursion: Euler-split state,
/// Hopcroft–Karp state, and the peel's dedup-CSR staging. One scratch per
/// sequential task; capacity persists across every recursion level.
#[derive(Debug, Default)]
struct ColorScratch {
    split: SplitScratch,
    matching: MatchScratch,
    peel: PeelScratch,
}

/// Matching-peel staging: the deduplicated CSR handed to Hopcroft–Karp
/// and the matched class.
#[derive(Debug, Default)]
struct PeelScratch {
    /// Dedup CSR: one entry per distinct (u, v); `adj_rep` remembers the
    /// representative slice position so color classes name real edges.
    adj_off: Vec<u32>,
    adj_v: Vec<u32>,
    adj_rep: Vec<u32>,
    /// Last left vertex that saw right vertex `v` (dedup stamp).
    stamp: Vec<u32>,
    /// The matched slice position of each left vertex.
    pick: Vec<u32>,
    /// The matched class in left-vertex order.
    matched_ids: Vec<u32>,
    matched_rights: Vec<u32>,
}

/// Extract a perfect matching from the left-grouped `degree`-regular
/// slice and move it — as a contiguous block in left-vertex order — to
/// the front or tail of the slice; the unmatched edges keep their
/// relative order, so the rest stays grouped with degree `degree - 1`.
/// Parallel edges are deduplicated for the matching itself via a
/// representative per (u, v).
fn peel_matching_in_place(
    nodes: usize,
    degree: usize,
    ids: &mut [u32],
    rights: &mut [u32],
    scratch: &mut ColorScratch,
    place: MatchBlock,
) -> Result<()> {
    let m = ids.len();
    let p = &mut scratch.peel;

    // Dedup adjacency: left vertices ascend, so a stamp of the last left
    // vertex that saw each right vertex suffices (no per-call clearing of
    // anything sized by the slice).
    p.stamp.clear();
    p.stamp.resize(nodes, u32::MAX);
    p.adj_off.clear();
    p.adj_off.push(0);
    p.adj_v.clear();
    p.adj_rep.clear();
    for (u, group) in rights.chunks_exact(degree).enumerate() {
        for (t, &v) in group.iter().enumerate() {
            if p.stamp[v as usize] == u as u32 {
                continue;
            }
            p.stamp[v as usize] = u as u32;
            p.adj_v.push(v);
            p.adj_rep.push((u * degree + t) as u32);
        }
        p.adj_off.push(p.adj_v.len() as u32);
    }

    let size = hopcroft_karp_core(nodes, nodes, &p.adj_off, &p.adj_v, &mut scratch.matching);
    if size != nodes {
        return Err(GraphError::MatchingFailed {
            matched: size,
            nodes,
        });
    }

    // Collect the class in left-vertex order.
    p.pick.clear();
    p.matched_ids.clear();
    p.matched_rights.clear();
    for u in 0..nodes {
        let v = scratch.matching.pair_left[u];
        debug_assert_ne!(v, UNMATCHED);
        let (lo, hi) = (p.adj_off[u] as usize, p.adj_off[u + 1] as usize);
        let t = lo
            + p.adj_v[lo..hi]
                .iter()
                .position(|&x| x == v)
                .expect("matched edge");
        let pos = p.adj_rep[t];
        p.pick.push(pos);
        p.matched_ids.push(ids[pos as usize]);
        p.matched_rights.push(rights[pos as usize]);
    }

    // Stable in-place partition around the matched block: one position
    // per left group leaves, so the rest compacts towards the kept end.
    match place {
        MatchBlock::Tail => {
            let mut w = 0usize;
            for i in 0..m {
                if i as u32 != p.pick[i / degree] {
                    ids[w] = ids[i];
                    rights[w] = rights[i];
                    w += 1;
                }
            }
            ids[w..].copy_from_slice(&p.matched_ids);
            rights[w..].copy_from_slice(&p.matched_rights);
        }
        MatchBlock::Front => {
            let mut w = m;
            for i in (0..m).rev() {
                if i as u32 != p.pick[i / degree] {
                    w -= 1;
                    ids[w] = ids[i];
                    rights[w] = rights[i];
                }
            }
            ids[..w].copy_from_slice(&p.matched_ids);
            rights[..w].copy_from_slice(&p.matched_rights);
        }
    }
    Ok(())
}

/// Check that `coloring` is a **proper** edge coloring of `g`: within each
/// vertex (on either side), all incident edges have distinct colors. For a
/// regular graph colored with `degree` colors, this means every vertex sees
/// every color exactly once.
pub fn verify_coloring(g: &RegularBipartite, coloring: &EdgeColoring) -> bool {
    if coloring.colors.len() != g.num_edges() || coloring.num_colors < g.degree() {
        return false;
    }
    let nc = coloring.num_colors;
    let mut left_seen = vec![false; g.nodes() * nc];
    let mut right_seen = vec![false; g.nodes() * nc];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let c = coloring.colors[e];
        if c >= nc {
            return false;
        }
        if left_seen[u * nc + c] || right_seen[v * nc + c] {
            return false;
        }
        left_seen[u * nc + c] = true;
        right_seen[v * nc + c] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Union of `deg` random perfect matchings: a `deg`-regular bipartite
    /// multigraph (parallel edges possible).
    fn random_regular(nodes: usize, deg: usize, seed: u64) -> RegularBipartite {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(nodes * deg);
        for _ in 0..deg {
            let mut rights: Vec<usize> = (0..nodes).collect();
            rights.shuffle(&mut rng);
            for (u, &v) in rights.iter().enumerate() {
                edges.push((u, v));
            }
        }
        RegularBipartite::new(nodes, edges).unwrap()
    }

    #[test]
    fn colors_degree_one() {
        let g = RegularBipartite::new(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let c = edge_color(&g).unwrap();
        assert_eq!(c.num_colors, 1);
        assert!(verify_coloring(&g, &c));
    }

    #[test]
    fn colors_figure5_style_degree4() {
        // A 4-regular bipartite graph like the paper's Figure 5.
        let g = random_regular(6, 4, 5);
        let c = edge_color(&g).unwrap();
        assert_eq!(c.num_colors, 4);
        assert!(verify_coloring(&g, &c));
    }

    #[test]
    fn colors_power_of_two_degrees() {
        for deg in [2usize, 4, 8, 16, 32] {
            let g = random_regular(16, deg, deg as u64);
            let c = edge_color(&g).unwrap();
            assert_eq!(c.num_colors, deg);
            assert!(verify_coloring(&g, &c), "degree {deg}");
        }
    }

    #[test]
    fn colors_odd_and_mixed_degrees() {
        for deg in [3usize, 5, 6, 7, 12] {
            let g = random_regular(10, deg, 100 + deg as u64);
            let c = edge_color(&g).unwrap();
            assert_eq!(c.num_colors, deg);
            assert!(verify_coloring(&g, &c), "degree {deg}");
        }
    }

    #[test]
    fn matching_only_strategy_agrees_on_validity() {
        for deg in [1usize, 2, 3, 4, 5, 8] {
            let g = random_regular(12, deg, deg as u64);
            let c = edge_color_with(&g, Strategy::MatchingOnly).unwrap();
            assert_eq!(c.num_colors, deg);
            assert!(verify_coloring(&g, &c), "degree {deg}");
        }
    }

    #[test]
    fn colors_multigraph_with_heavy_parallel_edges() {
        // All w edges between node 0 pairs, etc.: "identity x 4".
        let nodes = 4;
        let mut edges = Vec::new();
        for u in 0..nodes {
            for _ in 0..4 {
                edges.push((u, u));
            }
        }
        let g = RegularBipartite::new(nodes, edges).unwrap();
        let c = edge_color(&g).unwrap();
        assert!(verify_coloring(&g, &c));
    }

    #[test]
    fn color_classes_are_perfect_matchings() {
        let g = random_regular(8, 6, 77);
        let c = edge_color(&g).unwrap();
        for color in 0..c.num_colors {
            let mut left = vec![false; g.nodes()];
            let mut right = vec![false; g.nodes()];
            let mut count = 0;
            for (e, &(u, v)) in g.edges().iter().enumerate() {
                if c.colors[e] == color {
                    assert!(!left[u] && !right[v]);
                    left[u] = true;
                    right[v] = true;
                    count += 1;
                }
            }
            assert_eq!(count, g.nodes(), "color {color} is not perfect");
        }
    }

    #[test]
    fn color_blocks_rejects_irregular_input() {
        let seq = Parallelism::sequential();
        assert!(matches!(
            color_blocks(2, vec![0, 0, 0, 1], Strategy::Hybrid, seq),
            Err(GraphError::NotRegular { node: 0, .. })
        ));
        assert!(matches!(
            color_blocks(2, vec![0, 2, 1, 0], Strategy::Hybrid, seq),
            Err(GraphError::NodeOutOfRange { node: 2, .. })
        ));
        assert!(matches!(
            color_blocks(2, vec![0, 1, 0], Strategy::Hybrid, seq),
            Err(GraphError::DegenerateGraph { .. })
        ));
    }

    #[test]
    fn verify_rejects_improper() {
        let g = RegularBipartite::new(2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let bad = EdgeColoring {
            colors: vec![0, 0, 1, 1], // edges 0,1 share left node 0
            num_colors: 2,
        };
        assert!(!verify_coloring(&g, &bad));
        let short = EdgeColoring {
            colors: vec![0, 1],
            num_colors: 2,
        };
        assert!(!verify_coloring(&g, &short));
        let out_of_palette = EdgeColoring {
            colors: vec![0, 1, 2, 3],
            num_colors: 2,
        };
        assert!(!verify_coloring(&g, &out_of_palette));
    }

    #[test]
    fn large_power_of_two_coloring_is_fast_and_proper() {
        // Shape of a scheduled-permutation graph: 64 nodes, degree 64.
        let g = random_regular(64, 64, 123);
        let c = edge_color(&g).unwrap();
        assert_eq!(c.num_colors, 64);
        assert!(verify_coloring(&g, &c));
    }

    #[test]
    fn parallel_budget_matches_sequential_exactly() {
        for (nodes, deg, seed) in [(16usize, 8usize, 1u64), (10, 7, 2), (32, 12, 3)] {
            let g = random_regular(nodes, deg, seed);
            let seq = edge_color_with(&g, Strategy::Hybrid).unwrap();
            for t in [2, 3, 4, 8] {
                let par = edge_color_par(&g, Strategy::Hybrid, Parallelism::threads(t)).unwrap();
                assert_eq!(par, seq, "nodes {nodes} deg {deg} threads {t}");
            }
        }
    }

    #[test]
    fn parallel_colors_disconnected_components() {
        // Many small components (identity-style): every right pairing is
        // a parallel edge of one left vertex.
        let nodes = 64;
        let deg = 4;
        let mut edges = Vec::new();
        for u in 0..nodes {
            for _ in 0..deg {
                edges.push((u, u));
            }
        }
        let g = RegularBipartite::new(nodes, edges).unwrap();
        let seq = edge_color_with(&g, Strategy::Hybrid).unwrap();
        let par = edge_color_par(&g, Strategy::Hybrid, Parallelism::threads(4)).unwrap();
        assert_eq!(par, seq);
        assert!(verify_coloring(&g, &par));
    }

    #[test]
    fn parallel_matching_only_matches_sequential() {
        let g = random_regular(12, 5, 9);
        let seq = edge_color_with(&g, Strategy::MatchingOnly).unwrap();
        let par = edge_color_par(&g, Strategy::MatchingOnly, Parallelism::threads(4)).unwrap();
        assert_eq!(par, seq);
        assert!(verify_coloring(&g, &par));
    }

    #[test]
    fn fork_threshold_is_exercised() {
        // Big enough that the recursion actually forks (> FORK_MIN_EDGES
        // edges at the top splits): parallel must still equal sequential.
        let g = random_regular(512, 32, 42); // 16384 edges
        let seq = edge_color_with(&g, Strategy::Hybrid).unwrap();
        let par = edge_color_par(&g, Strategy::Hybrid, Parallelism::threads(4)).unwrap();
        assert_eq!(par, seq);
        assert!(verify_coloring(&g, &par));
    }
}
