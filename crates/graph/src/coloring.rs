//! Minimal edge coloring of regular bipartite multigraphs (König's
//! theorem — Theorem 6 of the paper).
//!
//! A regular bipartite multigraph of degree `Δ` is `Δ`-edge-colorable. The
//! constructive proof implemented here combines two classic ingredients:
//!
//! * **even degree** — an Euler partition splits the graph into two halves
//!   of degree `Δ/2`, which are colored recursively with disjoint palettes;
//! * **odd degree** — a perfect matching (Hopcroft–Karp; it exists by
//!   regularity) is peeled off as one color class, leaving an even-degree
//!   graph.
//!
//! For the power-of-two degrees arising in the scheduled permutation the
//! odd branch never triggers and the total cost is `O(E log Δ)`.
//!
//! ## The plan-compiler rewrite: in-place, scratch-backed, forkable
//!
//! The recursion operates on a single edge-id buffer that is partitioned
//! **in place**: an Euler split reorders a slice into its two halves, a
//! matching peel moves the matched color class to the tail of the slice.
//! On return the buffer holds `Δ` contiguous blocks of `nodes` edges each
//! — block `k` *is* color class `k` — and one sequential pass converts
//! blocks into the per-edge color array. Temporaries (CSR adjacency,
//! visited flags, Hierholzer stack, matching state) live in a reusable
//! `ColorScratch`, so the ~`2Δ` recursion nodes perform no per-level
//! `O(E)` allocations.
//!
//! Because the two halves of a split are disjoint sub-slices, they can be
//! colored by different threads with `split_at_mut` — no locks, no
//! `unsafe`. [`edge_color_par`] additionally colors connected components
//! independently (a component of a `d`-regular bipartite graph is itself
//! `d`-regular, so each gets the full palette). The thread budget decides
//! only *where* a sub-slice is colored, never how it is partitioned, so
//! the coloring is byte-identical at every thread count — the property
//! `hmm-plan` relies on for deterministic plan bytes.

use crate::error::{GraphError, Result};
use crate::euler::{euler_split_in_place, EulerScratch};
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

/// Strategy selection for [`edge_color_with`]; [`edge_color`] picks
/// [`Strategy::Hybrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Euler partition for even degrees, matching for odd — the default.
    Hybrid,
    /// Peel one perfect matching per color, `Δ` times. Simpler and slower;
    /// kept as the baseline for the coloring ablation bench. Matchings
    /// are inherently sequential, so only the per-component fan-out of
    /// [`edge_color_par`] applies to this strategy.
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

/// Properly color the edges of `g`, forking the coloring recursion (and
/// the independent connected components) across the scoped-thread budget
/// `par`. The result is **identical** to [`edge_color_with`] for every
/// budget: parallelism only relocates work, it never reorders the
/// deterministic split/peel partitions.
pub fn edge_color_par(
    g: &RegularBipartite,
    strategy: Strategy,
    par: Parallelism,
) -> Result<EdgeColoring> {
    let degree = g.degree();
    let m = g.num_edges();
    let mut colors = vec![usize::MAX; m];
    if m > 0 {
        assert!(
            2 * m <= u32::MAX as usize && 2 * g.nodes() <= u32::MAX as usize,
            "graph exceeds u32 index space"
        );
        let mut cg = split_components(g);
        let cx = Ctx {
            left_of: &cg.left_of,
            right_of: &cg.right_of,
            degree,
            strategy,
        };
        color_components(&cx, par, &cg.spans, &mut cg.ids)?;
        // Blocks -> colors: block `k` of each component is color class `k`.
        for span in &cg.spans {
            for k in 0..degree {
                let s = span.start + k * span.nodes;
                for &e in &cg.ids[s..s + span.nodes] {
                    colors[e as usize] = k;
                }
            }
        }
    }
    debug_assert!(colors.iter().all(|&c| c < degree));
    Ok(EdgeColoring {
        colors,
        num_colors: degree,
    })
}

/// Shared read-only context for the coloring recursion. `left_of[e]` /
/// `right_of[e]` are the **component-local** endpoint ids of global edge
/// `e`, so every component is a self-contained subproblem with scratch
/// sized to the component, not to the whole graph.
struct Ctx<'a> {
    left_of: &'a [u32],
    right_of: &'a [u32],
    degree: usize,
    strategy: Strategy,
}

/// One connected component: it owns `ids[start..end]` of the partitioned
/// edge-id buffer and has `nodes` vertices per side.
struct CompSpan {
    start: usize,
    end: usize,
    nodes: usize,
}

/// The component-partitioned graph: edge ids grouped by component
/// (discovery order, stable by edge id within a component) plus the
/// component-local endpoint tables.
struct CompGraph {
    left_of: Vec<u32>,
    right_of: Vec<u32>,
    ids: Vec<u32>,
    spans: Vec<CompSpan>,
}

/// Discover connected components (BFS from left vertices in ascending
/// order — deterministic) and relabel each component's vertices with
/// local ids `0..nodes` per side.
fn split_components(g: &RegularBipartite) -> CompGraph {
    let r = g.nodes();
    let total = 2 * r;
    let edges = g.edges();
    let m = edges.len();

    // Full CSR adjacency (vertex -> neighbour vertex), used only for the
    // component BFS; the recursion rebuilds per-slice CSRs from scratch.
    let mut off = vec![0u32; total + 1];
    for &(u, v) in edges {
        off[u + 1] += 1;
        off[v + r + 1] += 1;
    }
    for i in 0..total {
        off[i + 1] += off[i];
    }
    let mut cur: Vec<u32> = off[..total].to_vec();
    let mut adj = vec![0u32; 2 * m];
    for &(u, v) in edges {
        adj[cur[u] as usize] = (v + r) as u32;
        cur[u] += 1;
        adj[cur[v + r] as usize] = u as u32;
        cur[v + r] += 1;
    }

    let mut comp = vec![u32::MAX; total];
    let mut local = vec![0u32; total];
    let mut queue: Vec<u32> = Vec::new();
    let mut comp_nodes: Vec<usize> = Vec::new();
    for u0 in 0..r {
        if comp[u0] != u32::MAX {
            continue;
        }
        let cid = comp_nodes.len() as u32;
        let (mut nl, mut nr) = (0u32, 0u32);
        comp[u0] = cid;
        local[u0] = nl;
        nl += 1;
        queue.clear();
        queue.push(u0 as u32);
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head] as usize;
            head += 1;
            for t in off[w]..off[w + 1] {
                let x = adj[t as usize] as usize;
                if comp[x] == u32::MAX {
                    comp[x] = cid;
                    if x < r {
                        local[x] = nl;
                        nl += 1;
                    } else {
                        local[x] = nr;
                        nr += 1;
                    }
                    queue.push(x as u32);
                }
            }
        }
        debug_assert_eq!(nl, nr, "regular component must be balanced");
        comp_nodes.push(nl as usize);
    }

    // Stable counting sort of edge ids by component, and the local
    // endpoint tables.
    let ncomp = comp_nodes.len();
    let mut counts = vec![0usize; ncomp + 1];
    for &(u, _) in edges {
        counts[comp[u] as usize + 1] += 1;
    }
    for i in 0..ncomp {
        counts[i + 1] += counts[i];
    }
    let starts = counts.clone();
    let mut pos = counts;
    let mut ids = vec![0u32; m];
    let mut left_of = vec![0u32; m];
    let mut right_of = vec![0u32; m];
    for (e, &(u, v)) in edges.iter().enumerate() {
        left_of[e] = local[u];
        right_of[e] = local[v + r];
        let c = comp[u] as usize;
        ids[pos[c]] = e as u32;
        pos[c] += 1;
    }
    let spans = (0..ncomp)
        .map(|c| CompSpan {
            start: starts[c],
            end: starts[c + 1],
            nodes: comp_nodes[c],
        })
        .collect();
    CompGraph {
        left_of,
        right_of,
        ids,
        spans,
    }
}

/// Color a run of components. `ids` covers exactly
/// `spans[0].start..spans.last().end` of the partitioned buffer. A
/// parallel budget splits the run at an edge-weighted midpoint and forks;
/// a single component spends the whole budget inside its own recursion
/// tree. Sequential execution reuses one [`ColorScratch`] across the
/// entire run.
fn color_components(
    cx: &Ctx<'_>,
    par: Parallelism,
    spans: &[CompSpan],
    ids: &mut [u32],
) -> Result<()> {
    if spans.is_empty() {
        return Ok(());
    }
    if spans.len() > 1 && par.is_parallel() && ids.len() >= FORK_MIN_EDGES {
        let offset = spans[0].start;
        let total = ids.len();
        let mut cut = 1;
        let mut acc = spans[0].end - spans[0].start;
        while cut < spans.len() - 1 && acc * 2 < total {
            acc += spans[cut].end - spans[cut].start;
            cut += 1;
        }
        let la = spans[cut].start - offset;
        let (a, b) = ids.split_at_mut(la);
        let (ra, rb) = par.join_weighted(
            la,
            total - la,
            |p| color_components(cx, p, &spans[..cut], a),
            |p| color_components(cx, p, &spans[cut..], b),
        );
        ra?;
        return rb;
    }
    let mut scratch = ColorScratch::default();
    let single = spans.len() == 1;
    let mut rest = ids;
    for span in spans {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(span.end - span.start);
        rest = tail;
        let p = if single {
            par
        } else {
            Parallelism::sequential()
        };
        color_comp(cx, p, span.nodes, head, &mut scratch)?;
    }
    Ok(())
}

/// Color one component according to the strategy.
fn color_comp(
    cx: &Ctx<'_>,
    par: Parallelism,
    nodes: usize,
    ids: &mut [u32],
    scratch: &mut ColorScratch,
) -> Result<()> {
    match cx.strategy {
        Strategy::Hybrid => color_slice(cx, par, nodes, ids, cx.degree, scratch),
        Strategy::MatchingOnly => {
            let mut rest = ids;
            let mut d = cx.degree;
            // Peel color class d..1 off the front; a 1-regular remainder
            // already is its own (final) color block.
            while d > 1 {
                peel_matching_in_place(cx, nodes, rest, scratch, MatchBlock::Front)?;
                rest = &mut std::mem::take(&mut rest)[nodes..];
                d -= 1;
            }
            Ok(())
        }
    }
}

/// The hybrid recursion over one slice of the edge-id buffer. On success
/// the slice is partitioned into `degree` blocks of `nodes` edges; block
/// `k` is relative color `k`. Fork points hand the first half a fresh
/// scratch (at most `budget - 1` extra scratches ever exist) and keep the
/// caller's scratch on the second half.
fn color_slice(
    cx: &Ctx<'_>,
    par: Parallelism,
    nodes: usize,
    ids: &mut [u32],
    degree: usize,
    scratch: &mut ColorScratch,
) -> Result<()> {
    if degree <= 1 {
        return Ok(());
    }
    if degree.is_multiple_of(2) {
        euler_split_in_place(cx.left_of, cx.right_of, nodes, ids, &mut scratch.euler);
        let m = ids.len();
        let (a, b) = ids.split_at_mut(m / 2);
        if par.is_parallel() && m >= FORK_MIN_EDGES {
            let (ra, rb) = par.join(
                |p| {
                    let mut fresh = ColorScratch::default();
                    color_slice(cx, p, nodes, a, degree / 2, &mut fresh)
                },
                |p| color_slice(cx, p, nodes, b, degree / 2, scratch),
            );
            ra?;
            rb
        } else {
            color_slice(cx, par, nodes, a, degree / 2, scratch)?;
            color_slice(cx, par, nodes, b, degree / 2, scratch)
        }
    } else {
        peel_matching_in_place(cx, nodes, ids, scratch, MatchBlock::Tail)?;
        let m = ids.len();
        color_slice(cx, par, nodes, &mut ids[..m - nodes], degree - 1, scratch)
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
    euler: EulerScratch,
    matching: MatchScratch,
    peel: PeelScratch,
}

/// Matching-peel staging: slice-local edge buckets by left vertex, the
/// deduplicated CSR handed to Hopcroft–Karp, and the partition state.
#[derive(Debug, Default)]
struct PeelScratch {
    /// Bucket offsets per left vertex (plus sentinel); `cursor` is the
    /// bucket fill pointer.
    bucket_off: Vec<u32>,
    cursor: Vec<u32>,
    /// Slice-local edge indices grouped by left vertex, slice order within.
    bucket_edge: Vec<u32>,
    /// Dedup CSR: one entry per distinct (u, v); `adj_rep` remembers the
    /// representative slice-local edge so color classes name real edges.
    adj_off: Vec<u32>,
    adj_v: Vec<u32>,
    adj_rep: Vec<u32>,
    /// Last left vertex that saw right vertex `v` (dedup stamp).
    stamp: Vec<u32>,
    /// Matched flag per slice-local edge.
    matched: Vec<bool>,
    /// Matched global edge ids in left-vertex order.
    matched_ids: Vec<u32>,
}

/// Extract a perfect matching from the sub-multigraph `ids` and move it —
/// as a contiguous block in left-vertex order — to the front or tail of
/// the slice; the unmatched edges keep their relative order. Parallel
/// edges are deduplicated for the matching itself via a representative
/// per (u, v).
fn peel_matching_in_place(
    cx: &Ctx<'_>,
    nodes: usize,
    ids: &mut [u32],
    scratch: &mut ColorScratch,
    place: MatchBlock,
) -> Result<()> {
    let m = ids.len();
    let p = &mut scratch.peel;

    // Bucket slice-local edges by left vertex.
    p.bucket_off.clear();
    p.bucket_off.resize(nodes + 1, 0);
    for &e in ids.iter() {
        p.bucket_off[cx.left_of[e as usize] as usize + 1] += 1;
    }
    for u in 0..nodes {
        p.bucket_off[u + 1] += p.bucket_off[u];
    }
    p.cursor.clear();
    p.cursor.extend_from_slice(&p.bucket_off[..nodes]);
    p.bucket_edge.clear();
    p.bucket_edge.resize(m, 0);
    for (i, &e) in ids.iter().enumerate() {
        let u = cx.left_of[e as usize] as usize;
        p.bucket_edge[p.cursor[u] as usize] = i as u32;
        p.cursor[u] += 1;
    }

    // Dedup adjacency: left vertices ascend, so a stamp of the last left
    // vertex that saw each right vertex suffices (no per-call clearing of
    // anything sized by the slice).
    p.stamp.clear();
    p.stamp.resize(nodes, u32::MAX);
    p.adj_off.clear();
    p.adj_off.resize(nodes + 1, 0);
    p.adj_v.clear();
    p.adj_rep.clear();
    for u in 0..nodes {
        for t in p.bucket_off[u]..p.bucket_off[u + 1] {
            let le = p.bucket_edge[t as usize];
            let v = cx.right_of[ids[le as usize] as usize];
            if p.stamp[v as usize] == u as u32 {
                continue;
            }
            p.stamp[v as usize] = u as u32;
            p.adj_v.push(v);
            p.adj_rep.push(le);
        }
        p.adj_off[u + 1] = p.adj_v.len() as u32;
    }

    let size = hopcroft_karp_core(nodes, nodes, &p.adj_off, &p.adj_v, &mut scratch.matching);
    if size != nodes {
        return Err(GraphError::MatchingFailed {
            matched: size,
            nodes,
        });
    }

    // Collect the class in left-vertex order and flag its edges.
    p.matched.clear();
    p.matched.resize(m, false);
    p.matched_ids.clear();
    for u in 0..nodes {
        let v = scratch.matching.pair_left[u];
        debug_assert_ne!(v, UNMATCHED);
        let mut rep = u32::MAX;
        for t in p.adj_off[u]..p.adj_off[u + 1] {
            if p.adj_v[t as usize] == v {
                rep = p.adj_rep[t as usize];
                break;
            }
        }
        let le = rep as usize;
        p.matched[le] = true;
        p.matched_ids.push(ids[le]);
    }

    // Stable in-place partition around the matched block.
    match place {
        MatchBlock::Tail => {
            let mut w = 0usize;
            for i in 0..m {
                if !p.matched[i] {
                    ids[w] = ids[i];
                    w += 1;
                }
            }
            debug_assert_eq!(w, m - nodes);
            ids[w..].copy_from_slice(&p.matched_ids);
        }
        MatchBlock::Front => {
            let mut w = m;
            for i in (0..m).rev() {
                if !p.matched[i] {
                    w -= 1;
                    ids[w] = ids[i];
                }
            }
            debug_assert_eq!(w, nodes);
            ids[..nodes].copy_from_slice(&p.matched_ids);
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
        // Many small components (identity-style): exercises the
        // per-component fan-out and local vertex relabeling.
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
