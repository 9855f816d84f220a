//! Euler partition: split an even-degree bipartite multigraph into two
//! halves of equal degree.
//!
//! Walking an Eulerian circuit and assigning edges alternately to the two
//! halves splits every vertex's degree exactly in half, because consecutive
//! circuit edges share a vertex and every circuit in a bipartite graph has
//! even length. Applied recursively this yields the classic
//! `O(E log deg)` edge coloring for power-of-two degrees — the fast path
//! exploited by the scheduled permutation, whose graphs have degree
//! `√n / something` that is always a power of two.
//!
//! The worker is `euler_split_in_place`: it partitions a slice of edge
//! ids in place (first half, then second half) and draws every temporary —
//! CSR adjacency, visited flags, Hierholzer stack — from a reusable
//! `EulerScratch`, so the coloring recursion performs no per-level
//! allocations. The public [`euler_split`] keeps the original allocating
//! signature as a thin wrapper.

/// Reusable buffers for [`euler_split_in_place`]. All vectors are resized
/// on use, so one scratch serves subproblems of any size; capacity is
/// retained across calls, which is what makes the coloring recursion
/// allocation-lean.
#[derive(Debug, Default)]
pub(crate) struct EulerScratch {
    /// CSR row offsets over the `2 * nodes` vertices (plus sentinel).
    offsets: Vec<u32>,
    /// Per-vertex fill cursor during CSR build; reused as the Hierholzer
    /// read pointer afterwards.
    cursor: Vec<u32>,
    /// CSR payload: index of the edge *within the slice* (not the global id).
    adj_edge: Vec<u32>,
    /// CSR payload: the local vertex at the other end.
    adj_to: Vec<u32>,
    /// Consumed flag per slice-local edge.
    used: Vec<bool>,
    /// Hierholzer stack: `(vertex, incoming slice-local edge + 1; 0 = none)`.
    stack: Vec<(u32, u32)>,
    /// Eulerian circuit of the current component, as slice-local edges.
    circuit: Vec<u32>,
    /// Global edge ids of the two halves, staged before the copy-back.
    half_a: Vec<u32>,
    half_b: Vec<u32>,
}

/// Partition `ids` (global edge ids; every vertex must have even degree in
/// the sub-multigraph they induce) so that the first `ids.len() / 2`
/// entries and the rest each contain exactly half of every vertex's
/// degree. `left_of[e]` / `right_of[e]` give the local left/right vertex
/// of global edge `e`, both in `0..nodes`.
///
/// Deterministic: the output depends only on `(ids, left_of, right_of,
/// nodes)`, never on thread count — this is the invariant the parallel
/// coloring relies on for byte-identical results.
pub(crate) fn euler_split_in_place(
    left_of: &[u32],
    right_of: &[u32],
    nodes: usize,
    ids: &mut [u32],
    s: &mut EulerScratch,
) {
    let m = ids.len();
    let total = 2 * nodes;

    // CSR adjacency over local vertices: left side 0..nodes, right side
    // nodes..2*nodes. Entries appear in slice order per vertex, matching
    // the traversal order of the original Vec<Vec<_>> implementation.
    s.offsets.clear();
    s.offsets.resize(total + 1, 0);
    for &e in ids.iter() {
        s.offsets[left_of[e as usize] as usize + 1] += 1;
        s.offsets[right_of[e as usize] as usize + nodes + 1] += 1;
    }
    for v in 0..total {
        s.offsets[v + 1] += s.offsets[v];
    }
    s.cursor.clear();
    s.cursor.extend_from_slice(&s.offsets[..total]);
    s.adj_edge.clear();
    s.adj_edge.resize(2 * m, 0);
    s.adj_to.clear();
    s.adj_to.resize(2 * m, 0);
    for (i, &e) in ids.iter().enumerate() {
        let u = left_of[e as usize] as usize;
        let v = right_of[e as usize] as usize + nodes;
        let cu = s.cursor[u] as usize;
        s.adj_edge[cu] = i as u32;
        s.adj_to[cu] = v as u32;
        s.cursor[u] += 1;
        let cv = s.cursor[v] as usize;
        s.adj_edge[cv] = i as u32;
        s.adj_to[cv] = u as u32;
        s.cursor[v] += 1;
    }
    s.cursor.copy_from_slice(&s.offsets[..total]);

    s.used.clear();
    s.used.resize(m, false);
    s.half_a.clear();
    s.half_b.clear();

    // Iterative Hierholzer: the pop order yields an Eulerian circuit of
    // each connected component; alternate circuit edges between the halves
    // (each circuit has even length, so the halves stay balanced).
    for start in 0..total {
        if s.offsets[start] == s.offsets[start + 1] {
            continue;
        }
        s.circuit.clear();
        s.stack.push((start as u32, 0));
        while let Some(&(v, e_in)) = s.stack.last() {
            let v = v as usize;
            let mut advanced = false;
            while s.cursor[v] < s.offsets[v + 1] {
                let p = s.cursor[v] as usize;
                s.cursor[v] += 1;
                let le = s.adj_edge[p] as usize;
                if !s.used[le] {
                    s.used[le] = true;
                    s.stack.push((s.adj_to[p], le as u32 + 1));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                s.stack.pop();
                if e_in != 0 {
                    s.circuit.push(e_in - 1);
                }
            }
        }
        for (i, &le) in s.circuit.iter().enumerate() {
            let e = ids[le as usize];
            if i % 2 == 0 {
                s.half_a.push(e);
            } else {
                s.half_b.push(e);
            }
        }
    }

    let h = m / 2;
    debug_assert_eq!(s.half_a.len(), h, "odd-degree vertex in Euler split");
    ids[..h].copy_from_slice(&s.half_a);
    ids[h..].copy_from_slice(&s.half_b);
}

/// Split the sub-multigraph formed by `subset` (edge ids into `edges`) into
/// two halves `(a, b)` such that every vertex has exactly half of its
/// `subset`-degree in each half.
///
/// Every vertex must have **even** degree within `subset`; the caller (the
/// coloring recursion) guarantees this. `nodes` is the number of vertices
/// per side.
pub fn euler_split(
    nodes: usize,
    edges: &[(usize, usize)],
    subset: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        2 * edges.len() <= u32::MAX as usize && 2 * nodes <= u32::MAX as usize,
        "graph exceeds u32 index space"
    );
    let mut left_of = vec![0u32; edges.len()];
    let mut right_of = vec![0u32; edges.len()];
    for (e, &(u, v)) in edges.iter().enumerate() {
        left_of[e] = u as u32;
        right_of[e] = v as u32;
    }
    let mut ids: Vec<u32> = subset.iter().map(|&e| e as u32).collect();
    let mut scratch = EulerScratch::default();
    euler_split_in_place(&left_of, &right_of, nodes, &mut ids, &mut scratch);
    let h = ids.len() / 2;
    let a = ids[..h].iter().map(|&e| e as usize).collect();
    let b = ids[h..].iter().map(|&e| e as usize).collect();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Degree of each (side, node) within a subset of edge ids.
    fn degrees(
        nodes: usize,
        edges: &[(usize, usize)],
        subset: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        let mut l = vec![0usize; nodes];
        let mut r = vec![0usize; nodes];
        for &e in subset {
            l[edges[e].0] += 1;
            r[edges[e].1] += 1;
        }
        (l, r)
    }

    fn check_split(nodes: usize, edges: &[(usize, usize)]) {
        let all: Vec<usize> = (0..edges.len()).collect();
        let (l0, r0) = degrees(nodes, edges, &all);
        let (a, b) = euler_split(nodes, edges, &all);
        assert_eq!(a.len() + b.len(), edges.len());
        let mut seen = vec![false; edges.len()];
        for &e in a.iter().chain(&b) {
            assert!(!seen[e], "edge {e} assigned twice");
            seen[e] = true;
        }
        let (la, ra) = degrees(nodes, edges, &a);
        let (lb, rb) = degrees(nodes, edges, &b);
        for v in 0..nodes {
            assert_eq!(la[v], l0[v] / 2, "left {v} uneven");
            assert_eq!(lb[v], l0[v] / 2);
            assert_eq!(ra[v], r0[v] / 2, "right {v} uneven");
            assert_eq!(rb[v], r0[v] / 2);
        }
    }

    #[test]
    fn splits_double_cover_of_matching() {
        // Degree 2: each node has the same two parallel edges.
        check_split(3, &[(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)]);
    }

    #[test]
    fn splits_complete_bipartite_k22() {
        check_split(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn splits_complete_bipartite_k44() {
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in 0..4 {
                edges.push((u, v));
            }
        }
        check_split(4, &edges);
    }

    #[test]
    fn splits_disconnected_components() {
        // Two disjoint 2-cycles.
        check_split(
            4,
            &[
                (0, 0),
                (0, 0),
                (1, 1),
                (1, 1),
                (2, 3),
                (2, 3),
                (3, 2),
                (3, 2),
            ],
        );
    }

    #[test]
    fn splits_subset_only() {
        // Full graph has odd degree, but the chosen subset has even degree.
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1)];
        let subset = vec![0, 1, 2, 3]; // K22, degree 2
        let (a, b) = euler_split(2, &edges, &subset);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        for &e in a.iter().chain(&b) {
            assert!(subset.contains(&e));
        }
    }

    #[test]
    fn splits_random_regular_multigraph() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // Build a random 8-regular bipartite multigraph on 16+16 nodes as a
        // union of 8 random perfect matchings.
        let mut rng = StdRng::seed_from_u64(3);
        let nodes = 16;
        let mut edges = Vec::new();
        for _ in 0..8 {
            let mut rights: Vec<usize> = (0..nodes).collect();
            rights.shuffle(&mut rng);
            for (u, &v) in rights.iter().enumerate() {
                edges.push((u, v));
            }
        }
        check_split(nodes, &edges);
    }

    #[test]
    fn empty_subset_yields_empty_halves() {
        let (a, b) = euler_split(2, &[(0, 0), (1, 1)], &[]);
        assert!(a.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        // The same scratch must give correct results for a big split
        // followed by a smaller one (stale capacity must not leak).
        let edges_a: Vec<(usize, usize)> =
            (0..4).flat_map(|u| (0..4).map(move |v| (u, v))).collect();
        let edges_b = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut scratch = EulerScratch::default();
        for (nodes, edges) in [(4usize, &edges_a), (2usize, &edges_b)] {
            let mut left_of = vec![0u32; edges.len()];
            let mut right_of = vec![0u32; edges.len()];
            for (e, &(u, v)) in edges.iter().enumerate() {
                left_of[e] = u as u32;
                right_of[e] = v as u32;
            }
            let mut ids: Vec<u32> = (0..edges.len() as u32).collect();
            euler_split_in_place(&left_of, &right_of, nodes, &mut ids, &mut scratch);
            let subset: Vec<usize> = ids.iter().map(|&e| e as usize).collect();
            let h = subset.len() / 2;
            let (la, _) = degrees(nodes, edges, &subset[..h]);
            let (lb, _) = degrees(nodes, edges, &subset[h..]);
            for v in 0..nodes {
                assert_eq!(la[v], lb[v], "node {v} uneven after reuse");
            }
        }
    }
}
