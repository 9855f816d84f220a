//! Euler partition: split an even-degree bipartite multigraph into two
//! halves of equal degree.
//!
//! This is the pairing form of the partition (Gabow 1976; Alon 2003).
//! Pair up the edges at every vertex, arbitrarily. Each edge then has one
//! partner at its left end and one at its right end, so the pairs link the
//! edges into disjoint cycles that alternate left and right links, and
//! each such cycle has even length. Putting the edges of every cycle
//! alternately into the two halves puts one edge of every pair into each
//! half, so every vertex keeps exactly half of its degree on either side.
//! No adjacency structure is built and no Euler circuit is walked.
//! Applied recursively this yields the classic `O(E log deg)` edge
//! coloring for power-of-two degrees — the fast path exploited by the
//! scheduled permutation, whose degrees are always powers of two.
//!
//! The worker is `split_in_place`. Its slice keeps the edges grouped by
//! left vertex, each group of even length, so an edge's left partner is
//! its neighbour `i ^ 1`, and the halves it writes are grouped the same
//! way. Each edge's right vertex travels with it in a parallel slice, so
//! pairing the right ends is one streaming pass over that slice through
//! one pending slot per right vertex. Every temporary comes from a
//! reusable `SplitScratch`, so the coloring recursion performs no
//! per-level allocations. The public [`euler_split`] sorts an arbitrary
//! edge subset into that form first.

use crate::error::{GraphError, Result};

/// An empty pending slot.
const NONE: u32 = u32::MAX;

/// Reusable buffers for [`split_in_place`]. All vectors are resized on
/// use, so one scratch serves subproblems of any size; capacity is
/// retained across calls.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    /// Per right vertex: the slice position waiting for a right partner.
    pending: Vec<u32>,
    /// Per slice position: the position of its right partner (plus one
    /// spare entry the pairing pass writes instead of branching).
    partner: Vec<u32>,
    /// Per left pair `2j, 2j + 1`: 0 while unvisited, else 1 + the offset
    /// (0 or 1) of the pair member that goes to the first half.
    first: Vec<u8>,
    /// The second halves, staged while the first is compacted in place.
    spill_ids: Vec<u32>,
    spill_rights: Vec<u32>,
}

/// Partition the edges `(ids[i], rights[i])` so that the first half and
/// the second each hold exactly half of every vertex's degree.
///
/// Preconditions: positions `2j` and `2j + 1` hold edges of the same left
/// vertex (the slice is grouped by left vertex in groups of even length),
/// and every `rights[i] < nodes`. A right vertex of odd degree is
/// reported as [`GraphError::OddDegree`] before anything moves. Both
/// halves keep the left-vertex grouping and its order: the first half
/// takes one edge of every left pair, at index `j` for pair `j`.
///
/// Deterministic: the output depends only on `(ids, rights, nodes)`,
/// never on thread count — this is the invariant the parallel coloring
/// relies on for byte-identical results.
pub(crate) fn split_in_place(
    nodes: usize,
    ids: &mut [u32],
    rights: &mut [u32],
    s: &mut SplitScratch,
) -> Result<()> {
    let m = ids.len();
    debug_assert_eq!(rights.len(), m);

    // Right pairing: consecutive occurrences of a right vertex pair up.
    // Branch-free, as whether a slot is taken is a coin flip: an edge that
    // finds its slot empty writes `NONE` as its partner, which its own
    // partner overwrites later, and links the spare entry `m`.
    s.pending.clear();
    s.pending.resize(nodes, NONE);
    s.partner.clear();
    s.partner.resize(m + 1, 0);
    for (i, &v) in rights.iter().enumerate() {
        let slot = &mut s.pending[v as usize];
        let q = *slot;
        s.partner[i] = q;
        s.partner[(q as usize).min(m)] = i as u32;
        *slot = if q == NONE { i as u32 } else { NONE };
    }
    // Checked in every build: a leftover edge has no right partner, and
    // the cycle walk below would never close.
    if let Some(vertex) = s.pending.iter().position(|&slot| slot != NONE) {
        return Err(GraphError::OddDegree {
            vertex,
            right: true,
        });
    }

    // Walk each alternating cycle from its lowest unvisited pair: edge `e`
    // goes first, its left partner `e ^ 1` second, and the right partner
    // of `e ^ 1` is the cycle's next first-half edge.
    let h = m / 2;
    s.first.clear();
    s.first.resize(h, 0);
    for j in 0..h {
        if s.first[j] != 0 {
            continue;
        }
        let start = 2 * j;
        let mut e = start;
        loop {
            debug_assert_eq!(s.first[e >> 1], 0, "alternating cycle revisited");
            s.first[e >> 1] = 1 + (e & 1) as u8;
            e = s.partner[e ^ 1] as usize;
            if e == start {
                break;
            }
        }
    }

    // De-interleave: pair `j`'s first-half edge moves to `j` (reads stay at
    // or ahead of the write), its partner to the staged second half.
    s.spill_ids.clear();
    s.spill_rights.clear();
    for j in 0..h {
        let a = 2 * j + (s.first[j] - 1) as usize;
        let b = a ^ 1;
        s.spill_ids.push(ids[b]);
        s.spill_rights.push(rights[b]);
        ids[j] = ids[a];
        rights[j] = rights[a];
    }
    ids[h..].copy_from_slice(&s.spill_ids);
    rights[h..].copy_from_slice(&s.spill_rights);
    Ok(())
}

/// Split the sub-multigraph formed by `subset` (edge ids into `edges`) into
/// two halves `(a, b)` such that every vertex has exactly half of its
/// `subset`-degree in each half.
///
/// Every vertex must have **even** degree within `subset`; a vertex that
/// does not is reported as [`GraphError::OddDegree`]. `nodes` is the
/// number of vertices per side.
pub fn euler_split(
    nodes: usize,
    edges: &[(usize, usize)],
    subset: &[usize],
) -> Result<(Vec<usize>, Vec<usize>)> {
    assert!(
        subset.len() < u32::MAX as usize && nodes <= u32::MAX as usize,
        "graph exceeds u32 index space"
    );
    // Stable counting sort by left vertex, so left pairs are neighbours.
    let mut start = vec![0usize; nodes + 1];
    for &e in subset {
        start[edges[e].0 + 1] += 1;
    }
    for u in 0..nodes {
        if !start[u + 1].is_multiple_of(2) {
            return Err(GraphError::OddDegree {
                vertex: u,
                right: false,
            });
        }
        start[u + 1] += start[u];
    }
    let mut ids = vec![0u32; subset.len()];
    let mut rights = vec![0u32; subset.len()];
    for &e in subset {
        let (u, v) = edges[e];
        ids[start[u]] = e as u32;
        rights[start[u]] = v as u32;
        start[u] += 1;
    }
    split_in_place(nodes, &mut ids, &mut rights, &mut SplitScratch::default())?;
    let h = ids.len() / 2;
    let a = ids[..h].iter().map(|&e| e as usize).collect();
    let b = ids[h..].iter().map(|&e| e as usize).collect();
    Ok((a, b))
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
        let (a, b) = euler_split(nodes, edges, &all).unwrap();
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
    fn splits_edges_not_grouped_by_left_vertex() {
        check_split(3, &[(2, 0), (0, 1), (1, 2), (0, 0), (2, 1), (1, 2)]);
    }

    #[test]
    fn splits_subset_only() {
        // Full graph has odd degree, but the chosen subset has even degree.
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1)];
        let subset = vec![0, 1, 2, 3]; // K22, degree 2
        let (a, b) = euler_split(2, &edges, &subset).unwrap();
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
        let (a, b) = euler_split(2, &[(0, 0), (1, 1)], &[]).unwrap();
        assert!(a.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn odd_degrees_are_errors_on_either_side() {
        // Left 0 has degree 2, but rights 0 and 1 have degree 1 each.
        assert_eq!(
            euler_split(2, &[(0, 0), (0, 1)], &[0, 1]),
            Err(GraphError::OddDegree {
                vertex: 0,
                right: true
            })
        );
        assert_eq!(
            euler_split(2, &[(0, 0), (1, 0)], &[0, 1]),
            Err(GraphError::OddDegree {
                vertex: 0,
                right: false
            })
        );
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        // The same scratch must give correct results for a big split
        // followed by a smaller one (stale capacity must not leak).
        let mut scratch = SplitScratch::default();
        let big: Vec<(u32, u32)> = (0..4).flat_map(|u| (0..4).map(move |v| (u, v))).collect();
        let small = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        for (nodes, edges) in [(4usize, &big), (2usize, &small)] {
            let mut ids: Vec<u32> = (0..edges.len() as u32).collect();
            let mut rights: Vec<u32> = edges.iter().map(|&(_, v)| v).collect();
            split_in_place(nodes, &mut ids, &mut rights, &mut scratch).unwrap();
            let h = ids.len() / 2;
            for half in [&ids[..h], &ids[h..]] {
                let (mut l, mut r) = (vec![0; nodes], vec![0; nodes]);
                for &e in half {
                    let (u, v) = edges[e as usize];
                    l[u as usize] += 1;
                    r[v as usize] += 1;
                }
                assert!(l.iter().chain(&r).all(|&d| 2 * d == edges.len() / nodes));
            }
            for (&e, &v) in ids.iter().zip(&rights) {
                assert_eq!(edges[e as usize].1, v, "right vertex travels with its edge");
            }
        }
    }
}
