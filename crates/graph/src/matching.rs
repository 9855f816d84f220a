//! Hopcroft–Karp maximum bipartite matching.
//!
//! Used by the edge-coloring recursion to peel one perfect matching (= one
//! color class) off an odd-degree regular bipartite graph; regularity
//! guarantees the matching is perfect (König/Hall), which
//! [`crate::coloring::edge_color`] checks and reports as an internal error
//! if violated.
//!
//! The worker is `hopcroft_karp_core`: it runs on a CSR adjacency and
//! draws the BFS queue, the layer vector, and both pairing vectors from a
//! reusable `MatchScratch`, so repeated peels (one per odd-degree
//! stratum of the coloring recursion) perform no allocations after the
//! first. The public [`hopcroft_karp`] keeps the original `Vec<Vec<_>>`
//! signature as a thin wrapper.

/// Result of a maximum-matching computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `pair_left[u] = Some(v)` iff left `u` is matched to right `v`.
    pub pair_left: Vec<Option<usize>>,
    /// `pair_right[v] = Some(u)` iff right `v` is matched to left `u`.
    pub pair_right: Vec<Option<usize>>,
    /// Number of matched pairs.
    pub size: usize,
}

const INF: u32 = u32::MAX;

/// "Unmatched" sentinel in [`MatchScratch::pair_left`] / `pair_right`.
pub(crate) const UNMATCHED: u32 = u32::MAX;

/// Reusable Hopcroft–Karp state. The BFS queue and layer (`dist`) vectors
/// were always shared across the phases of one run; keeping them here also
/// shares them across *runs*, which matters when the coloring peels a
/// matching at every odd-degree stratum.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    /// `pair_left[u]` = matched right vertex or [`UNMATCHED`].
    pub(crate) pair_left: Vec<u32>,
    /// `pair_right[v]` = matched left vertex or [`UNMATCHED`].
    pub(crate) pair_right: Vec<u32>,
    /// BFS layer per left vertex.
    dist: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
}

/// Compute a maximum matching over a CSR adjacency (`adj_v[adj_off[u] ..
/// adj_off[u + 1]]` lists the right neighbours of left `u`; parallel
/// entries are tolerated). Pairings land in `s.pair_left` / `s.pair_right`;
/// returns the matching size. `O(E √V)`, allocation-free after warm-up.
pub(crate) fn hopcroft_karp_core(
    left: usize,
    right: usize,
    adj_off: &[u32],
    adj_v: &[u32],
    s: &mut MatchScratch,
) -> usize {
    debug_assert_eq!(adj_off.len(), left + 1);
    s.pair_left.clear();
    s.pair_left.resize(left, UNMATCHED);
    s.pair_right.clear();
    s.pair_right.resize(right, UNMATCHED);
    s.dist.clear();
    s.dist.resize(left, 0);
    s.queue.clear();
    s.queue.reserve(left);
    let mut size = 0usize;

    loop {
        // BFS phase: layer unmatched left vertices.
        s.queue.clear();
        for u in 0..left {
            if s.pair_left[u] == UNMATCHED {
                s.dist[u] = 0;
                s.queue.push(u as u32);
            } else {
                s.dist[u] = INF;
            }
        }
        let mut found_augmenting = false;
        let mut head = 0;
        while head < s.queue.len() {
            let u = s.queue[head] as usize;
            head += 1;
            for t in adj_off[u]..adj_off[u + 1] {
                let v = adj_v[t as usize] as usize;
                let u2 = s.pair_right[v];
                if u2 == UNMATCHED {
                    found_augmenting = true;
                } else if s.dist[u2 as usize] == INF {
                    s.dist[u2 as usize] = s.dist[u] + 1;
                    s.queue.push(u2);
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint augmenting paths along layers.
        for u in 0..left {
            if s.pair_left[u] == UNMATCHED
                && dfs(
                    u,
                    adj_off,
                    adj_v,
                    &mut s.pair_left,
                    &mut s.pair_right,
                    &mut s.dist,
                )
            {
                size += 1;
            }
        }
    }

    size
}

fn dfs(
    u: usize,
    adj_off: &[u32],
    adj_v: &[u32],
    pair_left: &mut [u32],
    pair_right: &mut [u32],
    dist: &mut [u32],
) -> bool {
    for t in adj_off[u]..adj_off[u + 1] {
        let v = adj_v[t as usize] as usize;
        let u2 = pair_right[v];
        let ok = u2 == UNMATCHED
            || (dist[u2 as usize] == dist[u] + 1
                && dfs(u2 as usize, adj_off, adj_v, pair_left, pair_right, dist));
        if ok {
            pair_left[u] = v as u32;
            pair_right[v] = u as u32;
            return true;
        }
    }
    dist[u] = INF;
    false
}

/// Compute a maximum matching of the bipartite graph given as left-side
/// adjacency lists (`adj[u]` lists the right-side neighbours of `u`;
/// parallel entries are tolerated). `O(E √V)`.
pub fn hopcroft_karp(left: usize, right: usize, adj: &[Vec<usize>]) -> Matching {
    assert_eq!(adj.len(), left, "adjacency list size mismatch");
    let mut adj_off = Vec::with_capacity(left + 1);
    adj_off.push(0u32);
    let mut adj_v: Vec<u32> = Vec::with_capacity(adj.iter().map(Vec::len).sum());
    for row in adj {
        adj_v.extend(row.iter().map(|&v| v as u32));
        adj_off.push(adj_v.len() as u32);
    }
    let mut scratch = MatchScratch::default();
    let size = hopcroft_karp_core(left, right, &adj_off, &adj_v, &mut scratch);
    let unpack = |p: &[u32]| {
        p.iter()
            .map(|&x| (x != UNMATCHED).then_some(x as usize))
            .collect()
    };
    Matching {
        pair_left: unpack(&scratch.pair_left),
        pair_right: unpack(&scratch.pair_right),
        size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(m: &Matching, adj: &[Vec<usize>]) {
        let mut used_right = std::collections::HashSet::new();
        let mut count = 0;
        for (u, pv) in m.pair_left.iter().enumerate() {
            if let Some(v) = pv {
                assert!(adj[u].contains(v), "matched pair ({u},{v}) is not an edge");
                assert!(used_right.insert(*v), "right {v} matched twice");
                assert_eq!(m.pair_right[*v], Some(u));
                count += 1;
            }
        }
        assert_eq!(count, m.size);
    }

    #[test]
    fn perfect_matching_in_identity_graph() {
        let adj: Vec<Vec<usize>> = (0..5).map(|u| vec![u]).collect();
        let m = hopcroft_karp(5, 5, &adj);
        assert_eq!(m.size, 5);
        verify(&m, &adj);
    }

    #[test]
    fn perfect_matching_in_complete_bipartite() {
        let adj: Vec<Vec<usize>> = (0..6).map(|_| (0..6).collect()).collect();
        let m = hopcroft_karp(6, 6, &adj);
        assert_eq!(m.size, 6);
        verify(&m, &adj);
    }

    #[test]
    fn maximum_matching_in_path() {
        // L0-R0, L1-R0, L1-R1: max matching 2 (L0-R0, L1-R1).
        let adj = vec![vec![0], vec![0, 1]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(m.size, 2);
        verify(&m, &adj);
    }

    #[test]
    fn deficient_graph_matches_less() {
        // Both left vertices only see right 0.
        let adj = vec![vec![0], vec![0]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(m.size, 1);
        verify(&m, &adj);
    }

    #[test]
    fn parallel_entries_tolerated() {
        let adj = vec![vec![0, 0, 1], vec![0, 0]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(m.size, 2);
        verify(&m, &adj);
    }

    #[test]
    fn empty_graph() {
        let m = hopcroft_karp(0, 0, &[]);
        assert_eq!(m.size, 0);
    }

    #[test]
    fn isolated_vertices() {
        let adj = vec![vec![], vec![1]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(m.size, 1);
        verify(&m, &adj);
    }

    #[test]
    fn regular_random_graph_has_perfect_matching() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let n = 64;
        // 3-regular: union of 3 random permutations (may include parallels).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for _ in 0..3 {
            let mut rights: Vec<usize> = (0..n).collect();
            rights.shuffle(&mut rng);
            for (u, &v) in rights.iter().enumerate() {
                adj[u].push(v);
            }
        }
        let m = hopcroft_karp(n, n, &adj);
        assert_eq!(m.size, n, "regular bipartite graphs have perfect matchings");
        verify(&m, &adj);
    }

    #[test]
    fn larger_sparse_graph_runs_fast() {
        // Cycle-like structure: L_u -> {R_u, R_(u+1)}: perfect matching.
        let n = 10_000;
        let adj: Vec<Vec<usize>> = (0..n).map(|u| vec![u, (u + 1) % n]).collect();
        let m = hopcroft_karp(n, n, &adj);
        assert_eq!(m.size, n);
    }

    #[test]
    fn scratch_reuse_across_runs_is_clean() {
        // One scratch, two graphs of different sizes: stale pairings from
        // the first run must not leak into the second.
        let mut scratch = MatchScratch::default();
        let adj_off_a: Vec<u32> = (0..=6).collect();
        let adj_v_a: Vec<u32> = (0..6).collect(); // identity on 6
        assert_eq!(
            hopcroft_karp_core(6, 6, &adj_off_a, &adj_v_a, &mut scratch),
            6
        );
        let adj_off_b = vec![0u32, 1, 2];
        let adj_v_b = vec![0u32, 0]; // both left see right 0
        assert_eq!(
            hopcroft_karp_core(2, 2, &adj_off_b, &adj_v_b, &mut scratch),
            1
        );
        assert_eq!(scratch.pair_left.len(), 2);
    }
}
