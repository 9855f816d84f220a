//! Determinism of the parallel plan-compiler coloring: for any regular
//! bipartite multigraph and any thread budget, [`edge_color_par`] must
//! produce **exactly** the coloring of the sequential [`edge_color_with`].
//! This is the property `hmm-plan` relies on for byte-identical plan
//! output, so it is pinned here over randomized graphs, both strategies,
//! and budgets beyond the host's core count.

use hmm_graph::{
    color_blocks, edge_color_par, edge_color_with, verify_coloring, Parallelism, RegularBipartite,
    Strategy,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Union of `deg` random perfect matchings: a `deg`-regular bipartite
/// multigraph with parallel edges possible. A second knob (`clustered`)
/// wires each matching within blocks of 4 nodes instead, which produces
/// many small connected components. Edges come matching by matching, so
/// they are *not* grouped by left vertex.
fn random_regular(nodes: usize, deg: usize, clustered: bool, seed: u64) -> RegularBipartite {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(nodes * deg);
    let block = if clustered { 4.min(nodes) } else { nodes };
    for _ in 0..deg {
        let mut start = 0;
        while start < nodes {
            let end = (start + block).min(nodes);
            let mut rights: Vec<usize> = (start..end).collect();
            rights.shuffle(&mut rng);
            for (i, &v) in rights.iter().enumerate() {
                edges.push((start + i, v));
            }
            start = end;
        }
    }
    RegularBipartite::new(nodes, edges).unwrap()
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    // The proptest prelude also globs a `Strategy` trait; ours wins.
    use hmm_graph::Strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hybrid coloring: parallel == sequential, bit for bit, at any
        /// thread budget — even/odd degrees, connected and clustered.
        #[test]
        fn hybrid_parallel_equals_sequential(
            nodes_exp in 2u32..=6,
            deg in 1usize..=17,
            clustered in 0u8..2,
            threads in 2usize..=9,
            seed in any::<u64>(),
        ) {
            let nodes = 1usize << nodes_exp;
            let g = random_regular(nodes, deg, clustered == 1, seed);
            let seq = edge_color_with(&g, Strategy::Hybrid).unwrap();
            prop_assert!(verify_coloring(&g, &seq));
            let par = edge_color_par(&g, Strategy::Hybrid, Parallelism::threads(threads)).unwrap();
            prop_assert_eq!(par, seq);
        }

        /// The matching-only baseline obeys the same contract (it ignores
        /// the budget).
        #[test]
        fn matching_only_parallel_equals_sequential(
            nodes in 4usize..=24,
            deg in 1usize..=8,
            clustered in 0u8..2,
            threads in 2usize..=6,
            seed in any::<u64>(),
        ) {
            let g = random_regular(nodes, deg, clustered == 1, seed);
            let seq = edge_color_with(&g, Strategy::MatchingOnly).unwrap();
            prop_assert!(verify_coloring(&g, &seq));
            let par =
                edge_color_par(&g, Strategy::MatchingOnly, Parallelism::threads(threads)).unwrap();
            prop_assert_eq!(par, seq);
        }
    }
}

/// One deterministic large case that actually crosses the fork threshold
/// (8K edges), so the scoped-thread path is exercised even when the
/// proptest cases stay small.
#[test]
fn hybrid_parallel_equals_sequential_above_fork_threshold() {
    let g = random_regular(1024, 32, false, 7); // 32768 edges
    let seq = edge_color_with(&g, Strategy::Hybrid).unwrap();
    for t in [2, 4, 8] {
        let par = edge_color_par(&g, Strategy::Hybrid, Parallelism::threads(t)).unwrap();
        assert_eq!(par, seq, "threads {t}");
    }
    assert!(verify_coloring(&g, &seq));
}

/// Every budget the colorer must agree with the sequential coloring at.
const BUDGETS: [usize; 5] = [1, 2, 3, 4, 8];

/// Color `g` at every budget in [`BUDGETS`]: each coloring must be proper
/// and equal the sequential one.
fn proper_at_every_budget(g: &RegularBipartite, what: &str) {
    let seq = edge_color_with(g, Strategy::Hybrid).unwrap();
    assert_eq!(seq.num_colors, g.degree(), "{what}");
    assert!(verify_coloring(g, &seq), "{what}");
    for t in BUDGETS {
        let par = edge_color_par(g, Strategy::Hybrid, Parallelism::threads(t)).unwrap();
        assert_eq!(par, seq, "{what}: threads {t}");
    }
}

/// `g`'s edges in a random order, so the colorer's sort by left vertex
/// has real work to do.
fn shuffled(g: &RegularBipartite, seed: u64) -> RegularBipartite {
    let mut edges = g.edges().to_vec();
    edges.shuffle(&mut StdRng::seed_from_u64(seed));
    RegularBipartite::new(g.nodes(), edges).unwrap()
}

#[test]
fn ungrouped_random_regular_multigraphs() {
    for (nodes, deg, seed) in [(64usize, 8usize, 1u64), (128, 16, 2), (32, 64, 3)] {
        let g = shuffled(&random_regular(nodes, deg, false, seed), seed);
        proper_at_every_budget(&g, &format!("nodes {nodes} deg {deg}"));
    }
}

#[test]
fn heavy_parallel_edges_and_disconnected_graphs() {
    // Identity-style: every edge of left u goes to right u, so each
    // vertex is its own component of `deg` parallel edges.
    for (nodes, deg) in [(1usize, 4usize), (64, 8), (512, 32)] {
        let edges = (0..nodes)
            .flat_map(|u| std::iter::repeat_n((u, u), deg))
            .collect();
        let g = RegularBipartite::new(nodes, edges).unwrap();
        proper_at_every_budget(&g, &format!("identity nodes {nodes} deg {deg}"));
    }
    // Every edge of a random 8-regular graph doubled (degree 16, each
    // edge with a parallel twin), and a graph of many 4-node components.
    let base = random_regular(256, 8, false, 9);
    let doubled = base.edges().iter().flat_map(|&e| [e, e]).collect();
    let g = RegularBipartite::new(256, doubled).unwrap();
    proper_at_every_budget(&g, "doubled");
    proper_at_every_budget(&random_regular(1024, 16, true, 10), "clustered");
}

#[test]
fn odd_and_mixed_degrees_peel_then_pair() {
    // Odd degrees peel a matching first; 6, 12 and 24 split down to an
    // odd degree and peel there; 3·2^k peels only at the leaves.
    for (nodes, deg, seed) in [
        (64usize, 7usize, 1u64),
        (64, 12, 2),
        (128, 24, 3),
        (96, 33, 4),
    ] {
        let g = shuffled(&random_regular(nodes, deg, false, seed), seed);
        proper_at_every_budget(&g, &format!("nodes {nodes} deg {deg}"));
    }
}

#[test]
fn colorings_above_the_fork_threshold() {
    // 16K–64K edges: the recursion forks several levels deep.
    for (nodes, deg, clustered, seed) in [
        (1024usize, 16usize, false, 5u64),
        (256, 256, false, 6),
        (512, 48, false, 7),
        (2048, 32, true, 8),
    ] {
        let g = shuffled(&random_regular(nodes, deg, clustered, seed), seed);
        proper_at_every_budget(&g, &format!("nodes {nodes} deg {deg}"));
    }
}

#[test]
fn color_blocks_agree_with_edge_color() {
    // The block form the plan compiler reads is the same coloring: for
    // row-major edges, block k of `ids` is color class k, one edge per
    // left vertex in ascending order.
    let (nodes, deg) = (256usize, 64usize);
    let g = random_regular(nodes, deg, false, 12);
    let mut row_major = g.edges().to_vec();
    row_major.sort_by_key(|&(u, _)| u);
    let g = RegularBipartite::new(nodes, row_major).unwrap();
    let rights: Vec<u32> = g.edges().iter().map(|&(_, v)| v as u32).collect();
    let colors = edge_color_with(&g, Strategy::Hybrid).unwrap().colors;
    for t in BUDGETS {
        let b = color_blocks(
            nodes,
            rights.clone(),
            Strategy::Hybrid,
            Parallelism::threads(t),
        )
        .unwrap();
        for (k, block) in b.ids.chunks_exact(nodes).enumerate() {
            for (u, &e) in block.iter().enumerate() {
                assert_eq!(e as usize / deg, u, "threads {t} block {k}");
                assert_eq!(colors[e as usize], k, "threads {t} block {k}");
                assert_eq!(b.rights[k * nodes + u], rights[e as usize]);
            }
        }
    }
}
