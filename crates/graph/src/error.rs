//! Errors for bipartite-graph construction and coloring.

use core::fmt;

/// Errors raised by graph construction and edge coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is outside `0..nodes_per_side`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// Nodes per side.
        nodes: usize,
    },
    /// The graph is not regular: two nodes have different degrees.
    NotRegular {
        /// A node whose degree differs.
        node: usize,
        /// Its degree.
        degree: usize,
        /// The degree of node 0 on the left side.
        expected: usize,
    },
    /// The edge count is not `nodes * degree` (implied by regularity but
    /// reported separately for clearer diagnostics on empty sides).
    DegenerateGraph {
        /// Nodes per side.
        nodes: usize,
        /// Total edges.
        edges: usize,
    },
    /// Internal invariant violation — a perfect matching could not be found
    /// in a graph that regularity guarantees has one. Indicates a bug, never
    /// expected for validated inputs.
    MatchingFailed {
        /// Size of the matching found.
        matched: usize,
        /// Nodes per side.
        nodes: usize,
    },
    /// A vertex of an edge set handed to the Euler split has odd degree,
    /// so its edges cannot be paired. The coloring only splits slices of
    /// even degree, so this indicates a bug, never expected for validated
    /// inputs; it is reported rather than looped on.
    OddDegree {
        /// The vertex.
        vertex: usize,
        /// True for a right-side vertex, false for a left-side one.
        right: bool,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (side has {nodes} nodes)")
            }
            GraphError::NotRegular {
                node,
                degree,
                expected,
            } => write!(
                f,
                "graph not regular: node {node} has degree {degree}, expected {expected}"
            ),
            GraphError::DegenerateGraph { nodes, edges } => {
                write!(f, "degenerate graph: {nodes} nodes per side, {edges} edges")
            }
            GraphError::MatchingFailed { matched, nodes } => write!(
                f,
                "internal error: perfect matching not found ({matched}/{nodes} matched)"
            ),
            GraphError::OddDegree { vertex, right } => write!(
                f,
                "{} vertex {vertex} has odd degree in an Euler split",
                if *right { "right" } else { "left" }
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(GraphError::NodeOutOfRange { node: 9, nodes: 4 }
            .to_string()
            .contains('9'));
        assert!(GraphError::NotRegular {
            node: 1,
            degree: 3,
            expected: 4
        }
        .to_string()
        .contains("regular"));
        assert!(GraphError::MatchingFailed {
            matched: 3,
            nodes: 4
        }
        .to_string()
        .contains("matching"));
        assert!(GraphError::OddDegree {
            vertex: 5,
            right: true
        }
        .to_string()
        .contains("right vertex 5 has odd degree"));
    }
}
