//! Query AST and result values.

use cgraph_graph::VertexId;
use std::time::Duration;

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `KHOP src k [LIST n]` — k-hop reachability count (and
    /// optionally the first `n` per-level counts).
    Khop {
        /// Source vertex.
        source: VertexId,
        /// Hop budget.
        k: u32,
        /// How many per-level counts to return (0 = none).
        list_levels: usize,
    },
    /// `BFS src` — full reachability count.
    Bfs {
        /// Source vertex.
        source: VertexId,
    },
    /// `REACHABLE src dst k` — boolean bounded reachability.
    Reachable {
        /// Source vertex.
        source: VertexId,
        /// Target vertex.
        target: VertexId,
        /// Hop budget.
        k: u32,
    },
    /// `SSSP src [bound]` — shortest-path distance summary.
    Sssp {
        /// Source vertex.
        source: VertexId,
        /// Optional distance budget.
        bound: Option<f32>,
    },
    /// `PAGERANK iters` — top vertices by rank.
    PageRank {
        /// Iterations to run.
        iterations: u32,
    },
    /// `COMPONENTS` — weakly connected component count.
    Components,
    /// `KCORE k` — vertices with coreness ≥ k.
    KCore {
        /// Coreness threshold.
        k: u32,
    },
    /// `STATS` — graph summary.
    Stats,
}

/// The result of one executed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Reachability count (KHOP/BFS), with optional per-level counts.
    Reach {
        /// Distinct vertices reached (source included).
        visited: u64,
        /// Per-level counts if requested.
        levels: Vec<u64>,
    },
    /// Boolean answer (REACHABLE).
    Bool(bool),
    /// SSSP summary.
    Distances {
        /// Vertices with a finite distance.
        reachable: u64,
        /// Largest finite distance.
        max_distance: f32,
    },
    /// Top-ranked vertices (PAGERANK): `(vertex, rank)` descending.
    Ranking(Vec<(VertexId, f64)>),
    /// Scalar count (COMPONENTS, KCORE).
    Count(u64),
    /// Graph summary: vertices, edges, max out-degree.
    Summary {
        /// Vertex count.
        vertices: u64,
        /// Edge count.
        edges: u64,
        /// Maximum out-degree.
        max_degree: u64,
    },
    /// The statement was rejected before execution (e.g. a vertex
    /// outside the graph).
    Error(String),
}

/// A statement result plus its response time within the wave.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Position of the statement in the submitted program.
    pub index: usize,
    /// The parsed query (echoed for clients).
    pub query: Query,
    /// The computed output.
    pub output: QueryOutput,
    /// Response time measured from wave submission.
    pub response_time: Duration,
}

/// Renders an output as a single display line.
impl std::fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryOutput::Reach { visited, levels } if levels.is_empty() => {
                write!(f, "{visited} vertices reachable")
            }
            QueryOutput::Reach { visited, levels } => {
                write!(f, "{visited} vertices reachable; per-level {levels:?}")
            }
            QueryOutput::Bool(b) => write!(f, "{b}"),
            QueryOutput::Distances { reachable, max_distance } => {
                write!(f, "{reachable} reachable, max distance {max_distance}")
            }
            QueryOutput::Ranking(top) => {
                write!(f, "top: ")?;
                for (i, (v, r)) in top.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "v{v}={r:.3}")?;
                }
                Ok(())
            }
            QueryOutput::Count(c) => write!(f, "{c}"),
            QueryOutput::Summary { vertices, edges, max_degree } => {
                write!(f, "{vertices} vertices, {edges} edges, max out-degree {max_degree}")
            }
            QueryOutput::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let r = QueryOutput::Reach { visited: 5, levels: vec![] };
        assert_eq!(r.to_string(), "5 vertices reachable");
        assert_eq!(QueryOutput::Bool(true).to_string(), "true");
        assert_eq!(QueryOutput::Count(3).to_string(), "3");
        let rk = QueryOutput::Ranking(vec![(7, 1.5)]);
        assert_eq!(rk.to_string(), "top: v7=1.500");
    }
}
