//! Compressed sparse column (CSC) — the in-edge view.
//!
//! "CSR … is inefficient when accessing the incoming edges of a vertex.
//! To address this inefficiency, we choose to store the incoming edges
//! in compressed sparse column (CSC) format" (§3.2). Internally a CSC
//! over `G` is a CSR over the transpose of `G`; we wrap rather than
//! alias so call sites read as in-edge accesses.

use crate::csr::Csr;
use crate::edge::Edge;
use crate::types::{VertexId, Weight};

/// A CSC adjacency structure: per-vertex *incoming* edges.
#[derive(Clone, Debug, Default)]
pub struct Csc {
    transpose: Csr,
}

impl Csc {
    /// Builds a CSC from the same edge slice a [`Csr`] is built from
    /// (edges are interpreted as `src -> dst`; we index by `dst`).
    pub fn from_edges(num_vertices: u64, edges: &[Edge]) -> Self {
        let reversed: Vec<Edge> = edges.iter().map(|e| e.reversed()).collect();
        Self { transpose: Csr::from_edges(num_vertices, &reversed) }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.transpose.num_vertices()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.transpose.num_edges()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.transpose.degree(v)
    }

    /// Sources of edges pointing at `v` (sorted ascending).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.transpose.neighbors(v)
    }

    /// (source, weight) pairs of edges into `v`.
    #[inline]
    pub fn in_neighbors_weighted(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.transpose.neighbors_weighted(v)
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.transpose.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeList;

    #[test]
    fn in_neighbors_match_reverse_edges() {
        let l: EdgeList = [(0u64, 2u64), (1, 2), (3, 2), (2, 0)].into_iter().collect();
        let c = Csc::from_edges(l.num_vertices(), l.edges());
        assert_eq!(c.in_neighbors(2), &[0, 1, 3]);
        assert_eq!(c.in_neighbors(0), &[2]);
        assert_eq!(c.in_degree(1), 0);
        assert_eq!(c.num_edges(), 4);
    }

    #[test]
    fn weights_follow_sources() {
        let edges = vec![Edge::weighted(5, 0, 0.5), Edge::weighted(3, 0, 0.25)];
        let c = Csc::from_edges(6, &edges);
        let pairs: Vec<_> = c.in_neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(3, 0.25), (5, 0.5)]);
    }

    #[test]
    fn empty() {
        let c = Csc::from_edges(0, &[]);
        assert_eq!(c.num_vertices(), 0);
    }
}
