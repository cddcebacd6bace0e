//! Compressed sparse row (CSR) — the out-edge view.
//!
//! "Compressed sparse row (CSR) is a common storage format to store the
//! graph. It provides an efficient way to access the out-going edges of
//! a vertex" (§3.2). Offsets are `usize`, targets are [`VertexId`];
//! weights live in a parallel array so unweighted traversals never touch
//! them (structure-of-arrays, per the perf-book guidance on keeping hot
//! data dense).

use crate::edge::Edge;
use crate::types::{VertexId, Weight};
use rayon::prelude::*;

/// A CSR adjacency structure over vertices `0..num_vertices`.
///
/// ```
/// use cgraph_graph::{Csr, Edge};
/// let g = Csr::from_edges(3, &[Edge::unweighted(0, 2), Edge::unweighted(0, 1)]);
/// assert_eq!(g.neighbors(0), &[1, 2]); // sorted
/// assert_eq!(g.degree(1), 0);
/// assert!(g.has_edge(0, 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for `v`.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge slice using counting sort —
    /// O(V + E), no comparison sort of the full edge list required
    /// (this is the "reduces the complexity of global sorting" point in
    /// §3.2's preprocessing description).
    pub fn from_edges(num_vertices: u64, edges: &[Edge]) -> Self {
        let n = num_vertices as usize;
        let mut counts = vec![0usize; n + 1];
        for e in edges {
            counts[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut weights = vec![0.0 as Weight; edges.len()];
        for e in edges {
            let slot = cursor[e.src as usize];
            targets[slot] = e.dst;
            weights[slot] = e.weight;
            cursor[e.src as usize] += 1;
        }
        let mut csr = Self { offsets, targets, weights };
        csr.sort_neighbor_lists();
        csr
    }

    /// Sorts each neighbour list ascending, stably (duplicate edges keep
    /// input order), and keeps weights aligned.
    /// Sorted lists give deterministic iteration and enable the
    /// galloping intersection used by triangle counting.
    fn sort_neighbor_lists(&mut self) {
        let offsets = &self.offsets;
        // Split both payload arrays into per-vertex chunks and sort the
        // chunks in parallel: each chunk is owned by one task, so this
        // is data-race free by construction.
        let mut zipped: Vec<(usize, usize)> = Vec::with_capacity(offsets.len() - 1);
        for v in 0..offsets.len() - 1 {
            zipped.push((offsets[v], offsets[v + 1]));
        }
        // Sort pairs (target, weight) per range. Do it with index
        // permutation per range to keep weights aligned.
        let targets = &mut self.targets;
        let weights = &mut self.weights;
        // Safety-free approach: process ranges sequentially when small,
        // in parallel via split_at_mut-style chunking otherwise.
        // Simplest correct approach: gather (t, w), sort, write back —
        // parallelised over vertices via chunks of the ranges.
        let ranges = zipped;
        // Non-overlapping ranges allow unsafe-free parallelism through
        // chunk iteration: we walk the arrays once, slicing them apart.
        let mut t_rest: &mut [VertexId] = targets;
        let mut w_rest: &mut [Weight] = weights;
        let mut consumed = 0usize;
        let mut slices: Vec<(&mut [VertexId], &mut [Weight])> = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            let (t_head, t_tail) = t_rest.split_at_mut(end - consumed);
            let (w_head, w_tail) = w_rest.split_at_mut(end - consumed);
            let local_start = start - consumed;
            let (_, t_range) = t_head.split_at_mut(local_start);
            let (_, w_range) = w_head.split_at_mut(local_start);
            slices.push((t_range, w_range));
            t_rest = t_tail;
            w_rest = w_tail;
            consumed = end;
        }
        slices.par_iter_mut().for_each(|(ts, ws)| {
            if ts.len() > 1 {
                let mut pairs: Vec<(VertexId, Weight)> =
                    ts.iter().copied().zip(ws.iter().copied()).collect();
                pairs.sort_by_key(|a| a.0);
                for (i, (t, w)) in pairs.into_iter().enumerate() {
                    ts[i] = t;
                    ws[i] = w;
                }
            }
        });
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len().max(1) - 1) as u64
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbour list of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights aligned with [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Neighbour/weight pairs of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v).iter().copied().zip(self.weights(v).iter().copied())
    }

    /// True if edge (u, v) exists (binary search on the sorted list).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Raw offsets array (length `num_vertices + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Weight>()
    }

    /// Iterates `(src, dst, weight)` for all edges in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors_weighted(v).map(move |(t, w)| Edge::weighted(v, t, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeList;

    fn sample() -> Csr {
        let l: EdgeList =
            [(0u64, 1u64), (0, 2), (1, 2), (2, 0), (3, 1), (0, 3)].into_iter().collect();
        Csr::from_edges(l.num_vertices(), l.edges())
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1]);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let l: EdgeList = [(0u64, 5u64), (0, 1), (0, 3), (0, 2)].into_iter().collect();
        let g = Csr::from_edges(l.num_vertices(), l.edges());
        assert_eq!(g.neighbors(0), &[1, 2, 3, 5]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = sample();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn weights_stay_aligned_after_sort() {
        let edges =
            vec![Edge::weighted(0, 3, 3.0), Edge::weighted(0, 1, 1.0), Edge::weighted(0, 2, 2.0)];
        let g = Csr::from_edges(4, &edges);
        let pairs: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Csr::from_edges(10, &[Edge::unweighted(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        for v in 2..10 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn iter_edges_roundtrip() {
        let g = sample();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges.len(), 6);
        let rebuilt = Csr::from_edges(g.num_vertices(), &edges);
        for v in 0..4u64 {
            assert_eq!(rebuilt.neighbors(v), g.neighbors(v));
        }
    }
}
