//! Graph ingestion: deduplication, self-loop policy and vertex
//! re-indexing.
//!
//! §3.1: "Vertices are assigned to different partitions based on vertex
//! ID, which is re-indexed during graph ingestion." Re-indexing serves
//! two purposes in C-Graph: it makes IDs dense (so range partitioning
//! is meaningful) and, in [`ReindexMode::ByDegreeDesc`] mode, it places
//! high-degree hubs at low IDs so the hottest vertices share edge-set
//! blocks — the cache-locality argument of §3.2.

use crate::edge::{Edge, EdgeList};
use crate::types::VertexId;

/// How global IDs are assigned during ingestion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReindexMode {
    /// Keep input IDs (they must already be dense for partitioning to
    /// balance; isolated vertices are preserved).
    #[default]
    Identity,
    /// Compact: strip unused IDs, preserving relative order.
    Compact,
    /// Sort vertices by descending out-degree, then assign IDs 0..n.
    /// Hubs cluster at the front of the ID space.
    ByDegreeDesc,
}

/// Ingestion options.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// ID assignment policy.
    pub reindex: ReindexMode,
    /// Drop duplicate (src, dst) pairs, keeping the first weight seen.
    pub dedup: bool,
    /// Drop self loops.
    pub drop_loops: bool,
    /// Also add the reverse of every edge (undirected input).
    pub symmetrize: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self { reindex: ReindexMode::Identity, dedup: true, drop_loops: true, symmetrize: false }
    }
}

/// Result of ingestion: the cleaned edge list plus the mapping from
/// original to new vertex IDs (identity unless re-indexed).
#[derive(Debug)]
pub struct BuiltGraph {
    /// Cleaned, re-indexed edges.
    pub edges: EdgeList,
    /// `old_to_new[old] = new` (same length as the input universe).
    /// `None` when [`ReindexMode::Identity`] was used.
    pub old_to_new: Option<Vec<VertexId>>,
}

impl BuiltGraph {
    /// Translates an original vertex ID into the re-indexed space.
    pub fn map_vertex(&self, old: VertexId) -> VertexId {
        match &self.old_to_new {
            None => old,
            Some(m) => m[old as usize],
        }
    }
}

/// Staged ingestion of raw edges.
///
/// ```
/// use cgraph_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_pair(0, 1).add_pair(0, 1).add_pair(2, 2); // dup + self loop
/// let g = b.build();
/// assert_eq!(g.edges.len(), 1); // cleaned
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    edges: EdgeList,
    options: BuildOptions,
}

impl GraphBuilder {
    /// Creates a builder with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with explicit options.
    pub fn with_options(options: BuildOptions) -> Self {
        Self { edges: EdgeList::new(), options }
    }

    /// Adds one edge.
    pub fn add_edge(&mut self, e: Edge) -> &mut Self {
        self.edges.push(e);
        self
    }

    /// Adds an unweighted edge.
    pub fn add_pair(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.edges.push_pair(src, dst);
        self
    }

    /// Adds every edge from an existing list.
    pub fn add_edge_list(&mut self, l: &EdgeList) -> &mut Self {
        for &e in l.edges() {
            self.edges.push(e);
        }
        self.edges.set_num_vertices(l.num_vertices());
        self
    }

    /// Number of staged edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges staged.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Runs the ingestion pipeline: symmetrize → drop loops → dedup →
    /// re-index.
    pub fn build(mut self) -> BuiltGraph {
        if self.options.symmetrize {
            self.edges.symmetrize();
        }
        let n = self.edges.num_vertices();
        let mut edges = self.edges.into_edges();
        if self.options.drop_loops {
            edges.retain(|e| !e.is_loop());
        }
        if self.options.dedup {
            edges.sort_unstable_by_key(|a| (a.src, a.dst));
            edges.dedup_by(|a, b| a.src == b.src && a.dst == b.dst);
        }
        let (edges, old_to_new, new_n) = match self.options.reindex {
            ReindexMode::Identity => (edges, None, n),
            ReindexMode::Compact => {
                let mut used = vec![false; n as usize];
                for e in &edges {
                    used[e.src as usize] = true;
                    used[e.dst as usize] = true;
                }
                let mut map = vec![0 as VertexId; n as usize];
                let mut next = 0 as VertexId;
                for (old, &u) in used.iter().enumerate() {
                    if u {
                        map[old] = next;
                        next += 1;
                    }
                }
                let remapped = remap(edges, &map);
                (remapped, Some(map), next)
            }
            ReindexMode::ByDegreeDesc => {
                let mut deg = vec![0u64; n as usize];
                for e in &edges {
                    deg[e.src as usize] += 1;
                }
                let mut order: Vec<VertexId> = (0..n).collect();
                // Stable tie-break on the original ID keeps the result
                // deterministic across runs.
                order.sort_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
                let mut map = vec![0 as VertexId; n as usize];
                for (new, &old) in order.iter().enumerate() {
                    map[old as usize] = new as VertexId;
                }
                let remapped = remap(edges, &map);
                (remapped, Some(map), n)
            }
        };
        let mut list = EdgeList::with_num_vertices(new_n);
        for e in edges {
            list.push(e);
        }
        list.set_num_vertices(new_n);
        BuiltGraph { edges: list, old_to_new }
    }
}

fn remap(mut edges: Vec<Edge>, map: &[VertexId]) -> Vec<Edge> {
    for e in &mut edges {
        e.src = map[e.src as usize];
        e.dst = map[e.dst as usize];
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    #[test]
    fn dedup_and_loops() {
        let mut b = GraphBuilder::new();
        b.add_pair(0, 1).add_pair(0, 1).add_pair(2, 2).add_pair(1, 0);
        let g = b.build();
        assert_eq!(g.edges.len(), 2); // duplicate and loop removed
    }

    #[test]
    fn keep_loops_when_asked() {
        let mut b =
            GraphBuilder::with_options(BuildOptions { drop_loops: false, ..Default::default() });
        b.add_pair(2, 2);
        assert_eq!(b.build().edges.len(), 1);
    }

    #[test]
    fn symmetrize_then_dedup() {
        let mut b =
            GraphBuilder::with_options(BuildOptions { symmetrize: true, ..Default::default() });
        // (0,1) and (1,0) both present: symmetrizing creates duplicates
        // that dedup must collapse.
        b.add_pair(0, 1).add_pair(1, 0);
        let g = b.build();
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn compact_strips_gaps() {
        let mut b = GraphBuilder::with_options(BuildOptions {
            reindex: ReindexMode::Compact,
            ..Default::default()
        });
        b.add_pair(10, 20).add_pair(20, 30);
        let g = b.build();
        assert_eq!(g.edges.num_vertices(), 3);
        assert_eq!(g.map_vertex(10), 0);
        assert_eq!(g.map_vertex(20), 1);
        assert_eq!(g.map_vertex(30), 2);
    }

    #[test]
    fn degree_desc_puts_hub_first() {
        let mut b = GraphBuilder::with_options(BuildOptions {
            reindex: ReindexMode::ByDegreeDesc,
            ..Default::default()
        });
        // vertex 3 has out-degree 3, others less.
        b.add_pair(3, 0).add_pair(3, 1).add_pair(3, 2).add_pair(0, 1);
        let g = b.build();
        assert_eq!(g.map_vertex(3), 0);
        // structure preserved: new hub still has degree 3
        let out = Csr::from_edges(g.edges.num_vertices(), g.edges.edges());
        assert_eq!(out.degree(0), 3);
    }

    #[test]
    fn degree_desc_is_deterministic_on_ties() {
        let build = || {
            let mut b = GraphBuilder::with_options(BuildOptions {
                reindex: ReindexMode::ByDegreeDesc,
                ..Default::default()
            });
            b.add_pair(5, 1).add_pair(4, 2).add_pair(3, 0);
            b.build().old_to_new.unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn csr_of_built_edges_roundtrips() {
        let mut b = GraphBuilder::new();
        b.add_pair(0, 1).add_pair(1, 2);
        let g = b.build();
        let a = Csr::from_edges(g.edges.num_vertices(), g.edges.edges());
        assert_eq!(a.num_edges(), 2);
        assert_eq!(a.neighbors(1), &[2]);
    }
}
