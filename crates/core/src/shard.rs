//! The per-machine subgraph shard (§3, Fig. 2).
//!
//! "Each subgraph shard contains a range of vertices called local
//! vertices … Each subgraph shard stores all the associated in/out
//! edges as well as the property of the subgraph." A shard here holds
//! what a traversal scans: its local vertices' out-edges in the
//! edge-set blocked layout. Boundary vertices — remote vertices
//! reachable by a local out-edge — are precomputed, and each out-edge
//! is stored once, as a 4-byte *slot*: the position of its target in
//! the dense `local ++ boundary` numbering the bit-frontier scan
//! accumulates into, so the scan addresses remote destinations by
//! position rather than by lookup. The slot is the tile's column; the
//! target is derived from it where something reads one
//! ([`Shard::target_of`], [`Shard::row`]). A tile keeps a weight column
//! only when one of its weights is not 1.0.
//!
//! Every shard is built by [`Shard::from_rows`] from its local
//! vertices' [`SortedRows`] — one target-sorted run per vertex — in the
//! edge-set build's two passes (count the cells, then place each
//! tile's runs; see [`cgraph_graph::edge_set`]). No tile is sorted: the
//! runs already are. Ingest groups an edge list into every machine's
//! rows in one count and one scatter ([`SortedRows::group`]); a fold
//! streams them out of the old shard's rows, merging the overlay into
//! the rows it touches ([`Shard::effective_rows`]); a restore reads
//! them off a snapshot. The slots and the boundary come from the rows'
//! targets in one pass before the tiles are placed.
//!
//! In-edges (CSC over local destinations, for GAS gathers) are read
//! only by GAS and partition-centric programs, so the engine derives
//! them from all shards' out-edges when such a program first runs;
//! the out-degree array is kept once per engine, not per shard.

use crate::partition::RangePartition;
use cgraph_graph::types::{PartitionId, VertexRange, Weight};
use cgraph_graph::{
    ConsolidationPolicy, DeltaOverlay, Edge, EdgeSet, EdgeSetGraph, SortedRows, VertexId,
};

/// One machine's shard: local vertex range plus its out-edges.
#[derive(Debug)]
pub struct Shard {
    id: PartitionId,
    local: VertexRange,
    /// Out-edges of local vertices, edge-set blocked (rows = local
    /// range, cols = all vertices). A tile's column is the edge's
    /// accumulator slot: `t - local.start` for a local target `t`,
    /// `num_local + rank of t in boundary` for a remote one.
    out_sets: EdgeSetGraph,
    /// Sorted global IDs of boundary vertices: remote endpoints of
    /// local out-edges. Partitions are vertex ranges, so each owner's
    /// boundary vertices are one contiguous run, in partition order.
    boundary: Vec<VertexId>,
}

impl Shard {
    /// Builds the shard for partition `id` from its own out-edges:
    /// the edges of `edges` whose source is local to `id` (the rest are
    /// skipped), grouped into rows in input order — duplicates of one
    /// `(src, dst)` pair keep that order.
    pub fn build(
        id: PartitionId,
        partition: &RangePartition,
        edges: &[Edge],
        policy: ConsolidationPolicy,
    ) -> Self {
        Self::from_rows(id, partition, &SortedRows::group(&[partition.range(id)], edges)[0], policy)
    }

    /// Builds the shard for partition `id` from `rows`, the out-rows of
    /// every local vertex.
    pub fn from_rows(
        id: PartitionId,
        partition: &RangePartition,
        rows: &SortedRows,
        policy: ConsolidationPolicy,
    ) -> Self {
        let local = partition.range(id);
        assert_eq!(rows.span(), local, "rows of another partition");
        let n = partition.num_vertices();

        // Slot numbering in O(n + edges): mark the remote targets, then
        // one ascending pass ranks them (which also yields `boundary`
        // sorted and deduplicated) and numbers the local range.
        assert!(n <= u64::from(u32::MAX), "slots address vertices by u32");
        const UNUSED: u32 = u32::MAX;
        const MARKED: u32 = 0;
        let mut slot_of = vec![UNUSED; n as usize];
        for &t in rows.targets() {
            slot_of[t as usize] = MARKED;
        }
        let num_local = local.len() as u32;
        let mut boundary: Vec<VertexId> = Vec::new();
        for (v, slot) in slot_of.iter_mut().enumerate() {
            let v = v as VertexId;
            if local.contains(v) {
                *slot = local.to_local(v);
            } else if *slot == MARKED {
                *slot = num_local + boundary.len() as u32;
                boundary.push(v);
            }
        }
        let out_sets =
            EdgeSetGraph::from_rows(rows, VertexRange::new(0, n), policy, |t| slot_of[t as usize]);

        Self { id, local, out_sets, boundary }
    }

    /// The out-row of local vertex `v` as `(target, weight)`, in target
    /// order, duplicates in their input order — the row the shard was
    /// built from. The row's tiles are one stripe's, found by a binary
    /// search and read in column order, so their runs concatenate
    /// sorted; each slot is turned back into its target.
    pub fn row(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.stripe(v).flat_map(move |s| {
            let span = s.row_span(v);
            let slots = &s.raw_parts().1[span.clone()];
            slots.iter().zip(span).map(move |(&slot, i)| (self.target_of(slot), s.weight(i)))
        })
    }

    /// The tiles holding local vertex `v`'s row: one stripe's, in
    /// column order.
    fn stripe(&self, v: VertexId) -> impl Iterator<Item = &EdgeSet> + '_ {
        debug_assert!(self.is_local(v), "{v} is not local to shard {}", self.id);
        let sets = self.out_sets.sets();
        let first = sets.partition_point(|s| s.row_range.end <= v);
        sets[first..].iter().take_while(move |s| s.row_range.contains(v))
    }

    /// The out-rows of every local vertex as `delta` leaves them — the
    /// rows a fold rebuilds this shard's successor from. A row `delta`
    /// does not touch is read as it is
    /// ([`Shard::out_neighbors_weighted_into`]); a touched row is merged
    /// on the way ([`DeltaRow::merge`](cgraph_graph::DeltaRow::merge)).
    pub fn effective_rows(&self, delta: &DeltaOverlay) -> SortedRows {
        let room = self.num_out_edges() + delta.num_inserts();
        let mut rows = SortedRows::with_capacity(self.local, room);
        let mut base = Vec::new();
        for v in self.local.iter() {
            self.out_neighbors_weighted_into(v, &mut base);
            match delta.row(v) {
                None => base.iter().for_each(|&(t, w)| rows.push(t, w)),
                Some(row) => row.merge(base.iter().copied()).for_each(|(t, w)| rows.push(t, w)),
            }
            rows.end_row();
        }
        rows
    }

    /// Partition ID of this shard.
    #[inline]
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Local vertex range.
    #[inline]
    pub fn local_range(&self) -> VertexRange {
        self.local
    }

    /// Number of local vertices.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.local.len() as usize
    }

    /// True when `v` is a local vertex of this shard.
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        self.local.contains(v)
    }

    /// True when `v` is a boundary vertex of this shard (remote, but
    /// adjacent to a local vertex).
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.binary_search(&v).is_ok()
    }

    /// Global-to-local index of a local vertex.
    #[inline]
    pub fn to_local(&self, v: VertexId) -> u32 {
        self.local.to_local(v)
    }

    /// Local-to-global ID.
    #[inline]
    pub fn to_global(&self, l: u32) -> VertexId {
        self.local.to_global(l)
    }

    /// The blocked out-edge view.
    #[inline]
    pub fn out_sets(&self) -> &EdgeSetGraph {
        &self.out_sets
    }

    /// Sorted boundary vertices.
    #[inline]
    pub fn boundary_vertices(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Rows of the scan accumulator: one per local vertex, then one
    /// per boundary vertex.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_local() + self.boundary.len()
    }

    /// The vertex accumulator slot `slot` stands for — a tile column:
    /// below [`Shard::num_local`] the local vertex
    /// `local_range().start + slot`, any other
    /// `boundary_vertices()[slot - num_local()]`.
    #[inline]
    pub fn target_of(&self, slot: u32) -> VertexId {
        // Without a branch: a row's local and remote slots interleave
        // unpredictably, so a local slot reads (and drops) a boundary
        // entry rather than jumping past the load.
        let num_local = self.local.len() as u32;
        let remote = slot >= num_local;
        let rank = if remote { slot - num_local } else { 0 };
        let boundary = self.boundary.get(rank as usize).copied().unwrap_or_default();
        if remote {
            boundary
        } else {
            self.local.start + u64::from(slot)
        }
    }

    /// The accumulator slot of vertex `v`, or `None` when `v` is remote
    /// and no base out-edge of this shard reaches it (only an overlay
    /// insert can name such a target).
    pub fn slot_of(&self, v: VertexId) -> Option<u32> {
        if self.is_local(v) {
            Some(self.to_local(v))
        } else {
            self.boundary.binary_search(&v).ok().map(|i| (self.num_local() + i) as u32)
        }
    }

    /// Number of out-edges stored in this shard.
    pub fn num_out_edges(&self) -> usize {
        self.out_sets.num_edges()
    }

    /// Out-neighbours of a local vertex, in target order (collected
    /// from [`Shard::row`]; hot loops iterate tiles directly instead).
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.row(v).map(|(t, _)| t).collect()
    }

    /// Out-neighbours of a local vertex with edge weights.
    pub fn out_neighbors_weighted(&self, v: VertexId) -> Vec<(VertexId, f32)> {
        let mut out = Vec::new();
        self.out_neighbors_weighted_into(v, &mut out);
        out
    }

    /// [`Shard::out_neighbors_weighted`] into a caller-owned buffer
    /// (cleared first), for walks over every local vertex.
    pub fn out_neighbors_weighted_into(&self, v: VertexId, out: &mut Vec<(VertexId, f32)>) {
        out.clear();
        // Run by run, so each extend knows its length.
        for s in self.stripe(v) {
            let span = s.row_span(v);
            let (_, slots, weights) = s.raw_parts();
            let targets = slots[span.clone()].iter().map(|&slot| self.target_of(slot));
            if weights.is_empty() {
                out.extend(targets.map(|t| (t, 1.0)));
            } else {
                out.extend(targets.zip(weights[span].iter().copied()));
            }
        }
    }

    /// Heap footprint in bytes: the sum of the tiles' arrays and the
    /// boundary.
    pub fn size_bytes(&self) -> usize {
        self.out_sets.size_bytes() + self.boundary.len() * std::mem::size_of::<VertexId>()
    }
}

/// Builds all `p` shards for a graph from its global edge list — the
/// one-call entry for tests; the list is grouped into every machine's
/// rows at once ([`SortedRows::group`]).
pub fn build_shards(
    partition: &RangePartition,
    edges: &[Edge],
    policy: ConsolidationPolicy,
) -> Vec<Shard> {
    let rows = SortedRows::group(partition.ranges(), edges);
    rows.iter().enumerate().map(|(m, rows)| Shard::from_rows(m, partition, rows, policy)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_graph::EdgeList;

    fn ring(n: u64) -> EdgeList {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    #[test]
    fn shards_partition_edges_exactly() {
        let g = ring(20);
        let part = RangePartition::from_edges(20, g.edges(), 3);
        let shards = build_shards(&part, g.edges(), ConsolidationPolicy::default());
        let total: usize = shards.iter().map(|s| s.num_out_edges()).sum();
        assert_eq!(total, 20);
        for s in &shards {
            for v in s.local_range().iter() {
                assert_eq!(s.out_neighbors(v), vec![(v + 1) % 20]);
            }
        }
    }

    #[test]
    fn boundary_vertices_are_remote_neighbors() {
        let g = ring(10);
        let part = RangePartition::by_vertices(10, 2);
        let shards = build_shards(&part, g.edges(), ConsolidationPolicy::default());
        // shard 0 = [0,5): its only remote neighbour is 5 (from vertex 4)
        assert_eq!(shards[0].boundary_vertices(), &[5]);
        assert!(shards[0].is_boundary(5));
        assert!(!shards[0].is_boundary(3));
        // shard 1 = [5,10): remote neighbour is 0 (from vertex 9)
        assert_eq!(shards[1].boundary_vertices(), &[0]);
    }

    #[test]
    fn local_global_roundtrip() {
        let g = ring(10);
        let part = RangePartition::by_vertices(10, 3);
        let s = &build_shards(&part, g.edges(), ConsolidationPolicy::default())[1];
        for v in s.local_range().iter() {
            assert_eq!(s.to_global(s.to_local(v)), v);
        }
    }
}
