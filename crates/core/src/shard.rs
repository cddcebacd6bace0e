//! The per-machine subgraph shard (§3, Fig. 2).
//!
//! "Each subgraph shard contains a range of vertices called local
//! vertices … Each subgraph shard stores all the associated in/out
//! edges as well as the property of the subgraph." A shard here holds
//! what a traversal scans: its local vertices' out-edges in the
//! edge-set blocked layout. Boundary vertices — remote vertices
//! reachable by a local out-edge — are precomputed, and every out-edge
//! carries a *slot*: the position of its target in the dense
//! `local ++ boundary` numbering the bit-frontier scan accumulates
//! into, so the scan addresses remote destinations by position rather
//! than by lookup.
//!
//! Every shard is built by [`Shard::from_rows`] from its local
//! vertices' [`SortedRows`] — one target-sorted run per vertex — in the
//! edge-set build's two passes (count the cells, then place each
//! tile's runs; see [`cgraph_graph::edge_set`]). No tile is sorted: the
//! runs already are. Ingest groups an edge list into every machine's
//! rows in one count and one scatter ([`SortedRows::group`]); a fold
//! streams them out of the old shard's tiles, merging the overlay into
//! the rows it touches ([`Shard::effective_rows`]); a restore reads
//! them off a snapshot. Slots and the boundary come from the rows'
//! targets in one more pass.
//!
//! In-edges (CSC over local destinations, for GAS gathers) are read
//! only by GAS and partition-centric programs, so the engine derives
//! them from all shards' out-edges when such a program first runs;
//! the out-degree array is kept once per engine, not per shard.

use crate::partition::RangePartition;
use cgraph_graph::types::{PartitionId, VertexRange};
use cgraph_graph::{ConsolidationPolicy, DeltaOverlay, Edge, EdgeSetGraph, SortedRows, VertexId};

/// One machine's shard: local vertex range plus its out-edges.
#[derive(Debug)]
pub struct Shard {
    id: PartitionId,
    local: VertexRange,
    /// Out-edges of local vertices, edge-set blocked (rows = local
    /// range, cols = all vertices).
    out_sets: EdgeSetGraph,
    /// Sorted global IDs of boundary vertices: remote endpoints of
    /// local out-edges. Partitions are vertex ranges, so each owner's
    /// boundary vertices are one contiguous run, in partition order.
    boundary: Vec<VertexId>,
    /// Per tile of `out_sets`, one accumulator slot per edge, aligned
    /// with the tile's target array: `t - local.start` for a local
    /// target `t`, `num_local + rank of t in boundary` for a remote one.
    slots: Vec<Vec<u32>>,
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
        let out_sets = EdgeSetGraph::from_rows(rows, VertexRange::new(0, n), policy);

        // Slot numbering in O(n + edges): mark the remote targets, then
        // one ascending pass ranks them (which also yields `boundary`
        // sorted and deduplicated) and numbers the local range.
        assert!(n <= u64::from(u32::MAX), "slot table addresses vertices by u32");
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
        let slots = out_sets
            .sets()
            .iter()
            .map(|set| set.raw_parts().1.iter().map(|&t| slot_of[t as usize]).collect())
            .collect();

        Self { id, local, out_sets, boundary, slots }
    }

    /// The out-rows of every local vertex as `delta` leaves them — the
    /// rows a fold rebuilds this shard's successor from. A row `delta`
    /// does not touch is copied out of the tiles run by run (a stripe's
    /// tiles are in column order, so their runs concatenate sorted); a
    /// touched row is merged on the way ([`DeltaRow::merge`](cgraph_graph::DeltaRow::merge)).
    pub fn effective_rows(&self, delta: &DeltaOverlay) -> SortedRows {
        let sets = self.out_sets.sets();
        let room = self.num_out_edges() + delta.num_inserts();
        let mut rows = SortedRows::with_capacity(self.local, room);
        let mut stripe = 0; // first tile whose rows do not end before `v`
        for v in self.local.iter() {
            while sets.get(stripe).is_some_and(|s| s.row_range.end <= v) {
                stripe += 1;
            }
            let runs = sets[stripe..].iter().take_while(|s| s.row_range.contains(v)).map(|s| {
                let (_, targets, weights) = s.raw_parts();
                let span = s.row_span(v);
                (&targets[span.clone()], &weights[span])
            });
            match delta.row(v) {
                None => runs.for_each(|(targets, weights)| rows.extend(targets, weights)),
                Some(row) => {
                    let base = runs.flat_map(|(t, w)| t.iter().copied().zip(w.iter().copied()));
                    row.merge(base).for_each(|(t, w)| rows.push(t, w));
                }
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

    /// Accumulator slots of tile `tile`'s edges, aligned with its target
    /// array (index both by [`EdgeSet::row_span`](cgraph_graph::EdgeSet::row_span)):
    /// a slot below [`Shard::num_local`] is the local vertex
    /// `local_range().start + slot`, any other is
    /// `boundary_vertices()[slot - num_local()]`.
    #[inline]
    pub fn tile_slots(&self, tile: usize) -> &[u32] {
        &self.slots[tile]
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

    /// Out-neighbours of a local vertex (collected across tiles; hot
    /// loops iterate tiles directly instead).
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        debug_assert!(self.is_local(v));
        self.out_sets.out_neighbors(v)
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
        debug_assert!(self.is_local(v));
        out.clear();
        for s in self.out_sets.sets() {
            let span = s.row_span(v);
            let (_, targets, weights) = s.raw_parts();
            out.extend(targets[span.clone()].iter().copied().zip(weights[span].iter().copied()));
        }
        out.sort_unstable_by_key(|a| a.0);
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.out_sets.size_bytes()
            + self.boundary.len() * 8
            + self.slots.iter().map(|s| s.len() * 4).sum::<usize>()
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
    fn weighted_rows_collect_across_tiles_in_target_order() {
        let mut g = ring(24);
        for v in (0..24).step_by(3) {
            g.push(Edge::weighted(v, (v * 7 + 5) % 24, 0.5 + v as f32));
        }
        let part = RangePartition::from_edges(24, g.edges(), 3);
        // A fine grid, so rows span several tiles and the sort matters.
        let shards = build_shards(&part, g.edges(), ConsolidationPolicy::grid(4));
        let mut row = vec![(99, 9.0)]; // stale content must not survive
        for s in &shards {
            for v in s.local_range().iter() {
                let mut expected: Vec<(VertexId, f32)> =
                    g.edges().iter().filter(|e| e.src == v).map(|e| (e.dst, e.weight)).collect();
                expected.sort_unstable_by_key(|a| a.0);
                s.out_neighbors_weighted_into(v, &mut row);
                assert_eq!(row, expected, "vertex {v}");
                assert_eq!(s.out_neighbors_weighted(v), expected, "vertex {v}");
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
    fn slots_round_trip_to_targets_and_owner_runs_tile_boundary() {
        // A ring with chords, so every shard reaches several owners.
        let n = 40u64;
        let g: EdgeList = (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v * 7 + 3) % n)]).collect();
        let part = RangePartition::by_vertices(n, 4);
        let shards = build_shards(&part, g.edges(), ConsolidationPolicy::grid(8));
        for s in &shards {
            let base = s.local_range().start;
            assert_eq!(s.num_slots(), s.num_local() + s.boundary_vertices().len());
            let mut edges = 0;
            for (tile, set) in s.out_sets().sets().iter().enumerate() {
                let slots = s.tile_slots(tile);
                assert_eq!(slots.len(), set.num_edges());
                for v in set.row_range.iter() {
                    let span = set.row_span(v);
                    for (&t, &slot) in set.neighbors(v).iter().zip(&slots[span]) {
                        let slot = slot as usize;
                        let back = if slot < s.num_local() {
                            base + slot as u64
                        } else {
                            s.boundary_vertices()[slot - s.num_local()]
                        };
                        assert_eq!(back, t, "shard {} edge {v}->{t}", s.id());
                        assert_eq!(s.slot_of(t), Some(slot as u32));
                        edges += 1;
                    }
                }
            }
            assert_eq!(edges, s.num_out_edges());
            // The exchange buckets emissions with an owner cursor that
            // only moves forward: each owner's boundary vertices must be
            // one contiguous run, runs in partition order, none local.
            let owners: Vec<usize> = s.boundary_vertices().iter().map(|&v| part.owner(v)).collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "owner runs out of order");
            assert!(!owners.contains(&s.id()), "a local vertex is never boundary");
            assert!(owners.len() > 1, "test graph must cross partitions");
        }
        // A remote vertex no base edge reaches has no slot.
        let lone: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let mut lone = lone;
        lone.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let s = Shard::build(0, &part, lone.edges(), ConsolidationPolicy::default());
        assert_eq!(s.slot_of(1), Some(1));
        assert_eq!(s.slot_of(7), None);
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
