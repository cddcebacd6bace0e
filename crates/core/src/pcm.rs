//! The partition-centric programming abstraction of Listing 1 (§3.4).
//!
//! C-Graph exposes the Giraph++-style partition-centric model: user
//! code implements a per-partition `compute()` and talks to the rest of
//! the cluster through `sendTo`, `voteToHalt` and the vertex-ownership
//! predicates. The table below maps Listing 1 to this module:
//!
//! | Listing 1                  | Here                                   |
//! |----------------------------|----------------------------------------|
//! | `void abstract compute()`  | [`PartitionProgram::compute`]          |
//! | `sendTo(V, M)`             | [`PartitionCtx::send_to`]              |
//! | (send to a partition)      | [`PartitionCtx::send_to_partition`]    |
//! | `voteTohalt()`             | [`PartitionCtx::vote_to_halt`]         |
//! | `ifHasVertex(V)`           | [`PartitionCtx::if_has_vertex`]        |
//! | `isLocalVertex(V)`         | [`PartitionCtx::is_local_vertex`]      |
//! | `isBoundaryVertex(V)`      | [`PartitionCtx::is_boundary_vertex`]   |
//! | `getLocalVertices()`       | [`PartitionCtx::local_vertices`]       |
//! | `getBoundaryVertices()`    | [`PartitionCtx::boundary_vertices`]    |
//! | `getAllVertices()`         | [`PartitionCtx::num_all_vertices`]     |
//! | `barrier()`                | implicit between supersteps (sync mode)|
//!
//! Programs run on the engine's BSP driver
//! ([`crate::engine::DistributedEngine::run_program`]), which counts
//! supersteps at the barrier, delivers staged messages, and detects
//! global termination (all partitions halted ∧ no messages in flight).
//! The sync and chained queues, GAS and vertex programs run on it too,
//! all over the engine value's view: the graph of its epoch, overlays
//! included.

use crate::engine::BaseGraph;
use crate::partition::RangePartition;
use crate::shard::Shard;
use cgraph_graph::{Csc, VertexId};

/// Per-superstep context handed to [`PartitionProgram::compute`].
pub struct PartitionCtx<'a> {
    /// The engine value's view; this partition reads part `id` of it.
    view: &'a BaseGraph,
    id: usize,
    partition: &'a RangePartition,
    superstep: u64,
    halted: bool,
    /// Messages staged this superstep, per destination partition.
    outbox: Vec<Vec<(VertexId, u64)>>,
}

impl<'a> PartitionCtx<'a> {
    /// Creates a context (engine-internal).
    pub(crate) fn new(view: &'a BaseGraph, id: usize, partition: &'a RangePartition) -> Self {
        let outbox = vec![Vec::new(); partition.num_partitions()];
        Self { view, id, partition, superstep: 0, halted: false, outbox }
    }

    /// This partition's ID.
    pub fn partition_id(&self) -> usize {
        self.id
    }

    /// Number of partitions in the cluster.
    pub fn num_partitions(&self) -> usize {
        self.partition.num_partitions()
    }

    /// The superstep: the barrier count, on every partition — 0 during
    /// `init`, `s` in the compute after the `s`-th barrier (also on a
    /// partition woken after sitting supersteps out), all in `finish`.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// `sendTo(V destination, M msg)` — stages a message to any vertex
    /// in the graph by unique ID; delivered next superstep to the
    /// owning partition.
    pub fn send_to(&mut self, destination: VertexId, msg: u64) {
        debug_assert!(self.if_has_vertex(destination));
        self.outbox[self.partition.owner(destination)].push((destination, msg));
    }

    /// Stages every `(key, msg)` of `msgs` for partition `m`, whoever
    /// owns `key` (values shared with a reader); delivered next superstep.
    pub fn send_to_partition(&mut self, m: usize, msgs: impl IntoIterator<Item = (VertexId, u64)>) {
        self.outbox[m].extend(msgs);
    }

    /// `voteTohalt()` — this partition is done unless messages arrive.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// `ifHasVertex(V)` — true when the vertex exists in the graph.
    pub fn if_has_vertex(&self, v: VertexId) -> bool {
        v < self.partition.num_vertices()
    }

    /// `isLocalVertex(V)`.
    pub fn is_local_vertex(&self, v: VertexId) -> bool {
        self.shard().is_local(v)
    }

    /// `isBoundaryVertex(V)` — a remote vertex adjacent to this
    /// partition.
    pub fn is_boundary_vertex(&self, v: VertexId) -> bool {
        self.shard().is_boundary(v)
    }

    /// `getLocalVertices()`.
    pub fn local_vertices(&self) -> impl Iterator<Item = VertexId> {
        self.shard().local_range().iter()
    }

    /// `getBoundaryVertices()`.
    pub fn boundary_vertices(&self) -> &[VertexId] {
        self.shard().boundary_vertices()
    }

    /// `getAllVertices()` — the global vertex count.
    pub fn num_all_vertices(&self) -> u64 {
        self.partition.num_vertices()
    }

    /// Out-neighbours of a local vertex (traversal building block).
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.shard().out_neighbors(v)
    }

    /// Out-neighbours of a local vertex with edge weights (weighted
    /// traversals, e.g. SSSP under SDN-style distance constraints).
    pub fn out_neighbors_weighted(&self, v: VertexId) -> Vec<(VertexId, f32)> {
        self.shard().out_neighbors_weighted(v)
    }

    /// In-neighbours of a local vertex, sources ascending. The first
    /// call on any partition derives the view's in-edge CSC.
    pub fn in_neighbors(&self, v: VertexId) -> &'a [VertexId] {
        self.in_edges().in_neighbors(v)
    }

    /// The in-edges of the local vertices; see `in_neighbors`.
    pub fn in_edges(&self) -> &'a Csc {
        &self.view.in_edges(self.partition)[self.id]
    }

    /// Out-degree of any vertex in the view (duplicate edges counted):
    /// the degree of the graph the program runs over.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.view.out_degrees[v as usize]
    }

    /// This partition's shard of the view (for edge-set level access).
    /// It outlives the borrow of the context, so a program can scan it
    /// while staging messages.
    pub fn shard(&self) -> &'a Shard {
        &self.view.shards[self.id]
    }

    // --- engine-side accessors -------------------------------------

    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    pub(crate) fn un_halt(&mut self) {
        self.halted = false;
    }

    pub(crate) fn take_outbox(&mut self) -> Vec<Vec<(VertexId, u64)>> {
        std::mem::replace(&mut self.outbox, vec![Vec::new(); self.partition.num_partitions()])
    }

    pub(crate) fn advance_superstep(&mut self) {
        self.superstep += 1;
    }
}

/// A partition-centric program (Listing 1's abstract class).
///
/// Message payloads are `u64` words — vertex IDs, packed (id, depth)
/// pairs, or float bits; partition-centric algorithms in the paper all
/// ship word-sized updates ("the boundary vertex ID with its value").
pub trait PartitionProgram {
    /// The per-partition output extracted when the program halts.
    type Out: Send;

    /// Called once before superstep 1 — seed initial state and
    /// optionally stage messages.
    fn init(&mut self, ctx: &mut PartitionCtx<'_>);

    /// `compute()` — called each superstep with the messages delivered
    /// to this partition's vertices. Not called for supersteps in which
    /// this partition is halted and receives no messages.
    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]);

    /// Extracts the result after global termination.
    fn finish(self, ctx: &PartitionCtx<'_>) -> Self::Out;

    /// This partition's contribution to the global aggregator for the
    /// superstep that just computed (Pregel-style aggregator; wrapping
    /// sum across partitions). Default: nothing.
    fn aggregate_contribution(&mut self) -> u64 {
        0
    }

    /// Receives the global aggregate (sum of every partition's
    /// contribution) after each superstep barrier, on every partition,
    /// halted or not. Default: ignored.
    fn receive_aggregate(&mut self, _aggregate: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedEngine, EngineConfig};
    use cgraph_graph::EdgeList;

    fn ctx_fixture() -> DistributedEngine {
        let g: EdgeList = (0..10u64).map(|v| (v, (v + 1) % 10)).collect();
        let part = RangePartition::by_vertices(10, 2);
        DistributedEngine::with_partition(&g, part, EngineConfig::new(2))
    }

    #[test]
    fn listing1_predicates() {
        let e = ctx_fixture();
        let ctx = PartitionCtx::new(e.view(), 0, e.partition());
        assert!(ctx.if_has_vertex(9));
        assert!(!ctx.if_has_vertex(10));
        assert!(ctx.is_local_vertex(0));
        assert!(!ctx.is_local_vertex(7));
        assert!(ctx.is_boundary_vertex(5)); // vertex 4 -> 5 crosses
        assert!(!ctx.is_boundary_vertex(8));
        assert_eq!(ctx.local_vertices().count(), 5);
        assert_eq!(ctx.num_all_vertices(), 10);
        assert_eq!(ctx.partition_id(), 0);
        assert_eq!(ctx.num_partitions(), 2);
    }

    #[test]
    fn outbox_and_halt_lifecycle() {
        let e = ctx_fixture();
        let mut ctx = PartitionCtx::new(e.view(), 0, e.partition());
        ctx.send_to(7, 99);
        ctx.send_to_partition(1, [(2, 5)]);
        ctx.send_to(3, 4);
        ctx.vote_to_halt();
        assert!(ctx.halted());
        // Routed by owner; a partition-addressed send goes where it says.
        assert_eq!(ctx.take_outbox(), vec![vec![(3, 4)], vec![(7, 99), (2, 5)]]);
        assert!(ctx.take_outbox().iter().all(Vec::is_empty));
        ctx.un_halt();
        assert!(!ctx.halted());
    }
}
