//! The vertex-centric model, layered over the partition-centric one.
//!
//! §3.3: "Our framework supports both the vertex-centric and
//! partition-centric models." The partition-centric model is the
//! optimized native path; this module provides the classic
//! Pregel-style per-vertex API for algorithms written in that style,
//! implemented as a [`PartitionProgram`] adapter: one partition-level
//! superstep executes `compute` for every active local vertex, routes
//! `send_to` messages through the partition outbox, and maintains the
//! per-vertex halt state (a halted vertex reactivates when a message
//! arrives — standard Pregel semantics).
//!
//! Because a partition-level superstep serves *all* its vertices at
//! once, the adapter also demonstrates the paper's observation that
//! the partition-centric model "generally requires fewer supersteps to
//! converge compared to the vertex-centric model": a partition program
//! can chase local chains within one superstep (see
//! [`crate::traverse::ChainedKhop`]), while a vertex program needs one
//! superstep per hop.

use crate::engine::DistributedEngine;
use crate::pcm::{PartitionCtx, PartitionProgram};
use cgraph_graph::{Bitmap, VertexId};
use std::collections::HashMap;

/// Per-vertex view handed to [`VertexProgram::compute`].
pub struct VertexScope<'a, 'b> {
    ctx: &'a mut PartitionCtx<'b>,
    halt: bool,
    aggregate: u64,
    contribution: &'a mut u64,
}

impl VertexScope<'_, '_> {
    /// Sends `msg` to any vertex by unique ID (delivered next
    /// superstep).
    pub fn send_to(&mut self, destination: VertexId, msg: u64) {
        self.ctx.send_to(destination, msg);
    }

    /// This vertex votes to halt; it reactivates if a message arrives.
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }

    /// The superstep: the barrier count, on every partition (1-based;
    /// vertices are first computed at 1).
    pub fn superstep(&self) -> u64 {
        self.ctx.superstep()
    }

    /// Out-neighbours of a (local) vertex.
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.ctx.out_neighbors(v)
    }

    /// Weighted out-neighbours of a (local) vertex.
    pub fn out_neighbors_weighted(&self, v: VertexId) -> Vec<(VertexId, f32)> {
        self.ctx.out_neighbors_weighted(v)
    }

    /// Global vertex count.
    pub fn num_all_vertices(&self) -> u64 {
        self.ctx.num_all_vertices()
    }

    /// The global aggregate (wrapping sum of every vertex's
    /// [`VertexScope::aggregate`] contributions) from the *previous*
    /// superstep — the classic Pregel aggregator, computed for free on
    /// the superstep barrier. Zero during superstep 1.
    pub fn global_aggregate(&self) -> u64 {
        self.aggregate
    }

    /// Adds `value` to this superstep's global aggregate (visible to
    /// every vertex next superstep).
    pub fn aggregate(&mut self, value: u64) {
        *self.contribution = self.contribution.wrapping_add(value);
    }
}

/// A Pregel-style vertex program.
pub trait VertexProgram: Send + Sync {
    /// Per-vertex state.
    type Value: Clone + Send;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId) -> Self::Value;

    /// Called for every active vertex each superstep (superstep 1 runs
    /// on all vertices with no messages). Mutate `value`, send
    /// messages, and/or vote to halt through `scope`.
    fn compute(
        &self,
        scope: &mut VertexScope<'_, '_>,
        v: VertexId,
        value: &mut Self::Value,
        messages: &[u64],
    );
}

/// Adapter: a vertex program executed by the partition-centric runtime.
struct VcmAdapter<'p, P: VertexProgram> {
    program: &'p P,
    values: Vec<P::Value>,
    active: Bitmap,
    base: VertexId,
    /// Global aggregate published by the previous superstep.
    aggregate: u64,
    /// This partition's contribution for the current superstep.
    contribution: u64,
}

impl<P: VertexProgram> VcmAdapter<'_, P> {
    fn run_vertex(
        program: &P,
        ctx: &mut PartitionCtx<'_>,
        v: VertexId,
        value: &mut P::Value,
        msgs: &[u64],
        aggregate: u64,
        contribution: &mut u64,
    ) -> bool {
        let mut scope = VertexScope { ctx, halt: false, aggregate, contribution };
        program.compute(&mut scope, v, value, msgs);
        !scope.halt
    }
}

impl<P: VertexProgram> PartitionProgram for VcmAdapter<'_, P> {
    type Out = Vec<P::Value>;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        self.base = ctx.shard().local_range().start;
        let n = ctx.shard().num_local();
        self.values = ctx.local_vertices().map(|v| self.program.init(v)).collect();
        self.active = Bitmap::new(n);
        for i in 0..n {
            self.active.set(i);
        }
        // Superstep 1 (all vertices, no messages) runs inside the
        // first compute() call; here we only seed state.
    }

    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        // Group inbound messages by local vertex.
        let mut inbox: HashMap<VertexId, Vec<u64>> = HashMap::new();
        for &(v, m) in incoming {
            inbox.entry(v).or_default().push(m);
        }
        let first = ctx.superstep() == 1;
        let n = self.values.len();
        let empty: Vec<u64> = Vec::new();
        let mut any_active = false;
        for l in 0..n {
            let v = self.base + l as VertexId;
            let msgs = inbox.get(&v);
            let runs = first || self.active.get(l) || msgs.is_some();
            if !runs {
                continue;
            }
            let stays_active = Self::run_vertex(
                self.program,
                ctx,
                v,
                &mut self.values[l],
                msgs.unwrap_or(&empty),
                self.aggregate,
                &mut self.contribution,
            );
            if stays_active {
                self.active.set(l);
                any_active = true;
            } else {
                self.active.clear(l);
            }
        }
        if !any_active {
            ctx.vote_to_halt();
        }
    }

    fn finish(self, _ctx: &PartitionCtx<'_>) -> Vec<P::Value> {
        self.values
    }

    fn aggregate_contribution(&mut self) -> u64 {
        std::mem::take(&mut self.contribution)
    }

    fn receive_aggregate(&mut self, aggregate: u64) {
        self.aggregate = aggregate;
    }
}

impl DistributedEngine {
    /// Runs a Pregel-style vertex program to global termination and
    /// returns every vertex's final value, indexed by global ID.
    pub fn run_vertex_program<P: VertexProgram>(&self, program: &P) -> Vec<P::Value> {
        // Partitions own contiguous ranges, in partition order.
        self.run_program(|_| VcmAdapter {
            program,
            values: Vec::new(),
            active: Bitmap::new(0),
            base: 0,
            aggregate: 0,
            contribution: 0,
        })
        .concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use cgraph_graph::EdgeList;

    /// Vertex-centric BFS depth: source starts at 0, everyone else ∞;
    /// on improvement, broadcast depth+1 to out-neighbours.
    struct VcBfs {
        source: VertexId,
    }

    impl VertexProgram for VcBfs {
        type Value = u64;

        fn init(&self, _v: VertexId) -> u64 {
            u64::MAX
        }

        fn compute(
            &self,
            scope: &mut VertexScope<'_, '_>,
            v: VertexId,
            value: &mut u64,
            messages: &[u64],
        ) {
            let proposal = if scope.superstep() == 1 && v == self.source {
                Some(0)
            } else {
                messages.iter().min().copied()
            };
            if let Some(d) = proposal {
                if d < *value {
                    *value = d;
                    for t in scope.out_neighbors(v) {
                        scope.send_to(t, d + 1);
                    }
                }
            }
            scope.vote_to_halt();
        }
    }

    /// Max-label propagation: every vertex floods the largest label it
    /// has seen; at the fixed point every vertex in a weakly-reachable-
    /// forward component holds the max reachable label.
    struct MaxFlood;

    impl VertexProgram for MaxFlood {
        type Value = u64;

        fn init(&self, v: VertexId) -> u64 {
            v
        }

        fn compute(
            &self,
            scope: &mut VertexScope<'_, '_>,
            v: VertexId,
            value: &mut u64,
            messages: &[u64],
        ) {
            let best = messages.iter().copied().max().unwrap_or(0).max(*value);
            if best > *value || scope.superstep() == 1 {
                *value = best;
                for t in scope.out_neighbors(v) {
                    scope.send_to(t, best);
                }
            }
            scope.vote_to_halt();
        }
    }

    fn ring(n: u64) -> EdgeList {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    #[test]
    fn vertex_bfs_depths_on_ring() {
        let g = ring(12);
        let e = DistributedEngine::new(&g, EngineConfig::new(3));
        let depths = e.run_vertex_program(&VcBfs { source: 4 });
        for v in 0..12u64 {
            assert_eq!(depths[v as usize], (v + 12 - 4) % 12, "vertex {v}");
        }
    }

    #[test]
    fn vertex_bfs_matches_engine_bfs_levels() {
        let raw = cgraph_gen::graph500(8, 6, 77);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&raw);
        let g = b.build().edges;
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let depths = e.run_vertex_program(&VcBfs { source: 3 });
        let reached = depths.iter().filter(|&&d| d != u64::MAX).count() as u64;
        let expect = e.run_traversal_batch(&[3], &[u32::MAX]).unwrap().per_lane_visited[0];
        assert_eq!(reached, expect);
        // Depth histogram must match the batch's per-level counts.
        let batch = e.run_traversal_batch(&[3], &[u32::MAX]).unwrap();
        for (level, counts) in batch.per_level.iter().enumerate() {
            let vc = depths.iter().filter(|&&d| d == level as u64).count() as u64;
            assert_eq!(vc, counts[0], "level {level}");
        }
    }

    #[test]
    fn max_flood_reaches_cycle_fixed_point() {
        let g = ring(9);
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let labels = e.run_vertex_program(&MaxFlood);
        // On a cycle every vertex reaches every other: all hold 8.
        assert!(labels.iter().all(|&l| l == 8), "{labels:?}");
    }

    /// Counts, through the aggregator, how many vertices changed value
    /// last superstep; vertices keep running until the global count
    /// drops to zero, then record the final aggregate in their value.
    struct AggregatedConvergence;

    impl VertexProgram for AggregatedConvergence {
        type Value = u64;

        fn init(&self, v: VertexId) -> u64 {
            v
        }

        fn compute(
            &self,
            scope: &mut VertexScope<'_, '_>,
            v: VertexId,
            value: &mut u64,
            messages: &[u64],
        ) {
            // Min-label flood, reporting changes into the aggregator.
            let best = messages.iter().copied().min().unwrap_or(u64::MAX).min(*value);
            if best < *value || scope.superstep() == 1 {
                *value = best;
                scope.aggregate(1); // I changed (or initialised)
                for t in scope.out_neighbors(v) {
                    scope.send_to(t, best);
                }
            }
            scope.vote_to_halt();
        }
    }

    #[test]
    fn aggregator_counts_global_changes() {
        // Ring of 6 over 2 machines: superstep 1 initialises all 6
        // vertices, so the aggregate visible at superstep 2 must be 6 —
        // on BOTH machines (it is global, not local).
        let g: EdgeList = (0..6u64).map(|v| (v, (v + 1) % 6)).collect();
        let e = DistributedEngine::new(&g, EngineConfig::new(2));

        struct ProbeAggregate;
        impl VertexProgram for ProbeAggregate {
            type Value = u64;
            fn init(&self, _v: VertexId) -> u64 {
                0
            }
            fn compute(
                &self,
                scope: &mut VertexScope<'_, '_>,
                v: VertexId,
                value: &mut u64,
                _messages: &[u64],
            ) {
                match scope.superstep() {
                    1 => {
                        scope.aggregate(1);
                        // Stay alive into superstep 2 by self-messaging.
                        scope.send_to(v, 0);
                    }
                    2 => *value = scope.global_aggregate(),
                    _ => {}
                }
                scope.vote_to_halt();
            }
        }
        let values = e.run_vertex_program(&ProbeAggregate);
        assert_eq!(values, vec![6; 6], "global aggregate visible everywhere");
    }

    #[test]
    fn aggregated_min_label_converges() {
        let g: EdgeList = (0..9u64).map(|v| (v, (v + 1) % 9)).collect();
        let e = DistributedEngine::new(&g, EngineConfig::new(3));
        let labels = e.run_vertex_program(&AggregatedConvergence);
        assert!(labels.iter().all(|&l| l == 0), "{labels:?}");
    }

    #[test]
    fn machine_count_invariance() {
        let raw = cgraph_gen::graph500(7, 5, 13);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&raw);
        let g = b.build().edges;
        let d1 = DistributedEngine::new(&g, EngineConfig::new(1))
            .run_vertex_program(&VcBfs { source: 0 });
        let d4 = DistributedEngine::new(&g, EngineConfig::new(4))
            .run_vertex_program(&VcBfs { source: 0 });
        assert_eq!(d1, d4);
    }
}
