//! Weakly connected components by partition-centric label propagation.
//!
//! Every vertex starts labelled with its own ID; each superstep a
//! vertex adopts the minimum label among itself and its (in + out)
//! neighbours, and boundary improvements travel by `sendTo`. At the
//! fixed point two vertices share a label iff they are weakly
//! connected, at the engine's `graph_epoch()`, live overlay included.

use cgraph_core::engine::DistributedEngine;
use cgraph_core::pcm::{PartitionCtx, PartitionProgram};
use cgraph_graph::VertexId;

struct WccProgram {
    label: Vec<u64>,
    base: VertexId,
    frontier: Vec<VertexId>,
}

impl WccProgram {
    fn improve(&mut self, v: VertexId, label: u64) -> bool {
        let l = (v - self.base) as usize;
        if label < self.label[l] {
            self.label[l] = label;
            true
        } else {
            false
        }
    }
}

impl PartitionProgram for WccProgram {
    type Out = Vec<u64>;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        self.base = ctx.shard().local_range().start;
        self.label = ctx.local_vertices().collect();
        self.frontier = ctx.local_vertices().collect();
    }

    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        for &(v, label) in incoming {
            if self.improve(v, label) {
                self.frontier.push(v);
            }
        }
        let frontier = std::mem::take(&mut self.frontier);
        for v in frontier {
            let label = self.label[(v - self.base) as usize];
            // Propagate across both edge directions: weak connectivity
            // ignores orientation.
            let outs = ctx.out_neighbors(v);
            let ins: Vec<VertexId> = ctx.in_neighbors(v).to_vec();
            for t in outs.into_iter().chain(ins) {
                if ctx.is_local_vertex(t) {
                    if self.improve(t, label) {
                        self.frontier.push(t);
                    }
                } else {
                    ctx.send_to(t, label);
                }
            }
        }
        if self.frontier.is_empty() {
            ctx.vote_to_halt();
        }
    }

    fn finish(self, _ctx: &PartitionCtx<'_>) -> Vec<u64> {
        self.label
    }
}

/// Component label per vertex (the minimum vertex ID in each weakly
/// connected component).
pub fn weakly_connected_components(engine: &DistributedEngine) -> Vec<u64> {
    let outs =
        engine.run_program(|_| WccProgram { label: Vec::new(), base: 0, frontier: Vec::new() });
    let mut labels = vec![0u64; engine.num_vertices() as usize];
    for (i, local) in outs.into_iter().enumerate() {
        let range = engine.partition().range(i);
        for (l, lab) in local.into_iter().enumerate() {
            labels[(range.start + l as u64) as usize] = lab;
        }
    }
    labels
}

/// Number of distinct components in a label vector.
pub fn num_components(labels: &[u64]) -> usize {
    let mut sorted: Vec<u64> = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_core::config::EngineConfig;
    use cgraph_graph::EdgeList;

    #[test]
    fn two_components() {
        // chain 0->1->2 and directed pair 4->3 (weakly connected), 5 isolated
        let mut g: EdgeList = [(0u64, 1u64), (1, 2), (4, 3)].into_iter().collect();
        g.set_num_vertices(6);
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let labels = weakly_connected_components(&e);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(num_components(&labels), 3);
    }

    #[test]
    fn direction_ignored() {
        // 0 -> 1 <- 2: weakly one component despite no directed path
        // 0 -> 2.
        let g: EdgeList = [(0u64, 1u64), (2, 1)].into_iter().collect();
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let labels = weakly_connected_components(&e);
        assert_eq!(num_components(&labels), 1);
    }

    #[test]
    fn machine_count_invariant() {
        let g = cgraph_gen::graph500(7, 4, 33);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let l1 = weakly_connected_components(&DistributedEngine::new(&g, EngineConfig::new(1)));
        let l4 = weakly_connected_components(&DistributedEngine::new(&g, EngineConfig::new(4)));
        assert_eq!(l1, l4);
    }
}
