//! k-core decomposition as a partition-centric program.
//!
//! The coreness of a vertex is the largest k such that the vertex
//! belongs to a subgraph where every vertex has degree ≥ k. Core
//! decomposition is a classic "higher-level analysis" built from
//! neighbourhood information (the paper's §5 cites core decomposition
//! in large temporal graphs as adjacent work) and exercises a pattern
//! the traversal engines don't: *iterative peeling with monotone
//! decreasing values*.
//!
//! Implementation: the distributed Montresor et al. style algorithm.
//! Every vertex holds an upper bound on its coreness (initially its
//! undirected degree) and repeatedly lowers it to the largest k such
//! that at least k neighbours have bound ≥ k; every change is pushed
//! to neighbours. Fixed point = exact coreness.

use cgraph_core::engine::DistributedEngine;
use cgraph_core::pcm::{PartitionCtx, PartitionProgram};
use cgraph_graph::VertexId;
use std::collections::HashMap;

struct KCoreProgram {
    /// bound[local] — current coreness upper bound.
    bound: Vec<u32>,
    /// Last bound received from each in/out neighbour, per local vertex.
    neighbor_bounds: Vec<HashMap<VertexId, u32>>,
    base: VertexId,
    /// Undirected neighbour lists (out ∪ in), precomputed.
    neighbors: Vec<Vec<VertexId>>,
}

impl KCoreProgram {
    /// Largest k with ≥ k neighbours whose known bound is ≥ k.
    fn recompute(&self, l: usize) -> u32 {
        let degree = self.neighbors[l].len() as u32;
        let me = self.bound[l].min(degree);
        // Count, for each candidate k ≤ me, neighbours with bound ≥ k
        // via a histogram clip — O(deg).
        let mut hist = vec![0u32; me as usize + 1];
        for t in &self.neighbors[l] {
            let b = self.neighbor_bounds[l].get(t).copied().unwrap_or(u32::MAX).min(me);
            hist[b as usize] += 1;
        }
        let mut at_least = 0u32;
        for k in (1..=me).rev() {
            at_least += hist[k as usize];
            if at_least >= k {
                return k;
            }
        }
        0
    }

    fn pack(v: VertexId, bound: u32) -> u64 {
        debug_assert!(v < (1 << 32), "k-core message packing supports < 2^32 vertices");
        (v << 32) | bound as u64
    }

    fn unpack(word: u64) -> (VertexId, u32) {
        (word >> 32, (word & 0xFFFF_FFFF) as u32)
    }
}

impl PartitionProgram for KCoreProgram {
    type Out = Vec<u32>;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        self.base = ctx.shard().local_range().start;
        let n = ctx.shard().num_local();
        self.neighbors = ctx
            .local_vertices()
            .map(|v| {
                let mut ns = ctx.out_neighbors(v);
                ns.extend_from_slice(ctx.in_neighbors(v));
                ns.sort_unstable();
                ns.dedup();
                ns.retain(|&t| t != v);
                ns
            })
            .collect();
        self.bound = (0..n).map(|l| self.neighbors[l].len() as u32).collect();
        self.neighbor_bounds = vec![HashMap::new(); n];
        // Announce initial bounds to all neighbours.
        for l in 0..n {
            let v = self.base + l as VertexId;
            for &t in &self.neighbors[l].clone() {
                ctx.send_to(t, Self::pack(v, self.bound[l]));
            }
        }
    }

    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        // Record neighbour bound updates.
        let mut touched: Vec<usize> = Vec::new();
        for &(dst, word) in incoming {
            let (src, b) = Self::unpack(word);
            let l = (dst - self.base) as usize;
            let slot = self.neighbor_bounds[l].entry(src).or_insert(u32::MAX);
            if b < *slot {
                *slot = b;
                touched.push(l);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // Re-evaluate touched vertices; push changes.
        let mut sends: Vec<(VertexId, u64)> = Vec::new();
        for l in touched {
            let new = self.recompute(l);
            if new < self.bound[l] {
                self.bound[l] = new;
                let v = self.base + l as VertexId;
                for &t in &self.neighbors[l] {
                    sends.push((t, Self::pack(v, new)));
                }
            }
        }
        for (t, w) in sends {
            ctx.send_to(t, w);
        }
        ctx.vote_to_halt();
    }

    fn finish(self, _ctx: &PartitionCtx<'_>) -> Vec<u32> {
        self.bound
    }
}

/// Exact coreness of every vertex (over the undirected view of the
/// graph) at the engine's `graph_epoch()`, live overlay included.
pub fn kcore_decomposition(engine: &DistributedEngine) -> Vec<u32> {
    let outs = engine.run_program(|_| KCoreProgram {
        bound: Vec::new(),
        neighbor_bounds: Vec::new(),
        base: 0,
        neighbors: Vec::new(),
    });
    let mut core = vec![0u32; engine.num_vertices() as usize];
    for (i, local) in outs.into_iter().enumerate() {
        let range = engine.partition().range(i);
        for (l, c) in local.into_iter().enumerate() {
            core[(range.start + l as u64) as usize] = c;
        }
    }
    core
}

/// Reference sequential peeling (tests): repeatedly remove vertices of
/// minimum remaining degree.
pub fn kcore_reference(engine: &DistributedEngine) -> Vec<u32> {
    let n = engine.num_vertices() as usize;
    // Build undirected adjacency.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for shard in engine.shards() {
        for v in shard.local_range().iter() {
            for t in shard.out_neighbors(v) {
                if t != v {
                    adj[v as usize].push(t as usize);
                    adj[t as usize].push(v as usize);
                }
            }
        }
    }
    for l in adj.iter_mut() {
        l.sort_unstable();
        l.dedup();
    }
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    for k in 0.. {
        // Peel everything with degree ≤ k.
        let mut queue: Vec<usize> =
            order.iter().copied().filter(|&v| !removed[v] && degree[v] <= k).collect();
        if queue.is_empty() {
            if order.iter().all(|&v| removed[v]) {
                break;
            }
            continue;
        }
        while let Some(v) = queue.pop() {
            if removed[v] {
                continue;
            }
            removed[v] = true;
            core[v] = k as u32;
            for &t in &adj[v] {
                if !removed[t] {
                    degree[t] -= 1;
                    if degree[t] <= k {
                        queue.push(t);
                    }
                }
            }
        }
        order.retain(|&v| !removed[v]);
        if order.is_empty() {
            break;
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_core::config::EngineConfig;
    use cgraph_graph::EdgeList;

    #[test]
    fn triangle_plus_tail() {
        // Triangle 0-1-2 (core 2) with a tail 2-3 (vertex 3: core 1).
        let g: EdgeList = [(0u64, 1u64), (1, 2), (2, 0), (2, 3)].into_iter().collect();
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let core = kcore_decomposition(&e);
        assert_eq!(core, vec![2, 2, 2, 1]);
    }

    #[test]
    fn clique_core_is_n_minus_1() {
        let mut g = EdgeList::new();
        for i in 0..5u64 {
            for j in (i + 1)..5 {
                g.push_pair(i, j);
            }
        }
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let core = kcore_decomposition(&e);
        assert!(core.iter().all(|&c| c == 4), "{core:?}");
    }

    #[test]
    fn path_core_is_1() {
        let g: EdgeList = [(0u64, 1u64), (1, 2), (2, 3)].into_iter().collect();
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        assert!(kcore_decomposition(&e).iter().all(|&c| c == 1));
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let raw = cgraph_gen::graph500(8, 5, 19);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&raw);
        let g = b.build().edges;
        let e = DistributedEngine::new(&g, EngineConfig::new(3));
        assert_eq!(kcore_decomposition(&e), kcore_reference(&e));
    }

    #[test]
    fn machine_count_invariant() {
        let raw = cgraph_gen::erdos_renyi(100, 500, 3);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&raw);
        let g = b.build().edges;
        let c1 = kcore_decomposition(&DistributedEngine::new(&g, EngineConfig::new(1)));
        let c4 = kcore_decomposition(&DistributedEngine::new(&g, EngineConfig::new(4)));
        assert_eq!(c1, c4);
    }
}
