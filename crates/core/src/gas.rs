//! The Gather-Apply-Scatter interface of Listing 3 (§3.4).
//!
//! "The Update function is an implementation of the Gather-Apply-
//! Scatter (GAS) model by providing a vertex-programming interface."
//! [`GasProgram`] runs one on the engine's BSP driver, over the engine
//! value's view (the graph of its epoch): the gather reads the view's
//! CSC of the local vertices' in-edges only ("our implementation
//! does not generate additional traffic in the gather phase since all
//! edges of a vertex are local"); local scatter values are sent to the
//! other partitions once per gather, the *local read* sync of §3.3.

use crate::pcm::{PartitionCtx, PartitionProgram};
use cgraph_graph::VertexId;

/// A vertex program in the GAS model over `f64` vertex values.
pub trait Gas: Sync {
    /// Initial vertex value.
    fn init(&self, v: VertexId, num_vertices: u64) -> f64;

    /// Gather: folds one in-neighbour's scattered value into the
    /// running sum (Listing 3: `sum += v.val`).
    fn gather(&self, sum: f64, neighbor_scatter: f64, edge_weight: f32) -> f64;

    /// Apply: consumes the final gathered sum and produces the new
    /// vertex value (Listing 3: `v.val = 0.15 + 0.85 * sum`).
    fn apply(&self, v: VertexId, sum: f64) -> f64;

    /// Scatter: the value this vertex contributes along each out-edge
    /// (Listing 3: `v.val / v.outdegree`).
    fn scatter(&self, v: VertexId, value: f64, out_degree: u32) -> f64;
}

/// PageRank exactly as Listing 3 writes it.
///
/// ```text
/// def Gather(v, sum)  sum += v.val
/// def Apply(v, sum)   v.val = 0.15 + 0.85 * sum
/// def Scatter(v)      v.val / v.outdegree
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 in the paper).
    pub damping: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        Self { damping: 0.85 }
    }
}

impl Gas for PageRank {
    fn init(&self, _v: VertexId, _n: u64) -> f64 {
        1.0
    }

    fn gather(&self, sum: f64, neighbor_scatter: f64, _w: f32) -> f64 {
        sum + neighbor_scatter
    }

    fn apply(&self, _v: VertexId, sum: f64) -> f64 {
        (1.0 - self.damping) + self.damping * sum
    }

    fn scatter(&self, _v: VertexId, value: f64, out_degree: u32) -> f64 {
        if out_degree == 0 {
            0.0
        } else {
            value / out_degree as f64
        }
    }
}

/// Weighted label/heat diffusion: value spreads along edge weights.
/// A second GAS program exercising the `edge_weight` path (SDN-style
/// distance-weighted influence of the paper's introduction).
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedDiffusion;

impl Gas for WeightedDiffusion {
    fn init(&self, v: VertexId, _n: u64) -> f64 {
        // Unit heat at vertex 0, cold elsewhere.
        if v == 0 {
            1.0
        } else {
            0.0
        }
    }

    fn gather(&self, sum: f64, neighbor_scatter: f64, w: f32) -> f64 {
        sum + neighbor_scatter * w as f64
    }

    fn apply(&self, _v: VertexId, sum: f64) -> f64 {
        sum
    }

    fn scatter(&self, _v: VertexId, value: f64, out_degree: u32) -> f64 {
        if out_degree == 0 {
            0.0
        } else {
            value / out_degree as f64
        }
    }
}

/// Listing 3's `Update` on Listing 1's API, one superstep per
/// iteration: write the scatter values peers shared, gather each local
/// vertex's in-edges in the CSC's order (sources ascending), apply, and
/// share again — but not after the last iteration, which no gather
/// reads. Outputs the local values in vertex order.
pub struct GasProgram<'g, G> {
    gas: &'g G,
    iterations: u32,
    base: VertexId,
    values: Vec<f64>,
    /// Scatter value of every vertex, from the last share.
    scatter: Vec<f64>,
}

impl<'g, G: Gas> GasProgram<'g, G> {
    /// `iterations` rounds of `gas`; give every partition the same.
    pub fn new(gas: &'g G, iterations: u32) -> Self {
        Self { gas, iterations, base: 0, values: Vec::new(), scatter: Vec::new() }
    }

    /// Shares the local scatter values with every peer for the next
    /// gather, or votes to halt after the last iteration.
    fn share_or_halt(&mut self, ctx: &mut PartitionCtx<'_>) {
        if ctx.superstep() >= u64::from(self.iterations) {
            ctx.vote_to_halt();
            return;
        }
        let base = self.base;
        let local = &mut self.scatter[base as usize..][..self.values.len()];
        for ((scatter, &value), v) in local.iter_mut().zip(&self.values).zip(base..) {
            *scatter = self.gas.scatter(v, value, ctx.out_degree(v));
        }
        let me = ctx.partition_id();
        for m in (0..ctx.num_partitions()).filter(|&m| m != me) {
            let shared = local.iter().zip(base..).map(|(scatter, v)| (v, scatter.to_bits()));
            ctx.send_to_partition(m, shared);
        }
    }
}

impl<G: Gas> PartitionProgram for GasProgram<'_, G> {
    type Out = Vec<f64>;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        let n = ctx.num_all_vertices();
        self.base = ctx.shard().local_range().start;
        self.values = ctx.local_vertices().map(|v| self.gas.init(v, n)).collect();
        self.scatter = vec![0.0; n as usize];
        self.share_or_halt(ctx);
    }

    /// Gather + apply over the local vertices, sequential per machine:
    /// the machine thread *is* the processing unit, which keeps
    /// per-thread CPU accounting exact.
    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        for &(u, bits) in incoming {
            self.scatter[u as usize] = f64::from_bits(bits);
        }
        let (gas, scatter, in_edges) = (self.gas, &self.scatter, ctx.in_edges());
        for (value, v) in self.values.iter_mut().zip(self.base..) {
            let sum = in_edges
                .in_neighbors_weighted(v)
                .fold(0.0, |sum, (u, w)| gas.gather(sum, scatter[u as usize], w));
            *value = gas.apply(v, sum);
        }
        self.share_or_halt(ctx);
    }

    fn finish(self, _ctx: &PartitionCtx<'_>) -> Vec<f64> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_matches_listing3() {
        let pr = PageRank::default();
        assert_eq!(pr.init(3, 100), 1.0);
        assert_eq!(pr.gather(1.0, 0.5, 1.0), 1.5);
        assert!((pr.apply(0, 1.0) - 1.0).abs() < 1e-12);
        assert!((pr.apply(0, 0.0) - 0.15).abs() < 1e-12);
        assert_eq!(pr.scatter(0, 2.0, 4), 0.5);
        assert_eq!(pr.scatter(0, 2.0, 0), 0.0, "dangling vertex scatters nothing");
    }

    #[test]
    fn diffusion_weights_edges() {
        let d = WeightedDiffusion;
        assert_eq!(d.init(0, 10), 1.0);
        assert_eq!(d.init(5, 10), 0.0);
        assert_eq!(d.gather(0.0, 2.0, 0.5), 1.0);
    }
}
