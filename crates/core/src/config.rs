//! Engine configuration.

use cgraph_comm::NetModel;
use cgraph_graph::ConsolidationPolicy;

/// Synchronous (superstep/barrier) or asynchronous (free-running with
/// termination detection) update model — §3.3 supports both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UpdateMode {
    /// Bulk-synchronous supersteps; visited state synchronised after
    /// each iteration (Fig. 5).
    #[default]
    Sync,
    /// Asynchronous delivery: boundary-vertex updates applied on
    /// arrival, termination by quiescence detection.
    Async,
}

/// Configuration of a [`crate::DistributedEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of simulated machines (= partitions).
    pub num_machines: usize,
    /// Update model.
    pub mode: UpdateMode,
    /// Edge-set tiling policy for shard construction.
    pub edge_set_policy: ConsolidationPolicy,
    /// Interconnect cost model for traffic accounting.
    pub net_model: NetModel,
}

impl EngineConfig {
    /// A sensible default for `p` machines: sync mode, default tiling,
    /// 10 GbE-like accounting.
    pub fn new(num_machines: usize) -> Self {
        Self {
            num_machines,
            mode: UpdateMode::Sync,
            edge_set_policy: ConsolidationPolicy::default(),
            net_model: NetModel::TEN_GBE,
        }
    }

    /// Switches to async mode.
    pub fn asynchronous(mut self) -> Self {
        self.mode = UpdateMode::Async;
        self
    }

    /// Overrides the edge-set policy.
    pub fn with_edge_set_policy(mut self, policy: ConsolidationPolicy) -> Self {
        self.edge_set_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c =
            EngineConfig::new(4).asynchronous().with_edge_set_policy(ConsolidationPolicy::flat());
        assert_eq!(c.num_machines, 4);
        assert_eq!(c.mode, UpdateMode::Async);
        assert_eq!(c.edge_set_policy.target_edges_per_set, usize::MAX);
    }
}
