//! The reachability-index contract between the query path and the
//! index tier.
//!
//! `cgraph-index` (the builder crate) depends on `cgraph-core`, not
//! the other way round — this module is the inversion point: the
//! service and scheduler consume a [`ReachIndex`] through the traits
//! here. See `INDEXING.md` for the full design contract (construction
//! algorithm and epoch-invalidation protocol).
//!
//! [`ReachIndex::answer`] returns the exact `(visited, per_level)` a
//! traversal would compute, or `None` when the index cannot answer
//! exactly. Callers may substitute an index answer for a traversal
//! answer *only* when it is `Some`, so the two paths stay
//! bit-identical by construction.

use crate::engine::{DistributedEngine, EngineError};
use cgraph_graph::VertexId;
use std::sync::Arc;

/// Construction knobs for the reachability index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Hop budget of the per-source distance sketches. Clamped to
    /// `1..=`[`cgraph_graph::MAX_EXACT_LEVEL`] (the build BFS runs one
    /// hop past the budget to detect completion).
    pub hops: u32,
    /// Cap on indexed boundary sources; the highest-out-degree
    /// boundary vertices are kept. Bounds build time and resident
    /// sketch bytes on boundary-heavy partitionings.
    pub max_sources: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { hops: 16, max_sources: 1024 }
    }
}

impl IndexConfig {
    /// The effective hop budget: `hops` clamped to
    /// `1..=`[`cgraph_graph::MAX_EXACT_LEVEL`].
    pub fn effective_hops(&self) -> u32 {
        self.hops.clamp(1, cgraph_graph::MAX_EXACT_LEVEL)
    }
}

/// An exact index-only answer: the same shape
/// [`BatchResult`](crate::engine::BatchResult) reports per lane, with
/// `per_level` trimmed of trailing zero levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexAnswer {
    /// Distinct vertices reached (source included).
    pub visited: u64,
    /// Vertices first reached per hop; `per_level[0] == 1`.
    pub per_level: Vec<u64>,
}

/// An immutable reachability index over one graph epoch.
///
/// All methods are read-only and thread-safe; the service swaps whole
/// index values at commit fences (never edits one in place), exactly
/// like engine snapshots.
pub trait ReachIndex: Send + Sync {
    /// The graph epoch this index was built against. Consumers must
    /// fence: consult the index only when this equals the engine's
    /// current epoch.
    fn epoch(&self) -> u64;

    /// The exact `k`-hop answer for `source`, or `None` when the
    /// index cannot answer exactly (source not indexed, or `k`
    /// exceeds an incomplete sketch's horizon). A `Some` answer is
    /// bit-identical to what a traversal would return.
    fn answer(&self, source: VertexId, k: u32) -> Option<IndexAnswer>;

    /// Resident bytes of the sketches.
    fn size_bytes(&self) -> usize;

    /// Number of indexed sources.
    fn num_sources(&self) -> usize;
}

/// Builds a [`ReachIndex`] for an engine value. The service invokes
/// this at startup and inside every commit fence (and after graceful
/// degradation, which changes the partitioning), always on the
/// dispatcher thread — implementations may run traversals on the
/// engine but must not retain it.
pub trait IndexBuilder: Send + Sync {
    /// Builds an index for `engine`'s current epoch and partitioning.
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_hops() {
        assert_eq!(IndexConfig::default().effective_hops(), 16);
        assert_eq!(IndexConfig { hops: 0, max_sources: 1 }.effective_hops(), 1);
        assert_eq!(IndexConfig { hops: 400, max_sources: 1 }.effective_hops(), 62);
    }
}
