//! # cgraph-index — the reachability index tier
//!
//! Builds a reachability index over *boundary vertices* (the targets
//! of cross-partition edges) by reusing the batch traversal engine
//! itself: the highest-out-degree boundary vertices are packed into
//! MS-BFS lanes ([`DistributedEngine::run_traversal_batch`]) and one
//! bounded-hop sweep per chunk yields a [`LevelProfile`] per indexed
//! source — the exact per-level visit counts a traversal would report,
//! answering whole queries without traversing.
//!
//! The index is an immutable value versioned by `graph_epoch`; the
//! query service rebuilds it inside every mutation commit fence and
//! consults it only when its epoch matches the engine's (see
//! `INDEXING.md` for the design contract).
//!
//! An index-only answer is bit-identical to a traversal answer:
//!
//! ```
//! use cgraph_core::index_api::{IndexBuilder, IndexConfig, ReachIndex};
//! use cgraph_core::{DistributedEngine, EngineConfig};
//! use cgraph_graph::{Edge, EdgeList};
//! use cgraph_index::BoundaryIndexBuilder;
//!
//! // A 6-vertex path split over 2 machines; the cross-partition edge
//! // target is the (single) boundary vertex the index covers.
//! let mut edges = EdgeList::new();
//! for v in 0..5 {
//!     edges.push(Edge::unweighted(v, v + 1));
//! }
//! edges.set_num_vertices(6);
//! let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
//! let index = BoundaryIndexBuilder::new(IndexConfig::default()).build_tier(&engine).unwrap();
//!
//! let s = index.sources()[0];
//! let from_index = index.answer(s, 3).expect("complete sketch answers any k");
//! let from_traversal = engine.run_traversal_batch(&[s], &[3]).unwrap();
//! assert_eq!(from_index.visited, from_traversal.per_lane_visited[0]);
//! let column: Vec<u64> = from_traversal.per_level.iter().map(|row| row[0]).collect();
//! assert_eq!(from_index.per_level, column);
//! ```

#![warn(missing_docs)]

use cgraph_core::engine::{DistributedEngine, EngineError};
use cgraph_core::index_api::{IndexAnswer, IndexBuilder, IndexConfig, ReachIndex};
use cgraph_graph::{LevelProfile, VertexId, MAX_LANES};
use std::sync::Arc;

/// An immutable reachability index over one engine snapshot: one
/// distance sketch per indexed boundary source. Built by
/// [`BoundaryIndexBuilder`]; consumed through the [`ReachIndex`] trait
/// by the scheduler and the query service.
pub struct IndexTier {
    epoch: u64,
    hops: u32,
    /// Indexed sources, sorted ascending for binary-search lookup.
    sources: Vec<VertexId>,
    /// `profiles[i]` = the sketch of `sources[i]`.
    profiles: Vec<LevelProfile>,
}

impl IndexTier {
    /// The indexed sources, ascending. Benches and tests draw their
    /// hot-source query streams from here.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The sketch hop budget the index was built with.
    pub fn hops(&self) -> u32 {
        self.hops
    }
}

impl ReachIndex for IndexTier {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn answer(&self, source: VertexId, k: u32) -> Option<IndexAnswer> {
        let i = self.sources.binary_search(&source).ok()?;
        let (visited, per_level) = self.profiles[i].answer(k)?;
        Some(IndexAnswer { visited, per_level })
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sources.capacity() * std::mem::size_of::<VertexId>()
            + self.profiles.iter().map(LevelProfile::size_bytes).sum::<usize>()
    }

    fn num_sources(&self) -> usize {
        self.sources.len()
    }
}

/// Builds an [`IndexTier`] from an engine snapshot: ranks boundary
/// vertices by out-degree, caps them at
/// [`IndexConfig::max_sources`], and sweeps the survivors through the
/// batch-traversal path in [`MAX_LANES`]-wide chunks.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryIndexBuilder {
    config: IndexConfig,
}

impl BoundaryIndexBuilder {
    /// A builder with the given construction knobs.
    pub fn new(config: IndexConfig) -> Self {
        Self { config }
    }

    /// The construction knobs in force.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Builds the concrete index value for `engine`'s current epoch.
    ///
    /// Runs one bounded-hop batch per [`MAX_LANES`]-wide chunk of
    /// indexed sources; the sketch budget is
    /// [`IndexConfig::effective_hops`] and each build BFS runs one
    /// hop further to observe completion (a lane that gains nothing
    /// at `hops + 1` has drained — its sketch is the full BFS).
    pub fn build_tier(&self, engine: &DistributedEngine) -> Result<IndexTier, EngineError> {
        let hops = self.config.effective_hops();
        let horizon = hops as usize;

        // Rank boundary vertices by base out-degree, duplicates counted
        // (hubs first, ties by id), and keep the top `max_sources` as
        // indexed sources, stored ascending. The engine keeps one
        // degree array, rebuilt with the shards by a fold or a degrade.
        let mut boundary: Vec<VertexId> =
            engine.shards().iter().flat_map(|s| s.boundary_vertices().iter().copied()).collect();
        boundary.sort_unstable();
        boundary.dedup();
        let mut ranked: Vec<(u32, VertexId)> =
            boundary.into_iter().map(|v| (engine.out_degree(v), v)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(self.config.max_sources);
        let mut sources: Vec<VertexId> = ranked.iter().map(|&(_, v)| v).collect();
        sources.sort_unstable();

        let mut profiles: Vec<LevelProfile> = Vec::with_capacity(sources.len());
        for chunk in sources.chunks(MAX_LANES) {
            // One hop past the budget: completion detection (above).
            let ks = vec![hops + 1; chunk.len()];
            let batch = engine.run_traversal_batch(chunk, &ks)?;
            for lane in 0..chunk.len() {
                let mut levels: Vec<u64> = batch.per_level.iter().map(|row| row[lane]).collect();
                let complete = levels.get(horizon + 1).is_none_or(|&gain| gain == 0);
                levels.truncate(horizon + 1);
                if complete {
                    while levels.len() > 1 && levels.last() == Some(&0) {
                        levels.pop();
                    }
                }
                profiles.push(LevelProfile::new(levels, complete));
            }
        }
        Ok(IndexTier { epoch: engine.graph_epoch(), hops, sources, profiles })
    }
}

impl IndexBuilder for BoundaryIndexBuilder {
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError> {
        Ok(Arc::new(self.build_tier(engine)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_core::EngineConfig;
    use cgraph_gen::rmat::{rmat, RmatParams};
    use cgraph_graph::{Edge, EdgeList};

    fn path_engine(n: u64, p: usize) -> DistributedEngine {
        let mut edges = EdgeList::new();
        for v in 0..n - 1 {
            edges.push(Edge::unweighted(v, v + 1));
        }
        edges.set_num_vertices(n);
        DistributedEngine::new(&edges, EngineConfig::new(p))
    }

    #[test]
    fn index_answers_match_traversal_on_path() {
        let engine = path_engine(24, 3);
        let tier = BoundaryIndexBuilder::new(IndexConfig::default()).build_tier(&engine).unwrap();
        assert!(tier.num_sources() > 0, "a 3-way path split has boundary vertices");
        for &s in tier.sources() {
            for k in [0u32, 1, 3, 16, u32::MAX] {
                let br = engine.run_traversal_batch(&[s], &[k]).unwrap();
                let column: Vec<u64> = br.per_level.iter().map(|r| r[0]).collect();
                if let Some(ans) = tier.answer(s, k) {
                    assert_eq!(ans.visited, br.per_lane_visited[0], "s={s} k={k}");
                    assert_eq!(ans.per_level, column, "s={s} k={k}");
                }
            }
        }
    }

    #[test]
    fn incomplete_sketches_refuse_deep_answers() {
        // hops=2 on a 24-vertex path: early boundary vertices reach
        // far past the budget, so their sketches are incomplete.
        let engine = path_engine(24, 3);
        let cfg = IndexConfig { hops: 2, max_sources: 1024 };
        let tier = BoundaryIndexBuilder::new(cfg).build_tier(&engine).unwrap();
        let deep = tier
            .sources()
            .iter()
            .find(|&&s| s + 10 < 24)
            .copied()
            .expect("some boundary vertex sits well before the path end");
        // Within the budget: exact and equal to traversal.
        let ans = tier.answer(deep, 2).expect("k within budget is exact");
        let br = engine.run_traversal_batch(&[deep], &[2]).unwrap();
        assert_eq!(ans.visited, br.per_lane_visited[0]);
        // Beyond the budget on an incomplete sketch: refused.
        assert_eq!(tier.answer(deep, 10), None);
    }

    #[test]
    fn answers_match_traversal_on_rmat() {
        let edges = rmat(9, 512 * 6, RmatParams::GRAPH500, 0xC0FFEE);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(4));
        let tier = BoundaryIndexBuilder::new(IndexConfig { hops: 8, max_sources: 64 })
            .build_tier(&engine)
            .unwrap();
        assert!(tier.num_sources() > 0);
        assert!(tier.size_bytes() > 0);
        for &s in tier.sources().iter().take(16) {
            for k in [1u32, 4, 8] {
                let ans = tier.answer(s, k).expect("k within budget is exact");
                let br = engine.run_traversal_batch(&[s], &[k]).unwrap();
                let column: Vec<u64> = br.per_level.iter().map(|r| r[0]).collect();
                assert_eq!(ans.visited, br.per_lane_visited[0], "s={s} k={k}");
                assert_eq!(ans.per_level, column, "s={s} k={k}");
            }
        }
    }

    #[test]
    fn empty_boundary_yields_empty_index() {
        // p=1: no cross-partition edges, no boundary, no sources.
        let engine = path_engine(8, 1);
        let tier = BoundaryIndexBuilder::new(IndexConfig::default()).build_tier(&engine).unwrap();
        assert_eq!(tier.num_sources(), 0);
        assert_eq!(tier.answer(3, 2), None);
    }

    #[test]
    fn indexed_scheduler_is_bit_identical_to_plain() {
        use cgraph_core::{KhopQuery, QueryScheduler, SchedulerConfig};
        let mut edges = EdgeList::new();
        for v in 0..40u64 {
            edges.push(Edge::unweighted(v, (v + 1) % 40));
        }
        edges.set_num_vertices(40);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(4));
        let index = BoundaryIndexBuilder::new(IndexConfig::default()).build(&engine).unwrap();
        // Sources include every boundary vertex (indexed, fast-pathed)
        // plus interior ones (batched).
        let queries: Vec<KhopQuery> =
            (0..20).map(|i| KhopQuery::single(i, (i as u64 * 2) % 40, 5)).collect();
        let plain = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);
        let fast = QueryScheduler::new(&engine, SchedulerConfig::default())
            .with_index(index)
            .execute(&queries);
        for (a, b) in plain.iter().zip(&fast) {
            assert_eq!(a.visited, b.visited, "query {}", a.id);
            assert_eq!(a.per_level, b.per_level, "query {}", a.id);
        }
    }

    #[test]
    fn sources_rank_by_base_out_degree_before_and_after_a_fold() {
        use cgraph_graph::EdgeUpdate;
        // Reference: each boundary vertex's out-edges collected from its
        // owner's tiles, as the ranking was first computed.
        let reference = |engine: &DistributedEngine, max_sources: usize| {
            let mut boundary: Vec<VertexId> = engine
                .shards()
                .iter()
                .flat_map(|s| s.boundary_vertices().iter().copied())
                .collect();
            boundary.sort_unstable();
            boundary.dedup();
            let mut ranked: Vec<(usize, VertexId)> = boundary
                .into_iter()
                .map(|v| {
                    let owner = engine.partition().owner(v);
                    (engine.shards()[owner].out_neighbors_weighted(v).len(), v)
                })
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            ranked.truncate(max_sources);
            let mut sources: Vec<VertexId> = ranked.into_iter().map(|(_, v)| v).collect();
            sources.sort_unstable();
            sources
        };
        // R-MAT keeps duplicate edges and has many vertices of equal
        // degree, so the cut at `max_sources` falls inside a tie.
        let edges = rmat(9, 512 * 4, RmatParams::GRAPH500, 0xD1CE);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
        let cfg = IndexConfig { hops: 2, max_sources: 24 };
        let check = |engine: &DistributedEngine| {
            let degree = |v: VertexId| {
                engine.shards()[engine.partition().owner(v)].out_neighbors_weighted(v).len()
            };
            let want = reference(engine, cfg.max_sources);
            let cut = want.iter().map(|&v| degree(v)).min().unwrap();
            let tied_outside = engine
                .shards()
                .iter()
                .flat_map(|s| s.boundary_vertices())
                .any(|&v| !want.contains(&v) && degree(v) == cut);
            assert!(tied_outside, "the cut falls inside a degree tie");
            let tier = BoundaryIndexBuilder::new(cfg).build_tier(engine).unwrap();
            assert_eq!(tier.sources(), want);
        };
        check(&engine);
        // Deletes and inserts through the hubs, folded into fresh
        // shards: the degrees the ranking reads move with them.
        let hubs = reference(&engine, 4);
        let mut updates: Vec<EdgeUpdate> = Vec::new();
        for &h in &hubs {
            let out = engine.shards()[engine.partition().owner(h)].out_neighbors(h);
            updates.extend(out.iter().take(3).map(|&t| EdgeUpdate::delete(h, t)));
            updates.extend((0..5).map(|i| EdgeUpdate::insert((h * 7 + i) % 512, h)));
        }
        let (folded, did_fold) = engine.with_updates(&updates, 0);
        assert!(did_fold);
        check(&folded);
    }

    #[test]
    fn max_sources_caps_the_sketch_set() {
        let engine = path_engine(40, 4);
        let tier = BoundaryIndexBuilder::new(IndexConfig { hops: 4, max_sources: 2 })
            .build_tier(&engine)
            .unwrap();
        assert_eq!(tier.num_sources(), 2, "a 4-way path split has more than 2 boundary vertices");
    }
}
