//! The concurrent-query front end (§3.3, §3.5).
//!
//! "Concurrent queries can be executed individually in request order,
//! or processed in batches to enable subgraph sharing among queries."
//! [`QueryScheduler`] implements both policies:
//!
//! * **Shared** (the C-Graph way): queries are exploded into their
//!   traversals, packed into lane batches up to [`MAX_LANES`] wide
//!   ("a fixed number of
//!   concurrent queries are decided based on hardware parameters"), and
//!   each batch runs as one bit-frontier pass over the shared edge-set
//!   scans at the narrowest width `W ∈ {64, 128, 256, 512}` that fits
//!   the lane count.
//! * **Serial** (the baseline way): one traversal at a time, in request
//!   order — what Gemini-style engines are reduced to.
//!
//! The scheduler enforces a memory budget: the per-batch bit state
//! costs `(W/8) bytes × (2 × |V_local| + slots)` per machine, where
//! `slots = |V_local| + |boundary|` — it scales linearly with the
//! batch width `W` — so when a budget is set, the
//! width steps down `512 → 256 → 128 → 64` (then lanes shrink below
//! one word) until the batch fits ("the slowdown of the framework is
//! mainly caused by resource limits, especially due to the large
//! memory footprint required for concurrent queries", §4.2).
//!
//! Response time of a query = queue wait until its batch starts + batch
//! execution — the quantity Figs. 7–13 measure; a query spanning
//! several traversals reports the mean over them (the paper's §4.2
//! methodology: "the average response time for a query is calculated
//! from the 10 subgraph traversals of each query").

use crate::engine::DistributedEngine;
use crate::index_api::ReachIndex;
use crate::query::{KhopQuery, QueryResult};
use cgraph_graph::bitmap::LANES;
use cgraph_graph::{LaneWidth, MAX_LANES};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduling policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Max lanes per batch (≤ [`MAX_LANES`]; rounded up to a supported
    /// batch width `W ∈ {64, 128, 256, 512}` at execution time).
    pub batch_lanes: usize,
    /// Enable subgraph sharing (batched bit traversal). When false,
    /// traversals run one by one — the ablation A2 baseline.
    pub share_subgraphs: bool,
    /// Optional cap on per-machine traversal-state bytes; shrinks the
    /// lane width when the default batch would not fit.
    pub memory_budget_bytes: Option<usize>,
    /// Account response times in *simulated cluster time* (straggler
    /// machine busy time + simulated network time) instead of wall
    /// clock. Required for machine-scaling experiments on hosts with
    /// fewer cores than simulated machines, where wall clock cannot
    /// reflect cluster parallelism.
    pub use_sim_time: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            batch_lanes: LANES,
            share_subgraphs: true,
            memory_budget_bytes: None,
            use_sim_time: false,
        }
    }
}

impl SchedulerConfig {
    /// The serial (no sharing) policy.
    pub fn serial() -> Self {
        Self { share_subgraphs: false, ..Default::default() }
    }
}

/// Schedules concurrent k-hop queries onto a [`DistributedEngine`].
///
/// ```
/// use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery,
///                   QueryScheduler, SchedulerConfig};
/// let edges: cgraph_graph::EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
/// let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
/// let queries = vec![KhopQuery::single(0, 0, 3), KhopQuery::single(1, 10, 2)];
/// let results = QueryScheduler::new(&engine, SchedulerConfig::default())
///     .execute(&queries);
/// assert_eq!(results[0].visited, 4); // ring: k hops reach k + 1 vertices
/// assert_eq!(results[1].visited, 3);
/// ```
pub struct QueryScheduler<'e> {
    engine: &'e DistributedEngine,
    config: SchedulerConfig,
    index: Option<Arc<dyn ReachIndex>>,
}

impl<'e> QueryScheduler<'e> {
    /// Creates a scheduler over `engine`.
    pub fn new(engine: &'e DistributedEngine, config: SchedulerConfig) -> Self {
        Self { engine, config, index: None }
    }

    /// Attaches a reachability index (see `INDEXING.md`).
    ///
    /// [`execute`](Self::execute) consults the index only while its
    /// [`epoch`](ReachIndex::epoch) matches the engine's — a stale
    /// index is ignored entirely. A traversal whose `(source, k)` the
    /// index covers exactly ([`ReachIndex::answer`]) never enters a
    /// batch: its visited count and level profile come straight from
    /// the distance sketch, bit-identical to what the traversal would
    /// have produced.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cgraph_core::index_api::{IndexConfig, ReachIndex};
    /// use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery,
    ///                   QueryScheduler, SchedulerConfig};
    /// use cgraph_index::BoundaryIndexBuilder;
    ///
    /// let edges: cgraph_graph::EdgeList = (0..6u64).map(|v| (v, v + 1)).take(5).collect();
    /// let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    /// let index = BoundaryIndexBuilder::new(IndexConfig::default()).build_tier(&engine).unwrap();
    ///
    /// let s = index.sources()[0]; // the boundary vertex
    /// assert!(index.answer(s, 2).is_some());
    /// let queries = vec![KhopQuery::single(0, s, 2), KhopQuery::single(1, 0, 3)];
    /// let plain = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);
    /// let fast = QueryScheduler::new(&engine, SchedulerConfig::default())
    ///     .with_index(Arc::new(index))
    ///     .execute(&queries);
    /// for (a, b) in plain.iter().zip(&fast) {
    ///     assert_eq!(a.visited, b.visited);       // bit-identical answers,
    ///     assert_eq!(a.per_level, b.per_level);   // indexed or not
    /// }
    /// ```
    pub fn with_index(mut self, index: Arc<dyn ReachIndex>) -> Self {
        self.index = Some(index);
        self
    }

    /// Lanes per batch after applying the memory budget.
    ///
    /// The per-machine bit state is three lane matrices of `W/64` words
    /// a row — `frontier` and `visited` with one row per local vertex,
    /// `next` with one row per [slot](crate::shard::Shard::num_slots)
    /// (local vertices plus the shard's boundary) — so it scales
    /// **linearly with the batch width `W`**. Under a budget, the
    /// width steps down through the supported set `512 → 256 → 128 →
    /// 64` until the three matrices fit; if even the single-word
    /// footprint exceeds the budget, the lane count degrades
    /// proportionally below 64 (≥ 1 lane).
    pub fn effective_lanes(&self) -> usize {
        if !self.config.share_subgraphs {
            return 1;
        }
        let want = self.config.batch_lanes.clamp(1, MAX_LANES);
        match self.config.memory_budget_bytes {
            None => want,
            Some(budget) => {
                // A live delta overlay is resident on every machine's
                // scan path, so the straggler's overlay bytes come off
                // the same per-machine budget as the batch bit state.
                let delta = self.engine.max_delta_bytes();
                let mut width = LaneWidth::for_lanes(want);
                while self.bit_state_bytes(width) + delta > budget {
                    match width.narrower() {
                        Some(w) => width = w,
                        None => break,
                    }
                }
                let bytes = self.bit_state_bytes(width);
                if bytes + delta <= budget {
                    want.min(width.bits())
                } else {
                    // Budget below even the one-word cost (`width` is
                    // W = 64 here): degrade to the fraction of the word
                    // that fits, ≥ 1 lane.
                    ((want.min(LANES) * budget.saturating_sub(delta)) / bytes.max(1)).max(1)
                }
            }
        }
    }

    /// Executes `queries` "issued simultaneously": all are considered
    /// submitted at call time, so response times include queue wait.
    ///
    /// # Panics
    ///
    /// Every query source must lie inside the engine's vertex range;
    /// an out-of-range source panics (the streaming
    /// [`QueryService`](crate::service::QueryService) validates at
    /// admission instead).
    pub fn execute(&self, queries: &[KhopQuery]) -> Vec<QueryResult> {
        // Explode queries into (query index, source) traversals,
        // preserving request order.
        let mut traversals: Vec<(usize, u64, u32)> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for &s in &q.sources {
                traversals.push((qi, s, q.k));
            }
        }
        let lanes = self.effective_lanes();
        let submit = Instant::now();
        // Simulated clock: advances by each batch's simulated duration.
        let mut sim_clock = Duration::ZERO;

        // Per-traversal (response, exec, visited, levels)
        let mut t_resp: Vec<Duration> = vec![Duration::ZERO; traversals.len()];
        let mut t_exec: Vec<Duration> = vec![Duration::ZERO; traversals.len()];
        let mut t_visited: Vec<u64> = vec![0; traversals.len()];
        let mut t_levels: Vec<Vec<u64>> = vec![Vec::new(); traversals.len()];

        // Index fast path: a current-epoch index answers covered
        // (source, k) pairs without traversing; only the rest batch.
        let index = self.index.as_deref().filter(|ix| ix.epoch() == self.engine.graph_epoch());
        let mut pending: Vec<usize> = Vec::with_capacity(traversals.len());
        for (i, &(_, s, k)) in traversals.iter().enumerate() {
            match index.and_then(|ix| ix.answer(s, k)) {
                Some(ans) => {
                    t_visited[i] = ans.visited;
                    t_levels[i] = ans.per_level;
                    // Answered before any batch runs: response is the
                    // (near-zero) lookup latency, zero in sim time.
                    t_resp[i] =
                        if self.config.use_sim_time { Duration::ZERO } else { submit.elapsed() };
                }
                None => pending.push(i),
            }
        }

        for chunk in pending.chunks(lanes) {
            let sources: Vec<u64> = chunk.iter().map(|&i| traversals[i].1).collect();
            let ks: Vec<u32> = chunk.iter().map(|&i| traversals[i].2).collect();
            // Precondition: query sources lie inside the vertex range
            // and chunks respect MAX_LANES, so shape errors are bugs; so
            // is a machine panic, which the one-shot cluster returns.
            let br = self
                .engine
                .run_traversal_batch(&sources, &ks)
                .expect("a shape-valid batch fails only when a machine panics");
            let (batch_dur, batch_end) = if self.config.use_sim_time {
                let d = br.sim_exec_time();
                sim_clock += d;
                (d, sim_clock)
            } else {
                (br.exec_time, submit.elapsed())
            };
            // Within the batch, a lane finishes after a fraction of the
            // batch given by its completion point on machine 0's clock.
            let frac = |lane: usize| {
                let done = br.lane_completion[lane].min(br.exec_time);
                if br.exec_time.is_zero() {
                    1.0
                } else {
                    done.as_secs_f64() / br.exec_time.as_secs_f64()
                }
            };
            for (lane, &ti) in chunk.iter().enumerate() {
                // A traversal completes when its lane goes quiet; its
                // response spans from submission to that moment.
                let lane_done = batch_dur.mul_f64(frac(lane));
                t_resp[ti] = batch_end - (batch_dur - lane_done);
                t_exec[ti] = lane_done;
                t_visited[ti] = br.per_lane_visited[lane];
                t_levels[ti] = br.per_level.iter().map(|row| row[lane]).collect();
            }
        }

        // Fold traversals back into per-query results (one linear pass
        // to group traversal indices by query).
        let mut per_query_idxs: Vec<Vec<usize>> = vec![Vec::new(); queries.len()];
        for (i, t) in traversals.iter().enumerate() {
            per_query_idxs[t.0].push(i);
        }
        queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let idxs = std::mem::take(&mut per_query_idxs[qi]);
                let n = idxs.len() as u32;
                let response_time = idxs.iter().map(|&i| t_resp[i]).sum::<Duration>() / n.max(1);
                let exec_time = idxs.iter().map(|&i| t_exec[i]).sum::<Duration>() / n.max(1);
                let visited = idxs.iter().map(|&i| t_visited[i]).sum::<u64>();
                let levels = idxs.iter().map(|&i| t_levels[i].len()).max().unwrap_or(0);
                let mut per_level = vec![0u64; levels];
                for &i in &idxs {
                    for (h, &c) in t_levels[i].iter().enumerate() {
                        per_level[h] += c;
                    }
                }
                // Canonical level profile: a batched lane is padded to
                // its batch's depth (which depends on packing) while an
                // index answer is already trimmed — drop trailing
                // zeros so results are composition-invariant.
                while per_level.last() == Some(&0) {
                    per_level.pop();
                }
                QueryResult {
                    id: q.id,
                    visited,
                    per_level,
                    response_time,
                    exec_time,
                    epoch: self.engine.graph_epoch(),
                }
            })
            .collect()
    }

    /// Per-machine bytes of one batch's bit state at the effective
    /// lane width (reported by the memory ablation).
    pub fn batch_state_bytes(&self) -> usize {
        self.bit_state_bytes(LaneWidth::for_lanes(self.effective_lanes()))
    }

    /// Bit-state bytes of one batch at `width` on the costliest shard:
    /// `8 × words × (2 × num_local + num_slots)` for the three matrices
    /// plus the scan's `4 × num_local` live-row list
    /// ([`BitFrontier::size_bytes`](crate::bitfrontier::BitFrontier::size_bytes)).
    fn bit_state_bytes(&self, width: LaneWidth) -> usize {
        self.engine
            .shards()
            .iter()
            .map(|s| 8 * width.words() * (2 * s.num_local() + s.num_slots()) + 4 * s.num_local())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use cgraph_graph::EdgeList;

    fn ring_engine(n: u64, p: usize) -> DistributedEngine {
        let g: EdgeList = (0..n).map(|v| (v, (v + 1) % n)).collect();
        DistributedEngine::new(&g, EngineConfig::new(p))
    }

    #[test]
    fn shared_and_serial_agree_on_results() {
        let e = ring_engine(40, 3);
        let queries: Vec<KhopQuery> =
            (0..10).map(|i| KhopQuery::single(i, (i * 4) as u64, 3)).collect();
        let shared = QueryScheduler::new(&e, SchedulerConfig::default()).execute(&queries);
        let serial = QueryScheduler::new(&e, SchedulerConfig::serial()).execute(&queries);
        for (a, b) in shared.iter().zip(&serial) {
            assert_eq!(a.visited, b.visited);
            assert_eq!(a.per_level, b.per_level);
        }
    }

    #[test]
    fn ring_khop_counts() {
        let e = ring_engine(40, 2);
        let queries = vec![KhopQuery::single(7, 0, 5)];
        let r = QueryScheduler::new(&e, SchedulerConfig::default()).execute(&queries);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, 7);
        assert_eq!(r[0].visited, 6);
        assert_eq!(r[0].per_level, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn multi_source_query_sums_traversals() {
        let e = ring_engine(40, 2);
        let queries = vec![KhopQuery::multi(0, vec![0, 20], 2)];
        let r = QueryScheduler::new(&e, SchedulerConfig::default()).execute(&queries);
        assert_eq!(r[0].visited, 6); // two independent 3-vertex traversals
    }

    #[test]
    fn more_queries_than_lanes() {
        let e = ring_engine(256, 2);
        let queries: Vec<KhopQuery> =
            (0..100).map(|i| KhopQuery::single(i, (i * 2) as u64, 2)).collect();
        let r = QueryScheduler::new(&e, SchedulerConfig::default()).execute(&queries);
        assert_eq!(r.len(), 100);
        assert!(r.iter().all(|q| q.visited == 3));
        // Later queries waited for earlier batches: response times are
        // monotonically non-decreasing across batch boundaries.
        assert!(r[99].response_time >= r[0].exec_time);
    }

    #[test]
    fn memory_budget_narrows_lanes() {
        let e = ring_engine(1000, 2);
        let full = QueryScheduler::new(&e, SchedulerConfig::default());
        assert_eq!(full.effective_lanes(), 64);
        let tight = QueryScheduler::new(
            &e,
            SchedulerConfig {
                memory_budget_bytes: Some(full.batch_state_bytes() / 4),
                ..Default::default()
            },
        );
        let lanes = tight.effective_lanes();
        assert!((1..64).contains(&lanes), "lanes = {lanes}");
    }

    #[test]
    fn wide_batches_pack_beyond_64_lanes() {
        let e = ring_engine(600, 2);
        let wide =
            QueryScheduler::new(&e, SchedulerConfig { batch_lanes: 256, ..Default::default() });
        assert_eq!(wide.effective_lanes(), 256);
        // 150 queries fit one 256-lane batch: every lane runs together.
        let queries: Vec<KhopQuery> =
            (0..150).map(|i| KhopQuery::single(i, (i * 4) as u64, 2)).collect();
        let r = wide.execute(&queries);
        assert_eq!(r.len(), 150);
        assert!(r.iter().all(|q| q.visited == 3));
    }

    #[test]
    fn memory_budget_steps_width_down() {
        // Each shard: 500 local vertices and one boundary vertex, so
        // `next` has 501 rows; the scan's live-row list is 4 bytes per
        // local vertex at any width. Footprint at `words` per row:
        let e = ring_engine(1000, 2);
        let bytes = |words: usize| 8 * words * (2 * 500 + 501) + 4 * 500;
        assert_eq!(bytes(1), crate::bitfrontier::BitFrontier::new(&e.shards()[0], 64).size_bytes());
        assert_eq!(
            bytes(4),
            crate::bitfrontier::BitFrontier::new(&e.shards()[0], 256).size_bytes()
        );
        // Budget fits two words: 256 requested lanes narrow to 128.
        let s = QueryScheduler::new(
            &e,
            SchedulerConfig {
                batch_lanes: 256,
                memory_budget_bytes: Some(bytes(2)),
                ..Default::default()
            },
        );
        assert_eq!(s.effective_lanes(), 128);
        assert_eq!(s.batch_state_bytes(), bytes(2));
        // Budget fits four words: the full 256 lanes stay.
        let s = QueryScheduler::new(
            &e,
            SchedulerConfig {
                batch_lanes: 256,
                memory_budget_bytes: Some(bytes(4)),
                ..Default::default()
            },
        );
        assert_eq!(s.effective_lanes(), 256);
    }

    #[test]
    fn serial_mode_uses_one_lane() {
        let e = ring_engine(10, 1);
        let s = QueryScheduler::new(&e, SchedulerConfig::serial());
        assert_eq!(s.effective_lanes(), 1);
    }

    #[test]
    fn stale_index_is_ignored() {
        use crate::index_api::{IndexAnswer, ReachIndex};
        /// An index from a bygone epoch that would corrupt any query
        /// it actually answered.
        struct Stale;
        impl ReachIndex for Stale {
            fn epoch(&self) -> u64 {
                u64::MAX
            }
            fn answer(&self, _: u64, _: u32) -> Option<IndexAnswer> {
                Some(IndexAnswer { visited: 999_999, per_level: vec![999_999] })
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn num_sources(&self) -> usize {
                0
            }
        }
        let e = ring_engine(40, 2);
        let queries = vec![KhopQuery::single(7, 0, 5)];
        let r = QueryScheduler::new(&e, SchedulerConfig::default())
            .with_index(std::sync::Arc::new(Stale))
            .execute(&queries);
        // The epoch fence keeps the stale index out of the query path.
        assert_eq!(r[0].visited, 6);
        assert_eq!(r[0].per_level, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn response_includes_queue_wait() {
        let e = ring_engine(300, 2);
        // 130 single-source queries → 3 batches of ≤64.
        let queries: Vec<KhopQuery> = (0..130).map(|i| KhopQuery::single(i, i as u64, 3)).collect();
        let r = QueryScheduler::new(&e, SchedulerConfig::default()).execute(&queries);
        let first_batch_mean: Duration =
            r[..64].iter().map(|q| q.response_time).sum::<Duration>() / 64;
        let last_batch_mean: Duration =
            r[128..].iter().map(|q| q.response_time).sum::<Duration>() / 2;
        assert!(last_batch_mean > first_batch_mean, "{last_batch_mean:?} vs {first_batch_mean:?}");
    }
}
