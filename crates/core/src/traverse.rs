//! Queue-based k-hop traversal — the `Traverse` function of Listing 2.
//!
//! One instance handles one query on one shard: a local task queue of
//! `(vertex, hops)` pairs, a per-vertex visited bitmap, and the vertex
//! *values* (traversal depths) stored under the paper's dynamic
//! resource allocation: "we only need to keep vertex values for those
//! in previous and current levels, instead of saving value per vertex
//! during the entire query" (§3.3). [`ValueMode::Full`] keeps the naive
//! value-per-vertex array instead — the ablation baseline (A5) that
//! shows why the two-level window matters for hundreds of concurrent
//! queries.
//!
//! Remote neighbours are emitted to the caller ("boundary vertices will
//! be sent to a remote task queue", Listing 2 caption), which routes
//! them to the owning shard's [`QueueTraversal::absorb`].
//!
//! [`QueueKhop`] (one superstep per level, the engine's sync queue) and
//! [`ChainedKhop`] (local chains chased to their end, so only a
//! partition boundary costs a superstep) are partition programs on the
//! engine's BSP driver; they read the engine value's view, the graph of
//! its epoch, through [`PartitionCtx::shard`].

use crate::pcm::{PartitionCtx, PartitionProgram};
use crate::shard::Shard;
use cgraph_graph::props::SparseLevelProps;
use cgraph_graph::{Bitmap, VertexId};

/// How traversal depths (vertex values) are stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValueMode {
    /// Two-level sliding window (the paper's dynamic allocation).
    #[default]
    TwoLevel,
    /// Dense value per vertex for the whole query (ablation baseline).
    Full,
}

enum Values {
    TwoLevel(SparseLevelProps<u32>),
    Full(Vec<u32>),
}

/// Queue-based traversal state for one query on one shard.
pub struct QueueTraversal {
    visited: Bitmap,
    /// Current-level local task queue (global IDs, all locally owned).
    cur: Vec<VertexId>,
    /// Next-level local task queue.
    next: Vec<VertexId>,
    values: Values,
    base: VertexId,
    depth: u32,
    k: u32,
}

impl QueueTraversal {
    /// Creates state for a `k`-hop query on `shard`.
    pub fn new(shard: &Shard, k: u32, mode: ValueMode) -> Self {
        let n = shard.num_local();
        Self {
            visited: Bitmap::new(n),
            cur: Vec::new(),
            next: Vec::new(),
            values: match mode {
                ValueMode::TwoLevel => Values::TwoLevel(SparseLevelProps::new()),
                ValueMode::Full => Values::Full(vec![u32::MAX; n]),
            },
            base: shard.local_range().start,
            depth: 0,
            k,
        }
    }

    /// Seeds the traversal at locally-owned `v` (depth 0).
    pub fn seed(&mut self, v: VertexId) {
        let l = (v - self.base) as usize;
        if !self.visited.set(l) {
            self.record_value(v, 0);
            self.cur.push(v);
        }
    }

    fn record_value(&mut self, v: VertexId, depth: u32) {
        match &mut self.values {
            Values::TwoLevel(s) => s.insert(v, depth),
            Values::Full(arr) => arr[(v - self.base) as usize] = depth,
        }
    }

    /// The recorded depth of `v`, if still retained.
    pub fn value(&self, v: VertexId) -> Option<u32> {
        match &self.values {
            Values::TwoLevel(s) => s.get(v).copied(),
            Values::Full(arr) => {
                let d = arr[(v - self.base) as usize];
                (d != u32::MAX).then_some(d)
            }
        }
    }

    /// Live vertex-value entries — the memory metric ablation A5
    /// compares between modes.
    pub fn live_value_entries(&self) -> usize {
        match &self.values {
            Values::TwoLevel(s) => s.live_entries(),
            Values::Full(arr) => arr.len(),
        }
    }

    /// Current traversal depth (hops completed).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// True when this shard holds no current-level tasks.
    pub fn queue_empty(&self) -> bool {
        self.cur.is_empty()
    }

    /// Number of vertices visited on this shard so far.
    pub fn visited_count(&self) -> u64 {
        self.visited.count_ones() as u64
    }

    /// Processes every task in the current level (Listing 2's loop
    /// body): visits unvisited neighbours, queueing local ones and
    /// emitting `(vertex, depth)` for boundary ones. Does nothing if
    /// `depth >= k` ("if (s.hops < k)").
    pub fn step(&mut self, shard: &Shard, mut remote: impl FnMut(VertexId, u32)) -> u64 {
        if self.depth >= self.k {
            self.cur.clear();
            return 0;
        }
        // Slide the value window: the level about to be discovered
        // (depth + 1) becomes "current", the level being processed
        // (depth) becomes "previous", and depth - 1 is dropped — the
        // paper's two-level retention.
        if let Values::TwoLevel(sv) = &mut self.values {
            sv.advance_level();
        }
        let mut discovered = 0u64;
        let next_depth = self.depth + 1;
        let cur = std::mem::take(&mut self.cur);
        for s in cur {
            for (t, _) in shard.row(s) {
                if shard.is_local(t) {
                    discovered += u64::from(self.absorb(t, next_depth));
                } else {
                    // Listing 2 marks boundary neighbours visited at the
                    // owner; we forward and let the owner dedup.
                    remote(t, next_depth);
                }
            }
        }
        discovered
    }

    /// Queues locally-owned `v` at `depth` for the next level unless it
    /// was visited (a remote task, or a local neighbour `step` found).
    /// Returns true when the vertex was fresh.
    pub fn absorb(&mut self, v: VertexId, depth: u32) -> bool {
        let l = (v - self.base) as usize;
        if !self.visited.set(l) {
            self.record_value(v, depth);
            self.next.push(v);
            true
        } else {
            false
        }
    }

    /// Ends the level: next queue becomes current, the two-level value
    /// window slides. Returns the size of the new current queue.
    pub fn advance_level(&mut self) -> usize {
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.clear();
        self.depth += 1;
        self.cur.len()
    }
}

/// One partition's output of a [`QueueKhop`] or [`ChainedKhop`] run,
/// or one machine's of the async queue.
#[derive(Clone, Debug)]
pub struct KhopLevels {
    /// Local vertices first reached per hop (`[0]` counts the local
    /// sources).
    pub per_level: Vec<u64>,
    /// Superstep barriers the run passed, the final empty one included
    /// (the async queue: tasks the machine processed).
    pub supersteps: u64,
    /// Peak live vertex-value entries on this partition.
    pub peak_value_entries: usize,
}

/// The level-synchronous `Traverse` of Listing 2 as a partition
/// program: superstep `s` absorbs the level-`s` vertices peers found,
/// closes level `s` and expands it, staging remote targets for their
/// owners. A partition with an empty queue halts until a message wakes
/// it; levels are indexed by superstep, so it stays aligned.
pub struct QueueKhop<'s> {
    sources: &'s [VertexId],
    queue: QueueTraversal,
    per_level: Vec<u64>,
    /// Local vertices the last expansion found.
    found: u64,
    peak_value_entries: usize,
}

impl<'s> QueueKhop<'s> {
    /// A `k`-hop traversal (`u32::MAX` = full BFS) from `sources` on
    /// `shard`; give every partition the same `sources`, `k`, `mode`.
    pub fn new(shard: &Shard, sources: &'s [VertexId], k: u32, mode: ValueMode) -> Self {
        let queue = QueueTraversal::new(shard, k, mode);
        Self { sources, queue, per_level: Vec::new(), found: 0, peak_value_entries: 0 }
    }

    /// Expands the current level, staging boundary targets.
    fn expand(&mut self, ctx: &mut PartitionCtx<'_>) {
        self.found = self.queue.step(ctx.shard(), |v, d| ctx.send_to(v, u64::from(d)));
    }
}

impl PartitionProgram for QueueKhop<'_> {
    type Out = KhopLevels;

    /// Seeds level 0 and expands it. No partition halts here, so every
    /// partition closes level 1 in superstep 1.
    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        for &s in self.sources.iter().filter(|&&s| ctx.is_local_vertex(s)) {
            self.queue.seed(s);
        }
        self.per_level.push(self.queue.visited_count());
        self.peak_value_entries = self.queue.live_value_entries();
        self.expand(ctx);
    }

    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        let level = ctx.superstep();
        // Levels this partition sat out were empty here: close each and
        // slide the value window, as their expansions would have.
        while u64::from(self.queue.depth()) + 1 < level {
            self.queue.advance_level();
            self.queue.step(ctx.shard(), |_, _| unreachable!("an empty level reaches nothing"));
        }
        let fresh: u64 =
            incoming.iter().map(|&(v, d)| u64::from(self.queue.absorb(v, d as u32))).sum();
        self.per_level.resize(level as usize + 1, 0);
        self.per_level[level as usize] = self.found + fresh;
        let queued = self.queue.advance_level();
        self.peak_value_entries = self.peak_value_entries.max(self.queue.live_value_entries());
        self.expand(ctx);
        if queued == 0 {
            ctx.vote_to_halt();
        }
    }

    fn finish(self, ctx: &PartitionCtx<'_>) -> KhopLevels {
        KhopLevels {
            per_level: self.per_level,
            supersteps: ctx.superstep(),
            peak_value_entries: self.peak_value_entries,
        }
    }
}

/// Queue-based k-hop with **local chaining**, a partition program for
/// [`DistributedEngine::run_program`](crate::engine::DistributedEngine::run_program):
/// within one superstep each partition expands its local queue
/// *transitively*, so a superstep is only needed where the traversal
/// crosses a partition boundary — why the partition-centric model
/// "generally requires fewer supersteps to converge" (§3.3). Chaining
/// can first reach a vertex by a longer local path than its distance,
/// so depths are label-correcting (an improvement re-expands the
/// vertex); the final depths are those of the level-synchronous queue.
pub struct ChainedKhop<'s> {
    sources: &'s [VertexId],
    k: u32,
    base: VertexId,
    /// Best depth per local vertex (`u32::MAX` = unreached).
    depth: Vec<u32>,
    /// Local `(vertex, depth)` tasks left to expand.
    queue: Vec<(VertexId, u32)>,
}

impl<'s> ChainedKhop<'s> {
    /// A `k`-hop traversal (`u32::MAX` = full BFS) from `sources`; give
    /// every partition the same arguments.
    pub fn new(sources: &'s [VertexId], k: u32) -> Self {
        Self { sources, k, base: 0, depth: Vec::new(), queue: Vec::new() }
    }

    /// Queues local `v` at depth `d` when `d` improves on its best.
    fn relax(&mut self, v: VertexId, d: u32) {
        let best = &mut self.depth[(v - self.base) as usize];
        if d < *best {
            *best = d;
            self.queue.push((v, d));
        }
    }

    /// Drains the local queue transitively (the chain), staging every
    /// remote target for its owner, then waits for messages.
    fn chase(&mut self, ctx: &mut PartitionCtx<'_>) {
        let shard = ctx.shard();
        while let Some((v, d)) = self.queue.pop() {
            if d > self.depth[(v - self.base) as usize] || d >= self.k {
                continue; // stale or budget exhausted
            }
            for (t, _) in shard.row(v) {
                if shard.is_local(t) {
                    self.relax(t, d + 1);
                } else {
                    ctx.send_to(t, u64::from(d + 1));
                }
            }
        }
        ctx.vote_to_halt();
    }
}

impl PartitionProgram for ChainedKhop<'_> {
    type Out = KhopLevels;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        let shard = ctx.shard();
        self.base = shard.local_range().start;
        self.depth = vec![u32::MAX; shard.num_local()];
        for &s in self.sources {
            if shard.is_local(s) {
                self.relax(s, 0);
            }
        }
        self.chase(ctx);
    }

    fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
        for &(v, d) in incoming {
            self.relax(v, d as u32);
        }
        self.chase(ctx);
    }

    fn finish(self, ctx: &PartitionCtx<'_>) -> KhopLevels {
        KhopLevels {
            peak_value_entries: self.depth.len(), // one depth per local vertex
            per_level: level_counts(&self.depth),
            supersteps: ctx.superstep(),
        }
    }
}

/// Vertices per depth (`u32::MAX` = unreached), sized by the deepest
/// vertex reached, not by the hop budget: a BFS holds as many levels as
/// it found.
pub(crate) fn level_counts(depth: &[u32]) -> Vec<u64> {
    let reached = depth.iter().filter(|&&d| d != u32::MAX);
    let mut per_level = vec![0u64; reached.clone().max().map_or(0, |&d| d as usize + 1)];
    for &d in reached {
        per_level[d as usize] += 1;
    }
    per_level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartition;
    use cgraph_graph::{ConsolidationPolicy, EdgeList};

    fn single_shard(edges: &EdgeList) -> Shard {
        let part = RangePartition::by_vertices(edges.num_vertices(), 1);
        Shard::build(0, &part, edges.edges(), ConsolidationPolicy::default())
    }

    fn path_graph() -> EdgeList {
        // 0 -> 1 -> 2 -> 3 -> 4
        [(0u64, 1u64), (1, 2), (2, 3), (3, 4)].into_iter().collect()
    }

    #[test]
    fn khop_stops_at_k() {
        let g = path_graph();
        let shard = single_shard(&g);
        let mut t = QueueTraversal::new(&shard, 2, ValueMode::TwoLevel);
        t.seed(0);
        let mut total = 1u64;
        loop {
            total += t.step(&shard, |_, _| unreachable!());
            if t.advance_level() == 0 {
                break;
            }
        }
        assert_eq!(total, 3, "k=2 reaches vertices 0,1,2 only");
        assert_eq!(t.visited_count(), 3);
    }

    #[test]
    fn values_respect_two_level_window() {
        let g = path_graph();
        let shard = single_shard(&g);
        let mut t = QueueTraversal::new(&shard, 10, ValueMode::TwoLevel);
        t.seed(0);
        t.step(&shard, |_, _| {});
        t.advance_level(); // depth 1; levels held: {0}, {1}
        t.step(&shard, |_, _| {});
        t.advance_level(); // depth 2; levels held: {1}, {2}
        assert_eq!(t.value(0), None, "level-0 value must be dropped");
        assert_eq!(t.value(1), Some(1));
        assert_eq!(t.value(2), Some(2));
        assert!(t.live_value_entries() <= 2);
    }

    #[test]
    fn full_mode_keeps_everything() {
        let g = path_graph();
        let shard = single_shard(&g);
        let mut t = QueueTraversal::new(&shard, 10, ValueMode::Full);
        t.seed(0);
        for _ in 0..4 {
            t.step(&shard, |_, _| {});
            t.advance_level();
        }
        assert_eq!(t.value(0), Some(0));
        assert_eq!(t.value(4), Some(4));
        assert_eq!(t.live_value_entries(), 5, "dense array covers all vertices");
    }

    #[test]
    fn remote_neighbors_emitted_not_queued() {
        let mut g: EdgeList = [(0u64, 1u64), (1, 7)].into_iter().collect();
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(0, &part, g.edges(), ConsolidationPolicy::default());
        let mut t = QueueTraversal::new(&shard, 3, ValueMode::TwoLevel);
        t.seed(0);
        let mut remote = Vec::new();
        t.step(&shard, |v, d| remote.push((v, d)));
        t.advance_level();
        t.step(&shard, |v, d| remote.push((v, d)));
        assert_eq!(remote, vec![(7, 2)]);
    }

    #[test]
    fn absorb_dedups() {
        let mut g: EdgeList = [(5u64, 6u64)].into_iter().collect();
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(1, &part, g.edges(), ConsolidationPolicy::default());
        let mut t = QueueTraversal::new(&shard, 3, ValueMode::TwoLevel);
        assert!(t.absorb(5, 1));
        assert!(!t.absorb(5, 1), "second delivery must be deduplicated");
        assert_eq!(t.advance_level(), 1);
        let mut found = 0;
        t.step(&shard, |_, _| {});
        found += t.advance_level();
        assert_eq!(found, 1); // vertex 6
    }

    #[test]
    fn seed_is_idempotent() {
        let g = path_graph();
        let shard = single_shard(&g);
        let mut t = QueueTraversal::new(&shard, 3, ValueMode::TwoLevel);
        t.seed(0);
        t.seed(0);
        assert_eq!(t.visited_count(), 1);
        assert!(!t.queue_empty());
    }

    #[test]
    fn cycle_terminates() {
        let g: EdgeList = [(0u64, 1u64), (1, 2), (2, 0)].into_iter().collect();
        let shard = single_shard(&g);
        let mut t = QueueTraversal::new(&shard, 100, ValueMode::TwoLevel);
        t.seed(0);
        let mut levels = 0;
        loop {
            t.step(&shard, |_, _| {});
            if t.advance_level() == 0 {
                break;
            }
            levels += 1;
            assert!(levels < 10, "cycle must terminate");
        }
        assert_eq!(t.visited_count(), 3);
    }
}
