//! The distributed engine: shards + cluster + superstep drivers (§3.3).
//!
//! [`DistributedEngine`] owns the partitioned graph (one [`Shard`] per
//! simulated machine) and runs every job on one of three machine loops:
//!
//! * the lane batch ([`DistributedEngine::run_traversal_batch`], the
//!   service's path): up to [`MAX_LANES`] k-hop traversals as bit lanes
//!   over the shared edge-set scan (§3.5), batch width 64–512;
//! * the BSP driver of partition programs (Listing 1,
//!   [`DistributedEngine::run_program`]). The sync queue of Listing 2
//!   ([`crate::traverse::QueueKhop`]), the chained queue, GAS
//!   ([`crate::gas::GasProgram`], Listing 3) and vertex programs run on it;
//! * the async queue ([`DistributedEngine::run_single_queue`] in
//!   [`UpdateMode::Async`]), the one job that ends on quiescence (§3.3).
//!
//! Every job runs on a [`PersistentCluster`] of `p` machine threads:
//! the service's long-lived one, or a one-shot cluster a call makes for
//! its one job, whose threads are joined when the call returns. Either
//! way a machine that panics fails the job instead of hanging its peers
//! at a barrier. Shards are shared immutably, all mutable state is
//! thread-local, and traffic is exchanged through the inbox/outbox
//! fabric of Fig. 4/5.

use crate::bitfrontier::{AdvanceResult, BitFrontier, FrontierBatch, OverlayScan};
use crate::config::{EngineConfig, UpdateMode};
use crate::gas::{Gas, GasProgram};
use crate::partition::RangePartition;
use crate::pcm::{PartitionCtx, PartitionProgram};
use crate::recovery::{PartitionSnapshot, RecoveryConfig, RecoveryReport, RecoveryStore};
use crate::shard::Shard;
use crate::traverse::{level_counts, KhopLevels, QueueKhop, ValueMode};
use cgraph_comm::chaos::{ChaosRun, FaultPlan};
use cgraph_comm::cluster::TrafficReport;
use cgraph_comm::{
    BarrierPoisoned, ClusterError, CommHandle, MachineObs, PersistentCluster, WireSize,
};
use cgraph_graph::delta::{DeltaOverlay, EdgeUpdate};
use cgraph_graph::{Csc, Edge, EdgeList, LaneMask, LaneWidth, SortedRows, VertexId, MAX_LANES};
use cgraph_obs::{log2_edges, Counter, Histogram, TraceCtx, Tracer, COORD, LOG_LATENCY_EDGES_SECS};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Messages exchanged between machines.
#[derive(Clone, Debug)]
pub enum EngineMsg {
    /// Batched remote frontier updates — the remote task buffer of the
    /// bit-frontier path, at the batch's own width (every machine runs
    /// the same batch). Shared with the sender's recovery log.
    Frontier(Arc<FrontierBatch>),
    /// Word messages `(key vertex, payload)`: a partition program's
    /// staged sends, and the async queue's `(vertex, depth)` tasks.
    Pcm(Vec<(u64, u64)>),
}

impl WireSize for EngineMsg {
    fn wire_size(&self) -> usize {
        match self {
            // 8-byte vertex id + W/8 mask bytes per entry.
            EngineMsg::Frontier(b) => b.len() * (8 + 8 * b.stride()),
            EngineMsg::Pcm(v) => v.len() * 16,
        }
    }
}

/// Typed failure of a batch entry point.
///
/// Shape errors (`BadLaneCount`, `LaneBudgetMismatch`,
/// `SourceOutOfRange`) are caller bugs caught *before* any machine
/// thread runs — an out-of-range source would seed no shard while the
/// result accounting still counted it, so it is rejected up front.
/// `Cluster` wraps an execution-time [`ClusterError`] (machine panic,
/// poisoned barrier) and is the only recoverable variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Lane count outside `1..=MAX_LANES`.
    BadLaneCount {
        /// Lanes requested.
        lanes: usize,
        /// Maximum supported width.
        max: usize,
    },
    /// `sources` and `ks` disagree in length.
    LaneBudgetMismatch {
        /// `sources.len()`.
        sources: usize,
        /// `ks.len()`.
        ks: usize,
    },
    /// A source vertex is outside the graph's vertex range.
    SourceOutOfRange {
        /// The offending lane.
        lane: usize,
        /// The out-of-range source.
        source: VertexId,
        /// The graph's vertex count.
        num_vertices: u64,
    },
    /// The cluster failed mid-batch (machine death, poisoned barrier).
    Cluster(ClusterError),
    /// A configuration knob is degenerate (e.g. a zero checkpoint
    /// interval, or a cluster whose width differs from the engine's
    /// machine count) — rejected up front instead of panicking or
    /// spinning deep inside a machine thread.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadLaneCount { lanes, max } => {
                write!(f, "batch lane count {lanes} outside 1..={max}")
            }
            EngineError::LaneBudgetMismatch { sources, ks } => {
                write!(f, "{sources} sources but {ks} hop budgets")
            }
            EngineError::SourceOutOfRange { lane, source, num_vertices } => {
                write!(f, "lane {lane} source {source} outside vertex range 0..{num_vertices}")
            }
            // Delegate: service error messages match on the inner text
            // (e.g. "crashed at superstep").
            EngineError::Cluster(e) => write!(f, "{e}"),
            EngineError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ClusterError> for EngineError {
    fn from(e: ClusterError) -> Self {
        EngineError::Cluster(e)
    }
}

impl EngineError {
    /// True for failures a retry/recovery pass can heal. Shape errors
    /// are deterministic caller bugs: retrying cannot fix them.
    pub fn is_recoverable(&self) -> bool {
        match self {
            EngineError::Cluster(e) => e.is_recoverable(),
            _ => false,
        }
    }
}

/// Result of one traversal batch (up to [`MAX_LANES`] lanes).
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Number of lanes actually used.
    pub lanes: usize,
    /// Edge-set rows scanned across all machines and supersteps — the
    /// shared-scan work metric of the lane-width ablation (wider
    /// batches amortize each row over more queries, so scans *per
    /// query* fall as width grows).
    pub scans: u64,
    /// Distinct vertices reached per lane (sources included).
    pub per_lane_visited: Vec<u64>,
    /// `per_level[h][lane]` = vertices first reached at hop `h`
    /// (`per_level[0]` counts the sources).
    pub per_level: Vec<Vec<u64>>,
    /// Per-lane completion time since batch start (a lane completes
    /// when its global frontier empties or its hop budget is spent).
    pub lane_completion: Vec<Duration>,
    /// Supersteps executed.
    pub supersteps: u32,
    /// Wall-clock execution time of the whole batch.
    pub exec_time: Duration,
    /// Per-machine busy time: compute + message handling, excluding
    /// barrier waits. On a host with fewer cores than simulated
    /// machines this — not wall clock — is the scaling-relevant time.
    pub per_machine_busy: Vec<Duration>,
    /// Cross-machine traffic.
    pub traffic: TrafficReport,
}

impl BatchResult {
    /// Simulated cluster execution time: the straggler machine's busy
    /// time plus its simulated network time. This is what a real
    /// p-node cluster would take when machines run truly in parallel;
    /// wall clock on an oversubscribed host approaches the *sum* of
    /// busy times instead.
    pub fn sim_exec_time(&self) -> Duration {
        let busy = self.per_machine_busy.iter().copied().max().unwrap_or_default();
        busy + Duration::from_nanos(self.traffic.max_sim_net_ns())
    }
}

/// Result of one queue-based query.
#[derive(Clone, Debug)]
pub struct SingleResult {
    /// Distinct vertices reached (sources included).
    pub visited: u64,
    /// Vertices first reached per hop (`[0]` counts sources).
    pub per_level: Vec<u64>,
    /// Supersteps (sync) or total tasks processed (async).
    pub supersteps: u64,
    /// Wall-clock execution time.
    pub exec_time: Duration,
    /// Cross-machine traffic.
    pub traffic: TrafficReport,
    /// Peak live vertex-value entries across machines — the memory
    /// metric of the dynamic-allocation ablation (A5).
    pub peak_value_entries: usize,
}

/// Result of a GAS run.
#[derive(Clone, Debug)]
pub struct GasResult {
    /// Final vertex values, indexed by global vertex ID.
    pub values: Vec<f64>,
    /// Iterations executed.
    pub iterations: u32,
    /// Wall-clock execution time.
    pub exec_time: Duration,
    /// Per-machine busy time (compute + message handling, excluding
    /// barrier waits).
    pub per_machine_busy: Vec<Duration>,
    /// Cross-machine traffic.
    pub traffic: TrafficReport,
}

impl GasResult {
    /// Simulated cluster execution time (straggler busy time + its
    /// simulated network time); see [`BatchResult::sim_exec_time`].
    pub fn sim_exec_time(&self) -> Duration {
        let busy = self.per_machine_busy.iter().copied().max().unwrap_or_default();
        busy + Duration::from_nanos(self.traffic.max_sim_net_ns())
    }
}

/// A [`FaultPlan`] bound to the coordinates the chaos plane scopes
/// decisions by: the service-assigned job (batch sequence) number and
/// the first attempt number for this execution (service-level retries
/// continue the attempt sequence so `heal_after` counts *all* the
/// attempts a batch has made, not just engine-level recoveries).
#[derive(Clone, Copy, Debug)]
pub struct FaultInjection<'a> {
    /// The fault schedule.
    pub plan: &'a FaultPlan,
    /// Job number ([`FaultPlan::armed_jobs`] scope).
    pub job: u64,
    /// Attempt number of this execution's first attempt; engine-level
    /// recoveries use `first_attempt + n`.
    pub first_attempt: u32,
}

/// Engine-layer registry handles, registered once per [`Obs`] instance
/// and cached on the engine (keyed by registry identity), so batch
/// setup and the per-superstep hot path never take the registry lock.
struct EngineObsHandles {
    supersteps: Arc<Counter>,
    frontier_bits: Arc<Histogram>,
    checkpoint_bytes: Arc<Counter>,
    scan_form_seconds: Arc<Histogram>,
}

impl EngineObsHandles {
    fn register(obs: &cgraph_obs::Obs) -> Self {
        let m = &obs.metrics;
        Self {
            supersteps: m.counter(
                "cgraph_engine_supersteps_total",
                "Supersteps executed, counted once per machine per superstep.",
            ),
            frontier_bits: m.histogram(
                "cgraph_engine_frontier_new_bits",
                "New frontier bits (vertex, lane) discovered per machine per superstep.",
                &log2_edges(24),
            ),
            checkpoint_bytes: m.counter(
                "cgraph_engine_checkpoint_bytes_total",
                "Bytes of bit-frontier state committed to recovery checkpoints.",
            ),
            scan_form_seconds: m.histogram(
                "cgraph_delta_scan_form_seconds",
                "Wall time deriving one machine's scan form of a published delta overlay.",
                &LOG_LATENCY_EDGES_SECS,
            ),
        }
    }
}

/// One machine's cached engine-layer observability handles for a batch
/// worker: cloned from the engine's cache at worker start, then only
/// atomics on the superstep path.
struct WorkerObs {
    mo: Arc<MachineObs>,
    h: Arc<EngineObsHandles>,
}

impl WorkerObs {
    fn new(mo: Arc<MachineObs>, h: Arc<EngineObsHandles>) -> Self {
        Self { mo, h }
    }

    /// Superstep span entry at hop `hop`; value = frontier bits queued.
    fn superstep_enter(&self, hop: u32) {
        self.mo.tracer().enter("superstep", self.mo.ctx_at(hop), 0);
    }

    /// Superstep span exit; value = new bits discovered this hop.
    fn superstep_exit(&self, hop: u32, new_bits: u64) {
        self.h.supersteps.inc();
        self.h.frontier_bits.observe(new_bits as f64);
        self.mo.tracer().exit("superstep", self.mo.ctx_at(hop), new_bits);
    }
}

/// One machine's private output from a bit-frontier batch, merged by
/// [`DistributedEngine::stitch_batch`].
struct MachineOut {
    per_level_local: Vec<Vec<u64>>,
    visited_local: Vec<u64>,
    lane_completion: Vec<Duration>,
    supersteps: u32,
    scans: u64,
    busy: Duration,
}

/// The batch's per-hop budget masks — lanes with hop budget left for
/// the expansion out of `hop`, i.e. `k > hop` — built once per batch
/// and indexed per superstep. A mask only changes where `hop` crosses
/// some lane's `k`, so one mask per distinct `k` covers every hop;
/// `u32::MAX` (full BFS) is never crossed and never retires.
struct BudgetMasks {
    /// Distinct hop budgets, ascending.
    ks: Vec<u32>,
    /// `masks[i]` = lanes with `k >= ks[i]`; one trailing all-zero mask.
    masks: Vec<LaneMask>,
}

impl BudgetMasks {
    fn new(ks: &[u32]) -> Self {
        let width = LaneWidth::for_lanes(ks.len());
        let mut by_k: Vec<(u32, usize)> = ks.iter().copied().zip(0..).collect();
        by_k.sort_unstable();
        let mut live = LaneMask::all(ks.len());
        let mut out = BudgetMasks { ks: Vec::new(), masks: Vec::new() };
        for group in by_k.chunk_by(|a, b| a.0 == b.0) {
            out.ks.push(group[0].0);
            out.masks.push(live);
            let mut retired = LaneMask::zero(width);
            for &(_, lane) in group {
                retired.set(lane);
            }
            live = live.and_not(&retired);
        }
        out.masks.push(live);
        out
    }

    /// Lanes with `k > hop`.
    fn at(&self, hop: u32) -> &LaneMask {
        &self.masks[self.ks.partition_point(|&k| k <= hop)]
    }
}

/// One partition's share of a batch between supersteps: the bit state
/// plus the bookkeeping a checkpoint captures, a resume restores and a
/// confined replay rebuilds.
struct PartitionRun<'e> {
    shard: &'e Shard,
    epoch: u64,
    bf: BitFrontier,
    /// Per-level discovery counts of the supersteps run so far.
    per_level_local: Vec<Vec<u64>>,
    lane_completion: Vec<Duration>,
    /// Lanes already recorded complete.
    completed: LaneMask,
    /// Busy time carried in by the snapshot this run resumed from (so a
    /// resumed attempt keeps the scaling-relevant busy metric additive).
    busy_base: Duration,
    t0: Instant,
    cpu0: Duration,
}

impl<'e> PartitionRun<'e> {
    /// Restores the partition from `resume`, or seeds the lanes whose
    /// source it owns. Returns the run and the boundary it stands at.
    fn start(
        shard: &'e Shard,
        epoch: u64,
        sources: &[VertexId],
        resume: Option<PartitionSnapshot>,
    ) -> (Self, u32) {
        let lanes = sources.len();
        let mut run = Self {
            shard,
            epoch,
            t0: Instant::now(),
            cpu0: cgraph_comm::thread_cpu_time(),
            bf: BitFrontier::new(shard, lanes),
            per_level_local: Vec::new(),
            lane_completion: vec![Duration::ZERO; lanes],
            completed: LaneMask::zero(LaneWidth::for_lanes(lanes)),
            busy_base: Duration::ZERO,
        };
        let Some(snap) = resume else {
            for (lane, &src) in sources.iter().enumerate() {
                if shard.is_local(src) {
                    run.bf.seed(src, lane);
                }
            }
            return (run, 0);
        };
        assert_eq!(snap.lanes, lanes, "snapshot lane count must match the batch");
        assert_eq!(snap.epoch, epoch, "snapshot epoch must match the engine's graph epoch");
        run.bf.restore_words(&snap.frontier, &snap.visited);
        run.per_level_local = snap.per_level_local;
        run.lane_completion = snap.lane_completion;
        run.completed = snap.completed;
        run.busy_base = snap.busy;
        (run, snap.boundary)
    }

    /// CPU busy time up to now, across every attempt this run resumed.
    fn busy(&self) -> Duration {
        self.busy_base + (cgraph_comm::thread_cpu_time() - self.cpu0)
    }

    /// The partition's state at `boundary` (the caller knows whether
    /// this superstep's advance has run).
    fn snapshot(&self, boundary: u32) -> PartitionSnapshot {
        let (frontier, visited) = self.bf.snapshot_words();
        PartitionSnapshot {
            boundary,
            lanes: self.bf.lanes(),
            epoch: self.epoch,
            frontier,
            visited,
            per_level_local: self.per_level_local.clone(),
            lane_completion: self.lane_completion.clone(),
            completed: self.completed,
            busy: self.busy(),
        }
    }

    /// Advances the bit state and records the level's per-lane
    /// discoveries.
    fn advance(&mut self) -> AdvanceResult {
        let adv = self.bf.advance();
        self.per_level_local.push(adv.new_per_lane[..self.bf.lanes()].to_vec());
        adv
    }

    /// Stamps completion for the lanes that just left `live` — the
    /// globally agreed set of lanes with frontier and hop budget left.
    fn retire(&mut self, live: &LaneMask) {
        let newly_done = LaneMask::all(self.bf.lanes()).and_not(live).and_not(&self.completed);
        if !newly_done.is_zero() {
            let now = self.t0.elapsed();
            for lane in newly_done.iter_ones() {
                self.lane_completion[lane] = now;
            }
            self.completed.or_assign(&newly_done);
        }
    }

    /// The finished partition's output. Visited counts are derived —
    /// the lane's source when this shard owns it, plus every discovery
    /// the per-level counts recorded — so the batch does not end with a
    /// bit-count over the whole visited matrix.
    fn finish(self, sources: &[VertexId], scans: u64) -> MachineOut {
        let mut visited_local: Vec<u64> =
            sources.iter().map(|&s| u64::from(self.shard.is_local(s))).collect();
        for level in &self.per_level_local {
            for (v, &c) in visited_local.iter_mut().zip(level) {
                *v += c;
            }
        }
        debug_assert_eq!(visited_local, self.bf.visited_per_lane()[..sources.len()]);
        MachineOut {
            supersteps: self.per_level_local.len() as u32,
            visited_local,
            busy: self.busy(),
            per_level_local: self.per_level_local,
            lane_completion: self.lane_completion,
            scans,
        }
    }
}

/// One machine's published delta overlay beside its scan form.
///
/// The overlay is the write side (what a commit clones and applies to,
/// what a fold merges, what a snapshot encodes); the form is what a
/// scan reads. It resolves targets to the slots of the shard the
/// overlay was published beside, which is why it lives here and not in
/// the overlay: every engine value that shares this `Arc` shares its
/// shards too (an empty commit), and every other commit publishes a
/// new one.
#[derive(Debug, Default)]
struct PublishedDelta {
    overlay: DeltaOverlay,
    /// Derived by the first scan on the owning machine.
    scan: OnceLock<OverlayScan>,
    /// Derivations of `scan` (at most one; unit tests read it).
    #[cfg(test)]
    derivations: std::sync::atomic::AtomicU32,
}

impl PublishedDelta {
    fn new(overlay: DeltaOverlay) -> Arc<Self> {
        Arc::new(Self { overlay, ..Self::default() })
    }
}

/// An engine value's graph: one shard per machine, the out-degree of
/// every vertex, kept once (GAS scatter divides by it; the index ranks
/// boundary vertices by the base's), and the in-edge CSC derived from
/// the shards on first use. The base of a value is one; its view
/// ([`DistributedEngine::view`]) is another.
#[derive(Default)]
pub(crate) struct BaseGraph {
    pub(crate) shards: Vec<Shard>,
    pub(crate) out_degrees: Vec<u32>,
    /// Per machine, a CSC of the edges into its vertices.
    csc: OnceLock<Vec<Csc>>,
    /// Derivations of `csc` (at most one; unit tests read it).
    #[cfg(test)]
    csc_derivations: std::sync::atomic::AtomicU32,
}

impl BaseGraph {
    /// Builds machine `m`'s shard from the `m`-th item of `rows`, one
    /// machine at a time, each machine's rows dropped once its shard is
    /// built (ingest, restore).
    fn build(
        partition: &RangePartition,
        config: EngineConfig,
        rows: impl IntoIterator<Item = SortedRows>,
    ) -> Self {
        let machine = |(m, own): (usize, SortedRows)| Self::machine(partition, config, m, &own);
        Self::assemble(rows.into_iter().enumerate().map(machine).collect())
    }

    /// [`BaseGraph::build`] from `rows(m)`, each machine on a scoped
    /// thread of its own (a fold: the commit waits for it and the
    /// machine threads are parked).
    fn build_parallel(
        partition: &RangePartition,
        config: EngineConfig,
        rows: impl Fn(usize) -> SortedRows + Sync,
    ) -> Self {
        let rows = &rows;
        Self::assemble(std::thread::scope(|scope| {
            let running: Vec<_> = (0..config.num_machines)
                .map(|m| scope.spawn(move || Self::machine(partition, config, m, &rows(m))))
                .collect();
            running
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        }))
    }

    /// Machine `m`'s shard and its local vertices' out-degrees.
    fn machine(
        partition: &RangePartition,
        config: EngineConfig,
        m: usize,
        rows: &SortedRows,
    ) -> (Shard, Vec<u32>) {
        assert_eq!(partition.num_partitions(), config.num_machines, "partitions ≠ machines");
        let degrees = rows.span().iter().map(|v| rows.degree(v) as u32).collect();
        (Shard::from_rows(m, partition, rows, config.edge_set_policy), degrees)
    }

    /// The base of every machine's shard and degrees, in machine order
    /// — partition ranges are contiguous and in that order too.
    fn assemble(built: Vec<(Shard, Vec<u32>)>) -> Self {
        let out_degrees = built.iter().flat_map(|(_, d)| d).copied().collect();
        Self { shards: built.into_iter().map(|(s, _)| s).collect(), out_degrees, ..Self::default() }
    }

    /// Per machine `m`, a CSC of the edges into `m`'s vertices, derived
    /// from every shard's rows on first use — sources ascending,
    /// duplicates in the rows' order, which is the input's — and kept
    /// for this graph's life.
    pub(crate) fn in_edges(&self, partition: &RangePartition) -> &[Csc] {
        self.csc.get_or_init(|| {
            #[cfg(test)]
            self.csc_derivations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut local_dst = vec![Vec::new(); self.shards.len()];
            for shard in &self.shards {
                for v in shard.local_range().iter() {
                    for (t, w) in shard.row(v) {
                        local_dst[partition.owner(t)].push(Edge::weighted(v, t, w));
                    }
                }
            }
            local_dst.iter().map(|edges| Csc::from_edges(partition.num_vertices(), edges)).collect()
        })
    }
}

/// Names the base graph of an engine value without keeping its shards
/// alive — for a holder that must later ask "is this still that value's
/// base?" (the durability plane, about the full snapshot it last
/// wrote). The weak reference keeps the allocation's address from being
/// reused while it lives, so the answer cannot alias a newer base.
#[derive(Clone, Debug)]
pub(crate) struct BaseId(Weak<BaseGraph>);

impl BaseId {
    /// True when `engine` scans the base this names.
    pub(crate) fn is_base_of(&self, engine: &DistributedEngine) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&engine.base))
    }
}

/// The C-Graph distributed engine.
///
/// An engine value is an immutable *snapshot* of the graph at one
/// `graph_epoch`: the base shards plus one published [`DeltaOverlay`]
/// per machine. The mutation plane never edits an engine in place —
/// [`DistributedEngine::with_updates`] derives the next epoch's value
/// and the service swaps it in atomically, so in-flight batches keep
/// traversing the snapshot they were admitted against.
pub struct DistributedEngine {
    partition: RangePartition,
    /// Base shards and degrees, `Arc`-shared between epochs so an
    /// overlay-publish commit never copies the graph.
    base: Arc<BaseGraph>,
    /// Per-machine published adjacency deltas, read alongside the base
    /// edge-sets during scans. Empty overlays cost nothing on the scan
    /// path ([`DistributedEngine::delta`] returns `None`).
    deltas: Vec<Arc<PublishedDelta>>,
    /// Snapshot epoch: 0 at ingestion, +1 per committed mutation batch.
    graph_epoch: u64,
    config: EngineConfig,
    /// The effective graph of a value with a live overlay, built by the
    /// first job that reads it ([`DistributedEngine::view`]).
    view: OnceLock<Arc<BaseGraph>>,
    /// Builds of `view` (at most one; unit tests read it).
    #[cfg(test)]
    view_builds: std::sync::atomic::AtomicU32,
    /// Registered engine-layer metric handles, keyed by the identity of
    /// the [`Obs`](cgraph_obs::Obs) they were registered against (a
    /// service installs exactly one, so this is a one-entry cache that
    /// turns per-batch registry lookups into a single mutex check).
    obs_handles: Mutex<Option<(usize, Arc<EngineObsHandles>)>>,
}

impl DistributedEngine {
    /// Partitions `edges` across `config.num_machines` machines and
    /// builds every shard.
    pub fn new(edges: &EdgeList, config: EngineConfig) -> Self {
        let partition = RangePartition::from_edges_total_degree(
            edges.num_vertices(),
            edges.edges(),
            config.num_machines,
        );
        Self::with_partition(edges, partition, config)
    }

    /// Builds the engine over an explicit partitioning (ablations and
    /// custom balancing strategies). `partition.num_partitions()` must
    /// equal `config.num_machines`.
    pub fn with_partition(
        edges: &EdgeList,
        partition: RangePartition,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(partition.num_vertices(), edges.num_vertices());
        let deltas = (0..config.num_machines).map(|_| Arc::default()).collect();
        let rows = SortedRows::group(partition.ranges(), edges.edges());
        let base = BaseGraph::build(&partition, config, rows);
        Self::assemble(partition, Arc::new(base), deltas, 0, config)
    }

    /// Rebuilds an engine value from durable state: each machine's base
    /// out-rows (the `m`-th item of `machine_rows` for machine `m`,
    /// dropped as soon as its shard is built), the partition
    /// boundaries and per-machine delta overlays live at snapshot time,
    /// and the epoch the snapshot captured. This is the recovery-path
    /// twin of [`DistributedEngine::with_partition`] — same shard
    /// build, but the epoch counter and overlays resume where the
    /// crashed process left them instead of starting from zero.
    pub fn restored(
        machine_rows: impl IntoIterator<Item = SortedRows>,
        partition: RangePartition,
        deltas: Vec<DeltaOverlay>,
        graph_epoch: u64,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(deltas.len(), config.num_machines, "one overlay per machine");
        let deltas = deltas.into_iter().map(PublishedDelta::new).collect();
        let base = BaseGraph::build(&partition, config, machine_rows);
        Self::assemble(partition, Arc::new(base), deltas, graph_epoch, config)
    }

    /// The one place an engine value is put together, so no
    /// constructor can forget a lazily derived field.
    fn assemble(
        partition: RangePartition,
        base: Arc<BaseGraph>,
        deltas: Vec<Arc<PublishedDelta>>,
        graph_epoch: u64,
        config: EngineConfig,
    ) -> Self {
        Self {
            partition,
            base,
            deltas,
            graph_epoch,
            config,
            view: OnceLock::new(),
            #[cfg(test)]
            view_builds: Default::default(),
            obs_handles: Mutex::new(None),
        }
    }

    /// The engine-layer handle bundle for `obs`, registering it on
    /// first sight and serving clones from the cache afterwards.
    fn engine_obs(&self, obs: &Arc<cgraph_obs::Obs>) -> Arc<EngineObsHandles> {
        let key = Arc::as_ptr(obs) as usize;
        let mut slot = self.obs_handles.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            Some((k, h)) if *k == key => Arc::clone(h),
            _ => {
                let h = Arc::new(EngineObsHandles::register(obs));
                *slot = Some((key, Arc::clone(&h)));
                h
            }
        }
    }

    /// Builds a worker's observability bundle from its comm handle,
    /// reusing the engine's cached registry handles.
    fn worker_obs(&self, h: &CommHandle<EngineMsg>) -> Option<WorkerObs> {
        h.obs().map(|mo| WorkerObs::new(Arc::clone(mo), self.engine_obs(mo.obs())))
    }

    /// The partitioning map.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// The per-machine base shards: what the lane batch scans beside
    /// each machine's overlay ([`DistributedEngine::delta`]), and what a
    /// snapshot writes. Base edges only; programs, the queues and GAS
    /// read [`DistributedEngine::in_edges`]'s graph, the view.
    pub fn shards(&self) -> &[Shard] {
        &self.base.shards
    }

    /// Names this value's base graph, shared by every epoch until the
    /// next fold or repartitioning.
    pub(crate) fn base_id(&self) -> BaseId {
        BaseId(Arc::downgrade(&self.base))
    }

    /// Base out-degree of any vertex (duplicate edges counted), the
    /// degree the boundary index ranks by. Programs read the view's
    /// ([`PartitionCtx::out_degree`]).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.base.out_degrees[v as usize]
    }

    /// The graph of `graph_epoch()` — `(base ∖ deletes) ∪ inserts` — as
    /// shards, degrees and an in-edge CSC: the base when no machine has
    /// an overlay, else built once by the first job that asks, with the
    /// fold's builder (a scoped thread per machine), and shared by an
    /// empty commit. Programs, both queues and GAS read it; the lane
    /// batch, a snapshot and a degrade read base and overlays.
    pub(crate) fn view(&self) -> &Arc<BaseGraph> {
        if !self.has_delta() {
            return &self.base;
        }
        self.view.get_or_init(|| {
            #[cfg(test)]
            self.view_builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let rows = |m: usize| self.shards()[m].effective_rows(&self.deltas[m].overlay);
            Arc::new(BaseGraph::build_parallel(&self.partition, self.config, rows))
        })
    }

    /// Per machine `m`, a CSC of the edges into `m`'s vertices
    /// (`in_edges()[m].in_neighbors(v)` is meaningful for `v` local to
    /// `m` only) over the graph of `graph_epoch()`, overlays included.
    /// Derived from the view's rows on first use — sources ascending,
    /// duplicates in input order — and kept for the view's life. GAS and
    /// partition-centric programs read it.
    pub fn in_edges(&self) -> &[Csc] {
        self.view().in_edges(&self.partition)
    }

    /// The snapshot epoch this engine value publishes.
    pub fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }

    /// Machine `m`'s published delta overlay, or `None` when it carries
    /// no entries — the scan paths' fast test for "base only".
    pub fn delta(&self, m: usize) -> Option<&DeltaOverlay> {
        let d = &self.deltas[m].overlay;
        (!d.is_empty()).then_some(d)
    }

    /// Machine `m`'s published overlay in the form
    /// [`BitFrontier::scan`] reads, or `None` when it carries no
    /// entries. Derived once per published overlay, by the first scan
    /// that asks (concurrent askers wait for it); `obs` times that one
    /// derivation.
    fn overlay_scan(&self, m: usize, obs: Option<&EngineObsHandles>) -> Option<&OverlayScan> {
        let d = &self.deltas[m];
        if d.overlay.is_empty() {
            return None;
        }
        Some(d.scan.get_or_init(|| {
            let start = Instant::now();
            let form = OverlayScan::new(&d.overlay, &self.shards()[m]);
            if let Some(h) = obs {
                h.scan_form_seconds.observe(start.elapsed().as_secs_f64());
            }
            #[cfg(test)]
            d.derivations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            form
        }))
    }

    /// Total resident delta entries (inserted + deleted edges) across
    /// all machines.
    pub fn delta_entries(&self) -> usize {
        self.deltas.iter().map(|d| d.overlay.len()).sum()
    }

    /// Total resident delta bytes across all machines.
    pub fn delta_bytes(&self) -> usize {
        (0..self.num_machines()).filter_map(|m| self.delta(m)).map(DeltaOverlay::size_bytes).sum()
    }

    /// The largest single machine's delta footprint — the scheduler
    /// charges this against the per-machine memory budget, since every
    /// machine thread scans its own overlay alongside the batch state.
    pub fn max_delta_bytes(&self) -> usize {
        let overlays = (0..self.num_machines()).filter_map(|m| self.delta(m));
        overlays.map(DeltaOverlay::size_bytes).max().unwrap_or(0)
    }

    /// True when any machine has a live overlay.
    pub fn has_delta(&self) -> bool {
        self.deltas.iter().any(|d| !d.overlay.is_empty())
    }

    /// Publishes `updates` as a new engine value at `graph_epoch + 1`.
    ///
    /// While the combined per-machine overlays stay at or below
    /// `fold_threshold` total entries, the base shards are shared
    /// untouched (an `Arc` clone) and only the overlays change — the
    /// cheap publish path. Above the threshold the commit *folds*: the
    /// next value's view — each machine's shard rebuilt from its
    /// effective rows ([`Shard::effective_rows`]) on a scoped thread —
    /// becomes the base of a delta-free engine. Returns the new engine
    /// and whether a fold happened. Either way the logical graph is
    /// identical — `(base ∖ deletes) ∪ inserts` — so query answers never
    /// depend on which side of the threshold a commit landed.
    ///
    /// # Panics
    ///
    /// Panics when an update names a vertex outside the graph's vertex
    /// range: the mutation plane changes edges, never the vertex set.
    pub fn with_updates(
        &self,
        updates: &[EdgeUpdate],
        fold_threshold: usize,
    ) -> (DistributedEngine, bool) {
        if updates.is_empty() {
            // An epoch fence: share base, overlays and view alike.
            let next = self.sharing_base(self.deltas.clone());
            if let Some(view) = self.view.get() {
                next.view.get_or_init(|| Arc::clone(view));
            }
            return next.fold_above(fold_threshold);
        }
        let n = self.num_vertices();
        let mut deltas: Vec<DeltaOverlay> = self.deltas.iter().map(|d| d.overlay.clone()).collect();
        for u in updates {
            assert!(u.src() < n && u.dst() < n, "edge update {u:?} outside vertex range 0..{n}");
            deltas[self.partition.owner(u.src())].apply(u);
        }
        self.sharing_base(deltas.into_iter().map(PublishedDelta::new).collect())
            .fold_above(fold_threshold)
    }

    /// This value as published, or — past `fold_threshold` overlay
    /// entries — folded: its view promoted to the base of a delta-free
    /// value at the same epoch. Says whether it folded.
    fn fold_above(self, fold_threshold: usize) -> (DistributedEngine, bool) {
        if self.delta_entries() <= fold_threshold {
            return (self, false);
        }
        let fresh = (0..self.num_machines()).map(|_| Arc::default()).collect();
        let base = Arc::clone(self.view());
        (Self::assemble(self.partition, base, fresh, self.graph_epoch, self.config), true)
    }

    /// The next epoch's value over this value's base and `deltas`.
    fn sharing_base(&self, deltas: Vec<Arc<PublishedDelta>>) -> DistributedEngine {
        let base = Arc::clone(&self.base);
        Self::assemble(self.partition.clone(), base, deltas, self.graph_epoch + 1, self.config)
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.config.num_machines
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> u64 {
        self.partition.num_vertices()
    }

    /// Total shard memory (bytes) — the "cached subgraph shard" cost:
    /// every base shard plus the one degree array. Neither the view of a
    /// value with an overlay nor an in-edge CSC is counted.
    pub fn shard_bytes(&self) -> usize {
        self.shards().iter().map(Shard::size_bytes).sum::<usize>()
            + self.base.out_degrees.len() * std::mem::size_of::<u32>()
    }

    /// A cluster of this engine's width and network model for one job:
    /// its machine threads are joined when it drops.
    fn one_shot_cluster(&self) -> PersistentCluster {
        PersistentCluster::with_model(self.config.num_machines, self.config.net_model)
    }

    /// Runs `worker` on every machine of a one-shot cluster and returns
    /// every machine's result and the job's traffic. A machine that
    /// panics poisons the job's barrier, so its peers fail instead of
    /// waiting for it, and the panic is raised here, naming the machine
    /// and its message. (Without a chaos plan a job on a fresh cluster
    /// fails in no other way.)
    fn run_one_shot<R: Send>(
        &self,
        worker: impl Fn(CommHandle<EngineMsg>) -> R + Sync,
    ) -> (Vec<R>, TrafficReport) {
        self.one_shot_cluster().submit(worker).unwrap_or_else(|e| panic!("{e}"))
    }

    // ------------------------------------------------------------------
    // Bit-frontier batched traversal (§3.5)
    // ------------------------------------------------------------------

    /// Runs up to [`MAX_LANES`] concurrent k-hop traversals as one
    /// shared batch.
    ///
    /// `sources[i]` and `ks[i]` define lane `i`'s source vertex and hop
    /// budget (`u32::MAX` = full BFS). All lanes share every edge-set
    /// scan — the core concurrency optimization of the paper. The bit
    /// state is sized at the narrowest supported width
    /// `W ∈ {64, 128, 256, 512}` that fits the lane count.
    ///
    /// Runs on a one-shot cluster, whose thread spawn and join count in
    /// `exec_time`.
    ///
    /// Fails with a shape [`EngineError`] — without running a batch —
    /// when the lane count is out of range, `sources` and `ks`
    /// disagree, or a source lies outside the vertex range, and with
    /// [`EngineError::Cluster`] when a machine dies mid-batch.
    pub fn run_traversal_batch(
        &self,
        sources: &[VertexId],
        ks: &[u32],
    ) -> Result<BatchResult, EngineError> {
        let start = Instant::now();
        let mut result = self.run_traversal_batch_on(&self.one_shot_cluster(), sources, ks)?;
        result.exec_time = start.elapsed();
        Ok(result)
    }

    /// [`DistributedEngine::run_traversal_batch`] on a caller-provided
    /// [`PersistentCluster`], whose machine threads outlive the batch.
    ///
    /// Errors instead of panicking when a machine dies mid-batch, so a
    /// caller can fail the affected queries and keep the cluster.
    pub fn run_traversal_batch_on(
        &self,
        cluster: &PersistentCluster,
        sources: &[VertexId],
        ks: &[u32],
    ) -> Result<BatchResult, EngineError> {
        let lanes = self.check_batch(cluster, sources, ks)?;
        let start = Instant::now();
        let (outs, traffic) =
            cluster.submit::<EngineMsg, _, _>(|h| self.batch_worker(sources, ks, None, h))?;
        Ok(self.stitch_batch(outs, traffic, lanes, start.elapsed()))
    }

    /// Validates a batch before any machine thread runs — lane count in
    /// `1..=MAX_LANES`, matching hop budgets, every source inside the
    /// vertex range, and `cluster` as wide as the engine — and returns
    /// the lane count. An out-of-range source would seed no shard while
    /// the stitched result still counted it at level 0, so it is a hard
    /// error here.
    fn check_batch(
        &self,
        cluster: &PersistentCluster,
        sources: &[VertexId],
        ks: &[u32],
    ) -> Result<usize, EngineError> {
        let lanes = sources.len();
        if lanes == 0 || lanes > MAX_LANES {
            return Err(EngineError::BadLaneCount { lanes, max: MAX_LANES });
        }
        if ks.len() != lanes {
            return Err(EngineError::LaneBudgetMismatch { sources: lanes, ks: ks.len() });
        }
        let n = self.num_vertices();
        for (lane, &src) in sources.iter().enumerate() {
            if src >= n {
                return Err(EngineError::SourceOutOfRange { lane, source: src, num_vertices: n });
            }
        }
        if cluster.num_machines() != self.config.num_machines {
            return Err(EngineError::InvalidConfig(format!(
                "cluster has {} machines but the engine is partitioned over {}",
                cluster.num_machines(),
                self.config.num_machines
            )));
        }
        Ok(lanes)
    }

    /// One machine's share of a bit-frontier batch — the one superstep
    /// loop: resume or seed, then alternate shared edge-set scans with
    /// frontier exchange until every lane is globally quiet or out of
    /// hop budget.
    ///
    /// With `recovery` — the attempt's [`RecoveryStore`] and the
    /// checkpoint interval — the machine resumes from an installed
    /// snapshot instead of seeding, commits a checkpoint at every
    /// interval boundary, logs its outgoing frontier messages, records
    /// the agreed live mask per boundary and, on a poisoned barrier (a
    /// peer died), parks its boundary state in the store and returns
    /// `None`, so healthy partitions survive a peer's crash with their
    /// work intact. Without it a poisoned barrier panics like any
    /// barrier wait, and the caller recovers by re-running the batch.
    fn batch_worker(
        &self,
        sources: &[VertexId],
        ks: &[u32],
        recovery: Option<(&RecoveryStore, u32)>,
        h: CommHandle<EngineMsg>,
    ) -> Option<MachineOut> {
        let id = h.id();
        let wobs = self.worker_obs(&h);
        let lanes = sources.len();
        let width = LaneWidth::for_lanes(lanes);
        let all_lanes = LaneMask::all(lanes);
        let budget = BudgetMasks::new(ks);
        let resume = recovery.and_then(|(store, _)| store.take_resume(id));
        if let (Some(w), Some(snap)) = (&wobs, &resume) {
            w.mo.tracer().instant("resume", w.mo.ctx_at(snap.boundary), 0);
        }
        let (mut run, mut hop) =
            PartitionRun::start(&self.shards()[id], self.graph_epoch, sources, resume);
        let overlay = self.overlay_scan(id, wobs.as_ref().map(|w| &*w.h));
        // A peer died: park this partition's state at `boundary` for
        // the recovery pass, or die with it when nothing will resume.
        let park = |run: &PartitionRun, boundary: u32| -> Option<MachineOut> {
            let Some((store, _)) = recovery else { panic!("{BarrierPoisoned}") };
            if let Some(w) = &wobs {
                w.mo.tracer().instant("save", w.mo.ctx_at(boundary), 0);
            }
            store.save(id, run.snapshot(boundary));
            None
        };
        // Scan work of this attempt only (a resume does not re-count
        // the scans its snapshot's supersteps already performed).
        let mut scans = 0u64;
        loop {
            // Boundary `hop`: commit *before* the fault point so that
            // a machine scripted to die at a commit boundary still
            // leaves a uniform committed set behind. The drop-counter
            // gate is uniform here: it is only mutated by sends, and
            // no machine is past this superstep's sends yet.
            if let Some((store, interval)) = recovery {
                if hop > 0 && hop % interval == 0 && h.chaos_dropped() == 0 {
                    let snap = run.snapshot(hop);
                    if let Some(w) = &wobs {
                        let bytes = ((snap.frontier.len() + snap.visited.len()) * 8) as u64;
                        w.h.checkpoint_bytes.add(bytes);
                        w.mo.tracer().instant("checkpoint_commit", w.mo.ctx_at(hop), bytes);
                    }
                    store.commit(id, snap);
                }
            }
            // Chaos seam: a plan can schedule this machine's death at
            // superstep `hop`. Free without an armed plan.
            h.fault_point(hop);
            if let Some(w) = &wobs {
                w.superstep_enter(hop);
            }
            run.bf.mask_frontier(budget.at(hop));
            scans +=
                self.scan_and_send(&mut run.bf, overlay, hop, recovery.map(|(store, _)| store), &h);
            if h.try_barrier().is_err() {
                // Frontier and visited words still hold boundary `hop`
                // (advance has not run); only `next` holds partial
                // scan results, which a resume re-derives.
                run.bf.clear_next();
                return park(&run, hop);
            }
            for env in h.drain() {
                if let EngineMsg::Frontier(batch) = env.payload {
                    run.bf.absorb(&batch);
                }
            }
            let adv = run.advance();
            if let Some(w) = &wobs {
                w.superstep_exit(hop, adv.new_per_lane[..lanes].iter().sum());
            }
            let Ok(active) = h.try_barrier_reduce_words(adv.active_lanes.raw()) else {
                // Advance already ran: this is boundary `hop + 1`.
                return park(&run, hop + 1);
            };
            hop += 1;
            // Next expansion only serves lanes with hop budget left.
            let live =
                LaneMask::from_words(&active[..width.words()]).and(budget.at(hop)).and(&all_lanes);
            // All machines record the identical post-reduce mask, so a
            // later replay can reconstruct completion bookkeeping.
            if let Some((store, _)) = recovery {
                store.record_live(hop, live);
            }
            run.retire(&live);
            if live.is_zero() {
                break;
            }
        }
        Some(run.finish(sources, scans))
    }

    /// Superstep `hop`'s scan and frontier exchange on machine `h.id()`:
    /// scans the shard beside its `overlay`, buckets the emitted remote
    /// rows per owner at the batch's own stride, and sends one
    /// `Frontier` message per non-empty owner — logging it to `log`
    /// first on the recoverable path; log and message share the batch.
    /// Returns the edge-set rows scanned.
    ///
    /// [`BitFrontier::scan`] emits each remote destination once,
    /// coalesced, in ascending vertex order, so bucketing is a push and
    /// the owner (a vertex range) only ever moves forward.
    fn scan_and_send(
        &self,
        bf: &mut BitFrontier,
        overlay: Option<&OverlayScan>,
        hop: u32,
        log: Option<&RecoveryStore>,
        h: &CommHandle<EngineMsg>,
    ) -> u64 {
        let id = h.id();
        let ranges = self.partition.ranges();
        let mut outbox = vec![FrontierBatch::new(bf.width().words()); ranges.len()];
        let mut owner = 0;
        let scans = bf.scan(&self.shards()[id], overlay, |t, row| {
            while ranges[owner].end <= t {
                owner += 1;
            }
            outbox[owner].push(t, row);
        });
        for (m, batch) in outbox.into_iter().enumerate() {
            if !batch.is_empty() {
                let batch = Arc::new(batch);
                // Log before sending: the log must cover anything a
                // replay could need to re-deliver.
                if let Some(store) = log {
                    store.log_merge(id, hop, m, &batch);
                }
                h.send(m, EngineMsg::Frontier(batch));
            }
        }
        scans
    }

    /// Merges per-machine batch outputs into the global [`BatchResult`].
    ///
    /// The worker loop only breaks on a global `live == 0` agreed at a
    /// completed barrier, so on an `Ok` submission every machine ran to
    /// completion and reported `Some`.
    fn stitch_batch(
        &self,
        outs: Vec<Option<MachineOut>>,
        traffic: TrafficReport,
        lanes: usize,
        exec_time: Duration,
    ) -> BatchResult {
        let outs: Vec<MachineOut> = outs
            .into_iter()
            .map(|o| o.expect("machine parked its state on an Ok submission"))
            .collect();
        // Stitch machine-local counts into global per-level/per-lane.
        // Supersteps are merged as a max across machines (a replayed or
        // degraded partition may report fewer locally), never taken
        // from machine 0 alone.
        let supersteps = outs.iter().map(|o| o.supersteps).max().unwrap_or(0);
        let levels = outs.iter().map(|o| o.per_level_local.len()).max().unwrap_or(0);
        let mut per_level = vec![vec![0u64; lanes]; levels + 1];
        // Level 0: sources — every source was range-checked by
        // `check_batch`, so each seeds exactly one shard.
        per_level[0][..lanes].fill(1);
        let mut per_lane_visited = vec![0u64; lanes];
        // A lane completes when its *global* frontier empties; each
        // machine stamps the same boundary, but elapsed clocks differ,
        // so report the per-lane max — the last machine to notice.
        let mut lane_completion = vec![Duration::ZERO; lanes];
        for o in &outs {
            for (h, row) in o.per_level_local.iter().enumerate() {
                for (lane, &c) in row.iter().enumerate() {
                    per_level[h + 1][lane] += c;
                }
            }
            for (lane, &c) in o.visited_local.iter().enumerate() {
                per_lane_visited[lane] += c;
            }
            for (lane, &d) in o.lane_completion.iter().enumerate() {
                lane_completion[lane] = lane_completion[lane].max(d);
            }
        }
        // Trim trailing all-zero levels (the final empty superstep).
        while per_level.len() > 1 && per_level.last().unwrap().iter().all(|&c| c == 0) {
            per_level.pop();
        }
        BatchResult {
            lanes,
            scans: outs.iter().map(|o| o.scans).sum(),
            per_lane_visited,
            per_level,
            lane_completion,
            supersteps,
            exec_time,
            per_machine_busy: outs.iter().map(|o| o.busy).collect(),
            traffic,
        }
    }

    // ------------------------------------------------------------------
    // Fault-tolerant batched traversal (checkpointing + replay)
    // ------------------------------------------------------------------

    /// Runs a traversal batch with superstep checkpointing and
    /// recovery, optionally under an injected [`FaultPlan`].
    ///
    /// **Sync mode** uses confined recovery: every partition commits
    /// its bit-packed state at `recovery.checkpoint_interval`
    /// boundaries and logs outgoing messages; when a machine dies, the
    /// healthy partitions save their boundary state and the failed
    /// partition alone is replayed from its last committed checkpoint
    /// (consuming the logs), after which all partitions *resume* —
    /// healthy work since superstep 0 is never re-executed. When
    /// confined recovery's preconditions fail (messages were dropped,
    /// saves are missing or at mixed boundaries), the batch falls back
    /// to a global rollback onto the committed checkpoint set, or a
    /// fresh restart when there is none.
    ///
    /// **Async mode** runs the same loop without a recovery store — no
    /// checkpoints, no logs — and recovers every recoverable failure
    /// by whole-batch re-execution.
    ///
    /// Returns the batch result plus a [`RecoveryReport`] of what
    /// recovery did. Fails with the last cluster error (wrapped in
    /// [`EngineError::Cluster`]) once `recovery.max_recoveries` is
    /// exhausted, immediately for non-recoverable errors, and with a
    /// shape or configuration error — before running anything — for
    /// invalid batches.
    pub fn run_traversal_batch_recoverable(
        &self,
        cluster: &PersistentCluster,
        sources: &[VertexId],
        ks: &[u32],
        recovery: &RecoveryConfig,
        fault: Option<FaultInjection<'_>>,
    ) -> Result<(BatchResult, RecoveryReport), EngineError> {
        let lanes = self.check_batch(cluster, sources, ks)?;
        if recovery.checkpoint_interval == 0 {
            return Err(EngineError::InvalidConfig(
                "recovery.checkpoint_interval must be > 0 \
                 (a zero interval would never commit a checkpoint, degrading \
                 every recovery to a full restart)"
                    .into(),
            ));
        }
        let mut report = RecoveryReport::default();
        let start = Instant::now();
        // Trace coordinates for coordinator-side recovery events: the
        // injected job number when a plan is in force (so engine events
        // line up with service/comm events), else the cluster
        // generation at entry.
        let job = fault.map(|fi| fi.job).unwrap_or_else(|| cluster.generation());
        let first_attempt = fault.map(|fi| fi.first_attempt).unwrap_or(0);
        let coord = cluster.obs().map(|o| o.trace.tracer(COORD));

        let store = (self.config.mode == UpdateMode::Sync)
            .then(|| RecoveryStore::new(self.config.num_machines));
        let worker_recovery = store.as_ref().map(|s| (s, recovery.checkpoint_interval));
        loop {
            let attempt = first_attempt + report.attempts;
            report.attempts += 1;
            let chaos = fault.map(|fi| ChaosRun::new(fi.plan.clone(), fi.job, attempt));
            let commits_before = store.as_ref().map_or(0, RecoveryStore::commits);
            let res = cluster.submit_with_chaos::<EngineMsg, _, _>(chaos.as_ref(), |h| {
                self.batch_worker(sources, ks, worker_recovery, h)
            });
            report.checkpoints_taken +=
                store.as_ref().map_or(0, RecoveryStore::commits) - commits_before;
            match res {
                Ok((outs, traffic)) => {
                    let result = self.stitch_batch(outs, traffic, lanes, start.elapsed());
                    return Ok((result, report));
                }
                Err(e) if e.is_recoverable() && report.recoveries < recovery.max_recoveries => {
                    report.recoveries += 1;
                    let ctx = TraceCtx { job, attempt, superstep: 0, machine: COORD };
                    let trace = coord.as_ref().map(|t| (t, ctx));
                    match &store {
                        Some(store) => {
                            let dropped = chaos.as_ref().map_or(0, ChaosRun::dropped);
                            self.plan_recovery(&e, dropped, store, sources, ks, &mut report, trace);
                        }
                        None => {
                            report.full_rollbacks += 1;
                            if let Some((t, ctx)) = trace {
                                t.instant("full_rollback", ctx, 0);
                            }
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Decides between confined replay and global rollback after a
    /// failed sync-mode attempt, and installs every machine's resume
    /// state for the next attempt.
    #[allow(clippy::too_many_arguments)]
    fn plan_recovery(
        &self,
        err: &ClusterError,
        dropped: u64,
        store: &RecoveryStore,
        sources: &[VertexId],
        ks: &[u32],
        report: &mut RecoveryReport,
        trace: Option<(&Tracer, TraceCtx)>,
    ) {
        let p = self.config.num_machines;
        let saves: Vec<Option<PartitionSnapshot>> = (0..p).map(|i| store.take_saved(i)).collect();
        let target = saves.iter().flatten().map(|s| s.boundary).next();
        let uniform_saves = target.is_some_and(|t| saves.iter().flatten().all(|s| s.boundary == t));
        let failed: Vec<usize> =
            saves.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
        // Confined replay is sound only when the failure was a crash
        // (not message loss: logs record send *intent*, not delivery),
        // at least one machine saved poison-time state, every save sits
        // at the same boundary, and someone actually failed.
        let confined = dropped == 0
            && matches!(err, ClusterError::MachinePanicked { .. })
            && uniform_saves
            && !failed.is_empty()
            && failed.len() < p;
        if confined {
            let target = target.unwrap();
            for &f in &failed {
                let base = store.committed_clone(f);
                if base.is_some() {
                    report.checkpoints_restored += 1;
                }
                let (snap, replayed) = self.replay_partition(f, base, target, store, sources, ks);
                report.partitions_replayed += 1;
                report.supersteps_replayed += replayed;
                if let Some((t, ctx)) = trace {
                    t.instant("replay_partition", TraceCtx { superstep: target, ..ctx }, f as u64);
                }
                store.set_resume(f, snap);
            }
            for (i, save) in saves.into_iter().enumerate() {
                if let Some(s) = save {
                    store.set_resume(i, s);
                }
            }
        } else {
            // Global rollback: restart every partition from the
            // committed checkpoint set if one exists at a uniform
            // boundary, else from scratch. Execution-derived state
            // (saves, logs, live masks) may be tainted — drop it.
            report.full_rollbacks += 1;
            let committed: Vec<Option<PartitionSnapshot>> =
                (0..p).map(|i| store.committed_clone(i)).collect();
            let usable = committed.iter().all(Option::is_some)
                && committed
                    .iter()
                    .flatten()
                    .map(|s| s.boundary)
                    .collect::<Vec<_>>()
                    .windows(2)
                    .all(|w| w[0] == w[1]);
            store.clear_execution_state();
            if let Some((t, ctx)) = trace {
                let step =
                    if usable { committed.iter().flatten().next().unwrap().boundary } else { 0 };
                t.instant("full_rollback", TraceCtx { superstep: step, ..ctx }, usable as u64);
            }
            if usable {
                for (i, c) in committed.into_iter().enumerate() {
                    store.set_resume(i, c.unwrap());
                    report.checkpoints_restored += 1;
                }
            }
        }
    }

    /// Replays partition `f` inline (on the coordinator thread) from
    /// `base` (its last committed checkpoint, or the seeded state) up
    /// to the `target` boundary, consuming the message logs in place
    /// of live peers. Remote emissions are discarded — the original
    /// execution already delivered them before the crash. Returns the
    /// reconstructed boundary snapshot and the supersteps replayed.
    fn replay_partition(
        &self,
        f: usize,
        base: Option<PartitionSnapshot>,
        target: u32,
        store: &RecoveryStore,
        sources: &[VertexId],
        ks: &[u32],
    ) -> (PartitionSnapshot, u64) {
        let (mut run, from) =
            PartitionRun::start(&self.shards()[f], self.graph_epoch, sources, base);
        let budget = BudgetMasks::new(ks);
        let overlay = self.overlay_scan(f, None);
        for hop in from..target {
            run.bf.mask_frontier(budget.at(hop));
            run.bf.scan(run.shard, overlay, |_, _| {}); // peers already received these
            for batch in store.logged_to(f, hop) {
                run.bf.absorb(&batch);
            }
            run.advance();
            let live = store
                .live_at(hop + 1)
                .expect("healthy machines recorded the live mask for every replayed boundary");
            run.retire(&live);
        }
        (run.snapshot(target), u64::from(target - from))
    }

    /// Rebuilds this engine's graph onto `num_machines` machines — the
    /// service's graceful-degradation path after repeated failures of
    /// the same machine index. The edge list is reconstructed from the
    /// shards (the engine does not retain the original input); any live
    /// delta overlay is folded in, so the degraded engine serves the
    /// same logical snapshot — degradation changes the physical layout,
    /// never the epoch.
    pub fn repartitioned(&self, num_machines: usize) -> DistributedEngine {
        assert!(num_machines >= 1, "cannot degrade below one machine");
        let mut edges =
            EdgeList::with_capacity(self.shards().iter().map(Shard::num_out_edges).sum());
        edges.set_num_vertices(self.num_vertices());
        for (shard, d) in self.shards().iter().zip(&self.deltas) {
            for e in shard.effective_rows(&d.overlay).edges() {
                edges.push(e);
            }
        }
        let mut e = DistributedEngine::new(&edges, EngineConfig { num_machines, ..self.config });
        e.graph_epoch = self.graph_epoch;
        e
    }

    // ------------------------------------------------------------------
    // Queue-based traversal (Listing 2)
    // ------------------------------------------------------------------

    /// Runs one k-hop query through the queue-based `Traverse` path over
    /// the view (built before the clock starts), honouring
    /// [`EngineConfig::mode`]: sync runs [`QueueKhop`] on the BSP driver,
    /// one superstep per level; async runs free to quiescence.
    pub fn run_single_queue(
        &self,
        sources: &[VertexId],
        k: u32,
        value_mode: ValueMode,
    ) -> SingleResult {
        let sync = self.config.mode == UpdateMode::Sync;
        let view = self.view();
        let start = Instant::now();
        let (outs, traffic) = if sync {
            let (outs, traffic, _) =
                self.run_bsp(|m| QueueKhop::new(&view.shards[m], sources, k, value_mode));
            (outs, traffic)
        } else {
            self.run_one_shot(|h| self.async_queue(h, sources, k))
        };
        let exec_time = start.elapsed();
        SingleResult {
            visited: outs.iter().flat_map(|o| &o.per_level).sum(),
            per_level: sum_levels(outs.iter().map(|o| &o.per_level[..])),
            // Sync: the levels closed, every barrier but the last, which
            // found every queue empty. Async: the tasks processed.
            supersteps: if sync {
                outs[0].supersteps - 1
            } else {
                outs.iter().map(|o| o.supersteps).sum()
            },
            exec_time,
            traffic,
            peak_value_entries: outs.iter().map(|o| o.peak_value_entries).max().unwrap_or(0),
        }
    }

    /// One machine of the asynchronous k-hop: label-correcting
    /// expansion with eager sends, ended by quiescence. A depth improved
    /// after a first visit re-expands its vertex, which keeps the
    /// reachable set exact without supersteps. Counts tasks as supersteps.
    fn async_queue(&self, h: CommHandle<EngineMsg>, sources: &[VertexId], k: u32) -> KhopLevels {
        let shard = &self.view().shards[h.id()];
        let base = shard.local_range().start;
        let mut depth = vec![u32::MAX; shard.num_local()];
        let mut queue: Vec<(VertexId, u32)> = Vec::new();
        // Queues local `v` at depth `d` when `d` improves on its best.
        let relax = |depth: &mut [u32], queue: &mut Vec<_>, v: VertexId, d: u32| {
            let best = &mut depth[(v - base) as usize];
            if d < *best {
                *best = d;
                queue.push((v, d));
            }
        };
        for &s in sources.iter().filter(|&&s| shard.is_local(s)) {
            relax(&mut depth, &mut queue, s, 0);
        }
        let mut tasks = 0u64;
        loop {
            // Prefer local work.
            if let Some((v, d)) = queue.pop() {
                h.set_idle(false);
                tasks += 1;
                if d < k {
                    for (t, _) in shard.row(v) {
                        if shard.is_local(t) {
                            relax(&mut depth, &mut queue, t, d + 1);
                        } else {
                            let task = vec![(t, u64::from(d + 1))];
                            h.send(self.partition.owner(t), EngineMsg::Pcm(task));
                        }
                    }
                }
                continue;
            }
            // Queue empty: poll the inbox.
            match h.try_recv() {
                Some(env) => {
                    // Mark busy *before* acknowledging, so the cluster
                    // can't look quiescent while the work this message
                    // carries is still in our queue.
                    h.set_idle(false);
                    if let EngineMsg::Pcm(batch) = env.payload {
                        for (v, d) in batch {
                            relax(&mut depth, &mut queue, v, d as u32);
                        }
                    }
                    h.message_processed();
                }
                None => {
                    h.set_idle(true);
                    if h.quiescent() {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        KhopLevels { per_level: level_counts(&depth), supersteps: tasks, peak_value_entries: 0 }
    }

    // ------------------------------------------------------------------
    // Partition-centric programs (Listing 1) and GAS (Listing 3)
    // ------------------------------------------------------------------

    /// Runs `iterations` of a GAS program (e.g. [`crate::gas::PageRank`])
    /// as a [`GasProgram`] on the BSP driver, gathering over
    /// [`DistributedEngine::in_edges`] and scattering by the view's
    /// degrees (both derived before the clock starts): the values of
    /// `graph_epoch()`.
    pub fn run_gas<G: Gas>(&self, gas: &G, iterations: u32) -> GasResult {
        self.in_edges();
        let start = Instant::now();
        let (outs, traffic, per_machine_busy) = self.run_bsp(|_| GasProgram::new(gas, iterations));
        let exec_time = start.elapsed();
        // Partitions own contiguous ranges, in partition order.
        GasResult { values: outs.concat(), iterations, exec_time, per_machine_busy, traffic }
    }

    /// Runs a partition-centric program over the view to global
    /// termination, so it answers for `graph_epoch()`, and returns each
    /// partition's output. The in-edge CSC is derived by the first
    /// [`PartitionCtx::in_neighbors`] call, so a program that only reads
    /// out-edges (SSSP, BFS) never pays for it.
    pub fn run_program<P, F>(&self, factory: F) -> Vec<P::Out>
    where
        P: PartitionProgram,
        F: Fn(usize) -> P + Sync,
        P::Out: Send,
    {
        self.run_bsp(factory).0
    }

    /// The BSP driver: runs `factory(m)` over machine `m`'s part of the
    /// view on every machine `m` of a one-shot cluster until a superstep
    /// has no active partition and sends nothing. The superstep count
    /// advances at every barrier on every partition, halted or not.
    /// Returns each partition's output, the job's traffic, and each
    /// machine's thread CPU time (compute and messages, not barriers).
    fn run_bsp<P, F>(&self, factory: F) -> (Vec<P::Out>, TrafficReport, Vec<Duration>)
    where
        P: PartitionProgram,
        F: Fn(usize) -> P + Sync,
        P::Out: Send,
    {
        let view = self.view();
        let (outs, traffic) = self.run_one_shot(|h| {
            let cpu0 = cgraph_comm::thread_cpu_time();
            let mut program = factory(h.id());
            let mut ctx = PartitionCtx::new(view, h.id(), &self.partition);
            program.init(&mut ctx);
            let mut incoming: Vec<(VertexId, u64)> = Vec::new();
            loop {
                let mut sent = 0;
                for (m, buf) in ctx.take_outbox().into_iter().enumerate() {
                    if !buf.is_empty() {
                        sent += buf.len() as u64;
                        h.send(m, EngineMsg::Pcm(buf));
                    }
                }
                let total = h.barrier_sum(sent + u64::from(!ctx.halted()));
                // Every send of the superstep is in its inbox now. The
                // aggregator's barrier below also keeps each machine's
                // next sends out of a peer's inbox until it has drained.
                incoming.clear();
                for env in h.drain() {
                    if let EngineMsg::Pcm(batch) = env.payload {
                        incoming.extend(batch);
                    }
                }
                // Pregel-style aggregator: one extra reduce per
                // superstep, delivered before the next compute.
                let aggregate = h.barrier_sum(program.aggregate_contribution());
                program.receive_aggregate(aggregate);
                ctx.advance_superstep();
                if total == 0 {
                    break;
                }
                if !incoming.is_empty() {
                    ctx.un_halt();
                }
                if !ctx.halted() {
                    program.compute(&mut ctx, &incoming);
                }
            }
            (program.finish(&ctx), cgraph_comm::thread_cpu_time() - cpu0)
        });
        let (outs, busy) = outs.into_iter().unzip();
        (outs, traffic, busy)
    }
}

/// Per-level counts summed over machines, trailing empty levels
/// trimmed (level 0, the sources, always stays).
fn sum_levels<'a>(machines: impl Iterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut per_level = vec![0u64; 1];
    for levels in machines {
        if levels.len() > per_level.len() {
            per_level.resize(levels.len(), 0);
        }
        for (sum, &c) in per_level.iter_mut().zip(levels) {
            *sum += c;
        }
    }
    while per_level.len() > 1 && per_level.last() == Some(&0) {
        per_level.pop();
    }
    per_level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::PageRank;
    use cgraph_graph::ConsolidationPolicy;

    fn ring(n: u64) -> EdgeList {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    fn engine(edges: &EdgeList, p: usize) -> DistributedEngine {
        DistributedEngine::new(edges, EngineConfig::new(p))
    }

    #[test]
    fn batch_khop_on_ring() {
        let g = ring(20);
        let e = engine(&g, 3);
        let r = e.run_traversal_batch(&[0, 10], &[3, 5]).unwrap();
        // Ring: k hops reach exactly k new vertices.
        assert_eq!(r.per_lane_visited, vec![4, 6]);
        assert_eq!(r.per_level[0], vec![1, 1]);
        assert_eq!(r.per_level[1], vec![1, 1]);
        assert_eq!(r.per_level.len(), 6); // hops 0..=5
        assert_eq!(r.per_level[4], vec![0, 1]); // lane 0 exhausted at k=3
    }

    #[test]
    fn batch_bfs_covers_component() {
        let g = ring(30);
        let e = engine(&g, 4);
        let r = e.run_traversal_batch(&[5], &[u32::MAX]).unwrap();
        assert_eq!(r.per_lane_visited, vec![30]);
        assert_eq!(r.supersteps, 30); // 29 hops + final empty check
    }

    #[test]
    fn batch_matches_queue_single() {
        let g = cgraph_gen::graph500(9, 8, 12);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let e = engine(&g, 3);
        for src in [1u64, 7, 100] {
            let qr = e.run_single_queue(&[src], 3, ValueMode::TwoLevel);
            let br = e.run_traversal_batch(&[src], &[3]).unwrap();
            assert_eq!(br.per_lane_visited[0], qr.visited, "src {src}");
        }
    }

    #[test]
    fn sync_and_async_agree() {
        let g = cgraph_gen::graph500(8, 6, 5);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let sync_e = DistributedEngine::new(&g, EngineConfig::new(3));
        let async_e = DistributedEngine::new(&g, EngineConfig::new(3).asynchronous());
        for src in [0u64, 3, 50] {
            for k in [4, u32::MAX] {
                let s = sync_e.run_single_queue(&[src], k, ValueMode::TwoLevel);
                let a = async_e.run_single_queue(&[src], k, ValueMode::TwoLevel);
                assert_eq!(s.visited, a.visited, "src {src} k {k}");
                assert_eq!(s.per_level, a.per_level, "src {src} k {k}");
            }
        }
    }

    #[test]
    fn queue_traversals_read_the_live_overlay() {
        let g = cgraph_gen::graph500(8, 6, 5);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let n = g.num_vertices();
        let deletes = g.edges().iter().step_by(7).map(|x| EdgeUpdate::delete(x.src, x.dst));
        let inserts = (1..40u64).map(|i| EdgeUpdate::insert(i * 5 % n, i * 11 % n));
        let updates: Vec<EdgeUpdate> = deletes.chain(inserts).collect();
        for (mode, config) in
            [("sync", EngineConfig::new(3)), ("async", EngineConfig::new(3).asynchronous())]
        {
            let (overlaid, _) =
                DistributedEngine::new(&g, config).with_updates(&updates, usize::MAX);
            let (folded, did_fold) = overlaid.with_updates(&[], 0);
            assert!(overlaid.has_delta() && did_fold);
            for src in [0u64, 3, 50] {
                for k in [2, u32::MAX] {
                    let a = overlaid.run_single_queue(&[src], k, ValueMode::TwoLevel);
                    let b = folded.run_single_queue(&[src], k, ValueMode::TwoLevel);
                    assert_eq!(a.visited, b.visited, "{mode} src {src} k {k}");
                    assert_eq!(a.per_level, b.per_level, "{mode} src {src} k {k}");
                }
            }
        }
    }

    #[test]
    fn multi_source_queue_query() {
        let g = ring(20);
        let e = engine(&g, 2);
        let r = e.run_single_queue(&[0, 10], 2, ValueMode::TwoLevel);
        assert_eq!(r.visited, 6); // two disjoint 3-vertex arcs
        assert_eq!(r.per_level, vec![2, 2, 2]);
    }

    #[test]
    fn pagerank_sums_preserved_shape() {
        // On a ring every vertex is symmetric: all ranks equal 1.0
        // under Listing 3's formula.
        let g = ring(12);
        let e = engine(&g, 3);
        let r = e.run_gas(&PageRank::default(), 20);
        for (v, val) in r.values.iter().enumerate() {
            assert!((val - 1.0).abs() < 1e-6, "vertex {v} rank {val}");
        }
    }

    #[test]
    fn pagerank_machine_count_invariant() {
        let g = cgraph_gen::graph500(8, 6, 3);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let r1 = DistributedEngine::new(&g, EngineConfig::new(1)).run_gas(&PageRank::default(), 10);
        let r4 = DistributedEngine::new(&g, EngineConfig::new(4)).run_gas(&PageRank::default(), 10);
        for (a, b) in r1.values.iter().zip(&r4.values) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn traffic_reported_for_cross_machine_runs() {
        let g = ring(20);
        let e = engine(&g, 4);
        let r = e.run_traversal_batch(&[0], &[u32::MAX]).unwrap();
        assert!(r.traffic.total_msgs() > 0, "ring BFS must cross machines");
    }

    /// The visited count, per-level counts and supersteps of a
    /// [`ChainedKhop`](crate::traverse::ChainedKhop) run.
    struct Chained {
        visited: u64,
        per_level: Vec<u64>,
        supersteps: u64,
    }

    fn run_chained(e: &DistributedEngine, sources: &[VertexId], k: u32) -> Chained {
        let outs = e.run_program(|_| crate::traverse::ChainedKhop::new(sources, k));
        let per_level = sum_levels(outs.iter().map(|o| &o.per_level[..]));
        Chained { visited: per_level.iter().sum(), per_level, supersteps: outs[0].supersteps }
    }

    #[test]
    fn chained_matches_level_synchronous() {
        let g = cgraph_gen::graph500(9, 8, 44);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let e = engine(&g, 3);
        for src in [0u64, 9, 77] {
            for k in [1u32, 3, u32::MAX] {
                let level = e.run_single_queue(&[src], k, ValueMode::TwoLevel);
                let chained = run_chained(&e, &[src], k);
                assert_eq!(chained.visited, level.visited, "src {src} k {k}");
                assert_eq!(chained.per_level, level.per_level, "src {src} k {k}");
            }
        }
    }

    #[test]
    fn chaining_needs_fewer_supersteps_than_level_sync() {
        // A long ring split over 2 machines: level-synchronous BFS
        // needs ~one superstep per hop (ring length), while the chained
        // partition-centric traversal needs ~one per boundary crossing
        // (a handful) — the §3.3 "fewer supersteps" claim.
        let g: EdgeList = (0..200u64).map(|v| (v, (v + 1) % 200)).collect();
        let e = engine(&g, 2);
        let level = e.run_single_queue(&[0], u32::MAX, ValueMode::TwoLevel);
        let chained = run_chained(&e, &[0], u32::MAX);
        assert_eq!(level.visited, chained.visited);
        assert!(
            chained.supersteps * 10 < level.supersteps,
            "chained {} vs level-sync {}",
            chained.supersteps,
            level.supersteps
        );
    }

    #[test]
    fn confined_replay_recovers_crash_with_identical_result() {
        let g = ring(64);
        let e = engine(&g, 4);
        let cluster = PersistentCluster::new(4);
        let expect = e.run_traversal_batch(&[0, 16], &[12, 20]).unwrap();
        // Machine 0 dies at superstep 7 on the first attempt only.
        let plan = FaultPlan::new(5).crash(0, 7).heal_after(1);
        let cfg = RecoveryConfig { checkpoint_interval: 3, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) = e
            .run_traversal_batch_recoverable(&cluster, &[0, 16], &[12, 20], &cfg, Some(fault))
            .unwrap();
        assert_eq!(rec.per_lane_visited, expect.per_lane_visited);
        assert_eq!(rec.per_level, expect.per_level);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.full_rollbacks, 0, "crash must take the confined path");
        assert_eq!(report.partitions_replayed, 1);
        assert!(report.checkpoints_restored >= 1, "replay must start from a checkpoint");
        // Replay runs from boundary 6 (last committed) to 7 — exactly
        // one superstep, not seven: healthy work is never re-executed.
        assert_eq!(report.supersteps_replayed, 1);
    }

    #[test]
    fn crash_before_first_checkpoint_replays_from_scratch_confined() {
        let g = ring(40);
        let e = engine(&g, 2);
        let cluster = PersistentCluster::new(2);
        let expect = e.run_traversal_batch(&[0], &[10]).unwrap();
        let plan = FaultPlan::new(2).crash(1, 2).heal_after(1);
        let cfg = RecoveryConfig { checkpoint_interval: 8, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) =
            e.run_traversal_batch_recoverable(&cluster, &[0], &[10], &cfg, Some(fault)).unwrap();
        assert_eq!(rec.per_lane_visited, expect.per_lane_visited);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.partitions_replayed, 1);
        assert_eq!(report.checkpoints_restored, 0, "no checkpoint existed yet");
        assert_eq!(report.supersteps_replayed, 2, "replay re-runs supersteps 0 and 1");
    }

    #[test]
    fn message_loss_triggers_global_rollback_with_correct_result() {
        let g = ring(48);
        let e = engine(&g, 3);
        let cluster = PersistentCluster::new(3);
        let expect = e.run_traversal_batch(&[0, 24], &[15, 15]).unwrap();
        let plan = FaultPlan::new(77).with_drop(0.3).heal_after(1);
        let cfg = RecoveryConfig { checkpoint_interval: 4, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) = e
            .run_traversal_batch_recoverable(&cluster, &[0, 24], &[15, 15], &cfg, Some(fault))
            .unwrap();
        assert_eq!(rec.per_lane_visited, expect.per_lane_visited);
        assert_eq!(rec.per_level, expect.per_level);
        assert!(report.full_rollbacks >= 1, "lossy plans must not take the confined path");
    }

    #[test]
    fn resumed_machine_relogs_its_superstep_entry_for_entry() {
        // Machine 1 dies entering superstep 2. Machine 0 has logged and
        // sent superstep 2's frontier by the time the barrier reports
        // the death, saves boundary 2, and after the confined replay
        // re-runs — and re-logs — that superstep. The re-log must leave
        // the log exactly as the first attempt wrote it.
        let n = 48u64;
        let g: EdgeList = (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v * 5 + 2) % n)]).collect();
        let e = engine(&g, 2);
        let cluster = PersistentCluster::new(2);
        let store = RecoveryStore::new(2);
        let sources: Vec<u64> = (0..70).map(|i| (i * 11) % n).collect(); // W = 128
        let ks: Vec<u32> = (0..70).map(|i| 3 + i % 4).collect();
        let plan = FaultPlan::new(3).crash(1, 2).heal_after(1);
        let attempt = |a: u32| {
            let chaos = ChaosRun::new(plan.clone(), 0, a);
            cluster.submit_with_chaos::<EngineMsg, _, _>(Some(&chaos), |h| {
                e.batch_worker(&sources, &ks, Some((&store, 4)), h)
            })
        };
        let Err(err) = attempt(0) else { panic!("machine 1 is scripted to die") };
        let first: Vec<_> = (0..3).map(|s| store.logged_to(1, s)).collect();
        assert!(!first[2].is_empty(), "machine 0 logged superstep 2 before the barrier failed");
        assert!(
            first[2].iter().all(|b| b.iter().zip(b.iter().skip(1)).all(|(a, b)| a.0 < b.0)),
            "one entry per vertex, ascending"
        );

        let mut report = RecoveryReport::default();
        e.plan_recovery(&err, 0, &store, &sources, &ks, &mut report, None);
        assert_eq!((report.partitions_replayed, report.full_rollbacks), (1, 0));
        let Ok((outs, _)) = attempt(1) else { panic!("the plan heals after one attempt") };
        for (s, logged) in first.iter().enumerate() {
            assert_eq!(&store.logged_to(1, s as u32), logged, "superstep {s} log changed");
        }
        // And the resumed batch is the fault-free batch.
        let expect = e.run_traversal_batch(&sources, &ks).unwrap();
        let visited: Vec<u64> = (0..sources.len())
            .map(|lane| outs.iter().map(|o| o.as_ref().unwrap().visited_local[lane]).sum())
            .collect();
        assert_eq!(visited, expect.per_lane_visited);
        cluster.shutdown();
    }

    #[test]
    fn async_mode_recovers_by_reexecution() {
        let g = ring(30);
        let e = DistributedEngine::new(&g, EngineConfig::new(2).asynchronous());
        let cluster = PersistentCluster::new(2);
        let plan = FaultPlan::new(9).crash(0, 3).heal_after(1);
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) = e
            .run_traversal_batch_recoverable(
                &cluster,
                &[0],
                &[8],
                &RecoveryConfig::default(),
                Some(fault),
            )
            .unwrap();
        assert_eq!(rec.per_lane_visited, vec![9]);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.full_rollbacks, 1, "async has no confined path");
        assert_eq!(report.checkpoints_taken, 0);
    }

    #[test]
    fn unhealed_crash_exhausts_recoveries() {
        let g = ring(30);
        let e = engine(&g, 2);
        let cluster = PersistentCluster::new(2);
        let plan = FaultPlan::new(4).crash(0, 1); // never heals
        let cfg = RecoveryConfig { checkpoint_interval: 4, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let err = e
            .run_traversal_batch_recoverable(&cluster, &[0], &[10], &cfg, Some(fault))
            .unwrap_err();
        assert!(matches!(err, EngineError::Cluster(ClusterError::MachinePanicked { .. })));
        // Cluster still serves the next (clean) batch.
        let (ok, report) =
            e.run_traversal_batch_recoverable(&cluster, &[0], &[10], &cfg, None).unwrap();
        assert_eq!(ok.per_lane_visited, vec![11]);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn single_machine_crash_rolls_back_globally() {
        // p=1: no healthy peer can save state, so recovery must fall
        // back to a rollback onto the committed checkpoint.
        let g = ring(40);
        let e = engine(&g, 1);
        let cluster = PersistentCluster::new(1);
        let plan = FaultPlan::new(6).crash(0, 9).heal_after(1);
        let cfg = RecoveryConfig { checkpoint_interval: 4, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) =
            e.run_traversal_batch_recoverable(&cluster, &[0], &[20], &cfg, Some(fault)).unwrap();
        assert_eq!(rec.per_lane_visited, vec![21]);
        assert_eq!(report.full_rollbacks, 1);
        assert!(report.checkpoints_restored >= 1, "rollback must reuse the boundary-8 commit");
    }

    #[test]
    fn repartitioned_engine_preserves_results() {
        let g = cgraph_gen::graph500(8, 6, 21);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let e4 = engine(&g, 4);
        let e3 = e4.repartitioned(3);
        assert_eq!(e3.num_machines(), 3);
        assert_eq!(e3.num_vertices(), e4.num_vertices());
        for src in [0u64, 9, 77] {
            let a = e4.run_traversal_batch(&[src], &[4]).unwrap();
            let b = e3.run_traversal_batch(&[src], &[4]).unwrap();
            assert_eq!(a.per_lane_visited, b.per_lane_visited, "src {src}");
            assert_eq!(a.per_level, b.per_level, "src {src}");
        }
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let g = ring(20);
        let e = engine(&g, 2);
        assert_eq!(
            e.run_traversal_batch(&[], &[]).unwrap_err(),
            EngineError::BadLaneCount { lanes: 0, max: MAX_LANES }
        );
        let too_many = vec![0u64; MAX_LANES + 1];
        let too_many_ks = vec![1u32; MAX_LANES + 1];
        assert_eq!(
            e.run_traversal_batch(&too_many, &too_many_ks).unwrap_err(),
            EngineError::BadLaneCount { lanes: MAX_LANES + 1, max: MAX_LANES }
        );
        assert_eq!(
            e.run_traversal_batch(&[0, 1], &[3]).unwrap_err(),
            EngineError::LaneBudgetMismatch { sources: 2, ks: 1 }
        );
        // Satellite fix: an out-of-range source seeds no shard, so it
        // must be rejected instead of silently counted at level 0.
        assert_eq!(
            e.run_traversal_batch(&[5, 99], &[3, 3]).unwrap_err(),
            EngineError::SourceOutOfRange { lane: 1, source: 99, num_vertices: 20 }
        );
        assert!(!e.run_traversal_batch(&[5, 99], &[3, 3]).unwrap_err().is_recoverable());
    }

    #[test]
    fn cluster_width_mismatch_is_a_typed_error() {
        let g = ring(20);
        let e = engine(&g, 2);
        let cluster = PersistentCluster::new(3);
        let on = e.run_traversal_batch_on(&cluster, &[0], &[3]).unwrap_err();
        let rec = e
            .run_traversal_batch_recoverable(&cluster, &[0], &[3], &RecoveryConfig::default(), None)
            .unwrap_err();
        for err in [on, rec] {
            assert!(matches!(&err, EngineError::InvalidConfig(m) if m.contains("3 machines")));
            assert!(!err.is_recoverable());
        }
        // Rejected before any machine thread ran: no job was submitted.
        assert_eq!(cluster.generation(), 0);
        cluster.shutdown();
    }

    #[test]
    fn wide_batch_matches_chunked_64_lane_batches() {
        // 130 lanes (width 256) in one batch vs three 64-lane chunks:
        // per-lane visited and per-level counts must be bit-identical.
        let g = cgraph_gen::graph500(9, 8, 31);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let e = engine(&g, 3);
        let n = e.num_vertices();
        let sources: Vec<u64> = (0..130u64).map(|i| (i * 37) % n).collect();
        let ks: Vec<u32> = (0..130u32).map(|i| 1 + i % 5).collect();
        let wide = e.run_traversal_batch(&sources, &ks).unwrap();
        assert_eq!(wide.lanes, 130);
        for (chunk_idx, (sc, kc)) in sources.chunks(64).zip(ks.chunks(64)).enumerate() {
            let narrow = e.run_traversal_batch(sc, kc).unwrap();
            let off = chunk_idx * 64;
            for lane in 0..sc.len() {
                assert_eq!(
                    wide.per_lane_visited[off + lane],
                    narrow.per_lane_visited[lane],
                    "lane {}",
                    off + lane
                );
            }
            for (h, row) in narrow.per_level.iter().enumerate() {
                for (lane, &c) in row.iter().enumerate() {
                    let wide_c = wide.per_level.get(h).map_or(0, |r| r[off + lane]);
                    assert_eq!(wide_c, c, "hop {h} lane {}", off + lane);
                }
            }
        }
    }

    #[test]
    fn wider_batch_scans_fewer_rows_per_query() {
        // The point of width: one shared scan serves more queries, so
        // scans per query must not grow with lane count.
        let g = cgraph_gen::graph500(10, 8, 5);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let e = engine(&g, 2);
        let n = e.num_vertices();
        let sources: Vec<u64> = (0..128u64).map(|i| (i * 101) % n).collect();
        let ks = vec![4u32; 128];
        let wide = e.run_traversal_batch(&sources, &ks).unwrap();
        let mut chunked_scans = 0u64;
        for (sc, kc) in sources.chunks(64).zip(ks.chunks(64)) {
            chunked_scans += e.run_traversal_batch(sc, kc).unwrap().scans;
        }
        assert!(wide.scans > 0);
        assert!(
            wide.scans <= chunked_scans,
            "wide batch scanned {} rows vs {} for two 64-lane chunks",
            wide.scans,
            chunked_scans
        );
    }

    #[test]
    fn recoverable_wide_batch_survives_crash() {
        let g = ring(64);
        let e = engine(&g, 4);
        let cluster = PersistentCluster::new(4);
        let sources: Vec<u64> = (0..96u64).map(|i| (i * 5) % 64).collect();
        let ks = vec![10u32; 96];
        let expect = e.run_traversal_batch(&sources, &ks).unwrap();
        let plan = FaultPlan::new(11).crash(2, 5).heal_after(1);
        let cfg = RecoveryConfig { checkpoint_interval: 3, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (rec, report) =
            e.run_traversal_batch_recoverable(&cluster, &sources, &ks, &cfg, Some(fault)).unwrap();
        assert_eq!(rec.per_lane_visited, expect.per_lane_visited);
        assert_eq!(rec.per_level, expect.per_level);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.full_rollbacks, 0, "wide crash must take the confined path");
    }

    #[test]
    fn scan_form_is_derived_once_per_published_overlay() {
        use std::sync::atomic::Ordering::Relaxed;
        let derivations = |e: &DistributedEngine| -> Vec<u32> {
            e.deltas.iter().map(|d| d.derivations.load(Relaxed)).collect()
        };
        // One derivation on every machine whose overlay has entries.
        let once = |e: &DistributedEngine| -> Vec<u32> {
            (0..e.num_machines()).map(|m| u32::from(e.delta(m).is_some())).collect()
        };
        let cluster = PersistentCluster::new(4);
        let scan_many = |e: &DistributedEngine| {
            for _ in 0..6 {
                e.run_traversal_batch_on(&cluster, &[0, 20, 5], &[4, 6, 40]).unwrap();
            }
            e.run_traversal_batch(&[9, 31], &[u32::MAX, 3]).unwrap();
        };
        let base = engine(&ring(40), 4);
        let updates =
            [EdgeUpdate::insert(0, 25), EdgeUpdate::delete(1, 2), EdgeUpdate::insert(21, 3)];
        let (e1, _) = base.with_updates(&updates, usize::MAX);
        assert!(once(&e1).contains(&0), "some machine keeps an empty overlay");
        scan_many(&e1);
        assert_eq!(derivations(&e1), once(&e1));
        // An empty commit shares the published value, form included.
        let (e2, _) = e1.with_updates(&[], usize::MAX);
        scan_many(&e2);
        assert_eq!((derivations(&e1), derivations(&e2)), (once(&e1), once(&e1)));
        // A commit with updates publishes new values, derived afresh.
        let (e3, _) = e2.with_updates(&[EdgeUpdate::insert(30, 1)], usize::MAX);
        assert_eq!(derivations(&e3), [0; 4]);
        scan_many(&e3);
        assert_eq!(derivations(&e3), once(&e3));
        cluster.shutdown();
    }

    /// Raw R-MAT (duplicate `(src, dst)` pairs kept) with a distinct
    /// weight per edge, so the order of duplicates is observable.
    fn weighted_rmat() -> EdgeList {
        let mut g = cgraph_gen::graph500(9, 16, 5);
        for (i, e) in g.edges_mut().iter_mut().enumerate() {
            e.weight = 0.5 + i as f32;
        }
        g
    }

    /// Derivations of the in-edge CSC of `e`'s view so far (0 or 1),
    /// read without building the view.
    fn in_edge_derivations(e: &DistributedEngine) -> u32 {
        e.view.get().unwrap_or(&e.base).csc_derivations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Builds of `e`'s view so far (0 or 1).
    fn view_builds(e: &DistributedEngine) -> u32 {
        e.view_builds.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn no_constructor_derives_the_in_edges() {
        let g = weighted_rmat();
        let e = engine(&g, 3);
        let (overlaid, _) = e.with_updates(&[EdgeUpdate::insert(1, 2)], usize::MAX);
        let (fenced, _) = overlaid.with_updates(&[], usize::MAX);
        let (folded, did_fold) = overlaid.with_updates(&[EdgeUpdate::delete(1, 2)], 0);
        assert!(did_fold);
        let degraded = overlaid.repartitioned(2);
        let restored = crate::durability::engine_from_snapshot(
            &crate::durability::snapshot_of(&overlaid, 0),
            EngineConfig::new(3),
        );
        // The serving path on the overlaid value: lane batches three
        // ways, and what a boundary index build reads (base boundary
        // vertices ranked by base degree, then lane batches).
        let cluster = PersistentCluster::new(3);
        overlaid.run_traversal_batch(&[0, 7, 19], &[3, 3, u32::MAX]).unwrap();
        overlaid.run_traversal_batch_on(&cluster, &[1, 2], &[2, 4]).unwrap();
        let recovery = RecoveryConfig::default();
        overlaid.run_traversal_batch_recoverable(&cluster, &[3], &[5], &recovery, None).unwrap();
        let mut boundary: Vec<VertexId> =
            overlaid.shards().iter().flat_map(|s| s.boundary_vertices().iter().copied()).collect();
        boundary.sort_by_key(|&v| (std::cmp::Reverse(overlaid.out_degree(v)), v));
        boundary.truncate(MAX_LANES);
        overlaid.run_traversal_batch(&boundary, &vec![3; boundary.len()]).unwrap();
        cluster.shutdown();
        for (name, x) in [
            ("ingest", &e),
            ("overlay", &overlaid),
            ("empty commit", &fenced),
            ("fold", &folded),
            ("repartitioned", &degraded),
            ("restored", &restored),
        ] {
            assert_eq!((view_builds(x), in_edge_derivations(x)), (0, 0), "{name}");
        }
        // Traversals on the base value never ask for them either.
        e.run_traversal_batch(&[0, 7, 19], &[3, 3, u32::MAX]).unwrap();
        e.run_single_queue(&[5], 4, ValueMode::TwoLevel);
        assert_eq!((view_builds(&e), in_edge_derivations(&e)), (0, 0));
        // Every analytic job on the overlaid value reads one view and
        // one CSC: GAS twice, a program, the sync and the async queue.
        overlaid.run_gas(&PageRank::default(), 2);
        overlaid.run_gas(&PageRank::default(), 2);
        overlaid.run_program(|_| crate::traverse::ChainedKhop::new(&[5], 3));
        overlaid.run_single_queue(&[5], 3, ValueMode::TwoLevel);
        overlaid.run_one_shot(|h| overlaid.async_queue(h, &[5], 3));
        assert_eq!((view_builds(&overlaid), in_edge_derivations(&overlaid)), (1, 1));
    }

    #[test]
    fn gas_and_programs_derive_the_in_edges_once_per_value() {
        let e = engine(&ring(30), 3);
        let first = e.run_gas(&PageRank::default(), 4);
        let second = e.run_gas(&PageRank::default(), 4);
        assert_eq!(in_edge_derivations(&e), 1);
        assert_eq!(first.values, second.values);
        // A partition-centric program reads the same derived view.
        struct InDegreeSum(u64);
        impl PartitionProgram for InDegreeSum {
            type Out = u64;
            fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
                let vs: Vec<VertexId> = ctx.local_vertices().collect();
                self.0 = vs.iter().map(|&v| ctx.in_neighbors(v).len() as u64).sum();
                ctx.vote_to_halt();
            }
            fn compute(&mut self, ctx: &mut PartitionCtx<'_>, _: &[(VertexId, u64)]) {
                ctx.vote_to_halt();
            }
            fn finish(self, _: &PartitionCtx<'_>) -> u64 {
                self.0
            }
        }
        let sums = e.run_program(|_| InDegreeSum(0));
        assert_eq!(sums.iter().sum::<u64>(), 30);
        assert_eq!(in_edge_derivations(&e), 1);
        // An empty commit over the same base reads the same CSC, and
        // one over an overlaid value the same view.
        let (next, _) = e.with_updates(&[], usize::MAX);
        assert!(std::ptr::eq(next.in_edges(), e.in_edges()));
        assert_eq!(in_edge_derivations(&next), 1);
        let (overlaid, _) = e.with_updates(&[EdgeUpdate::insert(3, 9)], usize::MAX);
        overlaid.run_program(|_| InDegreeSum(0));
        let (fenced, _) = overlaid.with_updates(&[], usize::MAX);
        assert!(std::ptr::eq(fenced.in_edges(), overlaid.in_edges()));
        assert_eq!((view_builds(&fenced), in_edge_derivations(&fenced)), (0, 1));
    }

    #[test]
    fn out_edge_programs_derive_no_in_edges() {
        use crate::vcm::{VertexProgram, VertexScope};
        // SSSP's shape: a partition-centric relaxation over weighted
        // out-edges, ring weights all 1.
        struct Relax(Vec<f32>, u64);
        impl PartitionProgram for Relax {
            type Out = Vec<f32>;
            fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
                self.1 = ctx.local_vertices().next().unwrap();
                self.0 =
                    ctx.local_vertices().map(|v| if v == 0 { 0.0 } else { f32::MAX }).collect();
                let seeds: Vec<(VertexId, f32)> =
                    if ctx.is_local_vertex(0) { ctx.out_neighbors_weighted(0) } else { Vec::new() };
                for (t, w) in seeds {
                    ctx.send_to(t, u64::from(w.to_bits()));
                }
                ctx.vote_to_halt();
            }
            fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
                for &(v, bits) in incoming {
                    let d = f32::from_bits(bits as u32);
                    let slot = &mut self.0[(v - self.1) as usize];
                    if d < *slot {
                        *slot = d;
                        for (t, w) in ctx.out_neighbors_weighted(v) {
                            ctx.send_to(t, u64::from((d + w).to_bits()));
                        }
                    }
                }
                ctx.vote_to_halt();
            }
            fn finish(self, _: &PartitionCtx<'_>) -> Vec<f32> {
                self.0
            }
        }
        // BFS as a vertex program (`run_vertex_program`).
        struct Bfs;
        impl VertexProgram for Bfs {
            type Value = u64;
            fn init(&self, _: VertexId) -> u64 {
                u64::MAX
            }
            fn compute(&self, s: &mut VertexScope<'_, '_>, v: VertexId, d: &mut u64, m: &[u64]) {
                let proposal =
                    if s.superstep() == 1 && v == 0 { Some(0) } else { m.iter().min().copied() };
                if let Some(p) = proposal.filter(|&p| p < *d) {
                    *d = p;
                    for t in s.out_neighbors(v) {
                        s.send_to(t, p + 1);
                    }
                }
                s.vote_to_halt();
            }
        }
        let e = engine(&ring(30), 3);
        let dist: Vec<f32> = e.run_program(|_| Relax(Vec::new(), 0)).concat();
        assert_eq!(dist[29], 29.0);
        assert_eq!(in_edge_derivations(&e), 0, "SSSP reads out-edges only");
        let depths = e.run_vertex_program(&Bfs);
        assert_eq!(depths[17], 17);
        assert_eq!(in_edge_derivations(&e), 0, "BFS reads out-edges only");
    }

    #[test]
    fn one_degree_array_per_engine() {
        let mut g = ring(8);
        g.push_pair(0, 3);
        g.push_pair(0, 5);
        g.push_pair(0, 5); // a duplicate counts
        let e = engine(&g, 2);
        assert_eq!((e.out_degree(0), e.out_degree(1), e.out_degree(7)), (4, 1, 1));
        let shards: usize = e.shards().iter().map(Shard::size_bytes).sum();
        assert_eq!(e.shard_bytes(), shards + 8 * 4, "the degree array is counted once");
        // Epochs sharing the base share the array; a fold recounts it.
        let (overlaid, _) = e.with_updates(&[EdgeUpdate::insert(1, 4)], usize::MAX);
        assert!(Arc::ptr_eq(&e.base, &overlaid.base));
        assert_eq!(overlaid.out_degree(1), 1, "base degrees while the insert is an overlay");
        assert_eq!(overlaid.view().out_degrees[1], 2, "programs read the view's");
        let (folded, _) = overlaid.with_updates(&[], 0);
        assert_eq!(folded.out_degree(1), 2);
    }

    #[test]
    fn flat_edge_set_policy_equivalent() {
        let g = cgraph_gen::graph500(8, 4, 7);
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&g);
        let g = b.build().edges;
        let blocked = DistributedEngine::new(&g, EngineConfig::new(2));
        let flat = DistributedEngine::new(
            &g,
            EngineConfig::new(2).with_edge_set_policy(ConsolidationPolicy::flat()),
        );
        let rb = blocked.run_traversal_batch(&[0, 9], &[3, 3]).unwrap();
        let rf = flat.run_traversal_batch(&[0, 9], &[3, 3]).unwrap();
        assert_eq!(rb.per_lane_visited, rf.per_lane_visited);
    }
}
