//! The persistent streaming query service — the serving-path
//! extension of §3.3.
//!
//! [`crate::scheduler::QueryScheduler`] answers one *closed* batch of
//! queries handed over all at once. A serving deployment instead sees
//! an **open stream**: queries arrive at arbitrary times from many
//! client threads and each wants an answer as soon as possible.
//! [`QueryService`] bridges the two worlds:
//!
//! * **admission** ([`QueryService::submit`]) answers what it can on the
//!   spot and queues the rest. A traversal the result cache or the
//!   index already holds completes inside `submit` — the *ready path*:
//!   the epoch, the probe, the latency record and the ticket, and
//!   nothing else; no dispatcher is woken, no queue slot is waited for,
//!   and the ticket comes back answered. Only a traversal that needs a
//!   lane enters the **admission queue**, under queue-depth
//!   backpressure ([`ServiceConfig::max_queue_depth`]): a submitter with
//!   such a traversal in hand blocks while the queue is full, so an
//!   overloaded service slows producers instead of growing without
//!   bound — and does not slow the ones it can answer from memory;
//! * every submit returns a [`QueryTicket`]: one end of a one-shot
//!   reply slot that resolves to the reply, to
//!   [`ServiceError::DeadlineExceeded`] at the ticket's own deadline, or
//!   to [`ServiceError::ShutDown`] if the service let go of the query
//!   unanswered. Threads are woken by rule, not by habit: every condvar
//!   of the service is notified only when what it guards changed *and*
//!   a waiter flag under the same mutex says someone is parked (the
//!   table is in the `replica` module's documentation and DESIGN.md §3
//!   "Admission");
//! * **one dispatcher thread** per service (or group) owns the engine:
//!   it parks until something is queued on any front-end (or a commit
//!   is due), then forms the batch from *everything the group has
//!   queued*, oldest first, up to [`QueryService::effective_lanes`]
//!   lanes, runs it and answers it. A busy engine therefore batches by
//!   itself (what arrives while one batch runs is the next batch) and
//!   an idle one starts at once; [`ServiceConfig::max_batch_delay`]
//!   (zero by default) lets the dispatcher hold the oldest traversal
//!   back that long for the backlog to reach the lane cap first. The
//!   cap honours [`SchedulerConfig::memory_budget_bytes`] exactly like
//!   the closed-batch scheduler;
//! * batches execute on a long-lived
//!   [`cgraph_comm::PersistentCluster`] via
//!   [`DistributedEngine::run_traversal_batch_recoverable`], so no machine
//!   threads are spawned per batch — the serving path amortises thread
//!   start-up across the whole stream;
//! * per-query latency — admission wait plus batch execution — flows
//!   into [`ResponseStats`], the same distributions every figure of §4
//!   reports.
//!
//! # Query plane
//!
//! Between admission and the engine sits an optional **query plane**
//! ([`QueryPlaneConfig`]) exploiting the redundancy of real request
//! streams (the paper's "heavy traffic from millions of users" is
//! Zipf-skewed — the same hot sources are queried over and over):
//!
//! * a **result cache** ([`cgraph_cache::ResultCache`]) answers
//!   repeated `(source, k)` queries without burning a lane: bounded in
//!   bytes, CLOCK-evicted on a logical clock (no wall time — runs are
//!   reproducible), keyed by `(source, k, graph_epoch)` and
//!   invalidated wholesale by [`QueryService::invalidate_cache`].
//!   Only *committed* batches populate it: insertion happens exactly
//!   once, on the engine's `Ok` return, after every in-batch recovery
//!   and retry has resolved — a crashed or degraded attempt can never
//!   leak partial state into the cache;
//! * an **in-flight coalescer** ([`cgraph_cache::Coalescer`])
//!   single-flights identical traversals: while one executes, every
//!   duplicate — queued behind it or arriving mid-batch — attaches to
//!   that execution and shares its result (or its failure);
//! * a **locality-aware packer** ([`cgraph_cache::pack_locality`])
//!   fills batches with queries whose sources share partition ranges,
//!   under a strict fairness bound so cold-partition queries are
//!   delayed at most [`QueryPlaneConfig::locality_fairness`] batches;
//! * independent of all knobs, batch formation **never spends two
//!   lanes on identical `(source, k)` traversals**: duplicates inside
//!   one batch window always collapse into a single lane.
//!
//! # Index tier
//!
//! With [`ServiceConfig::index`] set, the service keeps a
//! [`ReachIndex`](crate::index_api::ReachIndex) built for the
//! engine's current epoch (see
//! `INDEXING.md` for the design contract):
//!
//! * traversals whose `(source, k)` the index covers exactly are
//!   answered **index-only** — at admission or during batch
//!   formation, without spending a lane, bit-identical to what the
//!   traversal would have returned;
//! * the index is part of the serving value: every epoch commit (and
//!   every degradation) builds the next engine, then its index, and
//!   publishes both in one swap, so an index is only ever consulted
//!   beside the engine it was built for, and a stale one can never
//!   answer. Its epoch stamp is checked once, where it enters the
//!   service: an index stamped with another epoch is refused, and the
//!   service serves unindexed.
//!
//! # Mutation plane
//!
//! [`QueryService::apply_updates`] buffers edge insertions/deletions
//! ([`cgraph_graph::UpdateBatch`]) without touching the serving
//! snapshot; [`QueryService::commit_epoch`] — or crossing
//! [`MutationConfig::commit_threshold`] — asks the dispatcher to fold
//! them in **between batches**: it commits before it forms its next
//! batch (it is the one thread that forms and runs batches, so the
//! group is quiesced), the buffered updates become a
//! new engine snapshot via [`DistributedEngine::with_updates`]
//! (delta-overlay publish, or a fold past
//! [`MutationConfig::fold_threshold`] that rebuilds every shard's
//! out-edge tiles), the graph epoch advances, and
//! stale cache entries are fenced with
//! [`cgraph_cache::ResultCache::invalidate_before`]. Batches already
//! dispatched finish against their admission-epoch snapshot — every
//! [`QueryResult::epoch`] names the snapshot that produced it. There
//! is exactly one epoch-advancement path:
//! [`QueryService::invalidate_cache`] is a commit with no pending
//! updates.
//!
//! # Fault-tolerance policy
//!
//! The service layers *policy* over the engine's recovery *mechanism*
//! ([`DistributedEngine::run_traversal_batch_recoverable`]):
//!
//! * **chaos plane** — [`ServiceConfig::fault_plan`] installs a
//!   deterministic [`FaultPlan`]; each dispatched batch becomes one
//!   chaos *job* (`job = batch sequence number`), so a plan armed for
//!   a job window poisons exactly those batches and no others;
//! * **retry with backoff** — a batch that still fails after the
//!   engine's in-batch recoveries is retried up to
//!   [`ServiceConfig::max_retries`] times with exponential backoff
//!   plus deterministic jitter; retry attempts are salted
//!   (`first_attempt = retry × (max_recoveries + 1)`) so a healing
//!   plan sees monotone attempt numbers across the whole batch life;
//! * **failure isolation** — a batch that exhausts its retries fails
//!   only its own lanes ([`ServiceError::BatchFailed`]); queued and
//!   future queries keep flowing on the surviving cluster;
//! * **per-query deadlines** — [`ServiceConfig::query_deadline`]
//!   bounds each query's end-to-end latency: expired traversals are
//!   failed with [`ServiceError::DeadlineExceeded`] before dispatch,
//!   and [`QueryTicket::wait`] enforces the same bound client-side;
//! * **graceful degradation** — when the same machine is blamed for
//!   [`ServiceConfig::degrade_after`] panics, the dispatcher
//!   re-partitions the graph onto `p - 1` machines
//!   ([`DistributedEngine::repartitioned`]) and replaces the cluster;
//!   degrading does not consume a retry.
//!
//! # Example
//!
//! ```
//! use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let ring: cgraph_graph::EdgeList = (0..12u64).map(|v| (v, (v + 1) % 12)).collect();
//! let engine = Arc::new(DistributedEngine::new(&ring, EngineConfig::new(2)));
//! let service = QueryService::start(engine, ServiceConfig::default());
//! // `query` = submit + wait; any number of threads may call it.
//! let r = service.query(KhopQuery::single(0, 0, 3)).unwrap();
//! assert_eq!(r.visited, 4); // vertices 0..=3 on the ring
//! assert_eq!(service.stats().queries_completed, 1);
//! service.shutdown();
//! ```

use crate::config::EngineConfig;
use crate::durability::{DurabilityConfig, RecoveryOutcome};
use crate::engine::DistributedEngine;
use crate::index_api::IndexBuilder;
use crate::metrics::ResponseStats;
use crate::query::{KhopQuery, QueryResult};
use crate::recovery::RecoveryConfig;
use crate::scheduler::SchedulerConfig;
use cgraph_comm::chaos::FaultPlan;
use cgraph_graph::delta::UpdateBatch;
use cgraph_graph::snapshot::DiskFaults;
use cgraph_graph::EdgeList;
use cgraph_obs::Obs;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submitted query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has been shut down (or its dispatcher is gone); no
    /// further queries are accepted.
    ShutDown,
    /// The batch carrying this query failed — a machine of the
    /// persistent cluster panicked mid-execution and every recovery
    /// and retry was exhausted. The message is the underlying cluster
    /// error; the service itself keeps serving.
    BatchFailed(String),
    /// The query's [`ServiceConfig::query_deadline`] elapsed before a
    /// result was produced.
    DeadlineExceeded,
    /// The query was rejected at admission: a source vertex lies
    /// outside the graph's vertex range. Caught before batching so a
    /// malformed query can never take down the batch it would have
    /// shared lanes with.
    InvalidQuery(String),
    /// The service configuration is invalid — a knob holds a value the
    /// service cannot run with (zero checkpoint interval, zero commit
    /// threshold, zero snapshot cadence). Caught at construction by
    /// [`QueryService::try_start`] / [`QueryService::open_or_recover`],
    /// before any thread is spawned or file is touched.
    InvalidConfig(String),
    /// The durability plane failed: the data directory could not be
    /// opened, the WAL could not be appended, or recovery found
    /// internally inconsistent durable state.
    Durability(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShutDown => write!(f, "query service is shut down"),
            ServiceError::BatchFailed(msg) => {
                write!(f, "batch execution failed: {msg}")
            }
            ServiceError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ServiceError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServiceError::InvalidConfig(msg) => {
                write!(f, "invalid service configuration: {msg}")
            }
            ServiceError::Durability(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Knobs of the query plane sitting between admission and the engine:
/// result caching, in-flight coalescing and locality-aware packing.
/// Everything defaults to *off*, in which case batch formation is
/// plain FIFO over the group's backlog (except that identical
/// traversals never occupy two lanes of one batch — that
/// de-duplication is unconditional).
#[derive(Clone, Debug)]
pub struct QueryPlaneConfig {
    /// Result-cache capacity in bytes (`None` — the default — disables
    /// the cache). Entries are charged their real payload size plus a
    /// fixed overhead; eviction is deterministic CLOCK on a logical
    /// clock, so a given admission order always evicts the same keys.
    pub cache_capacity_bytes: Option<usize>,
    /// Coalesce identical `(source, k)` traversals onto executions
    /// already in flight, and let one lane answer every queued
    /// duplicate of its key.
    pub coalesce: bool,
    /// Pack batches by source partition locality instead of plain
    /// FIFO when the group's backlog overflows one batch.
    pub pack_locality: bool,
    /// Fairness bound for locality packing: a traversal passed over
    /// this many batches is promoted to mandatory, so cold-partition
    /// queries are delayed at most this many batches, never starved.
    /// `0` degenerates locality packing to FIFO.
    pub locality_fairness: u32,
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        Self {
            cache_capacity_bytes: None,
            coalesce: false,
            pack_locality: false,
            locality_fairness: 4,
        }
    }
}

/// Knobs of the mutation plane: when buffered edge updates are folded
/// into a new serving snapshot.
#[derive(Clone, Copy, Debug)]
pub struct MutationConfig {
    /// Buffered-update count at which the dispatcher commits a new
    /// epoch on its own, without waiting for an explicit
    /// [`QueryService::commit_epoch`]. `None` (the default) commits
    /// only on explicit request.
    pub commit_threshold: Option<usize>,
    /// Delta-overlay entry count above which a commit folds the
    /// overlay into fresh base out-edge tiles instead of publishing
    /// the overlay next to the base (see
    /// [`DistributedEngine::with_updates`]).
    pub fold_threshold: usize,
}

impl Default for MutationConfig {
    fn default() -> Self {
        Self { commit_threshold: None, fold_threshold: 1 << 16 }
    }
}

/// Tuning knobs for a [`QueryService`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Batch shaping shared with the closed-batch scheduler: the lane
    /// cap, subgraph sharing, and the memory budget that narrows the
    /// cap. `batch_lanes` is the most lanes one batch holds — one cap
    /// for the whole group, since a batch is formed from every
    /// replica's queue; a batch with fewer lanes runs at the width they
    /// need. The service defaults it to 128 (two words a row: on this
    /// engine a query keeps getting cheaper up to there, and a cap on a
    /// stride boundary lets a closed loop settle on full batches),
    /// where [`SchedulerConfig::default`] — the paper's closed-batch
    /// path — stays 64. (`use_sim_time` is ignored — a serving latency
    /// is inherently wall clock.)
    pub scheduler: SchedulerConfig,
    /// How long the dispatcher lets the group's oldest queued traversal
    /// wait for the backlog to reach the lane cap before it forms a
    /// batch. Zero — the default — starts as soon as the engine is
    /// free: while a batch runs, arrivals queue and form the next one,
    /// so a busy service batches without waiting, and an idle one has
    /// nothing to wait for. A linger trades per-query latency for fill
    /// only between those two regimes.
    pub max_batch_delay: Duration,
    /// Admission-queue depth, in traversals, above which submitters
    /// block. A query's traversals are always admitted together, so
    /// the queue may transiently overshoot by one query's source count.
    pub max_queue_depth: usize,
    /// Deterministic chaos plan injected into every dispatched batch
    /// (the batch sequence number is the chaos *job*, so
    /// [`FaultPlan::arm_jobs`] selects which batches are poisoned).
    /// `None` (the default) runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// End-to-end deadline applied to every query from its submission
    /// instant. Expired traversals fail with
    /// [`ServiceError::DeadlineExceeded`] instead of being dispatched,
    /// and [`QueryTicket::wait`] stops waiting at the same instant.
    /// `None` (the default) means queries wait indefinitely.
    pub query_deadline: Option<Duration>,
    /// Query-plane knobs: result cache, in-flight coalescing and
    /// locality-aware packing. All off by default.
    pub query_plane: QueryPlaneConfig,
    /// Reachability-index builder (see `INDEXING.md`). `None` — the
    /// default — serves without an index. When set, the builder runs
    /// once at start-up and again inside every epoch commit and
    /// degradation, so the live index always matches the serving
    /// snapshot; covered queries are answered index-only. A failed
    /// build logs and serves unindexed — the index is an accelerator,
    /// never a correctness dependency.
    pub index: Option<Arc<dyn IndexBuilder>>,
    /// Mutation-plane knobs: commit trigger and delta fold threshold.
    pub mutation: MutationConfig,
    /// Durability-plane knobs: data directory, snapshot cadence and
    /// retention. `None` (the default) serves purely in memory; set it
    /// and start with [`QueryService::open_or_recover`] to survive
    /// `kill -9` — every update batch is WAL-logged before it is
    /// buffered and every epoch commit is fenced on disk.
    pub durability: Option<DurabilityConfig>,
    /// Whole-batch resubmissions after the engine's in-batch
    /// recoveries are exhausted on a recoverable error.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per retry, plus a
    /// deterministic jitter in `[0, retry_backoff)`.
    pub retry_backoff: Duration,
    /// Checkpointing/in-batch recovery knobs handed to
    /// [`DistributedEngine::run_traversal_batch_recoverable`].
    pub recovery: RecoveryConfig,
    /// Degrade to `p - 1` machines once the same machine has been
    /// blamed for this many panics (`None` — the default — never
    /// degrades). Degrading re-partitions the graph, replaces the
    /// persistent cluster, resets blame, and does not consume a retry.
    pub degrade_after: Option<u32>,
    /// Observability bundle shared across the whole stack. When set,
    /// the service registers its metrics (queue depth, lane occupancy,
    /// latency histograms, query/batch counters) in the bundle's
    /// registry, installs the bundle on the persistent cluster
    /// (comm-layer link/chaos counters, engine superstep counters and
    /// per-machine tracers, re-installed across degradations), and
    /// emits dispatcher trace events on the coordinator ring. `None`
    /// (the default) means no trace and no comm/engine
    /// instrumentation — never no counters: the service tallies into
    /// the same handles either way (they are what
    /// [`QueryService::stats`] reads), registered against a registry
    /// nothing renders. Give each service (or group) a bundle of its
    /// own: handles are get-or-create by name, so two services on one
    /// registry share their counters and each `stats()` reads the sum.
    pub obs: Option<Arc<Obs>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig { batch_lanes: 128, ..SchedulerConfig::default() },
            max_batch_delay: Duration::ZERO,
            max_queue_depth: 1024,
            fault_plan: None,
            query_deadline: None,
            query_plane: QueryPlaneConfig::default(),
            index: None,
            mutation: MutationConfig::default(),
            durability: None,
            max_retries: 2,
            retry_backoff: Duration::from_micros(200),
            recovery: RecoveryConfig::default(),
            degrade_after: None,
            obs: None,
        }
    }
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("scheduler", &self.scheduler)
            .field("max_batch_delay", &self.max_batch_delay)
            .field("max_queue_depth", &self.max_queue_depth)
            .field("fault_plan", &self.fault_plan)
            .field("query_deadline", &self.query_deadline)
            .field("query_plane", &self.query_plane)
            .field("index", &self.index.is_some())
            .field("mutation", &self.mutation)
            .field("durability", &self.durability)
            .field("max_retries", &self.max_retries)
            .field("retry_backoff", &self.retry_backoff)
            .field("recovery", &self.recovery)
            .field("degrade_after", &self.degrade_after)
            .field("obs", &self.obs.is_some())
            .finish()
    }
}

/// Handle to one submitted query: redeem it with [`QueryTicket::wait`]
/// (or poll [`QueryTicket::try_wait`]) for its outcome.
///
/// A ticket is one end of a one-shot reply slot the service fills when
/// the query's last traversal lands — which, for a query the cache or
/// the index answered whole, is before `submit` returned. It resolves
/// exactly one of three ways:
///
/// * the **reply** — the folded [`QueryResult`], or the
///   [`ServiceError`] the query failed with
///   ([`ServiceError::BatchFailed`], or
///   [`ServiceError::DeadlineExceeded`] when the service expired it
///   while queued);
/// * [`ServiceError::DeadlineExceeded`] at the ticket's own deadline
///   (submission instant plus [`ServiceConfig::query_deadline`]) with no
///   reply in the slot — a reply that is there wins over an expired
///   deadline;
/// * [`ServiceError::ShutDown`] when the service let go of a traversal
///   of the query without answering it (its dispatcher died, or the
///   service was torn down around it) and so no reply can come — a
///   thread already blocked in `wait` is woken for it. A ticket whose
///   reply was already taken by `try_wait` reads the same.
pub struct QueryTicket {
    state: Arc<replica::TicketState>,
    /// The query's absolute deadline (admission instant plus
    /// [`ServiceConfig::query_deadline`]), enforced by `wait`.
    deadline: Option<Instant>,
}

impl fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryTicket").field("deadline", &self.deadline).finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// Blocks until the query's batch (or batches) completed and
    /// returns its result; a ticket answered at admission returns
    /// without parking. With a [`ServiceConfig::query_deadline`]
    /// configured, waits at most until the query's deadline and then
    /// returns [`ServiceError::DeadlineExceeded`].
    pub fn wait(self) -> Result<QueryResult, ServiceError> {
        self.state.wait(self.deadline)
    }

    /// Non-blocking poll; `None` while the query is still in flight. A
    /// ticket answered at admission yields its reply the first time it
    /// is asked. A query that can no longer complete (the service
    /// dropped a traversal of it unanswered) yields
    /// `Some(Err(ServiceError::ShutDown))`, so pollers never spin on
    /// it; likewise an expired deadline yields
    /// `Some(Err(ServiceError::DeadlineExceeded))`.
    pub fn try_wait(&self) -> Option<Result<QueryResult, ServiceError>> {
        self.state.poll().or_else(|| {
            self.deadline
                .is_some_and(|d| Instant::now() >= d)
                .then_some(Err(ServiceError::DeadlineExceeded))
        })
    }
}

/// Latency and volume counters accumulated over the service lifetime.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Queries answered successfully.
    pub queries_completed: u64,
    /// Queries failed by a dying batch.
    pub queries_failed: u64,
    /// Queries failed because their deadline elapsed (included in
    /// `queries_failed`).
    pub queries_deadline_exceeded: u64,
    /// Batches dispatched to the persistent cluster (successful ones).
    pub batches_dispatched: u64,
    /// Whole-batch resubmissions by the service retry policy.
    pub retries: u64,
    /// In-batch recoveries performed by the engine (confined replays
    /// plus global rollbacks).
    pub recoveries: u64,
    /// Superstep checkpoints committed across all batches.
    pub checkpoints_taken: u64,
    /// Checkpoint restores (confined replays and global rollbacks that
    /// resumed from a committed checkpoint).
    pub checkpoints_restored: u64,
    /// Failed partitions replayed confined, without re-executing
    /// healthy partitions.
    pub partitions_replayed: u64,
    /// Whole-batch rollbacks (the fallback when confined recovery's
    /// preconditions fail, and the only recovery mode in async).
    pub full_rollbacks: u64,
    /// Times the service degraded onto a smaller cluster after
    /// repeated same-machine failures.
    pub degraded_generations: u64,
    /// Traversals answered from the result cache (no lane spent).
    /// Each admitted traversal records at most one hit over its life.
    pub cache_hits: u64,
    /// Admission-time cache lookups that found nothing (zero while the
    /// cache is disabled). A traversal that misses at admission may
    /// still hit at pack time if an earlier batch committed its key.
    pub cache_misses: u64,
    /// Entries committed into the result cache (one per lane of each
    /// successfully committed batch, minus epoch-stale lanes).
    pub cache_insertions: u64,
    /// Entries the CLOCK hand evicted to make room.
    pub cache_evictions: u64,
    /// Entries currently resident in the result cache.
    pub cache_entries: u64,
    /// Bytes currently charged against the cache capacity.
    pub cache_bytes: u64,
    /// Traversals that shared another traversal's execution instead of
    /// occupying a lane: in-batch duplicates (always collapsed),
    /// queued duplicates and mid-flight attaches (with coalescing on).
    pub coalesced_traversals: u64,
    /// Reachability-index builds: the start-up build plus one rebuild
    /// per epoch commit and per degradation (zero without
    /// [`ServiceConfig::index`], like every index counter below).
    pub index_builds: u64,
    /// Traversals answered index-only — straight from a distance
    /// sketch, bit-identical to a traversal, no lane spent.
    pub index_only_answers: u64,
    /// Boundary sources the live index holds sketches for.
    pub index_sources: u64,
    /// Estimated resident bytes of the live index.
    pub index_bytes: u64,
    /// Edge updates folded into a committed epoch (accepted by
    /// [`QueryService::apply_updates`] and since committed).
    pub updates_applied: u64,
    /// Edge insertions among the committed updates.
    pub updates_inserted: u64,
    /// Edge deletions among the committed updates.
    pub updates_deleted: u64,
    /// Epoch commits performed: explicit [`QueryService::commit_epoch`]
    /// calls, threshold-triggered commits, and
    /// [`QueryService::invalidate_cache`] bumps.
    pub epoch_commits: u64,
    /// Commits that folded the delta overlay into fresh base out-edge
    /// tiles (subset of `epoch_commits`).
    pub epoch_folds: u64,
    /// Edge updates buffered but not yet committed.
    pub pending_updates: u64,
    /// Delta-overlay adjacency rows live in the serving snapshot
    /// (committed updates not yet folded into the base).
    pub delta_entries: u64,
    /// Estimated bytes of the live delta overlays.
    pub delta_bytes: u64,
    /// WAL records appended — update batches plus commit fences (zero
    /// with durability off, like every durability counter below).
    pub wal_records: u64,
    /// Bytes appended to the update WAL.
    pub wal_bytes: u64,
    /// Epoch snapshots that reached their final name on disk. A
    /// snapshot is written after the commit that made it due has
    /// returned (the WAL fence is the acknowledgement); this and the two
    /// snapshot fields below move together when the writer is done, and
    /// are final once [`QueryService::shutdown`] has returned.
    pub snapshots_written: u64,
    /// Bytes of encoded snapshot data written (including writes whose
    /// rename was lost to fault injection).
    pub snapshot_bytes: u64,
    /// WAL records replayed by recovery when this service opened.
    pub wal_replayed: u64,
    /// Snapshot files rejected by checksum/decode during recovery.
    pub snapshots_corrupt: u64,
    /// Crash recoveries performed (1 when this service was rebuilt
    /// from durable state by [`QueryService::open_or_recover`]).
    pub durable_recoveries: u64,
    /// Epoch of the newest snapshot on disk.
    pub last_snapshot_epoch: u64,
    /// Per-query admission wait: submission → batch dispatch (mean
    /// over the query's traversals, to the nanosecond).
    ///
    /// This and the two distributions below count every completed
    /// query — `len()` equals `queries_completed` in the same snapshot,
    /// empty queries (recorded as zero) included — and their `mean()`
    /// is exact: each replica keeps the count and the nanosecond sum of
    /// the queries it admitted. The order statistics (`sorted()`,
    /// `quantile()`, `min()`, `max()`, …) are exact up to
    /// [`RESERVOIR_TRIPLES`](crate::metrics::RESERVOIR_TRIPLES)
    /// completions per replica and read a deterministic uniform sample
    /// of at most that many per replica past it, so the service's
    /// latency state stays the same size however long it runs.
    pub admission_wait: ResponseStats,
    /// Per-query execution time: the lane-completion share of its
    /// batch, exactly as the closed-batch scheduler accounts it. Count
    /// and mean exact, quantiles sampled (see `admission_wait`).
    pub exec: ResponseStats,
    /// Per-query end-to-end response: admission wait + execution —
    /// what a client of the service observes, and the mean of the
    /// [`QueryResult::response_time`]s its tickets returned. Count and
    /// mean exact, quantiles sampled (see `admission_wait`).
    pub response: ResponseStats,
}
mod group;
mod obs;
mod replica;
mod shared;

pub use group::{
    GroupConfig, RouteDecision, RouteKind, Router, RouterConfig, RouterStats, ServiceGroup,
};

use shared::{apply_updates_core, commit_epoch_core, open_fresh_plane, open_recovered, SharedCore};

/// A long-running query-serving front end over a
/// [`DistributedEngine`] and a [`cgraph_comm::PersistentCluster`].
///
/// Internally a `QueryService` is a *group of one*: one replica
/// (admission queue, result cache, coalescer) of a shared core (engine,
/// cluster, dispatcher thread, mutation buffer, durability, epoch).
/// [`ServiceGroup`] builds N replicas over one core — admission,
/// caching and coalescing hold per replica there; batches are formed
/// across all of them.
///
/// ```
/// use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery,
///                   QueryService, ServiceConfig};
/// use std::sync::Arc;
/// let edges: cgraph_graph::EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
/// let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(2)));
/// let service = QueryService::start(engine, ServiceConfig::default());
/// let r = service.query(KhopQuery::single(0, 0, 3)).unwrap();
/// assert_eq!(r.visited, 4); // ring: k hops reach k + 1 vertices
/// service.shutdown();
/// ```
pub struct QueryService {
    core: Arc<SharedCore>,
    /// This front-end's index in `core.replicas`.
    id: usize,
}

impl QueryService {
    /// Spawns the persistent cluster (one parked thread per engine
    /// machine) and the dispatcher, then starts accepting queries.
    ///
    /// # Panics
    ///
    /// On an invalid configuration or a durability failure — this is
    /// the infallible-signature convenience over
    /// [`QueryService::try_start`], which returns the error instead.
    pub fn start(engine: Arc<DistributedEngine>, config: ServiceConfig) -> Self {
        Self::try_start(engine, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QueryService::start`] with the failure modes surfaced:
    /// rejects invalid knob values ([`ServiceError::InvalidConfig`])
    /// before any thread is spawned, and — with
    /// [`ServiceConfig::durability`] set — opens the data directory
    /// for a *fresh* durable run, writing the initial epoch snapshot.
    /// A directory already holding durable state is refused
    /// ([`ServiceError::Durability`]): restarting over existing state
    /// is what [`QueryService::open_or_recover`] is for, and silently
    /// overwriting it would discard committed updates.
    pub fn try_start(
        engine: Arc<DistributedEngine>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        validate_config(&config)?;
        let plane = open_fresh_plane(&engine, &config)?;
        let core = SharedCore::start(engine, config, 1, plane, Vec::new(), None, None);
        Ok(Self { core, id: 0 })
    }

    /// Opens (or creates) the durable data directory and resumes from
    /// whatever committed state survives there: the newest snapshot
    /// whose every frame checksums, plus the WAL tail replayed past
    /// its sequence number. Logged-but-uncommitted updates return to
    /// the pending buffer; a torn WAL tail is truncated; the recovered
    /// epoch fences the result cache, so no answer from a pre-crash
    /// epoch can ever be served. On a directory with no usable state
    /// this *is* the fresh durable start, ingesting `edges` at epoch
    /// 0 — so one call site handles first boot and every restart:
    ///
    /// `edges` must be the same base graph the original run started
    /// from (recovery replays the WAL from sequence 0 onto it when no
    /// snapshot survived).
    pub fn open_or_recover(
        edges: &EdgeList,
        engine_config: EngineConfig,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryOutcome), ServiceError> {
        validate_config(&config)?;
        let (engine, plane, pending, outcome) = open_recovered(edges, engine_config, &config)?;
        let core = SharedCore::start(engine, config, 1, Some(plane), pending, Some(&outcome), None);
        Ok((Self { core, id: 0 }, outcome))
    }

    /// Lanes per batch after the memory budget (fixed at start-up).
    pub fn effective_lanes(&self) -> usize {
        self.core.lanes
    }

    /// Admits `query`: what the cache or the index holds is answered
    /// before this returns; a traversal that needs a lane is queued,
    /// blocking while the admission queue is full. Returns a ticket
    /// redeemable for the result, or [`ServiceError::ShutDown`] once the
    /// service is closed.
    pub fn submit(&self, query: KhopQuery) -> Result<QueryTicket, ServiceError> {
        replica::submit(&self.core, &self.core.replicas[self.id], self.core.serving(), query)
    }

    /// Submits `query` and blocks for its result (submit + wait).
    pub fn query(&self, query: KhopQuery) -> Result<QueryResult, ServiceError> {
        self.submit(query)?.wait()
    }

    /// Buffers `batch`'s edge updates for the next epoch commit. The
    /// serving snapshot is untouched until [`QueryService::commit_epoch`]
    /// runs (explicitly, or automatically once the buffer crosses
    /// [`MutationConfig::commit_threshold`]) — queries keep answering
    /// against the current epoch meanwhile. Out-of-range endpoints are
    /// rejected whole-batch with [`ServiceError::InvalidQuery`], so a
    /// malformed update can never poison a commit.
    pub fn apply_updates(&self, batch: UpdateBatch) -> Result<(), ServiceError> {
        apply_updates_core(&self.core, batch.into_updates())
    }

    /// Asks the dispatcher to fold every buffered update into a new
    /// serving snapshot and blocks until it has: the dispatcher commits
    /// before it forms its next batch — it is the one thread that forms
    /// and runs batches, so the group is quiesced — the
    /// buffered updates become a new engine snapshot, the graph epoch
    /// advances by one, and cached results of older epochs are fenced
    /// on **every** attached replica. Returns the new epoch. An empty
    /// buffer still commits — the epoch bump alone invalidates the
    /// caches, which is exactly what [`QueryService::invalidate_cache`]
    /// does.
    pub fn commit_epoch(&self) -> Result<u64, ServiceError> {
        commit_epoch_core(&self.core)
    }

    /// Current graph epoch (bumped by [`QueryService::commit_epoch`]).
    pub fn graph_epoch(&self) -> u64 {
        self.core.graph_epoch()
    }

    /// Runs the **full commit protocol** with whatever updates happen
    /// to be buffered (usually none) and returns the new epoch. This
    /// *is* [`QueryService::commit_epoch`] — there is exactly one
    /// epoch-advancement path, and it performs every fence step, not
    /// just the cache drop the name suggests:
    ///
    /// 1. the dispatcher quiesces batch formation group-wide (it runs
    ///    the commit itself, strictly between two of its batches), and
    ///    — with durability on — a commit fence is appended and synced
    ///    to the WAL *before* the in-memory commit;
    /// 2. buffered updates (if any) become a new engine snapshot at the
    ///    next epoch, and — with [`ServiceConfig::index`] set — the
    ///    reachability index is **rebuilt** for it;
    /// 3. both are published in one swap: from then on new queries key
    ///    against the new epoch and probe the new index; until then
    ///    every admission sees the whole old value — engine, epoch,
    ///    index and caches;
    /// 4. every replica's result cache is fenced: entries keyed to
    ///    older epochs are dropped.
    ///
    /// Batches already dispatched finish against their admission-epoch
    /// snapshot and carry that epoch in their results. On a shut-down
    /// service the epoch is frozen and returned unchanged.
    pub fn invalidate_cache(&self) -> u64 {
        self.commit_epoch().unwrap_or_else(|_| self.graph_epoch())
    }

    /// Snapshot of the lifetime latency/volume counters, taken under
    /// the stats fence: no epoch commit can be half-visible across the
    /// cache/mutation/durability planes of one snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// Stops admission on this front-end, then — once every front-end
    /// of the core is closed, at once for a solo service — waits for
    /// the dispatcher to answer every already-admitted query, serve a
    /// commit already requested, sync the WAL, join the snapshot writer
    /// and park the cluster. Idempotent; also runs on drop. In a
    /// [`ServiceGroup`] with siblings still open it returns at once:
    /// they keep serving, and what this replica queued is still
    /// answered, by the group's [`ServiceGroup::shutdown`] at the latest.
    pub fn shutdown(&self) {
        self.core.close(self.id);
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rejects configuration values the service cannot run with — caught
/// here, at construction, instead of surfacing later as a stuck
/// dispatcher (a zero commit threshold would commit on every update)
/// or a batch-time engine error (a zero checkpoint interval).
fn validate_config(config: &ServiceConfig) -> Result<(), ServiceError> {
    if config.recovery.checkpoint_interval == 0 {
        return Err(ServiceError::InvalidConfig(
            "recovery.checkpoint_interval must be non-zero (a zero interval can never \
             commit a checkpoint)"
                .into(),
        ));
    }
    if config.mutation.commit_threshold == Some(0) {
        return Err(ServiceError::InvalidConfig(
            "mutation.commit_threshold must be non-zero; use None for explicit-only commits".into(),
        ));
    }
    if let Some(d) = &config.durability {
        if d.snapshot_every == 0 {
            return Err(ServiceError::InvalidConfig(
                "durability.snapshot_every must be non-zero (the cadence counts commits \
                 between snapshots)"
                    .into(),
            ));
        }
        if d.keep_snapshots == 0 {
            return Err(ServiceError::InvalidConfig(
                "durability.keep_snapshots must be at least 1 (retaining zero snapshots \
                 would prune the recovery point itself)"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// The disk-fault injector selected by the service's chaos plan, if
/// any of its disk probabilities are armed. Disk faults are seeded by
/// the plan but scoped by operation count, not by chaos job — WAL
/// appends and snapshot writes are not batches.
fn disk_faults(config: &ServiceConfig) -> Option<DiskFaults> {
    config.fault_plan.as_ref().filter(|p| p.disk_faulty()).map(|p| {
        DiskFaults::new(
            p.seed,
            p.torn_write_prob,
            p.short_write_prob,
            p.bit_flip_prob,
            p.rename_lost_prob,
        )
    })
}

/// Lock helper that survives a poisoned mutex (a dispatcher panic must
/// not cascade into every submitter).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineError;
    use crate::scheduler::QueryScheduler;
    use std::sync::atomic::Ordering;

    fn ring_engine(n: u64, p: usize) -> Arc<DistributedEngine> {
        let g: EdgeList = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Arc::new(DistributedEngine::new(&g, EngineConfig::new(p)))
    }

    #[test]
    fn service_matches_scheduler_counts() {
        let engine = ring_engine(60, 2);
        let queries: Vec<KhopQuery> =
            (0..12).map(|i| KhopQuery::single(i, (i * 5) as u64, 4)).collect();
        let expected = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);

        let service = QueryService::start(Arc::clone(&engine), ServiceConfig::default());
        let tickets: Vec<QueryTicket> =
            queries.iter().map(|q| service.submit(q.clone()).unwrap()).collect();
        for (ticket, exp) in tickets.into_iter().zip(&expected) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.id, exp.id);
            assert_eq!(got.visited, exp.visited);
            assert_eq!(got.per_level, exp.per_level);
        }
        let stats = service.stats();
        assert_eq!(stats.queries_completed, 12);
        assert_eq!(stats.queries_failed, 0);
        assert!(stats.batches_dispatched >= 1);
        assert_eq!(stats.response.len(), 12);
        service.shutdown();
    }

    #[test]
    fn multi_source_query_folds_traversals() {
        let engine = ring_engine(40, 2);
        let service = QueryService::start(engine, ServiceConfig::default());
        let r = service.query(KhopQuery::multi(3, vec![0, 20], 2)).unwrap();
        assert_eq!(r.visited, 6); // two independent 3-vertex traversals
        assert_eq!(r.per_level, vec![2, 2, 2]);
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let engine = ring_engine(30, 1);
        let config =
            ServiceConfig { max_batch_delay: Duration::from_millis(1), ..Default::default() };
        let service = QueryService::start(engine, config);
        // One traversal nowhere near 64 lanes: only the deadline can
        // flush it.
        let r = service.query(KhopQuery::single(0, 0, 3)).unwrap();
        assert_eq!(r.visited, 4);
        assert!(r.response_time >= r.exec_time);
    }

    #[test]
    fn backpressure_blocks_but_everything_completes() {
        let engine = ring_engine(50, 2);
        let config = ServiceConfig {
            max_queue_depth: 2,
            max_batch_delay: Duration::from_micros(200),
            ..Default::default()
        };
        let service = Arc::new(QueryService::start(engine, config));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    (0..8)
                        .map(|i| {
                            let q = KhopQuery::single(t * 8 + i, ((t * 8 + i) % 50) as u64, 2);
                            service.query(q).unwrap().visited
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 4 * 8 * 3); // every 2-hop ring query reaches 3
        assert_eq!(service.stats().queries_completed, 32);
    }

    #[test]
    fn empty_source_query_completes_immediately() {
        let engine = ring_engine(20, 1);
        // `KhopQuery::multi` rejects empty sources, but the fields are
        // public, so the service must still handle the case.
        let empty = KhopQuery { id: 9, sources: Vec::new(), k: 3 };
        // Scheduler semantics for zero sources: an all-zero result.
        let expected = QueryScheduler::new(&engine, SchedulerConfig::default())
            .execute(std::slice::from_ref(&empty));
        let service = QueryService::start(engine, ServiceConfig::default());
        let ticket = service.submit(empty).unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!(got.id, expected[0].id);
        assert_eq!(got.visited, expected[0].visited);
        assert_eq!(got.per_level, expected[0].per_level);
        assert_eq!(got.response_time, Duration::ZERO);
        assert_eq!(service.stats().queries_completed, 1);
        service.shutdown();
    }

    /// A deterministic index for fence/fast-path plumbing tests: it
    /// answers exactly `(source 5, k 3)` with a sentinel value no ring
    /// traversal could produce, so a sentinel in a result *proves* the
    /// index-only path served it.
    struct SentinelIndex {
        epoch: u64,
    }
    impl crate::index_api::ReachIndex for SentinelIndex {
        fn epoch(&self) -> u64 {
            self.epoch
        }
        fn answer(&self, source: u64, k: u32) -> Option<crate::index_api::IndexAnswer> {
            (source == 5 && k == 3)
                .then(|| crate::index_api::IndexAnswer { visited: 42, per_level: vec![42] })
        }
        fn size_bytes(&self) -> usize {
            64
        }
        fn num_sources(&self) -> usize {
            1
        }
    }

    /// Builds a [`SentinelIndex`] at the engine's current epoch (so
    /// rebuilds track commits) or, with `stale` set, at an epoch no
    /// engine will ever reach (so the service must refuse it as it
    /// enters).
    struct SentinelBuilder {
        stale: bool,
    }
    impl crate::index_api::IndexBuilder for SentinelBuilder {
        fn build(
            &self,
            engine: &DistributedEngine,
        ) -> Result<Arc<dyn crate::index_api::ReachIndex>, EngineError> {
            let epoch = if self.stale { u64::MAX } else { engine.graph_epoch() };
            Ok(Arc::new(SentinelIndex { epoch }))
        }
    }

    #[test]
    fn index_fast_path_answers_covered_queries_only() {
        let engine = ring_engine(40, 2);
        let config = ServiceConfig {
            index: Some(Arc::new(SentinelBuilder { stale: false })),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        // Covered: the sentinel proves the index answered, not a lane.
        let covered = service.query(KhopQuery::single(0, 5, 3)).unwrap();
        assert_eq!(covered.visited, 42);
        assert_eq!(covered.per_level, vec![42]);
        // Uncovered: traverses as usual.
        let uncovered = service.query(KhopQuery::single(1, 6, 3)).unwrap();
        assert_eq!(uncovered.visited, 4);
        let stats = service.stats();
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.index_only_answers, 1);
        assert_eq!(stats.index_sources, 1);
        assert_eq!(stats.index_bytes, 64);
        assert_eq!(stats.queries_completed, 2);
        service.shutdown();
    }

    #[test]
    fn index_rebuilds_inside_commit_fence() {
        let engine = ring_engine(40, 2);
        let config = ServiceConfig {
            index: Some(Arc::new(SentinelBuilder { stale: false })),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        assert_eq!(service.query(KhopQuery::single(0, 5, 3)).unwrap().visited, 42);
        let e1 = service.commit_epoch().unwrap();
        assert_eq!(e1, 1);
        // The rebuilt index carries the new epoch, so it still answers.
        assert_eq!(service.query(KhopQuery::single(1, 5, 3)).unwrap().visited, 42);
        let stats = service.stats();
        assert_eq!(stats.index_builds, 2, "start-up build + commit rebuild");
        assert_eq!(stats.index_only_answers, 2);
        service.shutdown();
    }

    #[test]
    fn stale_index_never_answers() {
        let engine = ring_engine(40, 2);
        let config = ServiceConfig {
            index: Some(Arc::new(SentinelBuilder { stale: true })),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        // The stamp check at build refuses the stale index: the covered
        // query traverses and gets the *real* answer, not the sentinel.
        let r = service.query(KhopQuery::single(0, 5, 3)).unwrap();
        assert_eq!(r.visited, 4);
        let stats = service.stats();
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.index_only_answers, 0);
        service.shutdown();
    }

    #[test]
    fn try_wait_polls_to_completion() {
        let engine = ring_engine(20, 1);
        let config =
            ServiceConfig { max_batch_delay: Duration::from_micros(100), ..Default::default() };
        let service = QueryService::start(engine, config);
        let ticket = service.submit(KhopQuery::single(0, 0, 3)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let got = loop {
            match ticket.try_wait() {
                Some(reply) => break reply.unwrap(),
                None => {
                    assert!(Instant::now() < deadline, "query never completed");
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(got.visited, 4);
        service.shutdown();
    }

    #[test]
    fn try_wait_reports_shutdown_on_an_abandoned_traversal() {
        // A ticket whose traversal was dropped without an answer must
        // not read as "still in flight" — pollers would spin forever.
        let state = replica::TicketState::new(0, 0, 1);
        let handle = replica::TicketHandle::new(&state);
        let ticket = QueryTicket { state, deadline: None };
        assert_eq!(ticket.try_wait(), None);
        drop(handle);
        assert_eq!(ticket.try_wait(), Some(Err(ServiceError::ShutDown)));
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_last_unanswered_traversal() {
        let state = replica::TicketState::new(0, 0, 2);
        let handles = [replica::TicketHandle::new(&state), replica::TicketHandle::new(&state)];
        let ticket = QueryTicket { state: Arc::clone(&state), deadline: None };
        let waiter = std::thread::spawn(move || ticket.wait());
        // Force the interleaving under test: the drops below must find
        // the waiter parked, not on its way there.
        while !state.waiter_parked() {
            std::thread::yield_now();
        }
        let [first, last] = handles;
        drop(first);
        assert!(state.waiter_parked(), "one traversal is still out: nothing to wake for");
        drop(last);
        assert_eq!(waiter.join().unwrap(), Err(ServiceError::ShutDown));
    }

    /// Runs `f` on a thread of its own and returns its result, failing
    /// the test instead of hanging when it does not finish in time.
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(20)).unwrap_or_else(|_| panic!("{what}: lost wake-up"))
    }

    /// Spins until `cond` holds, failing the test after a bound.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "{what} never happened");
            std::thread::yield_now();
        }
    }

    /// Holds `core`'s dispatcher between a check and its park: waits for
    /// it to be parked, arms the hook and wakes it for nothing — it
    /// finds no work and stops before it parks again.
    fn hold_between_check_and_park(core: &SharedCore) {
        until("the dispatcher parking", || *lock(&core.parked));
        core.park_hook.armed.store(true, Ordering::SeqCst);
        core.wake_dispatcher();
        until("the dispatcher reaching its park", || core.park_hook.holding.load(Ordering::SeqCst));
    }

    #[test]
    fn work_landing_between_the_dispatchers_check_and_its_park_is_served() {
        let engine = ring_engine(40, 2);
        let service = Arc::new(QueryService::start(engine, ServiceConfig::default()));
        // Never dropped here: unwinding from a failed check must not
        // join a dispatcher that never woke.
        let _pinned = std::mem::ManuallyDrop::new(Arc::clone(&service));
        let core = Arc::clone(&service.core);

        // A queued miss.
        hold_between_check_and_park(&core);
        let ticket = service.submit(KhopQuery::single(0, 3, 2)).unwrap();
        assert_eq!(within("a queued miss", move || ticket.wait()).unwrap().visited, 3);

        // A commit request.
        hold_between_check_and_park(&core);
        let committer = Arc::clone(&service);
        assert_eq!(within("a commit request", move || committer.commit_epoch()), Ok(1));

        // The close of the last replica: shutdown returns once the
        // dispatcher has woken to it and exited.
        hold_between_check_and_park(&core);
        let closer = Arc::clone(&service);
        within("a replica close", move || closer.shutdown());
        assert_eq!(service.commit_epoch(), Err(ServiceError::ShutDown));
        let stats = service.stats();
        assert_eq!((stats.queries_completed, stats.epoch_commits), (1, 1));
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let engine = ring_engine(20, 1);
        let service = QueryService::start(engine, ServiceConfig::default());
        service.shutdown();
        let err = service.submit(KhopQuery::single(0, 0, 2)).unwrap_err();
        assert_eq!(err, ServiceError::ShutDown);
        service.shutdown(); // idempotent
    }

    #[test]
    fn out_of_range_source_rejected_at_admission() {
        let engine = ring_engine(20, 2);
        let service = QueryService::start(engine, ServiceConfig::default());
        let err = service.submit(KhopQuery::single(0, 99, 2)).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)), "{err:?}");
        // Rejection is per-query: the service keeps serving.
        let ok = service.query(KhopQuery::single(1, 3, 2)).unwrap();
        assert_eq!(ok.visited, 3);
        service.shutdown();
    }

    #[test]
    fn chaos_crash_recovers_with_zero_failed_queries() {
        // The acceptance scenario: a machine crash mid-batch in sync
        // mode recovers via confined partition replay from a
        // checkpoint — no query fails, no full rollback happens.
        let engine = ring_engine(64, 4);
        let plan = FaultPlan::new(11).crash(2, 7).heal_after(1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            recovery: RecoveryConfig { checkpoint_interval: 3, max_recoveries: 2 },
            ..Default::default()
        };
        let expected = ring_engine(64, 4).run_traversal_batch(&[0, 16], &[20, 20]).unwrap();
        let service = QueryService::start(engine, config);
        // One multi-source query: both traversals are admitted under a
        // single lock, so they land in exactly one batch (one chaos job).
        let r = service.query(KhopQuery::multi(7, vec![0, 16], 20)).unwrap();
        assert_eq!(r.visited, expected.per_lane_visited.iter().sum::<u64>());
        let stats = service.stats();
        assert_eq!(stats.queries_failed, 0);
        assert_eq!(stats.queries_completed, 1);
        assert!(stats.recoveries >= 1, "the crash must trigger a recovery");
        assert!(stats.checkpoints_restored >= 1, "recovery must restore from a checkpoint");
        assert_eq!(stats.partitions_replayed, 1, "only the crashed partition replays");
        assert_eq!(stats.full_rollbacks, 0, "confined replay must not roll back globally");
        assert_eq!(stats.retries, 0, "in-batch recovery must not consume service retries");
        service.shutdown();
    }

    #[test]
    fn unrecoverable_plan_fails_only_poisoned_batch() {
        // A never-healing crash armed for job 0 only: the first batch's
        // lanes fail after retries are exhausted, while later queries
        // complete on the same service.
        let engine = ring_engine(40, 2);
        let plan = FaultPlan::new(3).crash(1, 1).arm_jobs(0..1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let err = service.query(KhopQuery::single(0, 0, 5)).unwrap_err();
        assert!(matches!(err, ServiceError::BatchFailed(_)), "{err:?}");
        // Batch 1 is outside the armed window: it must succeed.
        let ok = service.query(KhopQuery::single(1, 0, 5)).unwrap();
        assert_eq!(ok.visited, 6);
        let stats = service.stats();
        assert_eq!(stats.queries_failed, 1);
        assert_eq!(stats.queries_completed, 1);
        assert_eq!(stats.retries, 1, "the poisoned batch consumed its retry");
        service.shutdown();
    }

    #[test]
    fn retry_rescues_batch_that_heals_on_resubmission() {
        // The plan heals only after the engine's own recoveries are
        // exhausted (first_attempt of retry 1 = 1 × (0 + 1) = 1), so
        // success requires a service-level retry.
        let engine = ring_engine(40, 2);
        let plan = FaultPlan::new(8).crash(0, 1).heal_after(1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            max_retries: 2,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 0 },
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let r = service.query(KhopQuery::single(0, 0, 5)).unwrap();
        assert_eq!(r.visited, 6);
        let stats = service.stats();
        assert_eq!(stats.queries_failed, 0);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recoveries, 0, "max_recoveries = 0 leaves recovery to the retry");
        service.shutdown();
    }

    #[test]
    fn repeated_machine_failures_degrade_to_smaller_cluster() {
        // Machine 1 dies on every attempt, forever. With degrade_after
        // = 2 the service re-partitions onto one machine — where the
        // plan's machine-1 crash can no longer fire — and the query
        // completes without ever failing.
        let engine = ring_engine(40, 2);
        let plan = FaultPlan::new(5).crash(1, 1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            max_retries: 4,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 0 },
            degrade_after: Some(2),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let r = service.query(KhopQuery::single(0, 0, 5)).unwrap();
        assert_eq!(r.visited, 6);
        let stats = service.stats();
        assert_eq!(stats.queries_failed, 0);
        assert_eq!(stats.degraded_generations, 1);
        service.shutdown();
    }

    #[test]
    fn expired_queries_fail_with_deadline_exceeded() {
        let engine = ring_engine(30, 1);
        let config = ServiceConfig {
            // The dispatcher flushes only after 50 ms, far past the
            // 1 ms query deadline — every query expires pre-dispatch.
            max_batch_delay: Duration::from_millis(50),
            query_deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let ticket = service.submit(KhopQuery::single(0, 0, 3)).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        // The dispatcher eventually drains the expired traversal and
        // records it.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = service.stats();
            if stats.queries_deadline_exceeded == 1 {
                assert_eq!(stats.queries_failed, 1);
                break;
            }
            assert!(Instant::now() < deadline, "expiry never recorded");
            std::thread::yield_now();
        }
        service.shutdown();
    }

    #[test]
    fn generous_deadline_does_not_affect_results() {
        let engine = ring_engine(30, 2);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            query_deadline: Some(Duration::from_secs(60)),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let r = service.query(KhopQuery::single(0, 0, 4)).unwrap();
        assert_eq!(r.visited, 5);
        assert_eq!(service.stats().queries_deadline_exceeded, 0);
        service.shutdown();
    }

    #[test]
    fn try_wait_reports_expired_deadline() {
        let state = replica::TicketState::new(0, 0, 1);
        let _in_flight = replica::TicketHandle::new(&state);
        let deadline = Some(Instant::now() - Duration::from_millis(1));
        let ticket = QueryTicket { state, deadline };
        assert_eq!(ticket.try_wait(), Some(Err(ServiceError::DeadlineExceeded)));
    }

    fn plane(cache_mb: Option<usize>, coalesce: bool, locality: bool) -> QueryPlaneConfig {
        QueryPlaneConfig {
            cache_capacity_bytes: cache_mb.map(|mb| mb << 20),
            coalesce,
            pack_locality: locality,
            ..Default::default()
        }
    }

    #[test]
    fn cache_hit_serves_repeat_query_without_a_lane() {
        let engine = ring_engine(40, 2);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            query_plane: plane(Some(1), false, false),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let a = service.query(KhopQuery::single(0, 4, 3)).unwrap();
        let b = service.query(KhopQuery::single(1, 4, 3)).unwrap();
        assert_eq!((a.visited, &a.per_level), (b.visited, &b.per_level));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1, "second identical query must hit");
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_insertions, 1);
        assert_eq!(stats.cache_entries, 1);
        assert!(stats.cache_bytes > 0);
        assert_eq!(stats.batches_dispatched, 1, "the hit must not dispatch a batch");
        assert_eq!(stats.queries_completed, 2);
        // A cache hit costs zero execution time by definition.
        assert_eq!(b.exec_time, Duration::ZERO);
        service.shutdown();
    }

    #[test]
    fn in_batch_duplicates_never_take_two_lanes() {
        // Regression: even with the whole query plane OFF, identical
        // (source, k) traversals inside one batch window must collapse
        // into a single lane — while still folding per scheduler
        // semantics (each duplicate contributes its own counts).
        let engine = ring_engine(40, 2);
        let service = QueryService::start(engine, ServiceConfig::default());
        let r = service.query(KhopQuery::multi(0, vec![5, 5, 5, 7], 3)).unwrap();
        assert_eq!(r.visited, 16); // 4 traversals × 4 vertices each
        assert_eq!(r.per_level, vec![4, 4, 4, 4]); // levels 0..=3, all 4 folded

        let stats = service.stats();
        assert_eq!(stats.coalesced_traversals, 2, "both duplicate 5s must share the first lane");
        assert_eq!(stats.queries_completed, 1);
        service.shutdown();
    }

    #[test]
    fn coalescing_single_flights_a_queued_burst() {
        let engine = ring_engine(60, 2);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_millis(2),
            query_plane: plane(None, true, false),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        // A burst of identical queries admitted together: exactly one
        // lane executes, everyone shares its result.
        let tickets: Vec<_> =
            (0..16).map(|i| service.submit(KhopQuery::single(i, 30, 4)).unwrap()).collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().visited, 5);
        }
        let stats = service.stats();
        assert_eq!(stats.queries_completed, 16);
        assert_eq!(stats.coalesced_traversals, 15, "15 of 16 must share the one execution");
        service.shutdown();
    }

    #[test]
    fn epoch_invalidation_blocks_stale_hits() {
        let engine = ring_engine(40, 2);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            query_plane: plane(Some(1), false, false),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        service.query(KhopQuery::single(0, 2, 3)).unwrap();
        assert_eq!(service.stats().cache_entries, 1);
        assert_eq!(service.graph_epoch(), 0);
        assert_eq!(service.invalidate_cache(), 1);
        assert_eq!(service.graph_epoch(), 1);
        assert_eq!(service.stats().cache_entries, 0, "invalidation must drop old-epoch entries");
        // The repeat query is a miss under the new epoch and re-executes.
        service.query(KhopQuery::single(1, 2, 3)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.batches_dispatched, 2);
        // ... and is cached again under the new epoch.
        service.query(KhopQuery::single(2, 2, 3)).unwrap();
        assert_eq!(service.stats().cache_hits, 1);
        service.shutdown();
    }

    #[test]
    fn failed_batches_never_populate_the_cache() {
        // A never-healing crash armed for job 0: the poisoned batch
        // must leave the cache untouched; the retried identical query
        // then executes cleanly and commits.
        let engine = ring_engine(40, 2);
        let fault = FaultPlan::new(3).crash(1, 1).arm_jobs(0..1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(fault),
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
            query_plane: plane(Some(1), false, false),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let err = service.query(KhopQuery::single(0, 0, 5)).unwrap_err();
        assert!(matches!(err, ServiceError::BatchFailed(_)), "{err:?}");
        let stats = service.stats();
        assert_eq!(stats.cache_insertions, 0, "a failed batch must not commit results");
        assert_eq!(stats.cache_entries, 0);
        // Job 1 is clean: the same query succeeds and only now commits.
        let ok = service.query(KhopQuery::single(1, 0, 5)).unwrap();
        assert_eq!(ok.visited, 6);
        assert_eq!(service.stats().cache_insertions, 1);
        service.shutdown();
    }

    #[test]
    fn coalesced_waiters_share_a_batch_failure() {
        // Identical queries coalesced onto a poisoned execution must
        // all observe its failure (and none may hang).
        let engine = ring_engine(40, 2);
        let fault = FaultPlan::new(3).crash(1, 1).arm_jobs(0..1);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_millis(2),
            fault_plan: Some(fault),
            max_retries: 0,
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 0 },
            query_plane: plane(None, true, false),
            ..Default::default()
        };
        let service = QueryService::start(engine, config);
        let tickets: Vec<_> =
            (0..4).map(|i| service.submit(KhopQuery::single(i, 9, 4)).unwrap()).collect();
        for t in tickets {
            let err = t.wait().unwrap_err();
            assert!(matches!(err, ServiceError::BatchFailed(_)), "{err:?}");
        }
        let stats = service.stats();
        assert_eq!(stats.queries_failed, 4);
        // After the failure the key left the in-flight table: a fresh
        // identical query gets a fresh (clean, job 1) execution.
        assert_eq!(service.query(KhopQuery::single(9, 9, 4)).unwrap().visited, 5);
        service.shutdown();
    }

    #[test]
    fn locality_packing_preserves_results() {
        let engine = ring_engine(120, 4);
        let config = ServiceConfig {
            max_batch_delay: Duration::from_micros(200),
            query_plane: plane(None, false, true),
            ..Default::default()
        };
        let service = Arc::new(QueryService::start(engine, config));
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..20u64 {
                        let src = (t * 40 + i * 7) % 120;
                        let r = service.query(KhopQuery::single(0, src, 3)).unwrap();
                        assert_eq!(r.visited, 4, "ring 3-hop from {src}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(service.stats().queries_completed, 60);
        service.shutdown();
    }

    #[test]
    fn backoff_saturates_instead_of_panicking_at_extremes() {
        // Regression: the old arithmetic computed the jitter modulus as
        // `base.as_nanos().max(1) as u64` (silently truncating a
        // >64-bit nanosecond count) and then `exp + jitter`, which
        // panics once the exponential part has saturated. A service
        // configured with a huge retry_backoff and enough faults to
        // reach deep retries would crash its dispatcher instead of
        // retrying.
        let huge = Duration::new(u64::MAX, 0);
        for retry in [0u32, 1, 31, 32, 63, 200] {
            for job in [0u64, 1, 7, u64::MAX] {
                let d = replica::backoff_delay_for_test(huge, retry, job);
                assert!(d >= huge, "backoff must never shrink below the saturated base");
            }
        }
        assert_eq!(replica::backoff_delay_for_test(huge, 32, 7), Duration::MAX);

        // Moderate bases stay within [exp, 2*exp) and never panic.
        let base = Duration::from_millis(3);
        for retry in 0..40 {
            for job in 0..8 {
                let d = replica::backoff_delay_for_test(base, retry, job);
                let exp = base.saturating_mul(1u32 << retry.min(16));
                assert!(d >= exp && d <= exp.saturating_add(base));
            }
        }
    }

    #[test]
    fn stats_snapshot_is_cross_plane_consistent_under_mutation() {
        // Regression: stats() used to take five independent locks, so
        // a commit in flight could be half-visible — updates already
        // drained from the pending buffer but not yet counted as
        // applied, making `updates_applied + pending_updates` dip
        // below the number of accepted updates. Under the stats fence
        // every snapshot must reconcile.
        const TOTAL: u64 = 200;
        let engine = ring_engine(64, 2);
        let service = Arc::new(QueryService::start(engine, ServiceConfig::default()));
        let svc = Arc::clone(&service);
        let mutator = std::thread::spawn(move || {
            for i in 0..TOTAL {
                let mut batch = UpdateBatch::new();
                batch.insert(i % 64, (i * 7 + 3) % 64);
                svc.apply_updates(batch).unwrap();
                if i % 10 == 9 {
                    svc.commit_epoch().unwrap();
                }
            }
            svc.commit_epoch().unwrap();
        });
        let mut last_accounted = 0u64;
        while !mutator.is_finished() {
            let st = service.stats();
            let accounted = st.updates_applied + st.pending_updates;
            assert!(
                accounted <= TOTAL,
                "snapshot invented updates: applied={} pending={}",
                st.updates_applied,
                st.pending_updates
            );
            assert!(
                accounted >= last_accounted,
                "snapshot lost accepted updates: {accounted} < {last_accounted}"
            );
            last_accounted = accounted;
        }
        mutator.join().unwrap();
        let st = service.stats();
        assert_eq!(st.updates_applied, TOTAL);
        assert_eq!(st.pending_updates, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_writes_the_snapshot_a_busy_writer_skipped() {
        let dir = std::env::temp_dir().join(format!("cgraph-svc-overdue-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(2)),
            ..Default::default()
        };
        let service = QueryService::start(ring_engine(32, 2), config);
        let plane = service.core.durability.as_ref().unwrap();
        // A write slower than two commits: the plane's one job is out
        // when the second commit makes a snapshot due.
        let engine = Arc::clone(&service.core.serving().engine);
        let slow = lock(plane).take_snapshot_job(&engine, Default::default()).unwrap();
        for v in [5, 9] {
            let mut batch = UpdateBatch::new();
            batch.insert(0, v);
            service.apply_updates(batch).unwrap();
            service.commit_epoch().unwrap();
        }
        let out = slow.run();
        lock(plane).finish_snapshot(&out);
        let s = service.stats();
        assert_eq!((s.snapshots_written, s.last_snapshot_epoch), (2, 0), "epoch 2 was skipped");

        // No commit is left to retry it; shutdown does.
        service.shutdown();
        let s = service.stats();
        assert_eq!((s.snapshots_written, s.last_snapshot_epoch), (3, 2));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["snap-0000000000000000.cgs", "snap-0000000000000002.cgs", "wal.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
