//! State shared by every front-end replica of a service (group).
//!
//! A [`SharedCore`] is the singleton half of the serving tier: one
//! [`Serving`] value — the engine snapshot, its graph epoch and the
//! index built for it, published whole — plus the persistent cluster
//! (inside [`ExecCtx`], owned by the one dispatcher thread), one
//! mutation pending buffer, one durability plane, one counter store
//! ([`ServiceObs`](super::obs)) and the group's replicas, fixed at
//! start. Every [`Replica`] — the single replica behind a plain
//! [`QueryService`](super::QueryService) or one of the N of a
//! [`ServiceGroup`](super::ServiceGroup) — holds only per-replica state
//! (admission queue, result cache, coalescer, latency shard).
//!
//! # One dispatcher, and the lock order
//!
//! [`SharedCore::start`] spawns exactly one dispatcher thread per core,
//! once the replicas exist. It runs every commit, formation, engine
//! call, retry and degradation in order (see [`replica`](super::replica)
//! for the loop), so none can overlap another and the engine, the
//! cluster and the panic blame are a plain local value of that thread.
//!
//! Outermost first: replica `state` (every replica's, in id order —
//! only the dispatcher ever takes two) → `stats_gate` → per-replica
//! cache/coalescer → `pending` → `durability`. The submit
//! path takes one replica's `state` → its cache/coalescer → a ticket's
//! slot → that replica's `latency` shard (a query answered at admission
//! completes under its replica's `state`) and never `stats_gate` or
//! `pending`; the dispatcher's fan-out takes a ticket's slot → the
//! shard of the replica that admitted the query. `serving`, every
//! `latency` shard and `parked` are leaves: held for a clone, one
//! record or the dispatcher's check-and-park, never across another
//! acquisition — save that [`SharedCore::stats`], under `stats_gate`,
//! holds every shard at once, taken in id order. The durability
//! plane's snapshot writer takes `stats_gate` → `durability` to book a
//! finished job, and nothing while it encodes and writes.
//!
//! # One serving value
//!
//! What admission, formation and `stats()` read as "what is serving"
//! is one immutable [`Serving`] behind the `serving` leaf: the engine
//! (whose `graph_epoch()` *is* the epoch cache keys and answers carry)
//! and the index built for it. A commit, a degradation and start-up
//! each build the next value — engine first, then its index — and
//! publish it with one assignment, so no reader can see one commit's
//! engine beside another's epoch or index. The index's epoch stamp is
//! checked once, in [`build_index`], where an index enters the service.
//!
//! # The one wake-up
//!
//! The dispatcher parks on [`SharedCore::work`] while nothing is queued
//! ([`SharedCore::queued`]), no commit is requested
//! ([`SharedCore::commit_requested`]) and a replica is still open
//! ([`SharedCore::open_replicas`]); [`SharedCore::wake_dispatcher`]
//! says why a change to any of the three is never lost.
//!
//! # What is counted where
//!
//! Everything the service *tallies* — queries, batches, retries,
//! recoveries, cache and index traffic, committed updates — lives in
//! the registry handles of [`ServiceObs`](super::obs) and nowhere else:
//! a site bumps one handle, and [`SharedCore::stats`] reads
//! `Counter::get` under the stats gate. Two kinds of state stay beside
//! the registry:
//!
//! * each replica's **latency shard** (`Replica::latency`, a
//!   [`LatencyShard`]): the exact count and nanosecond sums of its
//!   queries' `[wait, exec, response]`, and a fixed-size uniform sample
//!   of them — nearest-rank quantiles over real samples, which a
//!   fixed-bucket histogram cannot reproduce, in memory that does not
//!   grow with the stream. `stats()` merges the shards into
//!   [`ResponseStats`]: count and mean exact, quantiles sampled past
//!   [`RESERVOIR_TRIPLES`](crate::metrics::RESERVOIR_TRIPLES)
//!   completions on a replica;
//! * state that **is its own count** — cache occupancy, index size,
//!   pending depth, overlay size (index and overlay read off one
//!   `serving` value), the plane's
//!   [`DurabilityStats`], the router's `RouterStats` (plane and router
//!   also run without a service). `stats()` reads the structure itself
//!   under the gate; the registry line is its *publication*, refreshed
//!   wherever the structure changes. These are the 15 `ServiceStats`
//!   fields `cache_entries`, `cache_bytes`, `index_sources`,
//!   `index_bytes`, `pending_updates`, `delta_entries`, `delta_bytes`,
//!   `wal_records`, `wal_bytes`, `snapshots_written`, `snapshot_bytes`,
//!   `wal_replayed`, `snapshots_corrupt`, `durable_recoveries` and
//!   `last_snapshot_epoch`.

use super::obs::ServiceObs;
use super::replica::{dispatch_loop, Replica};
use super::{disk_faults, lock, ServiceConfig, ServiceError, ServiceStats};
use crate::config::EngineConfig;
use crate::durability::{
    join_snapshot_writer, recover, DurabilityPlane, DurabilityStats, RecoveryOutcome,
    SnapshotOutcome,
};
use crate::engine::DistributedEngine;
use crate::index_api::{IndexBuilder, ReachIndex};
use crate::metrics::{LatencyShard, ResponseStats};
use crate::scheduler::QueryScheduler;
use cgraph_cache::HeatTable;
use cgraph_comm::PersistentCluster;
use cgraph_graph::delta::EdgeUpdate;
use cgraph_graph::{EdgeList, LaneWidth};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Buffered edge updates awaiting the next epoch commit, plus the
/// commit waiters.
#[derive(Default)]
pub(super) struct PendingUpdates {
    pub(super) updates: Vec<EdgeUpdate>,
    /// Waiters blocked in [`QueryService::commit_epoch`]
    /// (super::QueryService::commit_epoch); each receives the new
    /// epoch once the dispatcher performs the commit.
    pub(super) waiters: Vec<crossbeam_channel::Sender<u64>>,
    /// Set — under the pending lock — by the dispatcher as it exits.
    /// From then on `commit_epoch` refuses instead of registering a
    /// waiter no thread would ever answer.
    pub(super) serving_done: bool,
}

/// What is serving: one engine value and the index built for it,
/// published whole. The graph epoch is the engine's.
pub(super) struct Serving {
    pub(super) engine: Arc<DistributedEngine>,
    /// The index built for `engine` — its stamp checked by
    /// [`build_index`] — or `None`: no builder configured, or the build
    /// failed or was refused.
    pub(super) index: Option<Arc<dyn ReachIndex>>,
}

impl Serving {
    /// Builds the value that serves `engine`: the engine and, with a
    /// builder configured, its index. Nothing is published here.
    fn build(
        config: &ServiceConfig,
        obs: &ServiceObs,
        engine: Arc<DistributedEngine>,
    ) -> Arc<Self> {
        let index = config.index.as_ref().and_then(|b| build_index(&**b, &engine, obs));
        Arc::new(Self { engine, index })
    }

    /// The graph epoch being served — every cache key and answer of
    /// this value carries it.
    pub(super) fn epoch(&self) -> u64 {
        self.engine.graph_epoch()
    }
}

/// What the dispatcher executes with: the serving value, the one
/// persistent cluster and panic blame. A plain local value of the
/// dispatcher thread — only that thread runs batches, commits and
/// degradations, so none of them can overlap another.
pub(super) struct ExecCtx {
    /// The same value [`SharedCore::serving`] publishes.
    pub(super) serving: Arc<Serving>,
    pub(super) cluster: PersistentCluster,
    /// Per-machine panic blame since the last degradation.
    pub(super) blame: Vec<u32>,
}

/// State shared by every replica of one service (group). See the
/// module doc for the lock order and the wake-up.
pub(super) struct SharedCore {
    pub(super) config: ServiceConfig,
    pub(super) lanes: usize,
    /// Monotone batch sequence number — the chaos *job* identity, so a
    /// [`FaultPlan`](cgraph_comm::chaos::FaultPlan) armed for a job
    /// window poisons specific batches, group-wide. Incremented by the
    /// dispatcher (so job order equals execution order); read lock-free
    /// for trace labels.
    pub(super) batch_seq: AtomicU64,
    /// What is serving (leaf lock): [`ExecCtx::serving`], readable
    /// without waiting behind a running batch. Its engine's epoch is
    /// the one baked into every cache key — a commit's publish makes
    /// every older entry unreachable — and the submit path, the router
    /// and `stats()` read engine, epoch and index from one clone of it.
    pub(super) serving: Mutex<Arc<Serving>>,
    /// Buffered mutations + commit handshake. [`SharedCore::durability`]
    /// nests inside it on the write-ahead path.
    pub(super) pending: Mutex<PendingUpdates>,
    /// The durability plane (WAL + snapshots); `None` runs in memory
    /// only. Strict leaf under `pending`: acquired *inside* it on the
    /// write-ahead path, so WAL order always equals buffer order.
    pub(super) durability: Option<Mutex<DurabilityPlane>>,
    /// The stats fence: [`SharedCore::stats`] and every cross-plane
    /// mutation (commit drain+apply, batch cache-commit) hold it, so a
    /// stats snapshot can never observe half a commit — the fix for
    /// the torn five-lock read the old `QueryService::stats` did.
    pub(super) stats_gate: Mutex<()>,
    /// The counter store + coordinator tracer. Shared by all replicas
    /// — counters aggregate group-wide by construction.
    pub(super) obs: ServiceObs,
    /// The group's front-ends, fixed at start: replica `i` is
    /// `replicas[i]`. Commits walk it to fence every cache.
    pub(super) replicas: Box<[Replica]>,
    /// Replicas still accepting queries. Dropped after the replica's
    /// `closed` flag is set, so a dispatcher that reads 0 sees every
    /// traversal the replicas admitted in [`SharedCore::queued`].
    pub(super) open_replicas: AtomicUsize,
    /// Traversals queued across the group — moved under the `state`
    /// lock of the replica whose queue changed. Its own count, not the
    /// `cgraph_service_queue_depth` gauge: a registry may be shared by
    /// two services.
    pub(super) queued: AtomicI64,
    /// A commit is due — an explicit request or a crossed
    /// [`MutationConfig::commit_threshold`](super::MutationConfig::commit_threshold).
    /// Written under `pending` only (so it agrees with the waiter list
    /// and `serving_done`), read lock-free by the dispatcher's check.
    pub(super) commit_requested: AtomicBool,
    /// The dispatcher's waiter flag: set by the dispatcher before it
    /// parks on `work`, cleared by the notifier.
    pub(super) parked: Mutex<bool>,
    pub(super) work: Condvar,
    /// The dispatcher thread, until the last replica's close joins it.
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    /// Cache-heat grid feeding the group router; `None` for a solo
    /// service (no router reads it).
    pub(super) heat: Option<Arc<HeatTable>>,
    #[cfg(test)]
    pub(super) park_hook: ParkHook,
}

impl SharedCore {
    /// Wires the shared half of a service — persistent cluster, obs
    /// registration, the first serving value (engine, then its index),
    /// `replicas` front-ends — and
    /// spawns its one dispatcher. `restored_pending` updates are
    /// already in the WAL (recovery restored them) — they enter the
    /// buffer without being re-appended.
    pub(super) fn start(
        engine: Arc<DistributedEngine>,
        config: ServiceConfig,
        replicas: usize,
        durability: Option<DurabilityPlane>,
        restored_pending: Vec<EdgeUpdate>,
        recovery: Option<&RecoveryOutcome>,
        heat: Option<Arc<HeatTable>>,
    ) -> Arc<Self> {
        let lanes = QueryScheduler::new(&engine, config.scheduler).effective_lanes();
        let cluster =
            PersistentCluster::with_model(engine.num_machines(), engine.config().net_model);
        if let Some(o) = &config.obs {
            cluster.set_obs(Arc::clone(o));
        }
        let obs = ServiceObs::new(config.obs.as_deref(), lanes);
        obs.batch_width.set(LaneWidth::for_lanes(lanes).bits() as i64);
        obs.router_replicas.set(replicas as i64);
        if let Some(p) = &durability {
            obs.seed_durability(&p.stats());
        }
        obs.mutation_pending.set(restored_pending.len() as i64);
        obs.publish_overlay(&engine);
        if let Some(rec) = recovery.filter(|r| r.recovered) {
            // Emitted before the dispatcher exists, so its position
            // in the coordinator trace is deterministic.
            obs.instant("durable_recover", 0, 0, rec.epoch);
        }
        // The first serving value, index included, before the first
        // query can be admitted.
        let blame = vec![0; engine.num_machines()];
        let serving = Serving::build(&config, &obs, engine);
        let ctx = ExecCtx { serving: Arc::clone(&serving), cluster, blame };
        let core = Arc::new(Self {
            lanes,
            batch_seq: AtomicU64::new(0),
            serving: Mutex::new(serving),
            pending: Mutex::new(PendingUpdates {
                updates: restored_pending,
                ..PendingUpdates::default()
            }),
            durability: durability.map(Mutex::new),
            stats_gate: Mutex::new(()),
            obs,
            replicas: (0..replicas).map(|id| Replica::new(id, &config.query_plane)).collect(),
            open_replicas: AtomicUsize::new(replicas),
            queued: AtomicI64::new(0),
            commit_requested: AtomicBool::new(false),
            parked: Mutex::new(false),
            work: Condvar::new(),
            dispatcher: Mutex::new(None),
            heat,
            #[cfg(test)]
            park_hook: ParkHook::default(),
            config,
        });
        let handle = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("cgraph-dispatcher".into())
                .spawn(move || dispatch_loop(&core, ctx))
                .expect("spawn dispatcher thread")
        };
        *lock(&core.dispatcher) = Some(handle);
        core
    }

    /// The value now serving, without waiting behind a batch.
    pub(super) fn serving(&self) -> Arc<Serving> {
        Arc::clone(&lock(&self.serving))
    }

    /// The graph epoch now serving.
    pub(super) fn graph_epoch(&self) -> u64 {
        lock(&self.serving).epoch()
    }

    /// Wakes the dispatcher if it is parked. Call *after* changing what
    /// it waits for — [`SharedCore::queued`],
    /// [`SharedCore::commit_requested`], [`SharedCore::open_replicas`] —
    /// and not under `pending` or a replica's `state`. The dispatcher
    /// reads those three under `parked` and sets the flag without
    /// letting go of the mutex before it parks, so a change made before
    /// this takes the mutex is seen by its check or finds the flag set;
    /// clearing the flag here makes one park cost one notify.
    pub(super) fn wake_dispatcher(&self) {
        let mut parked = lock(&self.parked);
        if std::mem::take(&mut *parked) {
            self.work.notify_one();
        }
    }

    /// Closes replica `id` to admission — what it queued is still
    /// answered — and wakes the dispatcher. Once every replica is closed,
    /// waits for the dispatcher to drain the queues, serve the last
    /// commit request, run the durability barrier and exit. Idempotent.
    pub(super) fn close(&self, id: usize) {
        let replica = &self.replicas[id];
        let mut st = lock(&replica.state);
        if !std::mem::replace(&mut st.closed, true) {
            replica.wake_submitters(&st);
            drop(st);
            self.open_replicas.fetch_sub(1, Ordering::SeqCst);
            self.wake_dispatcher();
        }
        if self.open_replicas.load(Ordering::SeqCst) == 0 {
            if let Some(h) = lock(&self.dispatcher).take() {
                let _ = h.join();
            }
        }
    }

    /// Group-wide stats snapshot under the stats fence: no commit can
    /// be half-applied while the planes are read, so cross-plane sums
    /// (e.g. `updates_applied + pending_updates`) are exact at every
    /// sample. Per-replica cache occupancy is summed over the group.
    pub(super) fn stats(&self) -> ServiceStats {
        let gate = lock(&self.stats_gate);
        let (mut cache_entries, mut cache_bytes) = (0u64, 0u64);
        for r in self.replicas.iter() {
            if let Some(cm) = &r.plane.cache {
                let c = lock(cm);
                cache_entries += c.len() as u64;
                cache_bytes += c.used_bytes() as u64;
            }
        }
        let pending_updates = lock(&self.pending).updates.len() as u64;
        // The index and the overlay of the value now serving — not of
        // the last commit: recovery and degradation install one too.
        let serving = self.serving();
        let (index_sources, index_bytes) = serving
            .index
            .as_ref()
            .map(|ix| (ix.num_sources() as u64, ix.size_bytes() as u64))
            .unwrap_or((0, 0));
        let dur: DurabilityStats =
            self.durability.as_ref().map(|dm| lock(dm).stats()).unwrap_or_default();
        let o = &self.obs;
        // Per-query outcome counts and records move under the shard of
        // the replica that admitted the query: holding every shard, the
        // completions match their records and deadline kills their
        // failures in every snapshot. The merge copies at most
        // `RESERVOIR_TRIPLES` triples a shard.
        let shards: Vec<_> = self.replicas.iter().map(|r| lock(&r.latency)).collect();
        let latency = LatencyShard::merge(&shards);
        let counters = ServiceStats {
            queries_completed: o.queries_completed.get(),
            queries_failed: o.queries_failed.get(),
            queries_deadline_exceeded: o.queries_deadline_exceeded.get(),
            batches_dispatched: o.batches_dispatched.get(),
            retries: o.retries.get(),
            recoveries: o.recovery_recoveries.get(),
            checkpoints_taken: o.recovery_checkpoints_taken.get(),
            checkpoints_restored: o.recovery_checkpoints_restored.get(),
            partitions_replayed: o.recovery_partitions_replayed.get(),
            full_rollbacks: o.recovery_full_rollbacks.get(),
            degraded_generations: o.degraded_generations.get(),
            cache_hits: o.cache_hits.get(),
            cache_misses: o.cache_misses.get(),
            cache_insertions: o.cache_insertions.get(),
            cache_evictions: o.cache_evictions.get(),
            cache_entries,
            cache_bytes,
            coalesced_traversals: o.cache_coalesced.get(),
            index_builds: o.index_builds.get(),
            index_only_answers: o.index_only_answers.get(),
            index_sources,
            index_bytes,
            updates_applied: o.mutation_updates_applied.get(),
            updates_inserted: o.mutation_edges_inserted.get(),
            updates_deleted: o.mutation_edges_deleted.get(),
            epoch_commits: o.mutation_commits.get(),
            epoch_folds: o.mutation_folds.get(),
            pending_updates,
            delta_entries: serving.engine.delta_entries() as u64,
            delta_bytes: serving.engine.delta_bytes() as u64,
            wal_records: dur.wal_records,
            wal_bytes: dur.wal_bytes,
            snapshots_written: dur.snapshots_written,
            snapshot_bytes: dur.snapshot_bytes,
            wal_replayed: dur.wal_replayed,
            snapshots_corrupt: dur.snapshots_corrupt,
            durable_recoveries: dur.recoveries,
            last_snapshot_epoch: dur.last_snapshot_epoch,
            admission_wait: ResponseStats::new(Vec::new()),
            exec: ResponseStats::new(Vec::new()),
            response: ResponseStats::new(Vec::new()),
        };
        // Sort the copies outside the locks: every completion records
        // under its replica's shard, and a sampler that sorted under
        // them would hold the hit path off for the whole sort.
        drop(shards);
        drop(gate);
        let [admission_wait, exec, response] = latency.into_stats();
        ServiceStats { admission_wait, exec, response, ..counters }
    }
}

/// Opens the durability plane for a *fresh* durable run (refusing a
/// directory that already holds state) and writes the initial epoch
/// snapshot. `None` durability config returns `None`.
pub(super) fn open_fresh_plane(
    engine: &Arc<DistributedEngine>,
    config: &ServiceConfig,
) -> Result<Option<DurabilityPlane>, ServiceError> {
    match &config.durability {
        Some(dcfg) => {
            let scan = crate::durability::scan_for_start(&dcfg.dir)
                .map_err(|e| ServiceError::Durability(e.to_string()))?;
            if scan.has_state() {
                return Err(ServiceError::Durability(format!(
                    "data directory {} already holds durable state; \
                     use open_or_recover to resume from it",
                    dcfg.dir.display()
                )));
            }
            let mut plane = DurabilityPlane::open(dcfg.clone(), &scan, disk_faults(config), false)
                .map_err(|e| ServiceError::Durability(e.to_string()))?;
            plane.checkpoint(engine).map_err(|e| ServiceError::Durability(e.to_string()))?;
            Ok(Some(plane))
        }
        None => Ok(None),
    }
}

/// Opens (or creates) the durable data directory and recovers whatever
/// committed state survives there — the shared construction half of
/// `open_or_recover`, used by both the solo service and the group.
pub(super) type Recovered =
    (Arc<DistributedEngine>, DurabilityPlane, Vec<EdgeUpdate>, RecoveryOutcome);

pub(super) fn open_recovered(
    edges: &EdgeList,
    engine_config: EngineConfig,
    config: &ServiceConfig,
) -> Result<Recovered, ServiceError> {
    let dcfg = config.durability.clone().ok_or_else(|| {
        ServiceError::InvalidConfig("open_or_recover needs ServiceConfig::durability set".into())
    })?;
    std::fs::create_dir_all(&dcfg.dir).map_err(|e| ServiceError::Durability(e.to_string()))?;
    let (state, scan) = recover(&dcfg.dir, engine_config, config.mutation.fold_threshold, || {
        DistributedEngine::new(edges, engine_config)
    })
    .map_err(|e| ServiceError::Durability(e.to_string()))?;
    let mut plane =
        DurabilityPlane::open(dcfg, &scan, disk_faults(config), state.outcome.recovered)
            .map_err(|e| ServiceError::Durability(e.to_string()))?;
    plane.note_recovery(&state);
    // Checkpoint the recovered (or fresh) state right away: the next
    // restart resumes from here instead of replaying the whole WAL,
    // and a fresh directory gets its base snapshot. (Nothing is written
    // when no commit was replayed past the snapshot recovery loaded.)
    let engine = Arc::new(state.engine);
    plane.checkpoint(&engine).map_err(|e| ServiceError::Durability(e.to_string()))?;
    Ok((engine, plane, state.pending, state.outcome))
}

/// Runs the configured index builder against `engine`'s current
/// snapshot, recording build count, duration and size. This is where an
/// index enters the service, and the one place its epoch stamp is
/// checked: a failed build, or an index stamped with another epoch than
/// `engine`'s, logs and returns `None` — the service keeps serving
/// unindexed. What it returns is only ever served beside `engine`.
fn build_index(
    builder: &dyn IndexBuilder,
    engine: &DistributedEngine,
    obs: &ServiceObs,
) -> Option<Arc<dyn ReachIndex>> {
    let started = Instant::now();
    let built = builder.build(engine);
    obs.index_builds.inc();
    obs.index_build_seconds.observe_duration(started.elapsed());
    let epoch = engine.graph_epoch();
    let built = match built {
        Ok(ix) if ix.epoch() == epoch => Some(ix),
        Ok(ix) => {
            let stamp = ix.epoch();
            eprintln!("cgraph index: built for epoch {stamp}, not {epoch}; serving unindexed");
            None
        }
        Err(e) => {
            eprintln!("cgraph index: build failed, serving unindexed: {e}");
            None
        }
    };
    let (sources, bytes) =
        built.as_ref().map_or((0, 0), |ix| (ix.num_sources() as i64, ix.size_bytes() as i64));
    obs.index_sources.set(sources);
    obs.index_bytes.set(bytes);
    built
}

/// Makes `next` the value that serves — the one publishing assignment
/// of a commit or a degradation. Call on the dispatcher, between
/// batches, with `next`'s index already built.
fn publish(core: &SharedCore, ctx: &mut ExecCtx, next: Arc<Serving>) {
    ctx.serving = Arc::clone(&next);
    *lock(&core.serving) = next;
}

/// Takes the pending commit request: the buffered updates, the waiters
/// to reply to, and — with durability on — the sequence number of the
/// commit fence appended (and synced) to the WAL. Clears the request
/// flag so a request enqueued *during* the commit is seen as a fresh
/// one. The fence is written under the pending lock, in the same
/// critical section that drains the buffer: every update record logged
/// before it is exactly the drained batch, so replay reconstructs this
/// commit bit-identically.
fn take_commit_request(
    core: &SharedCore,
    next_epoch: u64,
) -> (Vec<EdgeUpdate>, Vec<crossbeam_channel::Sender<u64>>, Option<u64>) {
    let mut p = lock(&core.pending);
    core.commit_requested.store(false, Ordering::SeqCst);
    let updates = std::mem::take(&mut p.updates);
    let waiters = std::mem::take(&mut p.waiters);
    let mut wal_seq = None;
    if let Some(dm) = &core.durability {
        match lock(dm).append_commit(next_epoch) {
            Ok((seq, bytes, sync)) => {
                wal_seq = Some(seq);
                core.obs.durability_wal_records.inc();
                core.obs.durability_wal_bytes.add(bytes);
                core.obs.durability_wal_sync_seconds.observe_duration(sync);
            }
            // The in-memory commit still proceeds: durability degrades
            // (this epoch may replay short after a crash) but serving
            // must not stall on a sick disk.
            Err(e) => eprintln!("cgraph durability: commit fence append failed: {e}"),
        }
    }
    (updates, waiters, wal_seq)
}

/// Performs a due epoch commit on the dispatcher, between batches —
/// nothing is forming or in flight, on any replica: folds the buffered
/// updates into a new engine snapshot and builds its index, publishes
/// both in one swap, fences **every** replica's cache, cools the heat
/// grid, hands a due snapshot to the durability plane's writer, and
/// replies the new epoch to every commit waiter. Until the swap an
/// admission sees the whole old value — engine, epoch, index and
/// caches. All of it under the stats gate, so no stats snapshot can
/// observe the drained buffer without the matching applied counters.
/// A no-op when no commit is requested.
pub(super) fn run_commit(core: &Arc<SharedCore>, ctx: &mut ExecCtx) {
    if !core.commit_requested.load(Ordering::SeqCst) {
        return;
    }
    let started = Instant::now();
    let gate = lock(&core.stats_gate);
    let (updates, waiters, wal_seq) = take_commit_request(core, ctx.serving.epoch() + 1);
    let derive = Instant::now();
    let (engine, folded) =
        ctx.serving.engine.with_updates(&updates, core.config.mutation.fold_threshold);
    if folded {
        core.obs.mutation_fold_seconds.observe_duration(derive.elapsed());
    }
    let new_epoch = engine.graph_epoch();
    publish(core, ctx, Serving::build(&core.config, &core.obs, Arc::new(engine)));
    // Fence every replica's cache: entries of epochs before
    // `new_epoch` are unreachable anyway (keys embed the epoch) —
    // dropping them frees their bytes immediately. Gauges publish the
    // per-replica delta so the group-wide sum stays exact.
    for r in core.replicas.iter() {
        if let Some(cm) = &r.plane.cache {
            let (entries, bytes) = {
                let mut c = lock(cm);
                c.invalidate_before(new_epoch);
                (c.len() as i64, c.used_bytes() as i64)
            };
            let o = &core.obs;
            o.cache_entries.add(entries - r.pub_entries.swap(entries, Ordering::SeqCst));
            o.cache_bytes.add(bytes - r.pub_bytes.swap(bytes, Ordering::SeqCst));
        }
    }
    // The fenced caches no longer hold what the heat described.
    if let Some(h) = &core.heat {
        h.halve();
    }
    let inserted = updates.iter().filter(|u| u.is_insert()).count() as u64;
    let o = &core.obs;
    o.mutation_updates_applied.add(updates.len() as u64);
    o.mutation_edges_inserted.add(inserted);
    o.mutation_edges_deleted.add(updates.len() as u64 - inserted);
    o.mutation_commits.inc();
    o.mutation_folds.add(u64::from(folded));
    o.mutation_pending.set(lock(&core.pending).updates.len() as i64);
    o.publish_overlay(&ctx.serving.engine);
    let seq_now = core.batch_seq.load(Ordering::SeqCst);
    o.instant("epoch_commit", seq_now, 0, new_epoch);
    if let Some(seq) = wal_seq {
        o.instant("wal_commit", seq_now, 0, seq);
    }
    // Snapshot cadence: every `snapshot_every`-th commit persists the
    // new engine value — whole when its base is not on disk yet, else
    // its overlays over the full snapshot that holds the base —
    // bounding how much WAL a restart replays.
    // The commit only takes the job — the value it just published and
    // the fault decisions — and the plane's writer thread encodes and
    // writes it beside the next batches. A busy writer, a failed or a
    // rename-lost write are all survivable — the WAL alone recovers
    // this epoch; the cadence counter stays primed so the next commit
    // (or, with none left, shutdown) retries. Asked at every commit, due or not, and before the
    // waiters are released: the plane draws the job's fault rolls here,
    // and a waiter's next WAL append must find them drawn.
    if let Some(dm) = &core.durability {
        let mut d = lock(dm);
        if let Some(job) = d.snapshot_job_at_commit(&ctx.serving.engine) {
            // Weak: the writer pins the engine value it writes, not
            // the service — dropping the service joins the writer.
            let core = Arc::downgrade(core);
            d.spawn_writer(job, move |out| {
                if let Some(core) = core.upgrade() {
                    publish_snapshot(&core, &out);
                }
            });
        }
    }
    for w in waiters {
        let _ = w.send(new_epoch);
    }
    drop(gate);
    core.obs.commit_lock_hold.observe_duration(started.elapsed());
}

/// Books a finished snapshot job, on the thread that ran it: plane counters,
/// cadence reset and their registry publication move in one step under
/// the stats gate, so a stats snapshot and the registry never disagree
/// about it.
fn publish_snapshot(core: &SharedCore, out: &SnapshotOutcome) {
    let _gate = lock(&core.stats_gate);
    let Some(dm) = &core.durability else { return };
    lock(dm).finish_snapshot(out);
    if let Some(e) = &out.error {
        eprintln!("cgraph durability: snapshot write failed: {e}");
    }
    let o = &core.obs;
    o.durability_snapshot_seconds_encode.observe_duration(out.encode);
    o.durability_snapshot_seconds_write.observe_duration(out.write);
    o.durability_snapshot_bytes.add(out.bytes);
    if out.renamed {
        o.durability_snapshots_written.inc();
        o.durability_full_snapshots_written.add(u64::from(out.full.is_some()));
        o.durability_last_snapshot_epoch.set(out.epoch as i64);
        o.instant("snapshot_write", core.batch_seq.load(Ordering::SeqCst), 0, out.epoch);
    }
}

/// The dispatcher's durability barrier as it exits: syncs the WAL, then
/// joins the snapshot writer — outside the plane mutex, which the
/// writer needs to book its job — so `shutdown()` returns over a
/// directory no thread still writes into and counters that are final.
/// A snapshot that is still due then (its commit found the writer busy,
/// or its write was lost) has no later commit to retry it: it is
/// written here, from `engine` — the last value served — as the writer
/// would have.
pub(super) fn quiesce_durability(core: &SharedCore, engine: &Arc<DistributedEngine>) {
    let Some(dm) = &core.durability else { return };
    let writer = {
        let mut d = lock(dm);
        if let Err(e) = d.sync() {
            eprintln!("cgraph durability: WAL sync at shutdown failed: {e}");
        }
        d.take_writer()
    };
    if let Some(handle) = writer {
        join_snapshot_writer(handle);
    }
    let overdue = lock(dm).overdue_snapshot_job(engine);
    if let Some(job) = overdue {
        publish_snapshot(core, &job.run());
    }
}

/// Re-partitions onto one fewer machine, builds the new layout's index
/// (the old one's per-partition state means nothing on it), publishes
/// both in one swap and swaps in a fresh persistent cluster; the old
/// cluster (which may hold a poisoned or repeatedly-failing machine) is
/// parked and shut down. Runs on the dispatcher between two attempts of
/// a batch, so no other batch sees either side of the swap.
pub(super) fn degrade(core: &SharedCore, ctx: &mut ExecCtx) {
    let p = ctx.serving.engine.num_machines() - 1;
    let engine = Arc::new(ctx.serving.engine.repartitioned(p));
    let next = Serving::build(&core.config, &core.obs, engine);
    let cluster = PersistentCluster::with_model(p, next.engine.config().net_model);
    if let Some(o) = &core.config.obs {
        // The replacement cluster must keep feeding the same registry.
        cluster.set_obs(Arc::clone(o));
    }
    let old = std::mem::replace(&mut ctx.cluster, cluster);
    old.shutdown();
    publish(core, ctx, next);
    ctx.blame = vec![0; p];
    // Repartitioning folded the overlay into the new base.
    core.obs.publish_overlay(&ctx.serving.engine);
    core.obs.degraded_generations.inc();
    let seq_now = core.batch_seq.load(Ordering::SeqCst);
    core.obs.instant("degrade", seq_now.saturating_sub(1), 0, p as u64);
}

/// Core-level [`QueryService::apply_updates`](super::QueryService::apply_updates):
/// validates, WAL-logs and buffers `updates` for the next commit.
pub(super) fn apply_updates_core(
    core: &SharedCore,
    updates: Vec<EdgeUpdate>,
) -> Result<(), ServiceError> {
    let n = lock(&core.serving).engine.num_vertices();
    if let Some(bad) = updates.iter().find(|u| u.src() >= n || u.dst() >= n) {
        return Err(ServiceError::InvalidQuery(format!(
            "edge update {bad:?} out of range for a graph of {n} vertices"
        )));
    }
    let mut p = lock(&core.pending);
    if p.serving_done || core.open_replicas.load(Ordering::SeqCst) == 0 {
        return Err(ServiceError::ShutDown);
    }
    // Write-ahead: the batch is in the WAL before it is buffered
    // anywhere. Appending under the pending lock keeps WAL order
    // identical to buffer order, so replay reconstructs the exact
    // commit contents. A failed append refuses the batch whole —
    // accepting updates a crash would lose is the one thing a durable
    // service must never do.
    if !updates.is_empty() {
        if let Some(dm) = &core.durability {
            match lock(dm).append_updates(&updates) {
                Ok((_seq, bytes)) => {
                    core.obs.durability_wal_records.inc();
                    core.obs.durability_wal_bytes.add(bytes);
                }
                Err(e) => return Err(ServiceError::Durability(e.to_string())),
            }
        }
    }
    p.updates.extend(updates);
    let depth = p.updates.len();
    let threshold_hit = core.config.mutation.commit_threshold.is_some_and(|t| depth >= t)
        && !core.commit_requested.swap(true, Ordering::SeqCst);
    // Published under the pending lock so concurrent mutators cannot
    // clobber each other with stale depths.
    core.obs.mutation_pending.set(depth as i64);
    drop(p);
    if threshold_hit {
        core.wake_dispatcher();
    }
    Ok(())
}

/// Core-level [`QueryService::commit_epoch`](super::QueryService::commit_epoch):
/// registers a commit request + waiter and wakes the dispatcher, which
/// performs the commit before it forms its next batch.
pub(super) fn commit_epoch_core(core: &SharedCore) -> Result<u64, ServiceError> {
    let mut p = lock(&core.pending);
    if p.serving_done || core.open_replicas.load(Ordering::SeqCst) == 0 {
        return Err(ServiceError::ShutDown);
    }
    let (tx, rx) = crossbeam_channel::unbounded();
    p.waiters.push(tx);
    core.commit_requested.store(true, Ordering::SeqCst);
    drop(p);
    core.wake_dispatcher();
    rx.recv().map_err(|_| ServiceError::ShutDown)
}

/// Once armed, holds the dispatcher between its check and its park
/// until what it waits for changed: the lost wake-up's window, forced.
#[cfg(test)]
#[derive(Default)]
pub(super) struct ParkHook {
    pub(super) armed: AtomicBool,
    pub(super) holding: AtomicBool,
}

#[cfg(test)]
impl ParkHook {
    pub(super) fn hold(&self, core: &SharedCore) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.holding.store(true, Ordering::SeqCst);
            while core.queued.load(Ordering::SeqCst) == 0
                && !core.commit_requested.load(Ordering::SeqCst)
                && core.open_replicas.load(Ordering::SeqCst) > 0
            {
                std::thread::yield_now();
            }
            self.holding.store(false, Ordering::SeqCst);
        }
    }
}
