//! The serving tier's counter store.
//!
//! One [`ServiceObs`] is registered per [`SharedCore`](super::shared::SharedCore)
//! — always, whether or not [`ServiceConfig::obs`](super::ServiceConfig::obs)
//! is set — and it is the *only* place the service tallies anything:
//! [`stats`](super::QueryService::stats) reads these handles, so a
//! registry snapshot and the stats line cannot disagree. Replicas of a
//! [`ServiceGroup`](super::ServiceGroup) share it, so every counter
//! aggregates across the whole group. Gauges that describe per-replica
//! state (queue depth, cache occupancy) are moved by deltas — what a
//! submit queued or a formation took, a cache's change since it was
//! last published — so the gauge holds the group-wide sum without
//! replicas clobbering each other.

use crate::durability::DurabilityStats;
use crate::engine::DistributedEngine;
use crate::recovery::RecoveryReport;
use cgraph_obs::{
    log2_edges, Counter, Gauge, Histogram, MetricsRegistry, Obs, TraceCtx, Tracer, COORD,
    LOG_LATENCY_EDGES_SECS,
};
use std::sync::Arc;

/// The service's metric handles: registered once at start-up — against
/// the caller's registry when [`ServiceConfig::obs`](super::ServiceConfig::obs)
/// brought one, against a registry of the core's own otherwise — then
/// only relaxed atomic operations on the submit/complete paths.
pub(super) struct ServiceObs {
    /// The coordinator's trace ring; `None` without a caller-supplied
    /// bundle (see [`ServiceObs::instant`]).
    tracer: Option<Tracer>,
    pub(super) queries_submitted: Arc<Counter>,
    pub(super) queries_completed: Arc<Counter>,
    pub(super) queries_failed: Arc<Counter>,
    pub(super) queries_deadline_exceeded: Arc<Counter>,
    pub(super) batches_dispatched: Arc<Counter>,
    pub(super) retries: Arc<Counter>,
    pub(super) degraded_generations: Arc<Counter>,
    recovery_attempts: Arc<Counter>,
    pub(super) recovery_recoveries: Arc<Counter>,
    pub(super) recovery_checkpoints_taken: Arc<Counter>,
    pub(super) recovery_checkpoints_restored: Arc<Counter>,
    pub(super) recovery_partitions_replayed: Arc<Counter>,
    recovery_supersteps_replayed: Arc<Counter>,
    pub(super) recovery_full_rollbacks: Arc<Counter>,
    engine_batch_supersteps: Arc<Histogram>,
    pub(super) queue_depth: Arc<Gauge>,
    pub(super) batch_width: Arc<Gauge>,
    pub(super) batch_lanes: Arc<Histogram>,
    pub(super) formation: Arc<Histogram>,
    pub(super) fanout: Arc<Histogram>,
    pub(super) dispatcher_wakeups: Arc<Counter>,
    pub(super) dispatcher_idle_wakeups: Arc<Counter>,
    pub(super) admission_wait: Arc<Histogram>,
    pub(super) exec: Arc<Histogram>,
    pub(super) response: Arc<Histogram>,
    pub(super) cache_hits: Arc<Counter>,
    pub(super) cache_misses: Arc<Counter>,
    pub(super) cache_insertions: Arc<Counter>,
    pub(super) cache_evictions: Arc<Counter>,
    pub(super) cache_coalesced: Arc<Counter>,
    pub(super) cache_entries: Arc<Gauge>,
    pub(super) cache_bytes: Arc<Gauge>,
    pub(super) index_builds: Arc<Counter>,
    pub(super) index_build_seconds: Arc<Histogram>,
    pub(super) index_only_answers: Arc<Counter>,
    pub(super) index_sources: Arc<Gauge>,
    pub(super) index_bytes: Arc<Gauge>,
    pub(super) mutation_updates_applied: Arc<Counter>,
    pub(super) mutation_edges_inserted: Arc<Counter>,
    pub(super) mutation_edges_deleted: Arc<Counter>,
    pub(super) mutation_commits: Arc<Counter>,
    pub(super) mutation_folds: Arc<Counter>,
    pub(super) mutation_fold_seconds: Arc<Histogram>,
    pub(super) mutation_pending: Arc<Gauge>,
    mutation_delta_entries: Arc<Gauge>,
    mutation_delta_bytes: Arc<Gauge>,
    pub(super) commit_lock_hold: Arc<Histogram>,
    pub(super) durability_wal_records: Arc<Counter>,
    pub(super) durability_wal_bytes: Arc<Counter>,
    pub(super) durability_snapshots_written: Arc<Counter>,
    pub(super) durability_full_snapshots_written: Arc<Counter>,
    pub(super) durability_snapshot_bytes: Arc<Counter>,
    pub(super) durability_wal_replayed: Arc<Counter>,
    pub(super) durability_snapshots_corrupt: Arc<Counter>,
    pub(super) durability_recoveries: Arc<Counter>,
    pub(super) durability_last_snapshot_epoch: Arc<Gauge>,
    pub(super) durability_snapshot_seconds_encode: Arc<Histogram>,
    pub(super) durability_snapshot_seconds_write: Arc<Histogram>,
    pub(super) durability_wal_sync_seconds: Arc<Histogram>,
    pub(super) router_queries_routed: Arc<Counter>,
    pub(super) router_locality: Arc<Counter>,
    pub(super) router_heat_steered: Arc<Counter>,
    pub(super) router_replicas: Arc<Gauge>,
}

/// One phase of the snapshot writer's job: `encode` (capture + encode
/// the engine value) or `write` (temp file, fsync, rename, prune).
fn snapshot_seconds(m: &cgraph_obs::MetricsRegistry, phase: &str) -> Arc<Histogram> {
    m.histogram_with(
        "cgraph_durability_snapshot_seconds",
        &[("phase", phase)],
        "Wall time of each epoch-snapshot job on the writer thread, by phase.",
        &LOG_LATENCY_EDGES_SECS,
    )
}

impl ServiceObs {
    pub(super) fn new(obs: Option<&Obs>, lanes: usize) -> Self {
        // The handles outlive the registry that made them: an
        // unobserved service keeps counting, it just renders nowhere.
        let own;
        let m = match obs {
            Some(o) => &o.metrics,
            None => {
                own = MetricsRegistry::new();
                &own
            }
        };
        Self {
            tracer: obs.map(|o| o.trace.tracer(COORD)),
            queries_submitted: m.counter(
                "cgraph_service_queries_submitted_total",
                "Queries admitted to the service (before batching).",
            ),
            queries_completed: m.counter(
                "cgraph_service_queries_completed_total",
                "Queries answered successfully.",
            ),
            queries_failed: m.counter(
                "cgraph_service_queries_failed_total",
                "Queries failed by a dying batch or an expired deadline.",
            ),
            queries_deadline_exceeded: m.counter(
                "cgraph_service_queries_deadline_exceeded_total",
                "Queries failed because their deadline elapsed (subset of failures).",
            ),
            batches_dispatched: m.counter(
                "cgraph_service_batches_dispatched_total",
                "Batches the group's dispatcher formed from every replica's queue and ran.",
            ),
            retries: m.counter(
                "cgraph_service_retries_total",
                "Whole-batch resubmissions by the service retry policy.",
            ),
            degraded_generations: m.counter(
                "cgraph_service_degraded_generations_total",
                "Times the service re-partitioned onto a smaller cluster.",
            ),
            recovery_attempts: m.counter(
                "cgraph_recovery_attempts_total",
                "Cluster submissions made by recoverable batches (1 per fault-free batch).",
            ),
            recovery_recoveries: m.counter(
                "cgraph_recovery_recoveries_total",
                "Recovery passes performed after a recoverable batch failure.",
            ),
            recovery_checkpoints_taken: m.counter(
                "cgraph_recovery_checkpoints_taken_total",
                "Partition checkpoints committed at superstep boundaries.",
            ),
            recovery_checkpoints_restored: m.counter(
                "cgraph_recovery_checkpoints_restored_total",
                "Partition checkpoints restored as a replay base or rollback target.",
            ),
            recovery_partitions_replayed: m.counter(
                "cgraph_recovery_partitions_replayed_total",
                "Failed partitions re-executed inline on the coordinator (confined recovery).",
            ),
            recovery_supersteps_replayed: m.counter(
                "cgraph_recovery_supersteps_replayed_total",
                "Supersteps re-executed during confined partition replays.",
            ),
            recovery_full_rollbacks: m.counter(
                "cgraph_recovery_full_rollbacks_total",
                "Global rollbacks (all partitions restarted from the committed set or scratch).",
            ),
            engine_batch_supersteps: m.histogram(
                "cgraph_engine_batch_supersteps",
                "Supersteps a completed batch needed to drain every lane.",
                &log2_edges(10),
            ),
            queue_depth: m.gauge(
                "cgraph_service_queue_depth",
                "Traversals queued for a lane, summed over replicas: the dispatcher's next batch.",
            ),
            batch_width: m.gauge(
                "cgraph_service_batch_width",
                "Bit width of the traversal state a batch at the lane cap packs into \
                 (64/128/256/512), fixed at start-up by the cap and the memory budget; \
                 a narrower batch runs at the width its own lanes need.",
            ),
            batch_lanes: m.histogram(
                "cgraph_service_batch_lanes",
                "Lanes of each dispatched batch, formed group-wide up to the lane cap \
                 (the last finite edge).",
                &log2_edges(lanes.next_power_of_two().trailing_zeros() + 1),
            ),
            formation: m.histogram(
                "cgraph_service_formation_seconds",
                "Per batch, wall: batch formation over every replica's queue, on the dispatcher, \
                 between batches.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            fanout: m.histogram(
                "cgraph_service_fanout_seconds",
                "Per batch, wall: replying to the batch's tickets, on the dispatcher, between \
                 batches — result folding, latency samples, reply-slot fills, wake-ups of \
                 parked waiters.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            dispatcher_wakeups: m.counter(
                "cgraph_service_dispatcher_wakeups_total",
                "Returns of the dispatcher from its wait for work, between batches (notified, \
                 or a linger ran out).",
            ),
            dispatcher_idle_wakeups: m.counter(
                "cgraph_service_dispatcher_idle_wakeups_total",
                "Dispatcher wake-ups that found neither a queued traversal nor a due commit: \
                 at most one per replica close.",
            ),
            admission_wait: m.histogram(
                "cgraph_service_admission_wait_seconds",
                "Per-query admission wait: submission to batch dispatch.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            exec: m.histogram(
                "cgraph_service_exec_seconds",
                "Per-query execution time: the lane-completion share of its batch.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            response: m.histogram(
                "cgraph_service_response_seconds",
                "Per-query end-to-end response time (admission wait + execution).",
                &LOG_LATENCY_EDGES_SECS,
            ),
            cache_hits: m.counter(
                "cgraph_cache_hits_total",
                "Traversals answered from the result cache (no lane spent).",
            ),
            cache_misses: m.counter(
                "cgraph_cache_misses_total",
                "Admission-time cache lookups that found nothing.",
            ),
            cache_insertions: m.counter(
                "cgraph_cache_insertions_total",
                "Entries committed into the result cache by successful batches.",
            ),
            cache_evictions: m.counter(
                "cgraph_cache_evictions_total",
                "Entries the CLOCK hand evicted to make room.",
            ),
            cache_coalesced: m.counter(
                "cgraph_cache_coalesced_total",
                "Traversals that shared another traversal's execution \
                 (in-batch duplicates, queued duplicates, mid-flight attaches).",
            ),
            cache_entries: m.gauge(
                "cgraph_cache_entries",
                "Entries currently resident in the result cache(s), summed over replicas.",
            ),
            cache_bytes: m.gauge(
                "cgraph_cache_bytes",
                "Bytes currently charged against the result-cache capacity.",
            ),
            index_builds: m.counter(
                "cgraph_index_builds_total",
                "Reachability-index builds (start-up, epoch commits, degradations).",
            ),
            index_build_seconds: m.histogram(
                "cgraph_index_build_seconds",
                "Wall time of each reachability-index build.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            index_only_answers: m.counter(
                "cgraph_index_only_answers_total",
                "Traversals answered index-only from a distance sketch (no lane spent).",
            ),
            index_sources: m.gauge(
                "cgraph_index_sources",
                "Boundary sources the live reachability index holds sketches for.",
            ),
            index_bytes: m.gauge(
                "cgraph_index_bytes",
                "Estimated resident bytes of the live reachability index.",
            ),
            mutation_updates_applied: m.counter(
                "cgraph_mutation_updates_applied_total",
                "Edge updates folded into a committed epoch.",
            ),
            mutation_edges_inserted: m.counter(
                "cgraph_mutation_edges_inserted_total",
                "Edge insertions among the committed updates.",
            ),
            mutation_edges_deleted: m.counter(
                "cgraph_mutation_edges_deleted_total",
                "Edge deletions among the committed updates.",
            ),
            mutation_commits: m.counter(
                "cgraph_mutation_commits_total",
                "Epoch commits (explicit, threshold-triggered, and cache invalidations).",
            ),
            mutation_folds: m.counter(
                "cgraph_mutation_folds_total",
                "Commits that folded the delta overlay into fresh base edge-sets.",
            ),
            mutation_fold_seconds: m.histogram(
                "cgraph_mutation_fold_seconds",
                "Per fold, wall: rebuilding every machine's shard from its rows merged with \
                 the overlay, on the dispatcher inside the commit (the machines' shards are \
                 built in parallel).",
                &LOG_LATENCY_EDGES_SECS,
            ),
            mutation_pending: m.gauge(
                "cgraph_mutation_pending_updates",
                "Edge updates buffered but not yet committed.",
            ),
            mutation_delta_entries: m.gauge(
                "cgraph_mutation_delta_entries",
                "Delta-overlay adjacency rows live in the serving snapshot.",
            ),
            mutation_delta_bytes: m.gauge(
                "cgraph_mutation_delta_bytes",
                "Estimated bytes of the live delta overlays.",
            ),
            commit_lock_hold: m.histogram(
                "cgraph_commit_lock_hold_seconds",
                "How long each epoch commit held the dispatcher, between batches: no batch \
                 forms or runs on any replica meanwhile.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            durability_wal_records: m.counter(
                "cgraph_durability_wal_records_total",
                "WAL records appended (update batches plus commit fences).",
            ),
            durability_wal_bytes: m
                .counter("cgraph_durability_wal_bytes_total", "Bytes appended to the update WAL."),
            durability_snapshots_written: m.counter(
                "cgraph_durability_snapshots_total",
                "Epoch snapshots that reached their final name on disk.",
            ),
            durability_full_snapshots_written: m.counter(
                "cgraph_durability_full_snapshots_total",
                "Full epoch snapshots (base rows included) among those that reached their \
                 final name; the rest are overlay snapshots.",
            ),
            durability_snapshot_bytes: m.counter(
                "cgraph_durability_snapshot_bytes_total",
                "Bytes of encoded snapshot data written.",
            ),
            durability_wal_replayed: m.counter(
                "cgraph_durability_wal_replayed_total",
                "WAL records replayed by crash recovery.",
            ),
            durability_snapshots_corrupt: m.counter(
                "cgraph_durability_snapshots_corrupt_total",
                "Snapshot files rejected by checksum/decode during recovery.",
            ),
            durability_recoveries: m.counter(
                "cgraph_durability_recoveries_total",
                "Crash recoveries performed (service rebuilt from durable state).",
            ),
            durability_last_snapshot_epoch: m.gauge(
                "cgraph_durability_last_snapshot_epoch",
                "Epoch of the newest snapshot on disk.",
            ),
            durability_snapshot_seconds_encode: snapshot_seconds(m, "encode"),
            durability_snapshot_seconds_write: snapshot_seconds(m, "write"),
            durability_wal_sync_seconds: m.histogram(
                "cgraph_durability_wal_sync_seconds",
                "Wall time of the fsync behind each epoch commit's WAL fence, one sample \
                 per commit.",
                &LOG_LATENCY_EDGES_SECS,
            ),
            router_queries_routed: m.counter(
                "cgraph_router_queries_routed_total",
                "Queries steered to a replica by the serving-tier router.",
            ),
            router_locality: m.counter(
                "cgraph_router_locality_total",
                "Routed queries that landed on their partition's home replica.",
            ),
            router_heat_steered: m.counter(
                "cgraph_router_heat_steered_total",
                "Routed queries steered off-home by the cache-heat tiebreak.",
            ),
            router_replicas: m.gauge(
                "cgraph_router_replicas",
                "Live query front-end replicas behind the router.",
            ),
        }
    }

    /// Folds a durability-stats snapshot into the counters — used once
    /// at start-up to seed recovery-time and initial-snapshot counts
    /// accumulated before the metric handles existed.
    pub(super) fn seed_durability(&self, d: &DurabilityStats) {
        self.durability_wal_records.add(d.wal_records);
        self.durability_wal_bytes.add(d.wal_bytes);
        self.durability_snapshots_written.add(d.snapshots_written);
        self.durability_full_snapshots_written.add(d.full_snapshots_written);
        self.durability_snapshot_bytes.add(d.snapshot_bytes);
        self.durability_wal_replayed.add(d.wal_replayed);
        self.durability_snapshots_corrupt.add(d.snapshots_corrupt);
        self.durability_recoveries.add(d.recoveries);
        self.durability_last_snapshot_epoch.set(d.last_snapshot_epoch as i64);
    }

    /// Folds the [`RecoveryReport`] and superstep count of a batch the
    /// engine returned `Ok` for — the one place a report is counted,
    /// traced or not. Failed batches contribute nothing.
    pub(super) fn record_batch(&self, report: &RecoveryReport, supersteps: u32) {
        self.recovery_attempts.add(u64::from(report.attempts));
        self.recovery_recoveries.add(u64::from(report.recoveries));
        self.recovery_checkpoints_taken.add(report.checkpoints_taken);
        self.recovery_checkpoints_restored.add(report.checkpoints_restored);
        self.recovery_partitions_replayed.add(report.partitions_replayed);
        self.recovery_supersteps_replayed.add(report.supersteps_replayed);
        self.recovery_full_rollbacks.add(u64::from(report.full_rollbacks));
        self.engine_batch_supersteps.observe(f64::from(supersteps));
    }

    /// Publishes the overlay size of the engine value now serving —
    /// wherever one is installed: start-up, epoch commit, degradation.
    pub(super) fn publish_overlay(&self, engine: &DistributedEngine) {
        self.mutation_delta_entries.set(engine.delta_entries() as i64);
        self.mutation_delta_bytes.set(engine.delta_bytes() as i64);
    }

    /// Emits a coordinator trace instant for batch `job`, attempt
    /// `retry` (service retry ordinal, not the chaos attempt salt); a
    /// no-op without a caller-supplied bundle.
    pub(super) fn instant(&self, name: &'static str, job: u64, retry: u32, value: u64) {
        if let Some(t) = &self.tracer {
            t.instant(name, TraceCtx { job, attempt: retry, superstep: 0, machine: COORD }, value);
        }
    }
}
