//! Superstep checkpointing and partition replay (confined recovery).
//!
//! The sync-mode batch path is BSP: at every superstep boundary each
//! partition's complete traversal state is exactly its bit-packed
//! `(frontier, visited)` words (see
//! [`BitFrontier::snapshot_words`](crate::bitfrontier::BitFrontier::snapshot_words)),
//! and all cross-partition influence flows through logged messages.
//! That gives the classic Pregel-style *confined recovery*: checkpoint
//! cheaply at boundaries, log outgoing messages per superstep, and
//! when machine *f* dies at superstep *s*, replay **only partition
//! f** from its last committed checkpoint while every healthy
//! partition merely resumes from the state it saved when it noticed
//! the poisoned barrier — no healthy partition re-executes from
//! superstep 0.
//!
//! The `RecoveryStore` (crate-private) is the shared blackboard:
//! committed checkpoints (uniform across machines, gated on a
//! drop-free job),
//! poison-time saves from healthy machines, per-sender message logs
//! keyed `(superstep, dest)` holding each batch as it was sent — the
//! log shares the message's allocation — (a re-log OR-merges, so
//! logging is idempotent under resend, which resumption requires), and
//! the per-boundary global live-lane masks that replay needs for
//! completion bookkeeping.
//!
//! When confined recovery's preconditions fail — messages were
//! dropped (logs record *intent*, not delivery), saves are missing, or
//! machines stopped at different boundaries — the engine falls back to
//! a **global rollback**: all partitions restart from the committed
//! checkpoint set (or from scratch). Async mode always takes the
//! whole-batch path: without barriers there is no meaningful uniform
//! boundary to checkpoint.
//!
//! # Example
//!
//! ```
//! use cgraph_core::{DistributedEngine, EngineConfig, FaultInjection, FaultPlan, RecoveryConfig};
//! use cgraph_comm::PersistentCluster;
//!
//! let ring: cgraph_graph::EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
//! let engine = DistributedEngine::new(&ring, EngineConfig::new(2));
//! let cluster = PersistentCluster::new(2);
//! // Machine 1 dies at superstep 2 on the first attempt, then heals.
//! let plan = FaultPlan::new(3).crash(1, 2).heal_after(1);
//! let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
//! let rc = RecoveryConfig { checkpoint_interval: 2, max_recoveries: 2 };
//! let (result, report) = engine
//!     .run_traversal_batch_recoverable(&cluster, &[0], &[6], &rc, Some(fault))
//!     .unwrap();
//! assert_eq!(result.per_lane_visited, vec![7]); // fault-free answer
//! assert_eq!(report.recoveries, 1);
//! assert_eq!(report.full_rollbacks, 0); // confined replay, no rollback
//! cluster.shutdown();
//! ```

use crate::bitfrontier::FrontierBatch;
use cgraph_graph::LaneMask;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Checkpointing/retry knobs for the recoverable batch path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Commit a checkpoint every `checkpoint_interval` supersteps
    /// (boundary 0 — the seeded state — is always implicit). Smaller
    /// intervals mean less replay but more snapshot copying.
    pub checkpoint_interval: u32,
    /// How many recoveries (confined replays or global rollbacks) to
    /// attempt before giving up on the batch.
    pub max_recoveries: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { checkpoint_interval: 4, max_recoveries: 3 }
    }
}

/// What recovery did for one batch, surfaced into service stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total cluster submissions (1 = fault-free).
    pub attempts: u32,
    /// Recoveries performed (confined or global).
    pub recoveries: u32,
    /// Checkpoints committed across all attempts (counted once per
    /// boundary, not per machine).
    pub checkpoints_taken: u64,
    /// Checkpoint restores (confined replays count the failed
    /// partition's restore; global rollbacks count one per machine
    /// restored from a committed checkpoint).
    pub checkpoints_restored: u64,
    /// Partitions replayed confined (without touching healthy peers).
    pub partitions_replayed: u64,
    /// Supersteps re-executed during confined replays.
    pub supersteps_replayed: u64,
    /// Whole-batch rollbacks (the fallback when confined recovery's
    /// preconditions do not hold, and the only mode in async).
    pub full_rollbacks: u32,
}

/// One partition's state at a superstep boundary.
#[derive(Clone, Debug)]
pub(crate) struct PartitionSnapshot {
    /// The boundary this state belongs to: the state *after* the
    /// advance of superstep `boundary - 1` (boundary 0 = seeded).
    pub boundary: u32,
    /// Lane count of the batch this snapshot belongs to. The restore
    /// path rejects a mismatch: a checkpoint taken at one batch width
    /// can never resume a batch of another (the frontier/visited word
    /// layout is width-dependent).
    pub lanes: usize,
    /// Graph epoch the batch was admitted against. Confined replay must
    /// restore against the same snapshot of the graph — the restore
    /// path asserts this matches the engine's `graph_epoch`.
    pub epoch: u64,
    /// `num_local × width.words()` frontier words.
    pub frontier: Vec<u64>,
    /// `num_local × width.words()` visited words.
    pub visited: Vec<u64>,
    /// Per-level discovery counts for supersteps `0..boundary`.
    pub per_level_local: Vec<Vec<u64>>,
    pub lane_completion: Vec<Duration>,
    /// Lanes recorded complete by `boundary`.
    pub completed: LaneMask,
    /// CPU busy time accumulated up to `boundary` (so a resumed
    /// attempt keeps the scaling-relevant busy metric additive).
    pub busy: Duration,
}

/// One sender's message log: `(superstep, dest machine)` to that
/// superstep's payload, shared with the message that carried it.
type SenderLog = HashMap<(u32, usize), Arc<FrontierBatch>>;

/// Shared recovery blackboard for one batch execution (all attempts).
pub(crate) struct RecoveryStore {
    /// Last *committed* checkpoint per partition: uniform boundary,
    /// taken only on drop-free supersteps, survives across attempts.
    committed: Vec<Mutex<Option<PartitionSnapshot>>>,
    /// State a machine should resume from on the next attempt instead
    /// of re-seeding (installed by the recovery coordinator).
    resume: Vec<Mutex<Option<PartitionSnapshot>>>,
    /// Poison-time saves: a healthy machine that notices a dead peer
    /// at a barrier parks its boundary state here and returns.
    saved: Vec<Mutex<Option<PartitionSnapshot>>>,
    /// Per-sender message logs: `(superstep, dest) -> batch`. OR-merged
    /// so a resumed machine re-logging the same superstep is idempotent.
    logs: Vec<Mutex<SenderLog>>,
    /// Global live-lane mask agreed at each boundary (all machines
    /// write the identical post-reduce value).
    live: Mutex<HashMap<u32, LaneMask>>,
    /// Committed-checkpoint boundaries count (machine 0's commits).
    commits: AtomicU64,
}

impl RecoveryStore {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            committed: (0..p).map(|_| Mutex::new(None)).collect(),
            resume: (0..p).map(|_| Mutex::new(None)).collect(),
            saved: (0..p).map(|_| Mutex::new(None)).collect(),
            logs: (0..p).map(|_| Mutex::new(HashMap::new())).collect(),
            live: Mutex::new(HashMap::new()),
            commits: AtomicU64::new(0),
        }
    }

    /// Installs the state machine `id` must resume from next attempt.
    pub(crate) fn set_resume(&self, id: usize, snap: PartitionSnapshot) {
        *self.resume[id].lock() = Some(snap);
    }

    /// Takes (and clears) machine `id`'s resume state.
    pub(crate) fn take_resume(&self, id: usize) -> Option<PartitionSnapshot> {
        self.resume[id].lock().take()
    }

    /// Commits machine `id`'s checkpoint at a drop-free boundary.
    pub(crate) fn commit(&self, id: usize, snap: PartitionSnapshot) {
        if id == 0 {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
        *self.committed[id].lock() = Some(snap);
    }

    /// Checkpoints committed so far (one count per boundary).
    pub(crate) fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Machine `id`'s committed checkpoint, if any.
    pub(crate) fn committed_clone(&self, id: usize) -> Option<PartitionSnapshot> {
        self.committed[id].lock().clone()
    }

    /// Parks a healthy machine's boundary state when a peer died.
    pub(crate) fn save(&self, id: usize, snap: PartitionSnapshot) {
        *self.saved[id].lock() = Some(snap);
    }

    /// Takes (and clears) machine `id`'s poison-time save.
    pub(crate) fn take_saved(&self, id: usize) -> Option<PartitionSnapshot> {
        self.saved[id].lock().take()
    }

    /// Logs machine `from`'s outgoing `batch` to `dest` for `superstep`
    /// by sharing it; a re-log of the same key (a resumed machine
    /// re-running the superstep) OR-merges per vertex, so logging is
    /// idempotent under resend.
    pub(crate) fn log_merge(
        &self,
        from: usize,
        superstep: u32,
        dest: usize,
        batch: &Arc<FrontierBatch>,
    ) {
        match self.logs[from].lock().entry((superstep, dest)) {
            Entry::Vacant(e) => {
                e.insert(Arc::clone(batch));
            }
            Entry::Occupied(mut e) => {
                let merged = e.get().or_merge(batch);
                e.insert(Arc::new(merged));
            }
        }
    }

    /// Every batch any machine logged to `dest` during `superstep`, in
    /// sender order.
    pub(crate) fn logged_to(&self, dest: usize, superstep: u32) -> Vec<Arc<FrontierBatch>> {
        self.logs.iter().filter_map(|log| log.lock().get(&(superstep, dest)).cloned()).collect()
    }

    /// Records the globally-agreed live mask at `boundary` (all
    /// machines write the same post-reduce value).
    pub(crate) fn record_live(&self, boundary: u32, live: LaneMask) {
        self.live.lock().insert(boundary, live);
    }

    /// The live mask recorded at `boundary`.
    pub(crate) fn live_at(&self, boundary: u32) -> Option<LaneMask> {
        self.live.lock().get(&boundary).copied()
    }

    /// Clears everything derived from (possibly tainted) execution:
    /// saves, resume states, logs, and live masks. Committed
    /// checkpoints survive — they were gated on drop-free supersteps.
    pub(crate) fn clear_execution_state(&self) {
        for s in &self.saved {
            *s.lock() = None;
        }
        for r in &self.resume {
            *r.lock() = None;
        }
        for l in &self.logs {
            l.lock().clear();
        }
        self.live.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(boundary: u32) -> PartitionSnapshot {
        PartitionSnapshot {
            boundary,
            lanes: 1,
            epoch: 0,
            frontier: vec![1],
            visited: vec![3],
            per_level_local: vec![vec![1]],
            lane_completion: vec![Duration::ZERO],
            completed: LaneMask::zero(cgraph_graph::LaneWidth::W64),
            busy: Duration::ZERO,
        }
    }

    fn m(word: u64) -> LaneMask {
        LaneMask::from_words(&[word])
    }

    /// The strided batch of `(vertex, mask)` entries of one width.
    fn batch(entries: &[(u64, LaneMask)]) -> Arc<FrontierBatch> {
        let mut b = FrontierBatch::new(entries[0].1.words().len());
        for (v, w) in entries {
            b.push(*v, w.words());
        }
        Arc::new(b)
    }

    /// Everything logged to `dest` at `superstep` as `(vertex, mask)`
    /// entries, sorted by vertex then raw mask words for deterministic
    /// compare.
    fn logged(store: &RecoveryStore, dest: usize, superstep: u32) -> Vec<(u64, LaneMask)> {
        let mut v: Vec<(u64, LaneMask)> = store
            .logged_to(dest, superstep)
            .iter()
            .flat_map(|b| b.iter().map(|(vtx, row)| (vtx, LaneMask::from_words(row))))
            .collect();
        v.sort_unstable_by_key(|&(vtx, w)| (vtx, w.raw()));
        v
    }

    #[test]
    fn log_merge_is_idempotent() {
        let store = RecoveryStore::new(2);
        store.log_merge(0, 3, 1, &batch(&[(7, m(0b01)), (9, m(0b10))]));
        // A resumed machine re-sends the same superstep's messages.
        store.log_merge(0, 3, 1, &batch(&[(7, m(0b01)), (9, m(0b10))]));
        assert_eq!(logged(&store, 1, 3), vec![(7, m(0b01)), (9, m(0b10))]);
    }

    #[test]
    fn logs_aggregate_across_senders() {
        let store = RecoveryStore::new(3);
        store.log_merge(0, 1, 2, &batch(&[(5, m(0b01))]));
        store.log_merge(1, 1, 2, &batch(&[(5, m(0b10))]));
        assert_eq!(logged(&store, 2, 1), vec![(5, m(0b01)), (5, m(0b10))]);
        assert!(store.logged_to(2, 2).is_empty());
    }

    #[test]
    fn log_merge_ors_wide_masks_per_vertex() {
        let store = RecoveryStore::new(1);
        let mut hi = LaneMask::zero(cgraph_graph::LaneWidth::new(128).unwrap());
        hi.set(100);
        let mut lo = LaneMask::zero(cgraph_graph::LaneWidth::new(128).unwrap());
        lo.set(3);
        store.log_merge(0, 0, 0, &batch(&[(7, hi)]));
        store.log_merge(0, 0, 0, &batch(&[(7, lo)]));
        let got = logged(&store, 0, 0);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.get(3) && got[0].1.get(100));
    }

    #[test]
    fn commits_counted_once_per_boundary() {
        let store = RecoveryStore::new(2);
        store.commit(0, snap(4));
        store.commit(1, snap(4));
        assert_eq!(store.commits(), 1);
        assert_eq!(store.committed_clone(0).unwrap().boundary, 4);
    }

    #[test]
    fn execution_state_clears_but_commits_survive() {
        let store = RecoveryStore::new(1);
        store.commit(0, snap(2));
        store.save(0, snap(3));
        store.set_resume(0, snap(3));
        store.log_merge(0, 2, 0, &batch(&[(1, m(1))]));
        store.record_live(2, m(0b11));
        store.clear_execution_state();
        assert!(store.take_saved(0).is_none());
        assert!(store.take_resume(0).is_none());
        assert!(store.logged_to(0, 2).is_empty());
        assert!(store.live_at(2).is_none());
        assert!(store.committed_clone(0).is_some());
    }
}
