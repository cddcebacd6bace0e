//! Per-replica state and the dispatcher loop.
//!
//! A [`Replica`] is one query front-end: its own admission queue,
//! result cache and coalescer, and one dispatcher thread. Everything a
//! replica cannot own alone — the engine snapshot chain, the persistent
//! cluster, the mutation buffer, the durability plane, the epoch —
//! lives in the [`SharedCore`](super::shared::SharedCore) it is
//! attached to.
//!
//! # Admission: the ready path and the miss path
//!
//! Admission — cache and index probes, mid-flight coalescing, the
//! queue — runs concurrently across replicas and never touches the
//! core's exec lock. What a [`submit`] touches depends on whether the
//! answer is already there:
//!
//! | | ready path — every traversal answered by the cache or the index | miss path — a traversal needs a lane |
//! |---|---|---|
//! | `live_engine` | read once, by the caller (`ServiceGroup::submit` routes with it and hands it down) | the same read |
//! | [`Replica::state`] | held across the submit: the `closed` check, nothing else | the same hold, plus the queue push and the depth gauge |
//! | the epoch, the cache mutex / the index | one load; one `get` + clone per source | the same probes, which miss |
//! | the coalescer | not reached | `attach` — an identical traversal in flight answers this one too, without a slot |
//! | [`Replica::space`] | never waited on | waited on with the first traversal in hand, while the queue is full |
//! | the ticket | one `Arc<TicketState>`; [`complete_traversal`] folds, records the sample and fills the slot before `submit` returns | the same ticket; filled by the batch's fan-out |
//! | [`Replica::work`] | not notified: the dispatcher stays parked | notified once, if the dispatcher is parked |
//! | allocations | the ticket and the answer's level profile | those, later, and the queue's growth |
//!
//! A closed replica refuses hit and miss alike ([`ServiceError::ShutDown`]),
//! an out-of-range source is [`ServiceError::InvalidQuery`] whatever the
//! queue holds, and backpressure applies to what needs a queue slot.
//!
//! # The wake-up rule
//!
//! A condvar is notified when, and only when, the thing it guards
//! changed **and** a waiter flag — set by the waiter, under the same
//! mutex, before it parks — says someone is there. `std`'s `Condvar`
//! pays a futex wake on every notify, waiter or not, and an idle
//! dispatcher woken per cache hit contends `Replica::state` with the
//! submitter only to find its queue empty.
//!
//! | condvar | guards | mutex | waiter flag | notified by |
//! |---|---|---|---|---|
//! | [`Replica::work`] | work for the dispatcher | [`Replica::state`] | [`QueueState::dispatcher_parked`] — cleared by the notifier, so one park is one notify | a submit that grew the queue; a commit that became due (`notify_dispatchers`, which takes `state` around the check — that closes the dispatcher's check-then-wait window); shutdown |
//! | [`Replica::space`] | free queue slots | [`Replica::state`] | [`QueueState::space_waiters`] (a count: several submitters may block) | formation that shrank the queue; shutdown |
//! | a ticket's `ready` | the reply slot | the ticket's `slot` | `parked` | the completion that filled the slot; the drop of the last unanswered traversal |
//!
//! # From the queue to the answer
//!
//! Everything from the queue to the answer has **one
//! formation point**: a dispatcher whose replica has work due takes the
//! exec lock *first* and, holding it, serves the whole group —
//!
//! 1. a due epoch commit ([`run_commit`]), at the batch boundary;
//! 2. formation ([`form_batch`]): one batch of up to
//!    [`SharedCore::lanes`] lanes from **every** replica's queue, under
//!    every replica's `state` lock (lock order exec → `state`, see
//!    [`shared`](super::shared)), including the replies to queued
//!    traversals the caches or the index can answer by now and to those
//!    whose deadline passed;
//! 3. the engine call with its retries and degradation
//!    ([`execute_batch`]): every replica's lanes in one
//!    `run_traversal_batch_recoverable`;
//! 4. cache insertion and the coalescers' hand-back ([`commit_batch`]),
//!    per replica a lane came from, under the stats gate;
//!
//! and, **after** the lock is released, the per-ticket fan-out
//! ([`Finished::reply`]) — one slot fill per query, a wake-up only for
//! a ticket whose holder is parked in `wait` — so the next batch's scan
//! overlaps it. A batch
//! is formed under the lock it runs under: its epoch is the epoch it
//! executes against, the lanes that arrived while the previous batch ran
//! are in it, and which dispatcher wins the (unfair) mutex does not
//! matter — the holder drains every queue, so none can starve.

use super::shared::{
    degrade, perform_commit, quiesce_durability, take_commit_request, ExecCtx, SharedCore,
};
use super::{lock, wait, QueryTicket, ServiceError};
use crate::engine::{BatchResult, DistributedEngine, EngineError, FaultInjection};
use crate::query::{KhopQuery, QueryResult};
use cgraph_cache::{
    plan_batch, CacheKey, CachedTraversal, Coalescer, Fate, FormItem, FormPolicy, PackPolicy,
    ResultCache,
};
use cgraph_comm::ClusterError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One queued traversal: a single `(source, k)` of some query.
pub(super) struct Traversal {
    pub(super) source: u64,
    pub(super) k: u32,
    pub(super) submitted: Instant,
    pub(super) deadline: Option<Instant>,
    pub(super) ticket: TicketHandle,
    /// Batches this traversal has been left queued by — the locality
    /// packer's fairness bound caps it.
    pub(super) skips: u32,
}

impl Traversal {
    /// The query-plane identity of this traversal under `epoch`.
    pub(super) fn key(&self, epoch: u64) -> CacheKey {
        CacheKey { source: self.source, k: self.k, epoch }
    }
}

/// One lane of a formed batch: the `primary` traversal executes; every
/// `follower` is an identical `(source, k)` traversal sharing its
/// result — in-batch duplicates, queued duplicates, and (while the
/// batch runs) coalesced late arrivals.
pub(super) struct LaneGroup {
    pub(super) key: CacheKey,
    pub(super) primary: Traversal,
    pub(super) followers: Vec<Traversal>,
    /// The replicas a member of this lane was queued on, as positions
    /// in the batch's replica list — almost always one. Each gets the
    /// result in its cache and hands back what its coalescer collected.
    pub(super) homes: Vec<usize>,
}

/// The rendezvous of one query: the running fold of its traversals and,
/// once the last one landed, the reply — one slot under one lock, with
/// the condvar [`QueryTicket::wait`] parks on. The [`QueryTicket`] holds
/// one reference; every [`Traversal`] holds a [`TicketHandle`].
pub(super) struct TicketState {
    id: usize,
    /// Traversals the query was admitted as.
    total: usize,
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

/// What [`TicketState::slot`] guards.
#[derive(Default)]
struct TicketSlot {
    acc: TicketAcc,
    /// Traversals the service dropped without an answer. Once `done +
    /// abandoned` reaches the total with no reply in the slot, nothing
    /// can fill it any more: the ticket reads
    /// [`ServiceError::ShutDown`].
    abandoned: usize,
    /// The folded reply, from the last traversal's completion until the
    /// ticket takes it.
    reply: Option<Result<QueryResult, ServiceError>>,
    /// The waiter flag of `ready`: set by [`TicketState::wait`] before
    /// it parks, so a completion notifies only a thread that is there.
    parked: bool,
}

#[derive(Default)]
struct TicketAcc {
    done: usize,
    failed: Option<ServiceError>,
    visited: u64,
    per_level: Vec<u64>,
    wait_sum: Duration,
    exec_sum: Duration,
    resp_sum: Duration,
    /// Newest epoch any traversal of the query answered against (the
    /// traversals of one query can straddle a commit; the folded
    /// result is labelled conservatively with the newest).
    epoch: u64,
}

impl TicketState {
    /// The ticket of a query admitted as `total` traversals.
    pub(super) fn new(id: usize, total: usize) -> Arc<Self> {
        Self::with_slot(id, total, TicketSlot::default())
    }

    /// A ticket born answered — the empty query, which has no traversal
    /// to wait for.
    fn answered(reply: QueryResult) -> Arc<Self> {
        Self::with_slot(reply.id, 0, TicketSlot { reply: Some(Ok(reply)), ..Default::default() })
    }

    fn with_slot(id: usize, total: usize, slot: TicketSlot) -> Arc<Self> {
        Arc::new(Self { id, total, slot: Mutex::new(slot), ready: Condvar::new() })
    }

    /// The reply if it is in the slot, `ShutDown` if none can come any
    /// more (every traversal is accounted for and the slot is empty:
    /// one was dropped unanswered, or the reply was taken before),
    /// `None` while traversals are still out.
    fn take(&self, slot: &mut TicketSlot) -> Option<Result<QueryResult, ServiceError>> {
        let settled = slot.acc.done + slot.abandoned == self.total;
        slot.reply.take().or_else(|| settled.then_some(Err(ServiceError::ShutDown)))
    }

    /// [`QueryTicket::try_wait`] minus the deadline: never parks.
    pub(super) fn poll(&self) -> Option<Result<QueryResult, ServiceError>> {
        self.take(&mut lock(&self.slot))
    }

    /// [`QueryTicket::wait`]: parks on `ready` — flagging it first —
    /// only while the outcome is open and `deadline` is ahead.
    pub(super) fn wait(&self, deadline: Option<Instant>) -> Result<QueryResult, ServiceError> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(outcome) = self.take(&mut slot) {
                return outcome;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(ServiceError::DeadlineExceeded);
            }
            slot.parked = true;
            slot = match left {
                None => wait(&self.ready, slot),
                Some(left) => {
                    self.ready.wait_timeout(slot, left).unwrap_or_else(|e| e.into_inner()).0
                }
            };
            slot.parked = false;
        }
    }

    #[cfg(test)]
    pub(super) fn waiter_parked(&self) -> bool {
        lock(&self.slot).parked
    }

    /// Ends a critical section that may have settled the ticket (a
    /// reply landed, or the last traversal left without one): wakes the
    /// waiter if — and only if — one is parked.
    fn release(&self, slot: MutexGuard<'_, TicketSlot>) {
        let wake = slot.parked && slot.acc.done + slot.abandoned == self.total;
        drop(slot);
        if wake {
            self.ready.notify_one();
        }
    }
}

/// A traversal's reference to its query's ticket — the service side of
/// the rendezvous. [`complete_traversal`] consumes it with an outcome; a
/// handle dropped any other way (a dispatcher died with the traversal
/// queued, a shut-down service let go of it) counts the traversal as
/// abandoned, and the last one to leave wakes a parked waiter with
/// [`ServiceError::ShutDown`].
pub(super) struct TicketHandle {
    state: Arc<TicketState>,
    answered: bool,
}

impl TicketHandle {
    pub(super) fn new(state: &Arc<TicketState>) -> Self {
        Self { state: Arc::clone(state), answered: false }
    }
}

impl Drop for TicketHandle {
    fn drop(&mut self) {
        if !self.answered {
            let mut slot = lock(&self.state.slot);
            slot.abandoned += 1;
            self.state.release(slot);
        }
    }
}

pub(super) struct QueueState {
    pub(super) queue: VecDeque<Traversal>,
    pub(super) closed: bool,
    /// The waiter flag of [`Replica::work`]: set by the dispatcher
    /// before it parks, cleared by whoever notifies it — one notify per
    /// park, none while it is running.
    dispatcher_parked: bool,
    /// The waiter flag of [`Replica::space`]: submitters parked with a
    /// traversal in hand the full queue has no slot for.
    space_waiters: usize,
    /// Depth last published to the group-wide `cgraph_queue_depth`
    /// gauge — each replica adds its *delta* so concurrent replicas
    /// never clobber each other's contribution.
    pub(super) published_depth: i64,
}

/// The per-replica slice of the query plane: result cache and
/// in-flight coalescer. The graph epoch these key against is shared —
/// it lives on the core — and so is packing, which is group-wide.
pub(super) struct QueryPlane {
    pub(super) cache: Option<Mutex<ResultCache>>,
    pub(super) coalescer: Option<Mutex<Coalescer<CacheKey, Traversal>>>,
}

impl QueryPlane {
    pub(super) fn new(cfg: &super::QueryPlaneConfig) -> Self {
        Self {
            cache: cfg.cache_capacity_bytes.map(|b| Mutex::new(ResultCache::new(b))),
            coalescer: cfg.coalesce.then(|| Mutex::new(Coalescer::new())),
        }
    }
}

/// One query front-end: admission queue + query plane + the condvars
/// its submitters and dispatcher rendezvous on.
pub(super) struct Replica {
    /// Position in the group (0 for a solo service) — the row this
    /// replica heats in the group's
    /// [`HeatTable`](cgraph_cache::HeatTable).
    pub(super) id: usize,
    pub(super) plane: QueryPlane,
    pub(super) state: Mutex<QueueState>,
    pub(super) work: Condvar,
    pub(super) space: Condvar,
    /// Cache occupancy last published to the group-wide gauges (delta
    /// publication, like [`QueueState::published_depth`]). Updated
    /// only under the core's exec lock.
    pub(super) pub_entries: AtomicI64,
    pub(super) pub_bytes: AtomicI64,
}

impl Replica {
    pub(super) fn new(id: usize, cfg: &super::QueryPlaneConfig) -> Arc<Self> {
        Arc::new(Self {
            id,
            plane: QueryPlane::new(cfg),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                dispatcher_parked: false,
                space_waiters: 0,
                published_depth: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            pub_entries: AtomicI64::new(0),
            pub_bytes: AtomicI64::new(0),
        })
    }

    /// Wakes this replica's dispatcher if it is parked on `work`; call
    /// with the state lock held, after changing what the dispatcher
    /// waits for — the queue grew, a commit became due, the replica
    /// closed. Clears the flag, so one park is notified once.
    pub(super) fn wake_dispatcher(&self, st: &mut QueueState) {
        if std::mem::take(&mut st.dispatcher_parked) {
            self.work.notify_one();
        }
    }

    /// Wakes the submitters parked on `space`, if any; call with the
    /// state lock held, after the queue shrank or the replica closed.
    pub(super) fn wake_submitters(&self, st: &QueueState) {
        if st.space_waiters > 0 {
            self.space.notify_all();
        }
    }
}

/// Publishes this replica's queue depth to the group gauge as a delta
/// (must hold the state lock, which `st` proves). Returns whether the
/// depth had moved since it was last published.
fn publish_depth(core: &SharedCore, st: &mut QueueState) -> bool {
    let depth = st.queue.len() as i64;
    let moved = depth != st.published_depth;
    if moved {
        core.obs.queue_depth.add(depth - st.published_depth);
        st.published_depth = depth;
    }
    moved
}

/// Admits `query` on `replica`: every traversal the cache or the index
/// answers completes here, the rest are queued for the dispatcher —
/// blocking, with the first of them in hand, while the admission queue
/// is full. `engine` is the caller's one read of
/// [`SharedCore::live_engine`]. Returns a ticket redeemable for the
/// result, or [`ServiceError::ShutDown`] once the replica is closed.
pub(super) fn submit(
    core: &SharedCore,
    replica: &Replica,
    engine: &DistributedEngine,
    query: KhopQuery,
) -> Result<QueryTicket, ServiceError> {
    let mut st = lock(&replica.state);
    if st.closed {
        return Err(ServiceError::ShutDown);
    }
    if query.sources.is_empty() {
        // Nothing to traverse: complete immediately instead of
        // enqueueing zero traversals (whose ticket would otherwise
        // never be replied to and read as a shutdown).
        drop(st);
        core.obs.queries_submitted.inc();
        core.obs.queries_completed.inc();
        let state = TicketState::answered(QueryResult {
            id: query.id,
            visited: 0,
            per_level: Vec::new(),
            response_time: Duration::ZERO,
            exec_time: Duration::ZERO,
            epoch: core.epoch.load(Ordering::SeqCst),
        });
        return Ok(QueryTicket { state, deadline: None });
    }
    // Admission-time shape validation: the closed-batch scheduler
    // panics on an out-of-range source, but a *service* must reject
    // the one bad query and keep serving everyone else.
    let n = engine.num_vertices();
    if let Some(&bad) = query.sources.iter().find(|&&s| s >= n) {
        return Err(ServiceError::InvalidQuery(format!(
            "source {bad} out of range for a graph of {n} vertices"
        )));
    }
    let ticket = TicketState::new(query.id, query.sources.len());
    let now = Instant::now();
    let deadline = core.config.query_deadline.map(|d| now + d);
    let mut epoch = core.epoch.load(Ordering::SeqCst);
    let mut queued = false;
    for &source in &query.sources {
        let t = Traversal {
            source,
            k: query.k,
            submitted: now,
            deadline,
            ticket: TicketHandle::new(&ticket),
            skips: 0,
        };
        let key = t.key(epoch);
        // 1. Result cache: a hit completes the traversal right at
        // admission — zero queue wait, zero lane time.
        if let Some(cm) = &replica.plane.cache {
            let hit = lock(cm).get(&key).cloned();
            match hit {
                Some(v) => {
                    core.obs.cache_hits.inc();
                    // The hit proves this replica's cache is hot for
                    // the source's partition — feed the router.
                    if let Some(h) = &core.heat {
                        h.bump(replica.id, engine.partition().owner(t.source));
                    }
                    complete_traversal(
                        core,
                        t.ticket,
                        Ok((v.visited, v.per_level, Duration::ZERO, Duration::ZERO, epoch)),
                    );
                    continue;
                }
                None => core.obs.cache_misses.inc(),
            }
        }
        // 2. Index-only fast path: a current-epoch reachability
        // index whose sketch covers `(source, k)` exactly answers
        // at admission — bit-identical to the traversal, no lane
        // spent (see INDEXING.md).
        if let Some(ans) = core.current_index(epoch).and_then(|ix| ix.answer(t.source, t.k)) {
            core.obs.index_only_answers.inc();
            complete_traversal(
                core,
                t.ticket,
                Ok((ans.visited, ans.per_level, Duration::ZERO, Duration::ZERO, epoch)),
            );
            continue;
        }
        // 3. In-flight coalescing: an identical traversal already
        // executing on this replica answers this one too.
        let t = if let Some(co) = &replica.plane.coalescer {
            match lock(co).attach(&key, t) {
                None => {
                    core.obs.cache_coalesced.inc();
                    continue;
                }
                Some(t) => t,
            }
        } else {
            t
        };
        // 4. The queue. Backpressure is for what needs a slot: only
        // here, with a traversal in hand, does a submit wait for space
        // — once per query, whose traversals are admitted together.
        if !queued {
            while !st.closed && st.queue.len() >= core.config.max_queue_depth {
                st.space_waiters += 1;
                st = wait(&replica.space, st);
                st.space_waiters -= 1;
            }
            if st.closed {
                return Err(ServiceError::ShutDown);
            }
            // A commit may have landed meanwhile; formation re-probes
            // whatever is queued, the remaining sources probe at the
            // epoch that is current now.
            epoch = core.epoch.load(Ordering::SeqCst);
            queued = true;
        }
        st.queue.push_back(t);
    }
    core.obs.queries_submitted.inc();
    if queued {
        publish_depth(core, &mut st);
        replica.wake_dispatcher(&mut st);
    }
    Ok(QueryTicket { state: ticket, deadline })
}

/// The dispatcher: block until this replica has work due, take the
/// exec lock, and serve **the group** under it — perform a due epoch
/// commit, form one batch from every replica's admission queue, run it
/// on the shared persistent cluster, commit its results to the caches —
/// then drop the lock and fan the results out to their tickets. Whoever
/// holds the lock serves every queue, so it does not matter which
/// dispatcher an unfair mutex favours: no replica's queue can starve,
/// and a batch is as wide as the group's backlog, not as one replica's.
/// Exits once this replica is closed *and* drained (queries and pending
/// commits).
pub(super) fn dispatch_loop(core: &Arc<SharedCore>, replica: &Replica) {
    loop {
        let Some(due) = wait_until_due(core, replica) else {
            if exit_replica(core) {
                return;
            }
            // A commit request arrived after the queue drained —
            // loop back and serve it before exiting.
            continue;
        };
        let mut guard = lock(&core.exec);
        let taken = Instant::now();
        // A due commit goes first: the batch below is then formed,
        // keyed and executed under the *new* epoch.
        run_commit(core, &mut guard);
        let forming = Instant::now();
        let formed = form_batch(core, &guard);
        let formation = forming.elapsed();

        for t in formed.expired {
            complete_traversal(core, t.ticket, Err(ServiceError::DeadlineExceeded));
        }
        // Formed under the lock: the sequence number is this batch's job.
        let job = core.batch_seq.load(Ordering::SeqCst);
        if formed.cache_hits > 0 {
            core.obs.instant("cache_hit", job, 0, formed.cache_hits);
        }
        if core.config.query_plane.cache_capacity_bytes.is_some() && !formed.groups.is_empty() {
            // The lanes actually dispatched are the misses that
            // stayed misses all the way to batch formation.
            core.obs.instant("cache_miss", job, 0, formed.groups.len() as u64);
        }
        // Queued traversals the cache or the index can answer by now
        // are answered before the engine runs, not after it.
        for (t, v) in formed.hits {
            let wait = t.submitted.elapsed();
            complete_traversal(
                core,
                t.ticket,
                Ok((v.visited, v.per_level, wait, Duration::ZERO, formed.epoch)),
            );
        }
        if formed.groups.is_empty() {
            // Another holder already served this replica's queue.
            continue;
        }
        core.obs.exec_lock_wait.observe_duration(taken.duration_since(due));
        core.obs.formation.observe_duration(formation);
        let finished = execute_batch(core, &mut guard, &formed.replicas, formed.groups);
        drop(guard);
        // Replies hold neither the exec lock nor the stats gate: the
        // next batch's scan overlaps them.
        let replying = Instant::now();
        finished.reply(core);
        core.obs.fanout.observe_duration(replying.elapsed());
    }
}

/// Blocks until `replica` has work for the engine and returns the
/// instant it became due — a commit was requested, or a queued
/// traversal's linger is over — or `None` once the replica is closed
/// and drained.
///
/// The linger is the one place the service waits for lanes: a
/// dispatcher lets its oldest traversal wait up to
/// [`ServiceConfig::max_batch_delay`](super::ServiceConfig::max_batch_delay)
/// for the group's backlog to reach the lane cap. At the default of
/// zero it asks for the engine at once: a busy engine batches by
/// itself — what arrives while a batch runs is the next batch — and an
/// idle one should start.
fn wait_until_due(core: &SharedCore, replica: &Replica) -> Option<Instant> {
    let mut st = lock(&replica.state);
    let mut woken = false;
    loop {
        let commit_due = lock(&core.pending).requested;
        if std::mem::take(&mut woken) {
            core.obs.dispatcher_wakeups.inc();
            if !commit_due && st.queue.is_empty() {
                core.obs.dispatcher_idle_wakeups.inc();
            }
        }
        if commit_due {
            break;
        }
        let Some(oldest) = st.queue.front() else {
            if st.closed {
                return None;
            }
            st.dispatcher_parked = true;
            st = wait(&replica.work, st);
            woken = true;
            continue;
        };
        // A closed replica drains at once. The backlog is the
        // group-wide gauge every replica publishes its depth to.
        let filled = core.obs.queue_depth.get() >= core.lanes as i64;
        if !filled && !st.closed {
            let age = oldest.submitted.elapsed();
            if age < core.config.max_batch_delay {
                st.dispatcher_parked = true;
                let (g, _) = replica
                    .work
                    .wait_timeout(st, core.config.max_batch_delay - age)
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
                // A linger that ran out was not notified: nobody
                // cleared the flag.
                st.dispatcher_parked = false;
                woken = true;
                continue;
            }
        }
        break;
    }
    Some(Instant::now())
}

/// Performs a due epoch commit under the exec lock the caller holds —
/// the group-wide quiesce, at a batch boundary — and the stats fence.
/// Idempotent across dispatchers: [`take_commit_request`] hands the
/// batch to exactly one.
fn run_commit(core: &Arc<SharedCore>, ctx: &mut ExecCtx) {
    if !lock(&core.pending).requested {
        return;
    }
    let started = Instant::now();
    let gate = lock(&core.stats_gate);
    let next_epoch = ctx.engine.graph_epoch() + 1;
    let Some((updates, waiters, wal_seq)) = take_commit_request(core, next_epoch) else {
        return; // another dispatcher took it
    };
    perform_commit(core, ctx, updates, waiters, wal_seq);
    drop(gate);
    core.obs.commit_lock_hold.observe_duration(started.elapsed());
}

/// The drained-and-closed exit path. Returns `false` when a commit
/// request slipped in after the drain check — the dispatcher must go
/// back and serve it (otherwise its waiters would hang forever).
/// Otherwise deregisters this dispatcher; the **last one out** (and
/// only it) syncs the WAL and parks the shared cluster, so a replica
/// shutting down never tears down infrastructure its siblings still
/// use, and the shutdown barrier runs exactly once per group.
fn exit_replica(core: &SharedCore) -> bool {
    let mut p = lock(&core.pending);
    if p.requested {
        return false;
    }
    let remaining = core.live_replicas.fetch_sub(1, Ordering::SeqCst) - 1;
    if remaining > 0 {
        return true;
    }
    // Last replica out. `serving_done` is set under the pending lock,
    // so no new commit waiter can register concurrently — and
    // `requested` was false just now, so none is stranded.
    p.serving_done = true;
    drop(p);
    // Shutdown barrier: buffered-but-uncommitted updates are already
    // WAL-logged (write-ahead); the sync makes them crash-proof before
    // shutdown() returns to the caller, and a snapshot still being
    // written is waited for.
    quiesce_durability(core);
    lock(&core.exec).cluster.shutdown();
    true
}

/// Output of one formation pass over the group's admission queues.
#[derive(Default)]
struct FormedBatch {
    /// The replicas whose queues were read; [`LaneGroup::homes`]
    /// indexes this list.
    replicas: Vec<Arc<Replica>>,
    /// Lanes to execute (primary + identical-key followers each).
    groups: Vec<LaneGroup>,
    /// Traversals answered at pack time without a lane: their key was
    /// committed to their replica's cache by an earlier batch while
    /// they sat queued, or the index rebuilt by a commit covers them.
    hits: Vec<(Traversal, CachedTraversal)>,
    /// How many of `hits` the result caches answered.
    cache_hits: u64,
    /// Traversals whose query deadline elapsed while queued.
    expired: Vec<Traversal>,
    /// Graph epoch the batch was formed under. Formation holds the
    /// exec lock, so this *is* the epoch the batch executes against.
    epoch: u64,
}

/// Forms one batch from every live replica's admission queue, under
/// the exec lock (`ctx` proves it) and every replica's state lock:
/// sweeps each queue against its replica's result cache and the index,
/// fails what has expired, and hands the rest to
/// [`plan_batch`] — up to [`SharedCore::lanes`] distinct keys, oldest
/// first (or locality-packed), identical keys collapsed into followers
/// whichever replica queued them. With coalescing on, every selected
/// key is registered as in flight on each replica it came from, so late
/// arrivals attach mid-batch.
fn form_batch(core: &SharedCore, ctx: &ExecCtx) -> FormedBatch {
    let epoch = ctx.engine.graph_epoch();
    let mut formed = FormedBatch { replicas: core.replica_list(), epoch, ..Default::default() };
    let FormedBatch { replicas, groups, hits, cache_hits, expired, .. } = &mut formed;
    // exec → state, in list order; only the exec holder takes two.
    let mut states: Vec<_> = replicas.iter().map(|r| lock(&r.state)).collect();
    // Arrival stamps count from the oldest queue head.
    let Some(base) = states.iter().filter_map(|st| Some(st.queue.front()?.submitted)).min() else {
        drop(states);
        return formed;
    };

    // 1. What each queued traversal is, for the planner. The whole
    // queue is swept against the cache and the index, not just this
    // batch's window — a hit behind the window frees queue space all
    // the same, and an expired traversal never costs a lane.
    let plane = &core.config.query_plane;
    let index = core.current_index(epoch);
    let now = Instant::now();
    let mut index_hits = 0u64;
    let mut answers: Vec<Vec<Option<CachedTraversal>>> = Vec::with_capacity(states.len());
    let mut queues: Vec<Vec<FormItem>> = Vec::with_capacity(states.len());
    for (replica, st) in replicas.iter().zip(&states) {
        let mut cache = replica.plane.cache.as_ref().map(lock);
        let mut found = Vec::with_capacity(st.queue.len());
        let items = st.queue.iter().map(|t| {
            let cached = cache.as_mut().and_then(|c| c.get(&t.key(epoch)).cloned());
            let answer = cached.inspect(|_| *cache_hits += 1).or_else(|| {
                let a = index.as_ref()?.answer(t.source, t.k)?;
                index_hits += 1;
                Some(CachedTraversal { visited: a.visited, per_level: a.per_level })
            });
            let item = FormItem {
                key: (t.source, t.k),
                age: t.submitted.duration_since(base).as_nanos() as u64,
                partition: if plane.pack_locality {
                    ctx.engine.partition().owner(t.source)
                } else {
                    0
                },
                skips: t.skips,
                hit: answer.is_some(),
                expired: t.deadline.is_some_and(|d| now >= d),
            };
            found.push(answer);
            item
        });
        queues.push(items.collect());
        answers.push(found);
    }
    core.obs.cache_hits.add(*cache_hits);
    core.obs.index_only_answers.add(index_hits);

    // 2. The plan: which traversal leaves which way.
    let plan = plan_batch(
        &queues,
        FormPolicy {
            cap: core.lanes,
            locality: plane
                .pack_locality
                .then_some(PackPolicy { fairness_bound: plane.locality_fairness }),
            deep: plane.coalesce,
        },
    );

    // 3. Carry it out, queue by queue in place. What stays behind is
    // aged — locality packing's fairness bound counts these skips.
    // A lane's primary, followers and homes; a follower queued on an
    // earlier replica is met before its primary.
    type Lane = (Option<Traversal>, Vec<Traversal>, Vec<usize>);
    let mut lanes: Vec<Lane> = (0..plan.lanes).map(|_| (None, Vec::new(), Vec::new())).collect();
    let mut n_followers = 0u64;
    for (r, st) in states.iter_mut().enumerate() {
        for (fate, answer) in plan.fates[r].iter().zip(answers[r].drain(..)) {
            let mut t = st.queue.pop_front().expect("one fate per queued traversal");
            let lane = match *fate {
                Fate::Queued => {
                    t.skips = t.skips.saturating_add(1);
                    st.queue.push_back(t);
                    continue;
                }
                Fate::Hit => {
                    hits.push((t, answer.expect("a hit carries its answer")));
                    continue;
                }
                Fate::Expired => {
                    expired.push(t);
                    continue;
                }
                Fate::Primary(lane) => {
                    lanes[lane].0 = Some(t);
                    lane
                }
                Fate::Follower(lane) => {
                    lanes[lane].1.push(t);
                    n_followers += 1;
                    lane
                }
            };
            if !lanes[lane].2.contains(&r) {
                lanes[lane].2.push(r);
            }
        }
    }
    core.obs.cache_coalesced.add(n_followers);
    *groups = lanes
        .into_iter()
        .map(|(primary, followers, homes)| {
            let primary = primary.expect("every planned lane has a primary");
            LaneGroup { key: primary.key(epoch), primary, followers, homes }
        })
        .collect();

    // 4. Register the keys as in flight, on every replica a lane came
    // from, so identical queries submitted there while the batch runs
    // attach instead of re-queueing.
    for (r, replica) in replicas.iter().enumerate() {
        if let Some(co) = &replica.plane.coalescer {
            let mut co = lock(co);
            for g in groups.iter().filter(|g| g.homes.contains(&r)) {
                co.begin(g.key);
            }
        }
    }
    for (replica, st) in replicas.iter().zip(states.iter_mut()) {
        // Formation only ever shrinks a queue.
        if publish_depth(core, st) {
            replica.wake_submitters(st);
        }
    }
    drop(states);
    formed
}

/// Exponential backoff with deterministic jitter (splitmix64 of the
/// batch's job id and the retry ordinal) — reproducible under a fixed
/// chaos seed, yet de-synchronised across batches. Saturating
/// throughout: an extreme `max_retries` × `retry_backoff` config
/// pins at `Duration::MAX` instead of panicking on overflow, and a
/// base beyond `u64::MAX` nanoseconds clamps the jitter modulus
/// rather than silently truncating it.
fn backoff_delay(base: Duration, retry: u32, job: u64) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exp = base.saturating_mul(1u32 << retry.min(16));
    let mut z = job ^ (u64::from(retry) + 1).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    let modulus = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX).max(1);
    exp.saturating_add(Duration::from_nanos(z % modulus))
}

#[cfg(test)]
pub(super) fn backoff_delay_for_test(base: Duration, retry: u32, job: u64) -> Duration {
    backoff_delay(base, retry, job)
}

/// A batch the engine is done with, ready to be answered once the
/// exec lock is released.
enum Finished {
    /// The engine returned `Ok`; the caches hold the results.
    Done { groups: Vec<LaneGroup>, result: BatchResult, dispatched: Instant, epoch: u64 },
    /// Retries exhausted; nothing entered a cache.
    Failed { groups: Vec<LaneGroup>, error: EngineError },
}

impl Finished {
    /// Answers every ticket of the batch. Takes no service lock beyond
    /// the per-ticket and latency-sample leaves.
    fn reply(self, core: &SharedCore) {
        match self {
            Finished::Done { groups, result, dispatched, epoch } => {
                fan_out(core, groups, &result, dispatched, epoch)
            }
            Finished::Failed { groups, error } => fail_groups(core, groups, &error),
        }
    }
}

/// Executes one formed batch on the shared cluster, under the core's
/// exec lock (`ctx` proves it) — the group-wide mutual exclusion
/// between batches, commits and degradations. The lanes of every
/// replica run as one engine call; on `Ok` the results enter the caches
/// before the lock is released, keyed to the epoch they ran against.
fn execute_batch(
    core: &SharedCore,
    ctx: &mut ExecCtx,
    replicas: &[Arc<Replica>],
    mut groups: Vec<LaneGroup>,
) -> Finished {
    let epoch = ctx.engine.graph_epoch();
    let job = core.batch_seq.fetch_add(1, Ordering::SeqCst);

    let sources: Vec<u64> = groups.iter().map(|g| g.primary.source).collect();
    let ks: Vec<u32> = groups.iter().map(|g| g.primary.k).collect();

    core.obs.batch_lanes.observe(groups.len() as f64);
    core.obs.instant("batch_dispatch", job, 0, groups.len() as u64);

    // In-batch checkpoint/replay first (inside the engine), then
    // whole-batch retries with backoff, then degradation once the same
    // machine keeps dying.
    let mut retry = 0u32;
    loop {
        let fault = core.config.fault_plan.as_ref().map(|plan| FaultInjection {
            plan,
            job,
            // Salt retries past the engine's own recovery attempts so a
            // healing plan sees monotone attempt numbers.
            first_attempt: retry * (core.config.recovery.max_recoveries + 1),
        });
        let dispatched = Instant::now();
        let run = ctx.engine.run_traversal_batch_recoverable(
            &ctx.cluster,
            &sources,
            &ks,
            &core.config.recovery,
            fault,
        );
        match run {
            Ok((result, report)) => {
                core.obs.batches_dispatched.inc();
                core.obs.retries.add(u64::from(retry));
                core.obs.record_batch(&report, result.supersteps);
                core.obs.instant("batch_done", job, retry, u64::from(result.supersteps));
                commit_batch(core, ctx, replicas, &mut groups, &result, job, retry);
                return Finished::Done { groups, result, dispatched, epoch };
            }
            Err(error) => {
                if let EngineError::Cluster(ClusterError::MachinePanicked { machine, .. }) = &error
                {
                    if let Some(b) = ctx.blame.get_mut(*machine) {
                        *b += 1;
                        let threshold = core.config.degrade_after;
                        if threshold.is_some_and(|th| *b >= th) && ctx.engine.num_machines() > 1 {
                            degrade(core, ctx);
                            continue; // degrading does not consume a retry
                        }
                    }
                }
                if error.is_recoverable() && retry < core.config.max_retries {
                    std::thread::sleep(backoff_delay(core.config.retry_backoff, retry, job));
                    retry += 1;
                    core.obs.instant("batch_retry", job, retry, 0);
                    continue;
                }
                core.obs.retries.add(u64::from(retry));
                core.obs.instant("batch_failed", job, retry, 0);
                // The keys leave the in-flight tables, so resubmission
                // gets a fresh execution.
                collect_waiters(replicas, &mut groups);
                return Finished::Failed { groups, error };
            }
        }
    }
}

/// Commits a successful batch, under the exec lock: populates the
/// result cache of every replica a lane came from (this is the *only*
/// insertion point — the engine returned `Ok`, so the result is the
/// committed, bit-identical answer; crashed, retried or degraded
/// attempts never reach here with partial state) and drains coalesced
/// mid-flight waiters into their lanes. The lock makes the lanes' epoch
/// *the* current epoch for the whole body — results enter the caches
/// keyed to the snapshot they actually ran against, and no commit can
/// fence a cache mid-insert.
fn commit_batch(
    core: &SharedCore,
    ctx: &ExecCtx,
    replicas: &[Arc<Replica>],
    groups: &mut [LaneGroup],
    br: &BatchResult,
    job: u64,
    retry: u32,
) {
    if core.config.query_plane.cache_capacity_bytes.is_some() {
        // The stats fence: insertion counters and cache occupancy move
        // together, so a stats snapshot never sees one without the
        // other.
        let _gate = lock(&core.stats_gate);
        let o = &core.obs;
        let (mut inserted, mut evicted) = (0u64, 0u64);
        for (r, replica) in replicas.iter().enumerate() {
            let Some(cm) = &replica.plane.cache else { continue };
            let (entries, bytes) = {
                let mut c = lock(cm);
                for (lane, g) in groups.iter().enumerate().filter(|(_, g)| g.homes.contains(&r)) {
                    let mut per_level: Vec<u64> =
                        br.per_level.iter().map(|row| row[lane]).collect();
                    while per_level.last() == Some(&0) {
                        per_level.pop();
                    }
                    evicted += c.insert(
                        g.key,
                        CachedTraversal { visited: br.per_lane_visited[lane], per_level },
                    );
                    inserted += 1;
                    if let Some(h) = &core.heat {
                        h.bump(replica.id, ctx.engine.partition().owner(g.key.source));
                    }
                }
                (c.len() as i64, c.used_bytes() as i64)
            };
            // Delta publication: each replica adds its change to the
            // group-wide gauges (updates happen under the exec lock,
            // so the swap/add pair is never interleaved).
            o.cache_entries.add(entries - replica.pub_entries.swap(entries, Ordering::SeqCst));
            o.cache_bytes.add(bytes - replica.pub_bytes.swap(bytes, Ordering::SeqCst));
        }
        o.cache_insertions.add(inserted);
        o.cache_evictions.add(evicted);
        if inserted > 0 {
            o.instant("cache_insert", job, retry, inserted);
        }
        if evicted > 0 {
            o.instant("cache_evict", job, retry, evicted);
        }
    }
    collect_waiters(replicas, groups);
}

/// Takes every lane's key out of the in-flight table of each replica
/// it was registered on; whoever attached while the batch ran joins
/// the lane's followers and shares its outcome.
fn collect_waiters(replicas: &[Arc<Replica>], groups: &mut [LaneGroup]) {
    for (r, replica) in replicas.iter().enumerate() {
        if let Some(co) = &replica.plane.coalescer {
            let mut co = lock(co);
            for g in groups.iter_mut().filter(|g| g.homes.contains(&r)) {
                g.followers.extend(co.complete(&g.key));
            }
        }
    }
}

/// Fans a successful batch result back out to its lane groups'
/// tickets — the primary and every follower of a lane share the same
/// per-lane counts and execution share; waits stay per-traversal.
fn fan_out(
    core: &SharedCore,
    groups: Vec<LaneGroup>,
    br: &BatchResult,
    dispatched: Instant,
    exec_epoch: u64,
) {
    let batch_dur = br.exec_time;
    for (lane, g) in groups.into_iter().enumerate() {
        // A lane finishes after its completion point within the
        // batch — the same accounting as the closed-batch
        // scheduler's per-lane fraction.
        let done = br.lane_completion[lane].min(br.exec_time);
        let frac = if br.exec_time.is_zero() {
            1.0
        } else {
            done.as_secs_f64() / br.exec_time.as_secs_f64()
        };
        let exec = batch_dur.mul_f64(frac);
        let levels: Vec<u64> = br.per_level.iter().map(|row| row[lane]).collect();
        let visited = br.per_lane_visited[lane];
        for t in std::iter::once(g.primary).chain(g.followers) {
            // A follower that attached mid-flight has `submitted`
            // after `dispatched`; its wait saturates to zero.
            let wait = dispatched.duration_since(t.submitted);
            complete_traversal(
                core,
                t.ticket,
                Ok((visited, levels.clone(), wait, exec, exec_epoch)),
            );
        }
    }
}

/// Fails every member of every lane group of a batch whose retries
/// are exhausted — including coalesced waiters that attached while it
/// ran. Isolation means *only* these traversals fail; every replica
/// keeps serving. Nothing entered a result cache.
fn fail_groups(core: &SharedCore, groups: Vec<LaneGroup>, e: &EngineError) {
    let err = ServiceError::BatchFailed(e.to_string());
    for g in groups {
        for t in std::iter::once(g.primary).chain(g.followers) {
            complete_traversal(core, t.ticket, Err(err.clone()));
        }
    }
}

/// `(visited, per_level, wait, exec, epoch)` of one finished traversal.
type TraversalOutcome = (u64, Vec<u64>, Duration, Duration, u64);

/// Folds one traversal's outcome into its query; when the last
/// traversal lands, leaves the query result in the ticket's slot
/// (scheduler fold semantics: visited = sum, per-level = elementwise
/// sum, times = mean), records latency into the service metrics, and
/// wakes the ticket's waiter if one is parked.
pub(super) fn complete_traversal(
    core: &SharedCore,
    mut ticket: TicketHandle,
    outcome: Result<TraversalOutcome, ServiceError>,
) {
    ticket.answered = true;
    let state = &*ticket.state;
    let mut slot = lock(&state.slot);
    let acc = &mut slot.acc;
    acc.done += 1;
    match outcome {
        Ok((visited, levels, wait, exec, epoch)) => {
            acc.visited += visited;
            acc.epoch = acc.epoch.max(epoch);
            if acc.per_level.is_empty() {
                // The first profile in is the sum so far — for a
                // single-source query, the answer itself.
                acc.per_level = levels;
            } else {
                if acc.per_level.len() < levels.len() {
                    acc.per_level.resize(levels.len(), 0);
                }
                for (h, c) in levels.into_iter().enumerate() {
                    acc.per_level[h] += c;
                }
            }
            acc.wait_sum += wait;
            acc.exec_sum += exec;
            acc.resp_sum += wait + exec;
        }
        Err(e) => {
            acc.failed.get_or_insert(e);
        }
    }
    if acc.done < state.total {
        // Not the last one in — but possibly the last one out, behind
        // a traversal that was dropped unanswered.
        return state.release(slot);
    }
    let n = state.total as u32;
    let o = &core.obs;
    let reply = match acc.failed.take() {
        Some(e) => {
            // Per-query outcome counts move under the sample lock,
            // which `stats()` holds while it reads them: no snapshot
            // shows a deadline kill that is not yet a failure.
            let _lat = lock(&core.latency);
            o.queries_failed.inc();
            if e == ServiceError::DeadlineExceeded {
                o.queries_deadline_exceeded.inc();
            }
            Err(e)
        }
        None => {
            // Canonical level profile: a lane's level vector is padded
            // to its *batch's* depth, which depends on how the stream
            // happened to pack — trim so results are packing-invariant.
            while acc.per_level.last() == Some(&0) {
                acc.per_level.pop();
            }
            let wait = acc.wait_sum / n;
            let exec = acc.exec_sum / n;
            let response = acc.resp_sum / n;
            {
                // Likewise: a completion is never seen without its samples.
                let mut lat = lock(&core.latency);
                lat.wait.push(wait);
                lat.exec.push(exec);
                lat.response.push(response);
                o.queries_completed.inc();
            }
            o.admission_wait.observe_duration(wait);
            o.exec.observe_duration(exec);
            o.response.observe_duration(response);
            Ok(QueryResult {
                id: state.id,
                visited: acc.visited,
                per_level: std::mem::take(&mut acc.per_level),
                response_time: response,
                exec_time: exec,
                epoch: acc.epoch,
            })
        }
    };
    // The submitter may have dropped its ticket; that is fine.
    slot.reply = Some(reply);
    state.release(slot);
}
