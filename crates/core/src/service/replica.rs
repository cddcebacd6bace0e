//! Per-replica state, admission, and the group's dispatcher loop.
//!
//! A [`Replica`] is one query front-end: its own admission queue,
//! result cache and coalescer. Everything a replica cannot own alone —
//! the serving value (engine, epoch, index), the persistent cluster,
//! the mutation buffer, the durability plane, and the one dispatcher
//! thread that runs the engine — lives in the
//! [`SharedCore`](super::shared::SharedCore) the replica belongs to.
//!
//! # Admission: the ready path and the miss path
//!
//! Admission — cache and index probes, mid-flight coalescing, the
//! queue — runs concurrently across replicas and never waits for the
//! dispatcher. What a [`submit`] touches depends on whether the answer
//! is already there:
//!
//! | | ready path — every traversal answered by the cache or the index | miss path — a traversal needs a lane |
//! |---|---|---|
//! | `serving` | read once, by the caller (`ServiceGroup::submit` routes with it and hands it down): engine, epoch and index of one commit | the same read, and again after a backpressure wait |
//! | [`Replica::state`] | held across the submit: the `closed` check, nothing else | the same hold, plus the queue push and the backlog count |
//! | the cache mutex / the index | one `get` + clone per source; the index is the serving value's, no lock | the same probes, which miss |
//! | the coalescer | not reached | `attach` — an identical traversal in flight answers this one too, without a slot |
//! | [`Replica::space`] | never waited on | waited on with the first traversal in hand, while the queue is full |
//! | the clock | not read, unless a deadline is configured | read once, for the first traversal that waits for a lane (its queue-wait stamp) |
//! | the ticket | one `Arc<TicketState>`, no per-traversal handle; [`complete_traversal`] folds, records one fixed-size triple in the replica's [`Replica::latency`] shard and fills the slot before `submit` returns | a [`TicketHandle`] per queued traversal; filled by the batch's fan-out, which records into the shard of the replica that admitted the query |
//! | the dispatcher | not woken: it stays parked | woken once, if it is parked, after `state` is released |
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
//! dispatcher woken per cache hit would only find nothing queued.
//!
//! | condvar | guards | mutex | waiter flag | notified by |
//! |---|---|---|---|---|
//! | `SharedCore::work` | work for the dispatcher: a queued traversal, a commit request, every replica closed | `SharedCore::parked` | the mutex's own `bool` — cleared by the notifier, so one park is one notify | a submit that queued; a commit that became due; a replica's close — each changes what the dispatcher reads *before* it takes `parked` ([`SharedCore::wake_dispatcher`]) |
//! | [`Replica::space`] | free queue slots | [`Replica::state`] | [`QueueState::space_waiters`] (a count: several submitters may block) | formation that shrank the queue; the replica's close |
//! | a ticket's `ready` | the reply slot | the ticket's `slot` | `parked` | the completion that filled the slot; the drop of the last unanswered traversal |
//!
//! # From the queue to the answer
//!
//! One thread — the group's dispatcher ([`dispatch_loop`]) — runs
//! everything from the queue to the answer, in order:
//!
//! 1. a due epoch commit ([`run_commit`]), at the batch boundary;
//! 2. formation ([`form_batch`]): one batch of up to
//!    [`SharedCore::lanes`] lanes from **every** replica's queue, under
//!    every replica's `state` lock, including the replies to queued
//!    traversals the caches or the index can answer by now and to those
//!    whose deadline passed;
//! 3. the engine call with its retries and degradation
//!    ([`execute_batch`]): every replica's lanes in one
//!    `run_traversal_batch_recoverable`;
//! 4. cache insertion and the coalescers' hand-back ([`commit_batch`]),
//!    per replica a lane came from, under the stats gate;
//! 5. the per-ticket fan-out ([`fan_out`], or [`fail_groups`]) — one
//!    slot fill per query, a wake-up only for a ticket whose holder is
//!    parked in `wait` — after steps 1–2 for the next batch when what
//!    arrived meanwhile already fills it.
//!
//! A batch is formed by the thread that runs it: its epoch is the epoch
//! it executes against, the lanes that arrived while the previous batch
//! ran are in it, and every queue is drained by the same thread, so none
//! can starve.

use super::shared::{degrade, quiesce_durability, run_commit, ExecCtx, Serving, SharedCore};
use super::{lock, wait, QueryTicket, ServiceError};
use crate::engine::{BatchResult, EngineError, FaultInjection};
use crate::metrics::{mean_of, mix64, LatencyShard, GOLDEN_GAMMA};
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
    /// The ids of the replicas a member of this lane was queued on —
    /// almost always one. Each gets the result in its cache and hands
    /// back what its coalescer collected.
    pub(super) homes: Vec<usize>,
}

/// The rendezvous of one query: the running fold of its traversals and,
/// once the last one landed, the reply — one slot under one lock, with
/// the condvar [`QueryTicket::wait`] parks on. The [`QueryTicket`] holds
/// one reference; every [`Traversal`] holds a [`TicketHandle`].
pub(super) struct TicketState {
    id: usize,
    /// The replica that admitted the query: its latency shard records
    /// the query's completion, wherever the last traversal lands.
    replica: usize,
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
    /// The ticket of a query admitted on `replica` as `total`
    /// traversals.
    pub(super) fn new(id: usize, replica: usize, total: usize) -> Arc<Self> {
        Self::with_slot(id, replica, total, TicketSlot::default())
    }

    /// A ticket born answered — the empty query, which has no traversal
    /// to wait for.
    fn answered(replica: usize, reply: QueryResult) -> Arc<Self> {
        let id = reply.id;
        Self::with_slot(id, replica, 0, TicketSlot { reply: Some(Ok(reply)), ..Default::default() })
    }

    fn with_slot(id: usize, replica: usize, total: usize, slot: TicketSlot) -> Arc<Self> {
        Arc::new(Self { id, replica, total, slot: Mutex::new(slot), ready: Condvar::new() })
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

/// A queued traversal's reference to its query's ticket — the service
/// side of the rendezvous. [`TicketHandle::complete`] consumes it with
/// an outcome; a handle dropped any other way (a dispatcher died with
/// the traversal queued, a shut-down service let go of it) counts the
/// traversal as abandoned, and the last one to leave wakes a parked
/// waiter with [`ServiceError::ShutDown`]. A traversal answered at
/// admission never needs one.
pub(super) struct TicketHandle {
    state: Arc<TicketState>,
    answered: bool,
}

impl TicketHandle {
    pub(super) fn new(state: &Arc<TicketState>) -> Self {
        Self { state: Arc::clone(state), answered: false }
    }

    /// Answers the traversal with `outcome` ([`complete_traversal`]); the
    /// handle leaves without counting as abandoned.
    fn complete(mut self, core: &SharedCore, outcome: Result<TraversalOutcome, ServiceError>) {
        self.answered = true;
        complete_traversal(core, &self.state, outcome);
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
    /// The waiter flag of [`Replica::space`]: submitters parked with a
    /// traversal in hand the full queue has no slot for.
    space_waiters: usize,
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

/// One query front-end: admission queue + query plane + the condvar
/// its blocked submitters park on + the latency shard of the queries it
/// admitted.
pub(super) struct Replica {
    /// Position in the group (0 for a solo service): its index in
    /// `SharedCore::replicas`, and the row this replica heats in the
    /// group's [`HeatTable`](cgraph_cache::HeatTable).
    pub(super) id: usize,
    pub(super) plane: QueryPlane,
    pub(super) state: Mutex<QueueState>,
    pub(super) space: Condvar,
    /// Cache occupancy last published to the group-wide gauges: each
    /// replica adds its *delta*, so the gauges hold the group's sum.
    /// Updated only by the dispatcher.
    pub(super) pub_entries: AtomicI64,
    pub(super) pub_bytes: AtomicI64,
    /// What every query this replica admitted cost, in fixed memory
    /// (leaf lock). A query's outcome counters — completed, failed,
    /// deadline-exceeded — move under it too, so a stats snapshot, which
    /// holds every shard, reads them with the samples as one.
    pub(super) latency: Mutex<LatencyShard>,
}

impl Replica {
    pub(super) fn new(id: usize, cfg: &super::QueryPlaneConfig) -> Self {
        Self {
            id,
            plane: QueryPlane::new(cfg),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                space_waiters: 0,
            }),
            space: Condvar::new(),
            pub_entries: AtomicI64::new(0),
            pub_bytes: AtomicI64::new(0),
            latency: Mutex::new(LatencyShard::new()),
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

/// Moves the group backlog — the dispatcher's [`SharedCore::queued`]
/// and the `cgraph_service_queue_depth` gauge — by `delta` traversals.
/// Call under the `state` lock of the replica whose queue changed by
/// that much.
fn add_backlog(core: &SharedCore, delta: i64) {
    core.queued.fetch_add(delta, Ordering::SeqCst);
    core.obs.queue_depth.add(delta);
}

/// Admits `query` on `replica`: every traversal the cache or the index
/// answers completes here, the rest are queued for the dispatcher —
/// blocking, with the first of them in hand, while the admission queue
/// is full. `serving` is the caller's one read of
/// [`SharedCore::serving`]: the engine, the epoch and the index probed
/// all come from it, and from one fresh read after a backpressure wait.
/// Returns a ticket redeemable for the result, or
/// [`ServiceError::ShutDown`] once the replica is closed.
pub(super) fn submit(
    core: &SharedCore,
    replica: &Replica,
    mut serving: Arc<Serving>,
    query: KhopQuery,
) -> Result<QueryTicket, ServiceError> {
    let mut st = lock(&replica.state);
    if st.closed {
        return Err(ServiceError::ShutDown);
    }
    if query.sources.is_empty() {
        // Nothing to traverse: complete immediately instead of
        // enqueueing zero traversals (whose ticket would otherwise
        // never be replied to and read as a shutdown) — recorded like
        // any other completion, in zero time.
        drop(st);
        core.obs.queries_submitted.inc();
        record_completion(core, replica, [Duration::ZERO; 3]);
        let state = TicketState::answered(
            replica.id,
            QueryResult {
                id: query.id,
                visited: 0,
                per_level: Vec::new(),
                response_time: Duration::ZERO,
                exec_time: Duration::ZERO,
                epoch: serving.epoch(),
            },
        );
        return Ok(QueryTicket { state, deadline: None });
    }
    // Admission-time shape validation: the closed-batch scheduler
    // panics on an out-of-range source, but a *service* must reject
    // the one bad query and keep serving everyone else.
    let n = serving.engine.num_vertices();
    if let Some(&bad) = query.sources.iter().find(|&&s| s >= n) {
        return Err(ServiceError::InvalidQuery(format!(
            "source {bad} out of range for a graph of {n} vertices"
        )));
    }
    let ticket = TicketState::new(query.id, replica.id, query.sources.len());
    // The admission instant — the queue-wait stamp and the start of the
    // deadline — is read when first needed: with no deadline to start, a
    // query the cache or the index answers whole never reads the clock.
    let mut admitted = core.config.query_deadline.map(|_| Instant::now());
    let deadline = admitted.zip(core.config.query_deadline).map(|(at, d)| at + d);
    let mut epoch = serving.epoch();
    let mut pushed = 0;
    for &source in &query.sources {
        let key = CacheKey { source, k: query.k, epoch };
        // 1. Result cache: a hit completes the traversal right at
        // admission — zero queue wait, zero lane time, no handle.
        if let Some(cm) = &replica.plane.cache {
            let hit = lock(cm).get(&key).cloned();
            match hit {
                Some(v) => {
                    core.obs.cache_hits.inc();
                    // The hit proves this replica's cache is hot for
                    // the source's partition — feed the router.
                    if let Some(h) = &core.heat {
                        h.bump(replica.id, serving.engine.partition().owner(source));
                    }
                    complete_traversal(
                        core,
                        &ticket,
                        Ok((v.visited, v.per_level, Duration::ZERO, Duration::ZERO, epoch)),
                    );
                    continue;
                }
                None => core.obs.cache_misses.inc(),
            }
        }
        // 2. Index-only fast path: the serving value's index, whose
        // sketch covers `(source, k)` exactly, answers at admission —
        // bit-identical to the traversal, no lane spent (see
        // INDEXING.md).
        if let Some(ans) = serving.index.as_ref().and_then(|ix| ix.answer(source, query.k)) {
            core.obs.index_only_answers.inc();
            complete_traversal(
                core,
                &ticket,
                Ok((ans.visited, ans.per_level, Duration::ZERO, Duration::ZERO, epoch)),
            );
            continue;
        }
        // What is left waits for a lane: stamped, and holding the ticket.
        let t = Traversal {
            source,
            k: query.k,
            submitted: *admitted.get_or_insert_with(Instant::now),
            deadline,
            ticket: TicketHandle::new(&ticket),
            skips: 0,
        };
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
        if pushed == 0 {
            while !st.closed && st.queue.len() >= core.config.max_queue_depth {
                st.space_waiters += 1;
                st = wait(&replica.space, st);
                st.space_waiters -= 1;
            }
            if st.closed {
                return Err(ServiceError::ShutDown);
            }
            // A commit may have landed meanwhile; formation re-probes
            // whatever is queued, the remaining sources probe the value
            // that serves now — its engine, epoch and index together.
            serving = core.serving();
            epoch = serving.epoch();
        }
        st.queue.push_back(t);
        pushed += 1;
    }
    core.obs.queries_submitted.inc();
    if pushed > 0 {
        add_backlog(core, pushed);
        drop(st);
        core.wake_dispatcher();
    }
    Ok(QueryTicket { state: ticket, deadline })
}

/// The group's dispatcher — the one thread that runs the engine — until
/// every replica is closed and drained ([`serving_over`]); then the
/// durability barrier and the cluster's shutdown, by it alone.
///
/// When what arrived while a batch ran already fills the next one, that
/// batch is formed *before* the returned one is answered: the replies
/// wake submitters, whose next queries could only land past the lane
/// cap, where the packer passes queued traversals over. A shorter
/// backlog waits for the replies, so the queries they release can join.
pub(super) fn dispatch_loop(core: &Arc<SharedCore>, mut ctx: ExecCtx) {
    let mut next = None;
    loop {
        let (mut groups, epoch) = match next.take() {
            Some(batch) => batch,
            None => {
                wait_for_work(core);
                match take_batch(core, &mut ctx) {
                    Some(batch) => batch,
                    None if serving_over(core) => break,
                    None => continue,
                }
            }
        };
        let outcome = execute_batch(core, &mut ctx, &mut groups);
        if core.queued.load(Ordering::SeqCst) >= core.lanes as i64 {
            next = take_batch(core, &mut ctx);
        }
        let replying = Instant::now();
        match outcome {
            Ok((result, dispatched)) => fan_out(core, groups, &result, dispatched, epoch),
            Err(error) => fail_groups(core, groups, &error),
        }
        core.obs.fanout.observe_duration(replying.elapsed());
    }
    // Shutdown barrier: buffered-but-uncommitted updates are already
    // WAL-logged (write-ahead); the sync makes them crash-proof before
    // shutdown() returns to the caller, and a snapshot still being
    // written is waited for.
    quiesce_durability(core, &ctx.serving.engine);
    ctx.cluster.shutdown();
}

/// Performs a due epoch commit, then forms the next batch (run under
/// the *new* epoch) and answers what formation answers: queued
/// traversals the caches or the index hold by now, expired deadlines.
/// `None` when no lane is left to run.
fn take_batch(core: &Arc<SharedCore>, ctx: &mut ExecCtx) -> Option<(Vec<LaneGroup>, u64)> {
    run_commit(core, ctx);
    if core.queued.load(Ordering::SeqCst) == 0 {
        return None;
    }
    let forming = Instant::now();
    let formed = form_batch(core, ctx);
    let formation = forming.elapsed();
    for t in formed.expired {
        t.ticket.complete(core, Err(ServiceError::DeadlineExceeded));
    }
    // The sequence number of the batch about to run: its job.
    let job = core.batch_seq.load(Ordering::SeqCst);
    if formed.cache_hits > 0 {
        core.obs.instant("cache_hit", job, 0, formed.cache_hits);
    }
    if core.config.query_plane.cache_capacity_bytes.is_some() && !formed.groups.is_empty() {
        // The lanes actually dispatched are the misses that
        // stayed misses all the way to batch formation.
        core.obs.instant("cache_miss", job, 0, formed.groups.len() as u64);
    }
    for (t, v) in formed.hits {
        let wait = t.submitted.elapsed();
        t.ticket.complete(core, Ok((v.visited, v.per_level, wait, Duration::ZERO, formed.epoch)));
    }
    if formed.groups.is_empty() {
        return None;
    }
    core.obs.formation.observe_duration(formation);
    Some((formed.groups, formed.epoch))
}

/// Whether the dispatcher is done: every replica closed, nothing
/// queued, and no commit requested — checked under `pending`, where
/// commits register, which marks the group done serving in the same
/// step: `commit_epoch` refuses from then on.
fn serving_over(core: &SharedCore) -> bool {
    if core.open_replicas.load(Ordering::SeqCst) > 0 || core.queued.load(Ordering::SeqCst) > 0 {
        return false;
    }
    let mut p = lock(&core.pending);
    p.serving_done = !core.commit_requested.load(Ordering::SeqCst);
    p.serving_done
}

/// Parks the dispatcher until the group has work for the engine: a
/// commit is due, every replica is closed (drain, then exit), or a
/// traversal is queued and its linger is over.
///
/// The linger is the one place the service waits for lanes: the
/// dispatcher lets the group's oldest queued traversal wait up to
/// [`ServiceConfig::max_batch_delay`](super::ServiceConfig::max_batch_delay)
/// for the backlog to reach the lane cap. At the default of zero it
/// starts at once: a busy engine batches by itself — what arrives while
/// a batch runs is the next batch — and an idle one should start.
fn wait_for_work(core: &SharedCore) {
    let delay = core.config.max_batch_delay;
    let mut woken = false;
    loop {
        // The oldest queue head, read before taking `parked` (a leaf).
        // With nothing queued, `scanned` is no later than any traversal
        // queued from now on.
        let linger_end = (!delay.is_zero()).then(|| {
            let scanned = Instant::now();
            let heads =
                core.replicas.iter().filter_map(|r| Some(lock(&r.state).queue.front()?.submitted));
            heads.min().unwrap_or(scanned) + delay
        });
        let mut parked = lock(&core.parked);
        let queued = core.queued.load(Ordering::SeqCst);
        let commit_due = core.commit_requested.load(Ordering::SeqCst);
        if std::mem::take(&mut woken) {
            core.obs.dispatcher_wakeups.inc();
            if queued == 0 && !commit_due {
                core.obs.dispatcher_idle_wakeups.inc();
            }
        }
        if commit_due || core.open_replicas.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Nothing queued: park until notified. Something queued: linger
        // while the backlog is short of the cap and the delay not over.
        let timeout = match linger_end.map(|end| end.saturating_duration_since(Instant::now())) {
            _ if queued == 0 => None,
            Some(left) if queued < core.lanes as i64 && !left.is_zero() => Some(left),
            _ => return,
        };
        #[cfg(test)]
        core.park_hook.hold(core);
        *parked = true;
        parked = match timeout {
            None => wait(&core.work, parked),
            Some(t) => core.work.wait_timeout(parked, t).unwrap_or_else(|e| e.into_inner()).0,
        };
        // A linger that ran out was not notified: nobody cleared the flag.
        *parked = false;
        woken = true;
    }
}

/// Output of one formation pass over the group's admission queues.
#[derive(Default)]
struct FormedBatch {
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
    /// Graph epoch the batch was formed under. Formation runs on the
    /// dispatcher, which runs the batch next, so this *is* the epoch the
    /// batch executes against.
    epoch: u64,
}

/// Forms one batch from every replica's admission queue, on the
/// dispatcher (`ctx` holds what serves) and under every replica's state
/// lock: sweeps each queue against its replica's result cache and the
/// serving value's index, fails what has expired, and hands the rest to
/// [`plan_batch`] — up to [`SharedCore::lanes`] distinct keys, oldest
/// first (or locality-packed), identical keys collapsed into followers
/// whichever replica queued them. With coalescing on, every selected
/// key is registered as in flight on each replica it came from, so late
/// arrivals attach mid-batch.
fn form_batch(core: &SharedCore, ctx: &ExecCtx) -> FormedBatch {
    let serving = &ctx.serving;
    let epoch = serving.epoch();
    let mut formed = FormedBatch { epoch, ..Default::default() };
    let FormedBatch { groups, hits, cache_hits, expired, .. } = &mut formed;
    let replicas = &core.replicas;
    // In id order; only the dispatcher takes more than one.
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
                let a = serving.index.as_ref()?.answer(t.source, t.k)?;
                index_hits += 1;
                Some(CachedTraversal { visited: a.visited, per_level: a.per_level })
            });
            let item = FormItem {
                key: (t.source, t.k),
                age: t.submitted.duration_since(base).as_nanos() as u64,
                partition: if plane.pack_locality {
                    serving.engine.partition().owner(t.source)
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
    for replica in replicas {
        if let Some(co) = &replica.plane.coalescer {
            let mut co = lock(co);
            for g in groups.iter().filter(|g| g.homes.contains(&replica.id)) {
                co.begin(g.key);
            }
        }
    }
    // Formation only ever shrinks a queue: by what left it.
    let mut taken = 0;
    for ((replica, st), fates) in replicas.iter().zip(&states).zip(&plan.fates) {
        let left = fates.len() - st.queue.len();
        if left > 0 {
            taken += left;
            replica.wake_submitters(st);
        }
    }
    add_backlog(core, -(taken as i64));
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
    let z = mix64(job ^ (u64::from(retry) + 1).wrapping_mul(GOLDEN_GAMMA));
    let modulus = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX).max(1);
    exp.saturating_add(Duration::from_nanos(z % modulus))
}

#[cfg(test)]
pub(super) fn backoff_delay_for_test(base: Duration, retry: u32, job: u64) -> Duration {
    backoff_delay(base, retry, job)
}

/// Executes one formed batch on the shared cluster, on the dispatcher
/// (`ctx` is its engine and cluster). The lanes of every replica run as
/// one engine call; on `Ok` the results enter the caches, keyed to the
/// epoch they ran against, before anything else runs. Either way the
/// coalescers have handed their mid-flight waiters to `groups` on
/// return, ready to be answered: with the result and the instant its
/// successful attempt was dispatched, or with the error that exhausted
/// the retries (nothing entered a cache then).
fn execute_batch(
    core: &SharedCore,
    ctx: &mut ExecCtx,
    groups: &mut [LaneGroup],
) -> Result<(BatchResult, Instant), EngineError> {
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
        let run = ctx.serving.engine.run_traversal_batch_recoverable(
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
                commit_batch(core, ctx, groups, &result, job, retry);
                return Ok((result, dispatched));
            }
            Err(error) => {
                if let EngineError::Cluster(ClusterError::MachinePanicked { machine, .. }) = &error
                {
                    if let Some(b) = ctx.blame.get_mut(*machine) {
                        *b += 1;
                        let threshold = core.config.degrade_after;
                        if threshold.is_some_and(|th| *b >= th)
                            && ctx.serving.engine.num_machines() > 1
                        {
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
                collect_waiters(core, groups);
                return Err(error);
            }
        }
    }
}

/// Commits a successful batch: populates the result cache of every
/// replica a lane came from (this is the *only* insertion point — the
/// engine returned `Ok`, so the result is the committed, bit-identical
/// answer; crashed, retried or degraded attempts never reach here with
/// partial state) and drains coalesced mid-flight waiters into their
/// lanes. Commits run on this same thread, so the lanes' epoch is *the*
/// current epoch for the whole body — results enter the caches keyed to
/// the snapshot they actually ran against, and no commit can fence a
/// cache mid-insert.
fn commit_batch(
    core: &SharedCore,
    ctx: &ExecCtx,
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
        for replica in core.replicas.iter() {
            let Some(cm) = &replica.plane.cache else { continue };
            let (entries, bytes) = {
                let mut c = lock(cm);
                let home = groups.iter().enumerate().filter(|(_, g)| g.homes.contains(&replica.id));
                for (lane, g) in home {
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
                        h.bump(replica.id, ctx.serving.engine.partition().owner(g.key.source));
                    }
                }
                (c.len() as i64, c.used_bytes() as i64)
            };
            // Delta publication: each replica adds its change to the
            // group-wide gauges (only the dispatcher updates them, so
            // the swap/add pair is never interleaved).
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
    collect_waiters(core, groups);
}

/// Takes every lane's key out of the in-flight table of each replica
/// it was registered on; whoever attached while the batch ran joins
/// the lane's followers and shares its outcome.
fn collect_waiters(core: &SharedCore, groups: &mut [LaneGroup]) {
    for replica in core.replicas.iter() {
        if let Some(co) = &replica.plane.coalescer {
            let mut co = lock(co);
            for g in groups.iter_mut().filter(|g| g.homes.contains(&replica.id)) {
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
            t.ticket.complete(core, Ok((visited, levels.clone(), wait, exec, exec_epoch)));
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
            t.ticket.complete(core, Err(err.clone()));
        }
    }
}

/// `(visited, per_level, wait, exec, epoch)` of one finished traversal.
type TraversalOutcome = (u64, Vec<u64>, Duration, Duration, u64);

/// Folds one traversal's outcome into its query; when the last
/// traversal lands, leaves the query result in the ticket's slot
/// (scheduler fold semantics: visited = sum, per-level = elementwise
/// sum, times = mean rounded to the nanosecond), records the outcome
/// into the latency shard of the replica that admitted the query, and
/// wakes the ticket's waiter if one is parked.
fn complete_traversal(
    core: &SharedCore,
    state: &TicketState,
    outcome: Result<TraversalOutcome, ServiceError>,
) {
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
    let n = state.total as u64;
    let o = &core.obs;
    let replica = &core.replicas[state.replica];
    let reply = match acc.failed.take() {
        Some(e) => {
            // Per-query outcome counts move under the replica's shard,
            // which `stats()` holds while it reads them: no snapshot
            // shows a deadline kill that is not yet a failure.
            let _lat = lock(&replica.latency);
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
            let wait = mean_of(acc.wait_sum.as_nanos(), n);
            let exec = mean_of(acc.exec_sum.as_nanos(), n);
            let response = mean_of(acc.resp_sum.as_nanos(), n);
            record_completion(core, replica, [wait, exec, response]);
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

/// Records a query `replica` admitted as answered: its `[wait, exec,
/// response]` and the completion count move together under the
/// replica's latency shard — a completion is never seen without its
/// record — and the histograms observe it after.
fn record_completion(core: &SharedCore, replica: &Replica, triple: [Duration; 3]) {
    {
        let mut shard = lock(&replica.latency);
        shard.record(triple);
        core.obs.queries_completed.inc();
    }
    let [wait, exec, response] = triple;
    let o = &core.obs;
    o.admission_wait.observe_duration(wait);
    o.exec.observe_duration(exec);
    o.response.observe_duration(response);
}
