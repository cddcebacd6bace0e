//! Per-replica state and the dispatcher loop.
//!
//! A [`Replica`] is one query front-end: its own admission queue,
//! result cache, coalescer and packer knobs, and one dispatcher
//! thread. Everything a replica cannot own alone — the engine
//! snapshot chain, the persistent cluster, the mutation buffer, the
//! durability plane, the epoch — lives in the
//! [`SharedCore`](super::shared::SharedCore) it is attached to.
//! Replicas serialise on the core's exec lock only for the cluster
//! round-trip itself; admission, cache probes, coalescing and batch
//! formation run concurrently across replicas.

use super::shared::{degrade, perform_commit, quiesce_durability, take_commit_request, SharedCore};
use super::{lock, wait, QueryTicket, ServiceError};
use crate::engine::{BatchResult, EngineError, FaultInjection};
use crate::query::{KhopQuery, QueryResult};
use cgraph_cache::{
    pack_fifo, pack_locality, CacheKey, CachedTraversal, Coalescer, PackItem, PackPolicy,
    ResultCache,
};
use cgraph_comm::ClusterError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued traversal: a single `(source, k)` of some query.
pub(super) struct Traversal {
    pub(super) source: u64,
    pub(super) k: u32,
    pub(super) submitted: Instant,
    pub(super) deadline: Option<Instant>,
    pub(super) ticket: Arc<TicketState>,
    /// Batches this traversal has been passed over by locality
    /// packing — the packer's fairness bound caps it.
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
}

/// Shared completion state of one query across its traversals.
pub(super) struct TicketState {
    pub(super) id: usize,
    pub(super) total: usize,
    pub(super) acc: Mutex<TicketAcc>,
    pub(super) reply: crossbeam_channel::Sender<Result<QueryResult, ServiceError>>,
}

#[derive(Default)]
pub(super) struct TicketAcc {
    pub(super) done: usize,
    pub(super) failed: Option<ServiceError>,
    pub(super) visited: u64,
    pub(super) per_level: Vec<u64>,
    pub(super) wait_sum: Duration,
    pub(super) exec_sum: Duration,
    pub(super) resp_sum: Duration,
    /// Newest epoch any traversal of the query answered against (the
    /// traversals of one query can straddle a commit; the folded
    /// result is labelled conservatively with the newest).
    pub(super) epoch: u64,
}

pub(super) struct QueueState {
    pub(super) queue: VecDeque<Traversal>,
    pub(super) closed: bool,
    /// Depth last published to the group-wide `cgraph_queue_depth`
    /// gauge — each replica adds its *delta* so concurrent replicas
    /// never clobber each other's contribution.
    pub(super) published_depth: i64,
}

/// The per-replica slice of the query plane: result cache, in-flight
/// coalescer, and batch-packing knobs. The graph epoch these key
/// against is shared — it lives on the core.
pub(super) struct QueryPlane {
    pub(super) cache: Option<Mutex<ResultCache>>,
    pub(super) coalescer: Option<Mutex<Coalescer<CacheKey, Traversal>>>,
    pub(super) pack_locality: bool,
    pub(super) fairness: u32,
}

impl QueryPlane {
    pub(super) fn new(cfg: &super::QueryPlaneConfig) -> Self {
        Self {
            cache: cfg.cache_capacity_bytes.map(|b| Mutex::new(ResultCache::new(b))),
            coalescer: cfg.coalesce.then(|| Mutex::new(Coalescer::new())),
            pack_locality: cfg.pack_locality,
            fairness: cfg.locality_fairness,
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
                published_depth: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            pub_entries: AtomicI64::new(0),
            pub_bytes: AtomicI64::new(0),
        })
    }
}

/// Publishes this replica's queue depth to the group gauge as a delta
/// (must hold the state lock, which `st` proves).
fn publish_depth(core: &SharedCore, st: &mut QueueState) {
    let depth = st.queue.len() as i64;
    // A query answered whole at admission leaves the queue as it was.
    if depth != st.published_depth {
        core.obs.queue_depth.add(depth - st.published_depth);
        st.published_depth = depth;
    }
}

/// Admits `query` on `replica`, blocking while its admission queue is
/// full. Returns a ticket redeemable for the result, or
/// [`ServiceError::ShutDown`] once the replica is closed.
pub(super) fn submit(
    core: &SharedCore,
    replica: &Replica,
    query: KhopQuery,
) -> Result<QueryTicket, ServiceError> {
    let mut st = lock(&replica.state);
    while !st.closed && st.queue.len() >= core.config.max_queue_depth {
        st = wait(&replica.space, st);
    }
    if st.closed {
        return Err(ServiceError::ShutDown);
    }
    if query.sources.is_empty() {
        // Nothing to traverse: complete immediately instead of
        // enqueueing zero traversals (whose ticket would otherwise
        // never be replied to and read as a shutdown).
        drop(st);
        let (tx, rx) = crossbeam_channel::unbounded();
        core.obs.queries_submitted.inc();
        core.obs.queries_completed.inc();
        let _ = tx.send(Ok(QueryResult {
            id: query.id,
            visited: 0,
            per_level: Vec::new(),
            response_time: Duration::ZERO,
            exec_time: Duration::ZERO,
            epoch: core.epoch.load(Ordering::SeqCst),
        }));
        return Ok(QueryTicket { rx, deadline: None });
    }
    // Admission-time shape validation: the closed-batch scheduler
    // panics on an out-of-range source, but a *service* must reject
    // the one bad query and keep serving everyone else.
    let engine = Arc::clone(&lock(&core.live_engine));
    let n = engine.num_vertices();
    if let Some(&bad) = query.sources.iter().find(|&&s| s >= n) {
        return Err(ServiceError::InvalidQuery(format!(
            "source {bad} out of range for a graph of {n} vertices"
        )));
    }
    let (tx, rx) = crossbeam_channel::unbounded();
    let ticket = Arc::new(TicketState {
        id: query.id,
        total: query.sources.len(),
        acc: Mutex::new(TicketAcc::default()),
        reply: tx,
    });
    let now = Instant::now();
    let deadline = core.config.query_deadline.map(|d| now + d);
    let epoch = core.epoch.load(Ordering::SeqCst);
    for &source in &query.sources {
        let t = Traversal {
            source,
            k: query.k,
            submitted: now,
            deadline,
            ticket: Arc::clone(&ticket),
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
                        &t.ticket,
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
                &t.ticket,
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
        st.queue.push_back(t);
    }
    core.obs.queries_submitted.inc();
    publish_depth(core, &mut st);
    replica.work.notify_all();
    Ok(QueryTicket { rx, deadline })
}

/// What the dispatcher's wait loop decided to do next.
enum Step {
    /// An epoch commit is due — run it (any replica's dispatcher may).
    Commit,
    /// A batch formed under the state lock — execute it.
    Batch(FormedBatch),
    /// Closed and drained — leave the loop (unless a late commit
    /// request slipped in; see [`exit_replica`]).
    Exit,
}

/// The dispatcher: block for work, pack a batch under the
/// fill-or-deadline policy, execute it on the shared persistent
/// cluster, fan results back out to tickets. Epoch commits run here
/// too — under the core's exec lock, strictly *between* batches
/// group-wide. Exits once this replica is closed *and* drained
/// (queries and pending commits).
pub(super) fn dispatch_loop(core: &Arc<SharedCore>, replica: &Replica) {
    loop {
        let step = {
            let mut st = lock(&replica.state);
            loop {
                // A due commit preempts batch formation: queued
                // traversals are keyed (and executed) under the *new*
                // epoch once the commit lands.
                if lock(&core.pending).requested {
                    break Step::Commit;
                }
                if st.queue.is_empty() {
                    if st.closed {
                        break Step::Exit;
                    }
                    st = wait(&replica.work, st);
                    continue;
                }
                if st.queue.len() >= core.lanes || st.closed {
                    // Filled (or draining after shutdown).
                } else {
                    let age = st.queue.front().expect("non-empty").submitted.elapsed();
                    if age < core.config.max_batch_delay {
                        let (g, _) = replica
                            .work
                            .wait_timeout(st, core.config.max_batch_delay - age)
                            .unwrap_or_else(|e| e.into_inner());
                        st = g;
                        continue;
                    }
                    // Deadline: flush the partial batch.
                }
                let formed = form_batch(core, replica, &mut st);
                publish_depth(core, &mut st);
                replica.space.notify_all();
                break Step::Batch(formed);
            }
        };
        let formed = match step {
            Step::Commit => {
                run_commit(core);
                continue;
            }
            Step::Exit => {
                if exit_replica(core) {
                    return;
                }
                // A commit request arrived after the queue drained —
                // loop back and serve it before exiting.
                continue;
            }
            Step::Batch(formed) => formed,
        };
        for t in formed.expired {
            complete_traversal(core, &t.ticket, Err(ServiceError::DeadlineExceeded));
        }
        let seq_now = core.batch_seq.load(Ordering::SeqCst);
        if !formed.hits.is_empty() {
            core.obs.instant("cache_hit", seq_now, 0, formed.hits.len() as u64);
        }
        if replica.plane.cache.is_some() && !formed.groups.is_empty() {
            // The lanes actually dispatched are the misses that
            // stayed misses all the way to batch formation.
            core.obs.instant("cache_miss", seq_now, 0, formed.groups.len() as u64);
        }
        for (t, v) in formed.hits {
            let wait = t.submitted.elapsed();
            complete_traversal(
                core,
                &t.ticket,
                Ok((v.visited, v.per_level, wait, Duration::ZERO, formed.epoch)),
            );
        }
        for (t, ans) in formed.index_hits {
            let wait = t.submitted.elapsed();
            complete_traversal(
                core,
                &t.ticket,
                Ok((ans.visited, ans.per_level, wait, Duration::ZERO, formed.epoch)),
            );
        }
        if !formed.groups.is_empty() {
            execute_batch(core, replica, formed.groups);
        }
    }
}

/// Runs a due epoch commit under the exec lock (the group-wide
/// quiesce) and the stats fence. Idempotent across racing dispatchers:
/// [`take_commit_request`] hands the batch to exactly one.
fn run_commit(core: &Arc<SharedCore>) {
    let mut guard = lock(&core.exec);
    let held = Instant::now();
    let ctx = &mut *guard;
    let gate = lock(&core.stats_gate);
    let next_epoch = ctx.engine.graph_epoch() + 1;
    let Some((updates, waiters, wal_seq)) = take_commit_request(core, next_epoch) else {
        return; // another dispatcher took it
    };
    perform_commit(core, ctx, updates, waiters, wal_seq);
    drop(gate);
    let held = held.elapsed();
    drop(guard);
    core.obs.commit_lock_hold.observe_duration(held);
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

/// Output of one batch-formation pass over the admission queue.
struct FormedBatch {
    /// Lanes to execute (primary + identical-key followers each).
    groups: Vec<LaneGroup>,
    /// Traversals answered by the result cache at pack time (their key
    /// was committed by an earlier batch while they sat queued).
    hits: Vec<(Traversal, CachedTraversal)>,
    /// Traversals answered by the reachability index at pack time
    /// (admitted before the current index existed — e.g. across an
    /// epoch commit that rebuilt it).
    index_hits: Vec<(Traversal, crate::index_api::IndexAnswer)>,
    /// Traversals whose query deadline elapsed while queued.
    expired: Vec<Traversal>,
    /// Graph epoch the batch was formed under — its admission epoch.
    /// A cross-replica commit may land between formation and the exec
    /// lock; [`execute_batch`] re-reads the epoch under that lock and
    /// keys results to what it actually ran against.
    epoch: u64,
}

/// Forms one batch under the state lock: sweeps the queue against the
/// result cache, selects up to [`SharedCore::lanes`] distinct keys
/// (FIFO or locality-packed), collapses identical-key duplicates into
/// followers, and — with coalescing on — registers every selected key
/// as in flight so late arrivals can attach mid-batch.
fn form_batch(core: &SharedCore, replica: &Replica, st: &mut QueueState) -> FormedBatch {
    let epoch = core.epoch.load(Ordering::SeqCst);

    // 1. Cache sweep: keys committed since these traversals were
    // admitted are answered now, before they cost a lane. The whole
    // queue is swept, not just this batch's window — a hit behind the
    // window frees queue space all the same.
    let mut hits = Vec::new();
    if let Some(cm) = &replica.plane.cache {
        let mut c = lock(cm);
        let mut i = 0;
        while i < st.queue.len() {
            let key = st.queue[i].key(epoch);
            if let Some(v) = c.get(&key) {
                let v = v.clone();
                let t = st.queue.remove(i).expect("index in range");
                hits.push((t, v));
            } else {
                i += 1;
            }
        }
        core.obs.cache_hits.add(hits.len() as u64);
    }

    // 1b. Index sweep: same shape as the cache sweep, against the
    // current-epoch reachability index. Catches traversals admitted
    // before this index existed (it is rebuilt at every commit).
    let mut index_hits = Vec::new();
    if let Some(ix) = core.current_index(epoch) {
        let mut i = 0;
        while i < st.queue.len() {
            match ix.answer(st.queue[i].source, st.queue[i].k) {
                Some(ans) => {
                    let t = st.queue.remove(i).expect("index in range");
                    index_hits.push((t, ans));
                }
                None => i += 1,
            }
        }
        core.obs.index_only_answers.add(index_hits.len() as u64);
    }

    // 2. Lane selection: which queue positions anchor this batch.
    let sel: Vec<usize> = if replica.plane.pack_locality && st.queue.len() > core.lanes {
        let engine = Arc::clone(&lock(&core.live_engine));
        let part = engine.partition();
        let items: Vec<PackItem> = st
            .queue
            .iter()
            .map(|t| PackItem { partition: part.owner(t.source), skips: t.skips })
            .collect();
        pack_locality(&items, core.lanes, PackPolicy { fairness_bound: replica.plane.fairness })
    } else {
        pack_fifo(st.queue.len(), core.lanes)
    };

    // 3. Grouping walk. Identical `(source, k)` traversals never take
    // two lanes: within the selection window duplicates always
    // collapse into followers; with coalescing on, the walk extends
    // over the whole queue, attaching every queued duplicate of a
    // selected key and refilling lanes duplicates freed.
    let deep = replica.plane.coalescer.is_some();
    let mut in_sel = vec![false; st.queue.len()];
    for &i in &sel {
        in_sel[i] = true;
    }
    let scan: Vec<usize> = if deep {
        sel.iter().copied().chain((0..st.queue.len()).filter(|&i| !in_sel[i])).collect()
    } else {
        sel
    };
    let mut group_of: HashMap<CacheKey, usize> = HashMap::new();
    // (queue index, group ordinal) of every traversal leaving the queue.
    let mut assign: Vec<(usize, usize)> = Vec::new();
    let mut n_groups = 0usize;
    for i in scan {
        let key = st.queue[i].key(epoch);
        if let Some(&g) = group_of.get(&key) {
            assign.push((i, g));
        } else if n_groups < core.lanes {
            group_of.insert(key, n_groups);
            assign.push((i, n_groups));
            n_groups += 1;
        }
    }
    core.obs.cache_coalesced.add((assign.len() - n_groups) as u64);

    // Pull assigned traversals out (descending index keeps the
    // remaining indices valid), then rebuild FIFO order per group.
    assign.sort_by_key(|&(i, _)| std::cmp::Reverse(i));
    let mut pulled: Vec<(usize, usize, Traversal)> = assign
        .into_iter()
        .map(|(i, g)| (g, i, st.queue.remove(i).expect("index in range")))
        .collect();
    pulled.sort_by_key(|&(g, i, _)| (g, i));
    let mut groups: Vec<LaneGroup> = Vec::with_capacity(n_groups);
    for (g, _, t) in pulled {
        if g == groups.len() {
            let key = t.key(epoch);
            groups.push(LaneGroup { key, primary: t, followers: Vec::new() });
        } else {
            groups[g].followers.push(t);
        }
    }

    // 4. Deadline policy: members whose query deadline already passed
    // are failed up front rather than spending cluster time on them.
    let now = Instant::now();
    let mut expired = Vec::new();
    let live = |t: &Traversal| t.deadline.is_none_or(|d| now < d);
    let mut surviving = Vec::with_capacity(groups.len());
    for g in groups {
        let LaneGroup { key, primary, followers } = g;
        let (keep, dead): (Vec<_>, Vec<_>) = followers.into_iter().partition(live);
        expired.extend(dead);
        if live(&primary) {
            surviving.push(LaneGroup { key, primary, followers: keep });
        } else {
            // The primary expired: promote the oldest live follower,
            // or drop the lane entirely.
            expired.push(primary);
            let mut members = keep.into_iter();
            if let Some(p) = members.next() {
                surviving.push(LaneGroup { key, primary: p, followers: members.collect() });
            }
        }
    }
    let groups = surviving;

    // 5. Register surviving keys as in flight so identical queries
    // submitted while the batch runs attach instead of re-queueing.
    if let Some(co) = &replica.plane.coalescer {
        let mut co = lock(co);
        for g in &groups {
            co.begin(g.key);
        }
    }

    // 6. Age everything left behind — locality packing's fairness
    // bound counts these skips.
    for t in st.queue.iter_mut() {
        t.skips = t.skips.saturating_add(1);
    }

    FormedBatch { groups, hits, index_hits, expired, epoch }
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

/// Executes one formed batch on the shared cluster, under the core's
/// exec lock — the group-wide mutual exclusion between batches,
/// commits and degradations. The epoch is re-read under the lock: a
/// cross-replica commit may have landed since formation, in which case
/// the batch runs against (and its results are keyed and labelled
/// with) the *new* snapshot — never a stale one.
fn execute_batch(core: &SharedCore, replica: &Replica, groups: Vec<LaneGroup>) {
    let mut guard = lock(&core.exec);
    let ctx = &mut *guard;
    let exec_epoch = ctx.engine.graph_epoch();
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
            Ok((br, report)) => {
                core.obs.batches_dispatched.inc();
                core.obs.retries.add(u64::from(retry));
                core.obs.record_batch(&report, br.supersteps);
                core.obs.instant("batch_done", job, retry, u64::from(br.supersteps));
                let engine = Arc::clone(&ctx.engine);
                commit_batch(
                    core, replica, groups, &br, dispatched, job, retry, exec_epoch, &engine,
                );
                return;
            }
            Err(e) => {
                if let EngineError::Cluster(ClusterError::MachinePanicked { machine, .. }) = &e {
                    if let Some(b) = ctx.blame.get_mut(*machine) {
                        *b += 1;
                        let threshold = core.config.degrade_after;
                        if threshold.is_some_and(|th| *b >= th) && ctx.engine.num_machines() > 1 {
                            degrade(core, ctx);
                            continue; // degrading does not consume a retry
                        }
                    }
                }
                if e.is_recoverable() && retry < core.config.max_retries {
                    std::thread::sleep(backoff_delay(core.config.retry_backoff, retry, job));
                    retry += 1;
                    core.obs.instant("batch_retry", job, retry, 0);
                    continue;
                }
                core.obs.retries.add(u64::from(retry));
                core.obs.instant("batch_failed", job, retry, 0);
                fail_groups(core, replica, groups, &e);
                return;
            }
        }
    }
}

/// Commits a successful batch: populates this replica's result cache
/// (this is the *only* insertion point — the engine returned `Ok`, so
/// the result is the committed, bit-identical answer; crashed, retried
/// or degraded attempts never reach here with partial state), drains
/// coalesced mid-flight waiters, and fans the result out to every
/// member of every lane group. Runs under the exec lock (the caller
/// holds it), so `exec_epoch` is *the* current epoch for the whole
/// body — results enter the cache keyed to the snapshot they actually
/// ran against, and no commit can fence the cache mid-insert.
#[allow(clippy::too_many_arguments)]
fn commit_batch(
    core: &SharedCore,
    replica: &Replica,
    mut groups: Vec<LaneGroup>,
    br: &BatchResult,
    dispatched: Instant,
    job: u64,
    retry: u32,
    exec_epoch: u64,
    engine: &crate::engine::DistributedEngine,
) {
    if let Some(cm) = &replica.plane.cache {
        // The stats fence: insertion counters and cache occupancy move
        // together, so a stats snapshot never sees one without the
        // other.
        let _gate = lock(&core.stats_gate);
        let mut inserted = 0u64;
        let mut evicted = 0u64;
        let (entries, bytes) = {
            let mut c = lock(cm);
            for (lane, g) in groups.iter().enumerate() {
                let key = CacheKey { source: g.key.source, k: g.key.k, epoch: exec_epoch };
                let mut per_level: Vec<u64> = br.per_level.iter().map(|row| row[lane]).collect();
                while per_level.last() == Some(&0) {
                    per_level.pop();
                }
                evicted += c
                    .insert(key, CachedTraversal { visited: br.per_lane_visited[lane], per_level });
                inserted += 1;
                if let Some(h) = &core.heat {
                    h.bump(replica.id, engine.partition().owner(g.key.source));
                }
            }
            (c.len() as i64, c.used_bytes() as i64)
        };
        let o = &core.obs;
        o.cache_insertions.add(inserted);
        o.cache_evictions.add(evicted);
        // Delta publication: each replica adds its change to the
        // group-wide gauges (updates happen under the exec lock,
        // so the swap/add pair is never interleaved).
        o.cache_entries.add(entries - replica.pub_entries.swap(entries, Ordering::SeqCst));
        o.cache_bytes.add(bytes - replica.pub_bytes.swap(bytes, Ordering::SeqCst));
        if inserted > 0 {
            o.instant("cache_insert", job, retry, inserted);
        }
        if evicted > 0 {
            o.instant("cache_evict", job, retry, evicted);
        }
    }
    if let Some(co) = &replica.plane.coalescer {
        // Completion uses the *formed* key — the one in-flight waiters
        // attached under. When a commit moved the epoch mid-flight,
        // late attachers formed at the new epoch simply miss and
        // re-queue for a fresh execution; nothing leaks across epochs.
        let mut co = lock(co);
        for g in &mut groups {
            g.followers.extend(co.complete(&g.key));
        }
    }
    fan_out(core, groups, br, dispatched, exec_epoch);
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
                &t.ticket,
                Ok((visited, levels.clone(), wait, exec, exec_epoch)),
            );
        }
    }
}

/// Fails every member of every lane group of a batch whose retries
/// are exhausted — including coalesced waiters that attached while it
/// ran (their keys leave the in-flight table, so resubmission gets a
/// fresh execution). Isolation means *only* these traversals fail;
/// the replica — and every sibling — keeps serving. Nothing enters
/// the result cache.
fn fail_groups(core: &SharedCore, replica: &Replica, mut groups: Vec<LaneGroup>, e: &EngineError) {
    if let Some(co) = &replica.plane.coalescer {
        let mut co = lock(co);
        for g in &mut groups {
            g.followers.extend(co.complete(&g.key));
        }
    }
    let err = ServiceError::BatchFailed(e.to_string());
    for g in groups {
        for t in std::iter::once(g.primary).chain(g.followers) {
            complete_traversal(core, &t.ticket, Err(err.clone()));
        }
    }
}

/// `(visited, per_level, wait, exec, epoch)` of one finished traversal.
type TraversalOutcome = (u64, Vec<u64>, Duration, Duration, u64);

/// Folds one traversal's outcome into its query; when the last
/// traversal lands, emits the query result (scheduler fold semantics:
/// visited = sum, per-level = elementwise sum, times = mean) and
/// records latency into the service metrics.
pub(super) fn complete_traversal(
    core: &SharedCore,
    ticket: &TicketState,
    outcome: Result<TraversalOutcome, ServiceError>,
) {
    let mut acc = lock(&ticket.acc);
    acc.done += 1;
    match outcome {
        Ok((visited, levels, wait, exec, epoch)) => {
            acc.visited += visited;
            acc.epoch = acc.epoch.max(epoch);
            if acc.per_level.len() < levels.len() {
                acc.per_level.resize(levels.len(), 0);
            }
            for (h, c) in levels.into_iter().enumerate() {
                acc.per_level[h] += c;
            }
            acc.wait_sum += wait;
            acc.exec_sum += exec;
            acc.resp_sum += wait + exec;
        }
        Err(e) => {
            acc.failed.get_or_insert(e);
        }
    }
    if acc.done < ticket.total {
        return;
    }
    let n = ticket.total as u32;
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
                id: ticket.id,
                visited: acc.visited,
                per_level: std::mem::take(&mut acc.per_level),
                response_time: response,
                exec_time: exec,
                epoch: acc.epoch,
            })
        }
    };
    // The submitter may have dropped its ticket; that is fine.
    let _ = ticket.reply.send(reply);
}
