//! The admission path, counted: what a submit touches when the cache or
//! the index already holds the answer (the *ready path*), what a ticket
//! resolves to, and that no wake-up is lost now that condvars are
//! notified only when someone is parked.
//!
//! Counts, not clocks: allocations come from a thread-local counting
//! global allocator, dispatcher wake-ups from the service's own
//! counters, orderings from completions. The harness timeout is the only
//! clock in this file. Every answer is compared with
//! [`QueryScheduler::execute`], never with another service.

use cgraph::core::EngineError;
use cgraph::obs::Obs;
use cgraph::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The system allocator, counting per thread: a test reads what *its*
/// thread allocated, whatever dispatchers and sibling tests do.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialised `Cell`s that never allocate and have no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` this thread has made so far.
fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get))
}

/// Ring backbone plus chords: traversals cross machine boundaries at
/// every hop count.
fn chordal_graph(n: u64) -> EdgeList {
    let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for v in (0..n).step_by(3) {
        edges.push((v, (v * 7 + 5) % n));
    }
    edges.into_iter().collect()
}

fn engine(n: u64) -> Arc<DistributedEngine> {
    Arc::new(DistributedEngine::new(&chordal_graph(n), EngineConfig::new(2)))
}

fn trim(mut per_level: Vec<u64>) -> Vec<u64> {
    while per_level.last() == Some(&0) {
        per_level.pop();
    }
    per_level
}

type Answer = (u64, Vec<u64>);

/// The reference: the closed-batch scheduler's answer to each query, by id.
fn reference(engine: &DistributedEngine, queries: &[KhopQuery]) -> HashMap<usize, Answer> {
    QueryScheduler::new(engine, SchedulerConfig::default())
        .execute(queries)
        .into_iter()
        .map(|r| (r.id, (r.visited, trim(r.per_level))))
        .collect()
}

fn assert_answer(got: &QueryResult, want: &Answer, what: &str) {
    assert_eq!((got.visited, got.per_level.as_slice()), (want.0, want.1.as_slice()), "{what}");
}

fn cached() -> QueryPlaneConfig {
    QueryPlaneConfig { cache_capacity_bytes: Some(1 << 20), ..Default::default() }
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics.counter(name, "").get()
}

const WAKEUPS: &str = "cgraph_service_dispatcher_wakeups_total";
const IDLE_WAKEUPS: &str = "cgraph_service_dispatcher_idle_wakeups_total";

/// What one ready answer may allocate on the submitting thread: the
/// query's source list (the caller's `KhopQuery::single`), the ticket,
/// and the answer's level profile.
const ALLOCATIONS_PER_ANSWER: u64 = 3;
const BYTES_PER_ANSWER: u64 = 400;

/// Submits `rounds` single-source queries over `sources`, each of which
/// must be answered when `submit` returns, and returns how many of them
/// went over the allocation budget above.
fn ready_stream(
    group: &ServiceGroup,
    sources: &[u64],
    k: u32,
    want: &HashMap<u64, Answer>,
    rounds: usize,
) -> usize {
    let mut over_budget = 0;
    for i in 0..rounds {
        let source = sources[i % sources.len()];
        let (a0, b0) = allocated();
        let ticket = group.submit(KhopQuery::single(i, source, k)).expect("admission");
        // Ready the first time it is asked — never `None` first.
        let got = ticket.try_wait().expect("answered at admission").expect("answer");
        drop(ticket);
        let (a1, b1) = allocated();
        over_budget += usize::from(a1 - a0 > ALLOCATIONS_PER_ANSWER || b1 - b0 > BYTES_PER_ANSWER);
        let w = &want[&source];
        assert!(got.visited == w.0 && got.per_level == w.1, "source {source}: {got:?} != {w:?}");
    }
    over_budget
}

fn by_source(engine: &DistributedEngine, sources: &[u64], k: u32) -> HashMap<u64, Answer> {
    let queries: Vec<_> =
        sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();
    let by_id = reference(engine, &queries);
    sources.iter().enumerate().map(|(i, &s)| (s, by_id[&i].clone())).collect()
}

#[test]
fn a_cache_hit_costs_three_allocations_and_wakes_nobody() {
    const HITS: usize = 10_000;
    const MISSES: usize = 2_000;
    let n = 1024u64;
    let engine = engine(n);
    let obs = Obs::shared();
    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                query_plane: cached(),
                obs: Some(Arc::clone(&obs)),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let hot: Vec<u64> = (0..64).map(|i| i * 16 + 3).collect();
    let want = by_source(&engine, &hot, 3);
    for (i, &s) in hot.iter().enumerate() {
        assert_answer(&group.query(KhopQuery::single(i, s, 3)).unwrap(), &want[&s], "warm-up");
    }

    let before = group.stats();
    let woken = counter(&obs, WAKEUPS);
    let over_budget = ready_stream(&group, &hot, 3, &want, HITS);
    let after = group.stats();
    assert_eq!(after.cache_hits - before.cache_hits, HITS as u64, "every one a cache hit");
    assert_eq!(after.batches_dispatched, before.batches_dispatched);
    assert_eq!(
        over_budget, 0,
        "{over_budget} of {HITS} cache hits allocated more than {ALLOCATIONS_PER_ANSWER} times \
         or {BYTES_PER_ANSWER} bytes"
    );
    assert_eq!(counter(&obs, WAKEUPS), woken, "a hit must not wake a dispatcher");

    // Misses, one in flight at a time: each is a batch of its own, and
    // a batch costs its dispatcher at most one wake-up.
    let misses: Vec<KhopQuery> = (0..MISSES)
        .map(|i| KhopQuery::single(i, (i as u64 * 7 + 1) % n, 4 + (i / 1024) as u32))
        .collect();
    let want = reference(&engine, &misses);
    let idle = counter(&obs, IDLE_WAKEUPS);
    for q in &misses {
        assert_answer(&group.query(q.clone()).unwrap(), &want[&q.id], "miss");
    }
    let end = group.stats();
    let batches = end.batches_dispatched - after.batches_dispatched;
    assert_eq!(end.cache_hits, after.cache_hits, "the miss stream repeated a key");
    assert_eq!(batches, MISSES as u64);
    let woken_by_misses = counter(&obs, WAKEUPS) - woken;
    assert!(woken_by_misses <= batches, "{woken_by_misses} wake-ups for {batches} batches");
    assert_eq!(counter(&obs, IDLE_WAKEUPS), idle, "a dispatcher woke to nothing");
    group.shutdown();
}

#[test]
fn an_index_only_answer_costs_three_allocations_and_wakes_nobody() {
    const HITS: usize = 10_000;
    let engine = engine(1024);
    let builder = BoundaryIndexBuilder::new(IndexConfig { hops: 16, ..Default::default() });
    let tier = builder.build_tier(&engine).expect("index build");
    let covered: Vec<u64> =
        tier.sources().iter().copied().filter(|&s| tier.answer(s, 3).is_some()).take(64).collect();
    assert!(!covered.is_empty(), "the partitioning left no boundary source to index");
    let want = by_source(&engine, &covered, 3);

    let obs = Obs::shared();
    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                index: Some(Arc::new(builder)),
                obs: Some(Arc::clone(&obs)),
                // Already expired at admission: a reply that is in the
                // slot wins over the ticket's deadline.
                query_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let woken = counter(&obs, WAKEUPS);
    let over_budget = ready_stream(&group, &covered, 3, &want, HITS);
    let stats = group.stats();
    assert_eq!(stats.index_only_answers, HITS as u64, "every one index-only");
    assert_eq!(stats.batches_dispatched, 0);
    assert_eq!(
        over_budget, 0,
        "{over_budget} of {HITS} index-only answers allocated more than \
         {ALLOCATIONS_PER_ANSWER} times or {BYTES_PER_ANSWER} bytes"
    );
    assert_eq!(counter(&obs, WAKEUPS), woken, "an index-only answer must not wake a dispatcher");
    group.shutdown();
}

#[test]
fn a_ticket_answered_at_admission_does_not_park() {
    let engine = engine(96);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { query_plane: cached(), ..Default::default() },
    );
    let want = by_source(&engine, &[5], 3);
    assert_answer(&service.query(KhopQuery::single(0, 5, 3)).unwrap(), &want[&5], "warm-up");
    // Nothing will ever notify this ticket again: `wait` returning at
    // all is `wait` not having parked.
    let ticket = service.submit(KhopQuery::single(1, 5, 3)).unwrap();
    assert_eq!(service.stats().cache_hits, 1);
    assert_answer(&ticket.wait().unwrap(), &want[&5], "hit");
    service.shutdown();
}

#[test]
fn an_expired_deadline_reads_deadline_exceeded_from_both() {
    let service = QueryService::start(
        engine(96),
        ServiceConfig {
            // Held queued by the linger; expired the instant it was admitted.
            max_batch_delay: Duration::from_secs(3600),
            query_deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    let ticket = service.submit(KhopQuery::single(0, 5, 3)).unwrap();
    assert_eq!(ticket.try_wait(), Some(Err(ServiceError::DeadlineExceeded)));
    assert_eq!(ticket.wait(), Err(ServiceError::DeadlineExceeded));
    service.shutdown();
}

/// An index that answers nothing, from a builder whose second build —
/// the first commit's — panics on the dispatcher thread.
struct NoIndex(u64);

impl ReachIndex for NoIndex {
    fn epoch(&self) -> u64 {
        self.0
    }
    fn answer(&self, _source: VertexId, _k: u32) -> Option<IndexAnswer> {
        None
    }
    fn size_bytes(&self) -> usize {
        0
    }
    fn num_sources(&self) -> usize {
        0
    }
}

struct DiesAtFirstCommit(AtomicUsize);

impl IndexBuilder for DiesAtFirstCommit {
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError> {
        assert_eq!(self.0.fetch_add(1, Ordering::SeqCst), 0, "scripted dispatcher death");
        Ok(Arc::new(NoIndex(engine.graph_epoch())))
    }
}

#[test]
fn traversals_dropped_unanswered_read_shutdown_and_wake_a_parked_waiter() {
    let service = QueryService::start(
        engine(96),
        ServiceConfig {
            max_batch_delay: Duration::from_secs(3600),
            index: Some(Arc::new(DiesAtFirstCommit(AtomicUsize::new(0)))),
            ..Default::default()
        },
    );
    // Two queries held queued by the linger: one polled, one waited on.
    let polled = service.submit(KhopQuery::single(0, 5, 3)).unwrap();
    let waited = service.submit(KhopQuery::multi(1, vec![7, 9], 2)).unwrap();
    assert_eq!(polled.try_wait(), None);
    let (about_to_wait, told) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        about_to_wait.send(()).unwrap();
        waited.wait()
    });
    told.recv().unwrap();
    // The commit's index rebuild kills the dispatcher, queue unserved.
    assert_eq!(service.commit_epoch(), Err(ServiceError::ShutDown));
    assert_eq!(polled.try_wait(), None, "its traversal is still queued, if on a dead replica");
    // Dropping the service drops the queue: the last handle of each
    // ticket goes unanswered.
    drop(service);
    assert_eq!(waiter.join().unwrap(), Err(ServiceError::ShutDown));
    assert_eq!(polled.try_wait(), Some(Err(ServiceError::ShutDown)));
    assert_eq!(polled.wait(), Err(ServiceError::ShutDown));
}

#[test]
fn a_query_half_answered_at_admission_folds_to_the_reference() {
    let engine = engine(96);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { query_plane: cached(), ..Default::default() },
    );
    let queries = [KhopQuery::single(0, 11, 4), KhopQuery::multi(1, vec![11, 40, 11, 73], 4)];
    let want = reference(&engine, &queries);
    assert_answer(&service.query(queries[0].clone()).unwrap(), &want[&0], "warm-up");
    let before = service.stats();
    let got = service.query(queries[1].clone()).unwrap();
    assert_answer(&got, &want[&1], "two sources from the cache, two from a batch");
    let after = service.stats();
    assert_eq!(after.cache_hits - before.cache_hits, 2);
    assert_eq!(after.batches_dispatched - before.batches_dispatched, 1);
    service.shutdown();
}

#[test]
fn alternating_hits_and_misses_lose_no_wakeup() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 5_000;
    let n = (ROUNDS / 2) as u64;
    let engine = engine(n);
    // One replica, linger zero (the default): the dispatcher parks
    // between any two misses it can, so every miss races a park.
    let service = Arc::new(QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { query_plane: cached(), ..Default::default() },
    ));
    // Thread `t` misses on `(i, k = t + 2)` — a key nobody else asks —
    // and hits on the one key warmed below.
    let keys: Vec<KhopQuery> = (0..THREADS * ROUNDS / 2)
        .map(|id| KhopQuery::single(id, id as u64 % n, (id as u64 / n) as u32 + 2))
        .collect();
    let want = Arc::new(reference(&engine, &keys));
    let hot = by_source(&engine, &[1], 1).remove(&1).unwrap();
    assert_answer(&service.query(KhopQuery::single(0, 1, 1)).unwrap(), &hot, "warm-up");

    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let (service, want, hot) = (Arc::clone(&service), Arc::clone(&want), hot.clone());
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    if i % 2 == 0 {
                        let got = service.query(KhopQuery::single(i, 1, 1)).unwrap();
                        assert_answer(&got, &hot, "hit");
                    } else {
                        let id = t * (ROUNDS / 2) + i / 2;
                        let q = KhopQuery::single(id, id as u64 % n, t as u32 + 2);
                        assert_answer(&service.query(q).unwrap(), &want[&id], "miss");
                    }
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.queries_completed, (THREADS * ROUNDS) as u64 + 1);
    assert_eq!(stats.queries_failed, 0);
    service.shutdown();
}

#[test]
fn a_commit_beside_a_pure_hit_stream_returns() {
    let engine = engine(96);
    let service = Arc::new(QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { query_plane: cached(), ..Default::default() },
    ));
    let want = by_source(&engine, &[5], 3).remove(&5).unwrap();
    assert_answer(&service.query(KhopQuery::single(0, 5, 3)).unwrap(), &want, "warm-up");
    for i in 0..1_000 {
        let ticket = service.submit(KhopQuery::single(i, 5, 3)).unwrap();
        assert_answer(&ticket.try_wait().expect("a hit").unwrap(), &want, "hit");
    }
    // The dispatcher has been parked since the warm-up and no submit
    // has grown its queue since: only the commit's own notify wakes it.
    let committer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.commit_epoch())
    };
    // The stream goes on beside it (an empty commit changes no answer;
    // past the fence these are misses, which is fine).
    let mut i = 1_000;
    while !committer.is_finished() {
        assert_answer(&service.query(KhopQuery::single(i, 5, 3)).unwrap(), &want, "beside");
        i += 1;
    }
    assert_eq!(committer.join().unwrap(), Ok(1));
    service.shutdown();
}

#[test]
fn backpressure_is_for_what_needs_a_queue_slot() {
    let engine = engine(96);
    let obs = Obs::shared();
    let queued = || obs.metrics.gauge("cgraph_service_queue_depth", "").get();
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            // A batch starts once two traversals are queued — or when
            // this linger runs out, long after the test is over. Should
            // the hit below ever wait for queue space again, the linger
            // is what ends the wait, and the ordering check fails.
            scheduler: SchedulerConfig { batch_lanes: 2, ..Default::default() },
            max_batch_delay: Duration::from_secs(30),
            max_queue_depth: 1,
            query_plane: cached(),
            obs: Some(Arc::clone(&obs)),
            ..Default::default()
        },
    );
    let queries = [
        KhopQuery::multi(0, vec![5, 50], 3),
        KhopQuery::single(1, 20, 3),
        KhopQuery::single(2, 5, 3),
    ];
    let want = reference(&engine, &queries);
    // Two traversals fill a batch at once, and leave two keys cached.
    assert_answer(&service.query(queries[0].clone()).unwrap(), &want[&0], "warm-up");
    // One miss: queued, lingering for a second lane, and the queue is full.
    let miss = service.submit(queries[1].clone()).unwrap();
    assert_eq!((miss.try_wait(), queued()), (None, 1));
    // The cache holds this one: it needs no slot and waits for none.
    let hit = service.submit(queries[2].clone()).unwrap();
    assert_answer(&hit.try_wait().expect("answered at admission").unwrap(), &want[&2], "hit");
    // Formation takes the miss off the queue before it frees its slot:
    // a hit that had waited for the slot would find the gauge at 0.
    assert_eq!((miss.try_wait(), queued()), (None, 1), "the hit waited for the miss's slot");
    // Validation does not wait for space either.
    let bad = service.submit(KhopQuery::single(3, 96, 3)).unwrap_err();
    assert!(matches!(bad, ServiceError::InvalidQuery(_)), "{bad:?}");
    // Closing drains the miss at once, and refuses hit and miss alike.
    service.shutdown();
    assert_answer(&miss.wait().unwrap(), &want[&1], "miss");
    assert_eq!(service.submit(queries[2].clone()).unwrap_err(), ServiceError::ShutDown);
    assert_eq!(service.submit(KhopQuery::single(4, 21, 3)).unwrap_err(), ServiceError::ShutDown);
}
