//! Streaming equivalence: the persistent [`QueryService`] must return
//! exactly what the closed-batch [`QueryScheduler`] returns for the
//! same queries — same reach counts, same per-level profiles — no
//! matter how many submitter threads race, how the stream gets packed
//! into batches, how many front-ends admit it, how many machines serve
//! it, or which update mode the engine runs.
//!
//! Below that: batch formation. A batch is formed once, by the group's
//! one dispatcher, from everything the group has queued —
//! checked on running groups (one batch from every queue, the lane cap,
//! a key queued twice, a flooded sibling, a commit beside saturating
//! submitters) and on the formation step itself as a pure function
//! ([`cgraph::cache::plan_batch`]). Every answer is compared with
//! [`QueryScheduler::execute`], the sequential reference.

use cgraph::cache::{plan_batch, Fate, FormItem, FormPolicy, PackPolicy};
use cgraph::obs::{parse_text, Obs, TraceSink};
use cgraph::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic but irregular query mix: single- and multi-source,
/// varying k, sources spread over the vertex range.
fn query_mix(n_queries: usize, n_vertices: u64) -> Vec<KhopQuery> {
    (0..n_queries)
        .map(|i| {
            let base = (i as u64 * 13) % n_vertices;
            let k = (i % 5) as u32 + 1;
            if i % 3 == 0 {
                let s2 = (base + n_vertices / 2) % n_vertices;
                let s3 = (base + 7) % n_vertices;
                KhopQuery::multi(i, vec![base, s2, s3], k)
            } else {
                KhopQuery::single(i, base, k)
            }
        })
        .collect()
}

/// Power-law-ish deterministic graph: ring backbone plus long chords,
/// so traversals cross machine boundaries at every hop count.
fn chordal_graph(n: u64) -> EdgeList {
    let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for v in (0..n).step_by(3) {
        edges.push((v, (v * 7 + 5) % n));
    }
    for v in (0..n).step_by(11) {
        edges.push(((v * 3) % n, v));
    }
    edges.into_iter().collect()
}

/// Drops the trailing all-zero levels a batch pads onto its shallower
/// lanes (the service already reports the trimmed form).
fn trim(mut per_level: Vec<u64>) -> Vec<u64> {
    while per_level.last() == Some(&0) {
        per_level.pop();
    }
    per_level
}

fn check_equivalence(p: usize, asynchronous: bool, submitters: usize) {
    for replicas in [1, 2] {
        check_group_equivalence(p, asynchronous, submitters, replicas);
    }
}

fn check_group_equivalence(p: usize, asynchronous: bool, submitters: usize, replicas: usize) {
    let n = 120u64;
    let graph = chordal_graph(n);
    let config =
        if asynchronous { EngineConfig::new(p).asynchronous() } else { EngineConfig::new(p) };
    let engine = Arc::new(DistributedEngine::new(&graph, config));
    let queries = query_mix(40, n);

    // The scheduler pads a lane's level vector to its batch's depth;
    // the service reports the packing-invariant (trimmed) profile, so
    // compare trimmed.
    let expected: HashMap<usize, (u64, Vec<u64>)> =
        QueryScheduler::new(&engine, SchedulerConfig::default())
            .execute(&queries)
            .into_iter()
            .map(|r| (r.id, (r.visited, trim(r.per_level))))
            .collect();

    // A short linger, so the open stream exercises both lingering and
    // immediately-due formation, over one queue and over two.
    let service = Arc::new(ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas,
            service: ServiceConfig {
                max_batch_delay: Duration::from_micros(300),
                ..Default::default()
            },
            ..Default::default()
        },
    ));

    // N submitter threads race interleaved slices of the stream.
    let mut handles = Vec::new();
    for t in 0..submitters {
        let service = Arc::clone(&service);
        let mine: Vec<KhopQuery> = queries.iter().skip(t).step_by(submitters).cloned().collect();
        handles.push(std::thread::spawn(move || {
            mine.into_iter()
                .map(|q| {
                    let id = q.id;
                    let r = q.clone();
                    let got = service.query(q).unwrap_or_else(|e| {
                        panic!("query {id} ({r:?}) failed: {e}");
                    });
                    (id, (got.visited, got.per_level))
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut got: HashMap<usize, (u64, Vec<u64>)> = HashMap::new();
    for h in handles {
        got.extend(h.join().expect("submitter thread panicked"));
    }

    assert_eq!(got.len(), expected.len());
    for (id, exp) in &expected {
        assert_eq!(
            got.get(id),
            Some(exp),
            "query {id} diverged (p={p}, async={asynchronous}, submitters={submitters}, \
             replicas={replicas})"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.queries_completed, queries.len() as u64);
    assert_eq!(stats.queries_failed, 0);
    assert_eq!(stats.response.len(), queries.len());
    // Response = admission wait + exec, so the whole distribution must
    // dominate the exec distribution rank by rank.
    for (r, e) in stats.response.sorted().iter().zip(stats.exec.sorted()) {
        assert!(r >= e, "response {r:?} < exec {e:?}");
    }
    service.shutdown();
}

#[test]
fn service_equals_scheduler_p1_sync() {
    check_equivalence(1, false, 4);
}

#[test]
fn service_equals_scheduler_p2_sync() {
    check_equivalence(2, false, 4);
}

#[test]
fn service_equals_scheduler_p4_sync() {
    check_equivalence(4, false, 3);
}

#[test]
fn service_equals_scheduler_p1_async() {
    check_equivalence(1, true, 4);
}

#[test]
fn service_equals_scheduler_p2_async() {
    check_equivalence(2, true, 4);
}

#[test]
fn service_equals_scheduler_p4_async() {
    check_equivalence(4, true, 3);
}

#[test]
fn service_respects_memory_budget_lane_narrowing() {
    let graph = chordal_graph(400);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(2)));
    let full_bytes = QueryScheduler::new(&engine, SchedulerConfig::default()).batch_state_bytes();
    let scheduler_cfg =
        SchedulerConfig { memory_budget_bytes: Some(full_bytes / 4), ..Default::default() };
    let narrowed = QueryScheduler::new(&engine, scheduler_cfg).effective_lanes();
    assert!((1..64).contains(&narrowed), "lanes = {narrowed}");

    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { scheduler: scheduler_cfg, ..Default::default() },
    );
    assert_eq!(service.effective_lanes(), narrowed);

    // More queries than the narrowed width: forced multi-batch, counts
    // still exact.
    let queries = query_mix(2 * narrowed + 3, 400);
    let expected = QueryScheduler::new(&engine, scheduler_cfg).execute(&queries);
    for (q, exp) in queries.iter().zip(&expected) {
        let got = service.query(q.clone()).unwrap();
        assert_eq!(got.visited, exp.visited, "query {}", q.id);
        assert_eq!(got.per_level, trim(exp.per_level.clone()), "query {}", q.id);
    }
    service.shutdown();
}

// ---------------------------------------------------------------------
// Group-wide batch formation
// ---------------------------------------------------------------------

/// Long enough that everything a test submits in one go is queued
/// before the first dispatcher's linger runs out.
const LINGER: Duration = Duration::from_millis(50);

/// A group of `replicas` front-ends over `chordal_graph(n)` on two
/// machines, lingering [`LINGER`], with an observability bundle.
fn lingering_group(
    n: u64,
    replicas: usize,
    query_plane: QueryPlaneConfig,
) -> (Arc<DistributedEngine>, ServiceGroup, Arc<Obs>) {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(n), EngineConfig::new(2)));
    let obs = Obs::shared();
    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas,
            service: ServiceConfig {
                max_batch_delay: LINGER,
                query_plane,
                obs: Some(Arc::clone(&obs)),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    (engine, group, obs)
}

/// `(visited, trimmed per-level)` of each query, from the sequential
/// reference.
fn reference(engine: &DistributedEngine, queries: &[KhopQuery]) -> Vec<(u64, Vec<u64>)> {
    QueryScheduler::new(engine, SchedulerConfig::default())
        .execute(queries)
        .into_iter()
        .map(|r| (r.visited, trim(r.per_level)))
        .collect()
}

/// Lanes of every dispatched batch, in job order, from the trace.
fn dispatched_lanes(obs: &Obs) -> Vec<u64> {
    TraceSink::render(&obs.trace.drain())
        .lines()
        .filter(|l| l.contains(" instant batch_dispatch "))
        .map(|l| l.rsplit("value=").next().unwrap().parse().unwrap())
        .collect()
}

#[test]
fn a_lingering_group_forms_one_batch_from_every_queue() {
    for replicas in [2, 3] {
        let (engine, group, _obs) = lingering_group(120, replicas, QueryPlaneConfig::default());
        let queries: Vec<KhopQuery> =
            (0..10).map(|i| KhopQuery::single(i, (i as u64 * 11) % 120, 3)).collect();
        let expected = reference(&engine, &queries);
        // Alternately to each front-end, bypassing the router.
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| group.replica(q.id % replicas).submit(q.clone()).unwrap())
            .collect();
        for (t, exp) in tickets.into_iter().zip(&expected) {
            let got = t.wait().unwrap();
            assert_eq!(&(got.visited, got.per_level), exp, "replicas={replicas}");
        }
        assert_eq!(group.stats().batches_dispatched, 1, "replicas={replicas}");
        group.shutdown();
    }
}

#[test]
fn a_backlog_past_the_cap_splits_at_the_cap() {
    let (engine, group, obs) = lingering_group(400, 2, QueryPlaneConfig::default());
    assert_eq!(group.effective_lanes(), 128);
    let queries: Vec<KhopQuery> = (0..200).map(|i| KhopQuery::single(i, i as u64 * 2, 2)).collect();
    let expected = reference(&engine, &queries);
    let tickets: Vec<_> = queries.iter().map(|q| group.submit(q.clone()).unwrap()).collect();
    for (t, exp) in tickets.into_iter().zip(&expected) {
        let got = t.wait().unwrap();
        assert_eq!(&(got.visited, got.per_level), exp);
    }
    assert_eq!(group.stats().batches_dispatched, 2);
    group.shutdown();
    // The backlog reaching the cap ends the linger: a full batch, then
    // the rest once *its* linger is over.
    assert_eq!(dispatched_lanes(&obs), [128, 72]);
    let snap = parse_text(&obs.metrics.render_text()).unwrap();
    let lanes = &snap.histograms["cgraph_service_batch_lanes"];
    assert_eq!((lanes.count, lanes.sum), (2, 200.0));
    // The last finite edge is the cap, and nothing lies beyond it.
    let cap = lanes.buckets[lanes.buckets.len() - 2];
    assert_eq!(cap, (128.0, 2), "{:?}", lanes.buckets);
}

#[test]
fn a_key_queued_on_two_replicas_takes_one_lane() {
    let plane = QueryPlaneConfig { cache_capacity_bytes: Some(1 << 20), ..Default::default() };
    let (engine, group, obs) = lingering_group(120, 2, plane);
    let expected = reference(&engine, &[KhopQuery::single(0, 17, 3)]);
    let tickets: Vec<_> =
        (0..2).map(|r| group.replica(r).submit(KhopQuery::single(r, 17, 3)).unwrap()).collect();
    for t in tickets {
        let got = t.wait().unwrap();
        assert_eq!((got.visited, got.per_level), expected[0]);
    }
    let s = group.stats();
    assert_eq!((s.batches_dispatched, s.coalesced_traversals), (1, 1));
    // One lane ran; each front-end that queued the key caches it.
    assert_eq!((s.cache_insertions, s.cache_entries), (2, 2));
    for r in 0..2 {
        let again = group.replica(r).query(KhopQuery::single(2 + r, 17, 3)).unwrap();
        assert_eq!((again.visited, again.per_level), expected[0]);
    }
    let s = group.stats();
    assert_eq!((s.batches_dispatched, s.cache_hits), (1, 2));
    group.shutdown();
    assert_eq!(dispatched_lanes(&obs), [1]);
}

/// Four threads that keep `replica` of `group` busy with blocking
/// queries until `stop` is set; returns their handles.
fn saturate(
    group: &Arc<ServiceGroup>,
    replica: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..4usize)
        .map(|t| {
            let (group, stop) = (Arc::clone(group), Arc::clone(stop));
            std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::SeqCst) {
                    let q = KhopQuery::single(i, (i as u64 * 7) % 120, 3);
                    group.replica(replica).query(q).expect("a saturating query");
                    i += 4;
                }
            })
        })
        .collect()
}

/// The median of how many batches were dispatched across each probe.
/// A probing thread can lose the processor between its two reads of
/// the counter, which only ever adds batches to one probe; a formation
/// bug adds them to every probe.
fn median(mut spans: Vec<u64>) -> u64 {
    spans.sort_unstable();
    spans[spans.len() / 2]
}

#[test]
fn a_flooded_replica_does_not_starve_its_sibling() {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(120), EngineConfig::new(2)));
    let expected = reference(&engine, &[KhopQuery::single(0, 5, 4)]);
    let group = Arc::new(ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig { replicas: 2, ..Default::default() },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let flood = saturate(&group, 0, &stop);
    let spans = (0..31).map(|i| {
        let before = group.stats().batches_dispatched;
        let got = group.replica(1).query(KhopQuery::single(i, 5, 4)).unwrap();
        let after = group.stats().batches_dispatched;
        assert_eq!((got.visited, got.per_level), expected[0]);
        after - before
    });
    // The batch in flight when the sibling's query arrives, then the
    // one it rides: the one dispatcher serves every queue.
    let waited = median(spans.collect());
    stop.store(true, Ordering::SeqCst);
    for h in flood {
        h.join().unwrap();
    }
    assert!(waited <= 2, "the sibling's query waited {waited} batches");
    group.shutdown();
}

#[test]
fn a_commit_beside_saturating_submitters_lands_within_two_batches() {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(120), EngineConfig::new(2)));
    let expected = reference(&engine, &[KhopQuery::single(0, 9, 3)]);
    let group = Arc::new(ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig { replicas: 2, ..Default::default() },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let mut busy = saturate(&group, 0, &stop);
    busy.extend(saturate(&group, 1, &stop));
    let spans = (0..21).map(|i| {
        let before = group.stats().batches_dispatched;
        let epoch = group.commit_epoch().unwrap();
        let after = group.stats().batches_dispatched;
        assert_eq!(epoch, i as u64 + 1);
        // Admitted after the commit returned: answered at the new epoch
        // (this thread is the only committer).
        let got = group.replica(i % 2).query(KhopQuery::single(i, 9, 3)).unwrap();
        assert_eq!(got.epoch, epoch);
        assert_eq!((got.visited, got.per_level), expected[0]);
        after - before
    });
    // The dispatcher commits at its batch boundary: the batch in flight
    // when the request arrives, at most one more that was already past
    // the check.
    let waited = median(spans.collect());
    stop.store(true, Ordering::SeqCst);
    for h in busy {
        h.join().unwrap();
    }
    assert!(waited <= 2, "the commit waited {waited} batches");
    group.shutdown();
}

/// Per-replica queues for the formation step: a few distinct keys so
/// duplicates are common, arrival stamps non-decreasing along each
/// queue, and some traversals already answerable or already expired.
fn queues_strategy() -> impl Strategy<Value = Vec<Vec<FormItem>>> {
    let item = ((0u64..12, 1u32..3, 0u64..4), (0usize..3, 0u32..6, 0u32..8, 0u32..8));
    prop::collection::vec(prop::collection::vec(item, 0..60), 1..4).prop_map(|queues| {
        queues
            .into_iter()
            .map(|q| {
                let mut age = 0;
                q.into_iter()
                    .map(|((source, k, gap), (partition, skips, hit, expired))| {
                        age += gap;
                        FormItem {
                            key: (source, k),
                            age,
                            partition,
                            skips,
                            hit: hit == 0,
                            expired: expired == 0,
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn formation_accounts_for_every_queued_traversal(
        queues in queues_strategy(),
        cap in 1usize..131,
        locality in any::<bool>(),
        deep in any::<bool>(),
    ) {
        let policy = FormPolicy {
            cap,
            locality: locality.then_some(PackPolicy { fairness_bound: 4 }),
            deep,
        };
        let plan = plan_batch(&queues, policy);

        // Every queued traversal has exactly one fate (the type says
        // "one"; the shape says "every").
        prop_assert_eq!(plan.fates.len(), queues.len());
        let mut primaries: HashMap<usize, (u64, u32)> = HashMap::new();
        let mut lane_keys: HashSet<(u64, u32)> = HashSet::new();
        for (q, fates) in queues.iter().zip(&plan.fates) {
            prop_assert_eq!(fates.len(), q.len());
            for (it, fate) in q.iter().zip(fates) {
                // Hits and expiries are decided by the traversal alone:
                // a hit is answered even past its deadline, and neither
                // ever takes a lane or stays behind.
                prop_assert_eq!(*fate == Fate::Hit, it.hit);
                prop_assert_eq!(*fate == Fate::Expired, it.expired && !it.hit);
                if let Fate::Primary(lane) = *fate {
                    prop_assert!(primaries.insert(lane, it.key).is_none(), "lane {} twice", lane);
                    prop_assert!(lane_keys.insert(it.key), "key {:?} holds two lanes", it.key);
                }
            }
        }
        // Lanes are dense, within the cap, and each has its primary.
        prop_assert!(plan.lanes <= cap);
        prop_assert_eq!(primaries.len(), plan.lanes);
        prop_assert!((0..plan.lanes).all(|l| primaries.contains_key(&l)));

        let mut newest_taken = None;
        let mut oldest_left = None;
        let riders = plan.fates.iter().flatten();
        let riders = riders.filter(|f| matches!(f, Fate::Primary(_) | Fate::Follower(_))).count();
        for (q, fates) in queues.iter().zip(&plan.fates) {
            for (it, fate) in q.iter().zip(fates) {
                match *fate {
                    Fate::Follower(lane) => {
                        prop_assert_eq!(primaries.get(&lane), Some(&it.key));
                    }
                    Fate::Primary(_) => newest_taken = newest_taken.max(Some(it.age)),
                    Fate::Queued => {
                        oldest_left = Some(oldest_left.map_or(it.age, |a: u64| a.min(it.age)));
                        // Nothing is left behind beside room: the
                        // window of `cap` traversals is full, and under
                        // `deep` so are the lanes, with every duplicate
                        // of a running key aboard.
                        prop_assert!(riders >= cap);
                        prop_assert!(!deep || plan.lanes == cap);
                        prop_assert!(!(deep && lane_keys.contains(&it.key)));
                    }
                    Fate::Hit | Fate::Expired => {}
                }
            }
        }
        // FIFO leaves nothing older than what it took.
        if let (false, Some(taken), Some(left)) = (locality, newest_taken, oldest_left) {
            prop_assert!(taken <= left, "took age {} and left age {}", taken, left);
        }
    }
}
