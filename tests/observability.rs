//! Observability plane: determinism of the trace log, soundness of the
//! metrics exposition, layer coverage of the registry, and the
//! OBSERVABILITY.md catalogue contract.
//!
//! The tests drive real chaos workloads through a live [`QueryService`]
//! — the same wiring `cgraph serve --metrics --trace-out` uses — and
//! check the promises the operator surface makes: identical seeds give
//! byte-identical trace logs, `render_text` output parses back
//! losslessly, counters are monotone across snapshots, the registry is
//! the one counter store (observed or not, sampled or not), what the
//! service publishes of its own structures equals the `ServiceStats`
//! line, and every registered metric family is documented.

use cgraph::core::metrics::RESERVOIR_TRIPLES;
use cgraph::obs::{parse_text, Obs, Snapshot, TraceSink};
use cgraph::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Ring + chords: multi-hop traversals that cross machine boundaries.
fn test_graph(n: u64) -> EdgeList {
    let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for v in (0..n).step_by(5) {
        edges.push((v, (v * 3 + 7) % n));
    }
    edges.into_iter().collect()
}

/// Runs a fixed chaos workload (a scripted crash on the first batch,
/// healing after one failed attempt) through a fresh service and
/// returns the service handle's final stats plus the shared bundle.
/// Queries are submitted strictly sequentially — one multi-source
/// query per batch — so batch packing, and therefore the trace, is
/// deterministic.
fn run_chaos_workload(obs: &Arc<Obs>) -> ServiceStats {
    let g = test_graph(60);
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(3)));
    let plan = FaultPlan::new(7).crash(1, 1).heal_after(1).arm_jobs(0..1);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            fault_plan: Some(plan),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 3 },
            obs: Some(Arc::clone(obs)),
            ..Default::default()
        },
    );
    for i in 0..4u64 {
        let q = KhopQuery::multi(i as usize, vec![i, (i + 30) % 60, (i * 7 + 3) % 60], 4);
        service.query(q).expect("chaos heals; every query must succeed");
    }
    let stats = service.stats();
    service.shutdown();
    stats
}

#[test]
fn identical_seeds_give_byte_identical_trace_logs() {
    let run = || {
        let obs = Obs::shared();
        run_chaos_workload(&obs);
        TraceSink::render(&obs.trace.drain())
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "chaos workload must leave a trace");
    assert_eq!(a, b, "identical seeds must render identical trace logs");
    // The log tells the recovery story: the scripted crash, the
    // recovery action it forced, and the batch completing afterwards.
    assert!(a.contains(" instant crash "), "missing crash event:\n{a}");
    assert!(
        a.contains("replay_partition") || a.contains("full_rollback"),
        "missing recovery event:\n{a}"
    );
    assert!(a.contains(" enter superstep "), "missing superstep spans:\n{a}");
    assert!(a.contains(" instant batch_done "), "missing batch completion:\n{a}");
}

#[test]
fn metrics_exposition_parses_back_and_counters_are_monotone() {
    let obs = Obs::shared();
    run_chaos_workload(&obs);
    let first = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    run_chaos_workload(&obs); // same registry, second pass
    let second = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");

    assert!(!first.counters.is_empty() && !first.histograms.is_empty());
    for (series, v1) in &first.counters {
        let v2 = second.counters.get(series).expect("counter series must persist");
        assert!(v2 >= v1, "counter {series} went backwards: {v1} -> {v2}");
    }
    for snap in [&first, &second] {
        for (name, h) in &snap.histograms {
            // Cumulative buckets end at the +Inf bucket == _count, and
            // never decrease along the edge sequence.
            assert!(h.buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{name} not cumulative");
            let (last_edge, last_cum) = *h.buckets.last().expect("histogram has buckets");
            assert_eq!(last_edge, f64::INFINITY, "{name} missing +Inf bucket");
            assert_eq!(last_cum, h.count, "{name}: +Inf bucket must equal _count");
        }
    }
}

/// What the service *tallies* has one home: `ServiceStats` reads the
/// registry's own atomics, so there is nothing to reconcile there. What
/// is left to check is what the service *publishes* — structures that
/// are their own count (cache occupancy, index size, pending depth,
/// overlay size, the durability plane's counters), which `stats()`
/// reads directly and the registry is told about wherever they change.
fn assert_registry_matches_stats(snap: &Snapshot, stats: &ServiceStats) {
    let c = |name: &str| snap.counter_family(name);
    assert_eq!(snap.gauges["cgraph_cache_entries"], stats.cache_entries as i64);
    assert_eq!(snap.gauges["cgraph_cache_bytes"], stats.cache_bytes as i64);
    assert_eq!(snap.gauges["cgraph_index_sources"], stats.index_sources as i64);
    assert_eq!(snap.gauges["cgraph_index_bytes"], stats.index_bytes as i64);
    assert_eq!(snap.gauges["cgraph_mutation_pending_updates"], stats.pending_updates as i64);
    assert_eq!(snap.gauges["cgraph_mutation_delta_entries"], stats.delta_entries as i64);
    assert_eq!(snap.gauges["cgraph_mutation_delta_bytes"], stats.delta_bytes as i64);
    assert_eq!(c("cgraph_durability_wal_records_total"), stats.wal_records);
    assert_eq!(c("cgraph_durability_wal_bytes_total"), stats.wal_bytes);
    assert_eq!(c("cgraph_durability_snapshots_total"), stats.snapshots_written);
    assert_eq!(c("cgraph_durability_snapshot_bytes_total"), stats.snapshot_bytes);
    assert_eq!(c("cgraph_durability_wal_replayed_total"), stats.wal_replayed);
    assert_eq!(c("cgraph_durability_snapshots_corrupt_total"), stats.snapshots_corrupt);
    assert_eq!(c("cgraph_durability_recoveries_total"), stats.durable_recoveries);
    assert_eq!(snap.histograms["cgraph_mutation_fold_seconds"].count, stats.epoch_folds);
    assert_eq!(
        snap.gauges["cgraph_durability_last_snapshot_epoch"],
        stats.last_snapshot_epoch as i64
    );
}

#[test]
fn chaos_stream_covers_every_layer_and_matches_service_stats() {
    let obs = Obs::shared();
    let stats = run_chaos_workload(&obs);
    assert!(stats.recoveries > 0, "the scripted crash must force a recovery");

    let names = obs.metrics.names();
    assert!(names.len() >= 12, "expected a broad catalogue, got {names:?}");
    for layer in [
        "cgraph_service_",
        "cgraph_engine_",
        "cgraph_comm_",
        "cgraph_recovery_",
        "cgraph_cache_",
        "cgraph_index_",
        "cgraph_mutation_",
        "cgraph_durability_",
        "cgraph_router_",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(layer)),
            "no {layer}* metric registered; got {names:?}"
        );
    }

    let snap = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    assert_registry_matches_stats(&snap, &stats);
    assert_eq!(snap.counters["cgraph_comm_machine_crashes_total"], 1);
    assert_eq!(snap.counters["cgraph_service_queries_submitted_total"], stats.queries_completed);
}

#[test]
fn fault_free_stream_still_matches_service_stats() {
    // The equality contract is not a chaos artifact: a clean stream
    // (zero recoveries everywhere) must agree just as exactly.
    let g = test_graph(40);
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let obs = Obs::shared();
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(200),
            obs: Some(Arc::clone(&obs)),
            ..Default::default()
        },
    );
    let tickets: Vec<_> =
        (0..20).map(|i| service.submit(KhopQuery::single(i, i as u64 % 40, 3)).unwrap()).collect();
    for t in tickets {
        t.wait().expect("fault-free stream");
    }
    let stats = service.stats();
    service.shutdown();
    let snap = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    assert_registry_matches_stats(&snap, &stats);
    assert_eq!(stats.recoveries, 0);
    assert_eq!(snap.counters["cgraph_comm_machine_crashes_total"], 0);
}

#[test]
fn cache_enabled_stream_matches_stats_and_traces() {
    // With the query plane on, the cgraph_cache_* families must carry
    // real (nonzero) traffic and still equal the ServiceStats line,
    // and the dispatcher must narrate the cache's life in the trace.
    let g = test_graph(40);
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let obs = Obs::shared();
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            obs: Some(Arc::clone(&obs)),
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                coalesce: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Three passes over the same four sources: pass one executes and
    // commits, the rest are served from the cache.
    for round in 0..3u64 {
        for i in 0..4u64 {
            let id = (round * 4 + i) as usize;
            service.query(KhopQuery::single(id, (i * 9) % 40, 3)).unwrap();
        }
    }
    let stats = service.stats();
    service.shutdown();
    assert!(stats.cache_hits >= 8, "repeat passes must hit: {stats:?}");
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_insertions, 4);

    let snap = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    assert_registry_matches_stats(&snap, &stats);

    // Hits answer in 0 s, executed batches in tens of microseconds or
    // more: on log-spaced edges the two are told apart, and nothing a
    // TINY stream does takes the 10 s that would overflow them.
    let response = &snap.histograms["cgraph_service_response_seconds"];
    assert_eq!(response.count, stats.queries_completed);
    let occupied = response.buckets.windows(2).filter(|w| w[1].1 > w[0].1).count()
        + usize::from(response.buckets[0].1 > 0);
    assert!(occupied >= 2, "every sample in one bucket: {:?}", response.buckets);
    let finite = response.buckets[response.buckets.len() - 2].1;
    assert_eq!(finite, response.count, "samples in +Inf: {:?}", response.buckets);

    let log = TraceSink::render(&obs.trace.drain());
    assert!(log.contains(" instant cache_miss "), "missing cache_miss event:\n{log}");
    assert!(log.contains(" instant cache_insert "), "missing cache_insert event:\n{log}");
}

/// One seeded stream that touches every tally the service keeps: a
/// healing crash on the first batch, cache hits and misses, in-batch
/// duplicates, two commits. Submitted one query at a time (as
/// [`run_chaos_workload`] does), so packing is a function of the seed.
fn run_mixed_workload(obs: Option<Arc<Obs>>) -> ServiceStats {
    let engine = Arc::new(DistributedEngine::new(&test_graph(60), EngineConfig::new(3)));
    let service = QueryService::start(
        engine,
        ServiceConfig {
            fault_plan: Some(FaultPlan::new(7).crash(1, 1).heal_after(1).arm_jobs(0..1)),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 3 },
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                coalesce: true,
                ..Default::default()
            },
            obs,
            ..Default::default()
        },
    );
    let mut id = 0;
    for round in 0..3u64 {
        // Twice per epoch: the second pass hits what the first cached.
        for _ in 0..2 {
            for i in 0..4u64 {
                let q = KhopQuery::multi(id, vec![i, (i + 30) % 60, i], 4);
                service.query(q).expect("chaos heals; every query must succeed");
                id += 1;
            }
        }
        if round < 2 {
            let batch: UpdateBatch =
                [EdgeUpdate::insert(0, 20 + round), EdgeUpdate::delete(0, 1)].into_iter().collect();
            service.apply_updates(batch).unwrap();
            service.commit_epoch().unwrap();
        }
    }
    let stats = service.stats();
    service.shutdown();
    stats
}

#[test]
fn unobserved_service_counts_exactly_what_an_observed_one_does() {
    // `obs: None` means no trace and no comm/engine instrumentation —
    // never no counters. A handle still bumped only when a bundle was
    // supplied shows up here as a field that differs.
    let counters = |mut s: ServiceStats| {
        // Latencies are wall clock; every other field is the seed's.
        for lat in [&mut s.admission_wait, &mut s.exec, &mut s.response] {
            *lat = ResponseStats::new(Vec::new());
        }
        format!("{s:#?}")
    };
    let observed = run_mixed_workload(Some(Obs::shared()));
    assert!(observed.recoveries > 0 && observed.checkpoints_taken > 0, "{observed:?}");
    assert!(observed.cache_hits > 0 && observed.cache_misses > 0, "{observed:?}");
    assert!(observed.coalesced_traversals > 0 && observed.cache_insertions > 0, "{observed:?}");
    assert_eq!((observed.epoch_commits, observed.updates_applied), (2, 4));
    assert_eq!(observed.queries_completed, 24);
    assert_eq!(counters(observed), counters(run_mixed_workload(None)));
}

#[test]
fn sampled_stats_never_step_back_beside_concurrent_submitters() {
    // The tallies are relaxed atomics read under the stats gate: a
    // sampler racing four submitters on the hottest path there is (a
    // cache hit completes at admission) must see each count grow
    // monotonically, every sample's completions matched by its latency
    // samples, and — once the submitters are done — every ticket.
    const HOT: u64 = 8;
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 1500;
    let engine = Arc::new(DistributedEngine::new(&test_graph(40), EngineConfig::new(2)));
    let service = Arc::new(QueryService::start(
        engine,
        ServiceConfig {
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    for s in 0..HOT {
        service.query(KhopQuery::single(s as usize, s * 5, 3)).unwrap();
    }
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let q = KhopQuery::single((t * PER_THREAD + i) as usize, (t + i) % HOT * 5, 3);
                    service.query(q).expect("a cached answer");
                }
            })
        })
        .collect();
    let (mut completed, mut hits) = (0, 0);
    while !submitters.iter().all(|h| h.is_finished()) {
        let s = service.stats();
        assert!(s.queries_completed >= completed, "{} < {completed}", s.queries_completed);
        assert!(s.cache_hits >= hits, "{} < {hits}", s.cache_hits);
        assert_eq!(s.response.len() as u64, s.queries_completed);
        (completed, hits) = (s.queries_completed, s.cache_hits);
    }
    for h in submitters {
        h.join().unwrap();
    }
    let s = service.stats();
    assert_eq!(s.queries_completed, HOT + THREADS * PER_THREAD);
    assert_eq!(s.cache_hits, THREADS * PER_THREAD);
    assert_eq!((s.cache_misses, s.batches_dispatched, s.queries_failed), (HOT, HOT, 0));
    service.shutdown();
}

/// The invariants every `stats()` snapshot keeps about latency: each
/// distribution counts exactly the completed queries, and none holds
/// more than a reservoir per replica.
fn assert_latency_counts(s: &ServiceStats, replicas: usize) {
    for (what, lat) in [("wait", &s.admission_wait), ("exec", &s.exec), ("response", &s.response)] {
        assert_eq!(lat.len() as u64, s.queries_completed, "{what}");
        assert!(lat.sorted().len() <= replicas * RESERVOIR_TRIPLES, "{what}");
    }
}

#[test]
fn empty_queries_are_recorded_like_every_other_completion() {
    // An empty query completes at admission in zero time; it is
    // recorded through its replica's latency shard like any other, so
    // the distributions count it in every snapshot — while submitters
    // race the sampler, and once they are done.
    const THREADS: u64 = 2;
    const PER_THREAD: u64 = 600;
    let engine = Arc::new(DistributedEngine::new(&test_graph(40), EngineConfig::new(2)));
    let group = Arc::new(ServiceGroup::start(
        engine,
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                query_plane: QueryPlaneConfig {
                    cache_capacity_bytes: Some(1 << 20),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    // Sequentially first: the snapshot right after an empty query.
    for i in 0..6u64 {
        let sources = if i % 2 == 0 { Vec::new() } else { vec![i * 5] };
        let q = KhopQuery { id: i as usize, sources, k: 3 };
        let r = group.query(q).expect("answered");
        assert_eq!(r.response_time.is_zero(), i % 2 == 0);
        let s = group.stats();
        assert_eq!(s.queries_completed, i + 1);
        assert_latency_counts(&s, 2);
    }
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let id = (t * PER_THREAD + i) as usize;
                    let sources = if i % 3 == 0 { Vec::new() } else { vec![(t + i) % 8 * 5] };
                    group.query(KhopQuery { id, sources, k: 3 }).expect("answered");
                }
            })
        })
        .collect();
    while !submitters.iter().all(|h| h.is_finished()) {
        assert_latency_counts(&group.stats(), 2);
    }
    for h in submitters {
        h.join().unwrap();
    }
    let s = group.stats();
    assert_eq!((s.queries_completed, s.queries_failed), (6 + THREADS * PER_THREAD, 0));
    assert_latency_counts(&s, 2);
    group.shutdown();
}

#[test]
fn latency_state_is_bounded_while_count_and_mean_stay_exact() {
    // More than three reservoirs of cache hits on each of two replicas,
    // with misses among them: every snapshot counts every completion,
    // holds at most a reservoir per replica, and its mean response is
    // the mean of what the tickets returned, to the nanosecond.
    const HOT: u64 = 16;
    let hits_per_replica = 3 * RESERVOIR_TRIPLES as u64 + 500;
    let n = 2048;
    let engine = Arc::new(DistributedEngine::new(&test_graph(n), EngineConfig::new(2)));
    let group = ServiceGroup::start(
        engine,
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                query_plane: QueryPlaneConfig {
                    cache_capacity_bytes: Some(1 << 20),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // What the tickets returned: how many, and their responses' sum.
    let mut returned = (0u64, 0u128);
    let answer = |returned: &mut (u64, u128), r: QueryResult| {
        returned.0 += 1;
        returned.1 += r.response_time.as_nanos();
    };
    let check = |&(completed, sum_nanos): &(u64, u128)| {
        let s = group.stats();
        assert_eq!(s.queries_completed, completed);
        assert_latency_counts(&s, 2);
        let mean = (sum_nanos + u128::from(completed) / 2) / u128::from(completed);
        assert_eq!(s.response.mean().as_nanos(), mean, "after {completed} completions");
        s
    };
    // Warm both replicas' caches with the hot keys.
    for r in 0..2 {
        for v in 0..HOT {
            answer(&mut returned, group.replica(r).query(KhopQuery::single(0, v * 7, 3)).unwrap());
        }
    }
    let mut misses = 0;
    for i in 0..2 * hits_per_replica {
        let replica = group.replica((i % 2) as usize);
        answer(&mut returned, replica.query(KhopQuery::single(0, i % HOT * 7, 3)).unwrap());
        if i % 97 == 0 {
            // A key no query asked before: a batch of its own.
            let q = KhopQuery::single(0, misses % n, 4 + (misses / n) as u32);
            answer(&mut returned, replica.query(q).unwrap());
            misses += 1;
        }
        if i % 1000 == 0 {
            check(&returned);
        }
    }
    let s = check(&returned);
    assert_eq!(s.cache_hits, 2 * hits_per_replica);
    assert_eq!(s.queries_completed, 2 * (HOT + hits_per_replica) + misses);
    // Past a reservoir per replica, the quantiles come from a sample.
    assert_eq!(s.response.sorted().len(), 2 * RESERVOIR_TRIPLES);
    group.shutdown();
}

#[test]
fn mutating_stream_matches_stats_and_traces_epoch_commits() {
    // A stream of update batches and commits must carry real traffic in
    // the cgraph_mutation_* families, still equal the ServiceStats line
    // exactly, and narrate every epoch commit in the trace (the
    // `epoch_commit` instant's value is the new epoch — wall-clock
    // free, so identical runs trace identically).
    let g = test_graph(40);
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let obs = Obs::shared();
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            obs: Some(Arc::clone(&obs)),
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    for round in 0..2u64 {
        service.query(KhopQuery::single(round as usize, 0, 3)).unwrap();
        let batch: UpdateBatch =
            [EdgeUpdate::insert(0, 20 + round), EdgeUpdate::delete(0, 1)].into_iter().collect();
        service.apply_updates(batch).unwrap();
        assert_eq!(service.commit_epoch().unwrap(), round + 1);
    }
    service.query(KhopQuery::single(10, 0, 3)).unwrap();
    let stats = service.stats();
    service.shutdown();
    assert_eq!(stats.updates_applied, 4);
    assert_eq!(stats.epoch_commits, 2);

    let snap = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    assert_registry_matches_stats(&snap, &stats);

    let log = TraceSink::render(&obs.trace.drain());
    assert!(log.contains(" instant epoch_commit "), "missing epoch_commit event:\n{log}");
    assert_eq!(
        log.matches(" instant epoch_commit ").count(),
        2,
        "one epoch_commit instant per commit:\n{log}"
    );
}

#[test]
fn durable_stream_books_snapshots_in_registry_and_stats_together() {
    // Snapshots are written by the durability plane's own thread after
    // the commit that made them due has returned. Whenever that thread
    // books one, the registry and `ServiceStats` move in one step; the
    // commit histogram sees every commit, the snapshot histograms every
    // job the writer ran, and `shutdown()` makes all of it final.
    let dir = std::env::temp_dir().join(format!("cgraph-obs-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::shared();
    let (service, _) = QueryService::open_or_recover(
        &test_graph(40),
        EngineConfig::new(2),
        ServiceConfig {
            obs: Some(Arc::clone(&obs)),
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(1)),
            ..Default::default()
        },
    )
    .expect("fresh durable start");
    const COMMITS: u64 = 3;
    for round in 0..COMMITS {
        let written = service.stats().snapshots_written;
        service.apply_updates([EdgeUpdate::insert(0, 20 + round)].into_iter().collect()).unwrap();
        service.commit_epoch().unwrap();
        // Wait for this commit's snapshot, so the next finds the writer
        // idle; every sample on the way must be self-consistent.
        loop {
            let stats = service.stats();
            assert!(stats.last_snapshot_epoch <= round + 1);
            assert_eq!(stats.snapshots_written, stats.last_snapshot_epoch + 1);
            if stats.snapshots_written > written {
                break;
            }
            std::thread::yield_now();
        }
    }
    service.shutdown();
    let stats = service.stats();
    assert_eq!((stats.snapshots_written, stats.last_snapshot_epoch), (COMMITS + 1, COMMITS));

    let snap = parse_text(&obs.metrics.render_text()).expect("snapshot must parse");
    assert_registry_matches_stats(&snap, &stats);
    assert_eq!(snap.histograms["cgraph_commit_lock_hold_seconds"].count, COMMITS);
    for phase in ["encode", "write"] {
        let h =
            &snap.histograms[&format!("cgraph_durability_snapshot_seconds{{phase=\"{phase}\"}}")];
        // The start-up checkpoint ran inline, before the handles existed.
        assert_eq!(h.count, COMMITS, "{phase}");
        assert!(h.sum > 0.0, "{phase}");
        // Log-spaced edges: a TINY snapshot must not sit in one bucket
        // with everything up to 0.2 s.
        assert!(h.buckets[0].0 <= 1e-6 && h.buckets.len() > 20, "{phase}: {:?}", h.buckets);
    }
    // One WAL fence fsync per commit, on the same log-spaced edges.
    let sync = &snap.histograms["cgraph_durability_wal_sync_seconds"];
    assert_eq!(sync.count, COMMITS);
    assert!(sync.buckets[0].0 <= 1e-6 && sync.buckets.len() > 20, "{:?}", sync.buckets);
    // Nothing folded: the start-up snapshot is the one full snapshot,
    // every commit's rests on it.
    assert_eq!(snap.counters["cgraph_durability_full_snapshots_total"], 1);
    let log = TraceSink::render(&obs.trace.drain());
    assert_eq!(log.matches(" instant snapshot_write ").count(), COMMITS as usize, "{log}");
    assert_eq!(log.matches(" instant wal_commit ").count(), COMMITS as usize, "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observability_doc_catalogues_every_registered_metric() {
    // OBSERVABILITY.md promises a complete catalogue. Diff the doc's
    // backtick-quoted metric names against a live registry populated by
    // a full chaos workload (which registers every family: service
    // and recovery handles eagerly, comm at set_obs, engine at the first
    // batch).
    let obs = Obs::shared();
    run_chaos_workload(&obs);
    // The `cgraph_index_*` families are catalogued by INDEXING.md (and
    // diffed against the registry by `tests/index_tier.rs`), so this
    // test scopes both sides of the diff to the prefixes
    // OBSERVABILITY.md owns.
    let prefixes = [
        "cgraph_service_",
        "cgraph_engine_",
        "cgraph_comm_",
        "cgraph_recovery_",
        "cgraph_cache_",
        "cgraph_mutation_",
        "cgraph_commit_",
        "cgraph_delta_",
        "cgraph_durability_",
        "cgraph_router_",
    ];
    let registered: std::collections::BTreeSet<String> = obs
        .metrics
        .names()
        .into_iter()
        .filter(|n| prefixes.iter().any(|p| n.starts_with(p)))
        .collect();

    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/OBSERVABILITY.md"))
        .expect("OBSERVABILITY.md must exist at the repo root");
    let documented: std::collections::BTreeSet<String> = doc
        .split('`')
        .skip(1)
        .step_by(2) // every other fragment is inside backticks
        .filter(|tok| {
            prefixes.iter().any(|p| tok.starts_with(p))
                && tok.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        .map(str::to_string)
        .collect();

    // Registered at start-up, whether or not anything ever folds.
    assert!(registered.contains("cgraph_mutation_fold_seconds"), "{registered:?}");
    let missing: Vec<_> = registered.difference(&documented).collect();
    assert!(missing.is_empty(), "metrics registered but not in OBSERVABILITY.md: {missing:?}");
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(stale.is_empty(), "metrics documented but never registered: {stale:?}");
}

#[test]
fn fold_seconds_are_observed_once_per_fold_and_never_on_a_hit() {
    // Fold threshold 1: a commit leaving more than one overlay entry
    // folds, a commit of one update does not.
    let obs = Obs::shared();
    let service = QueryService::start(
        Arc::new(DistributedEngine::new(&test_graph(40), EngineConfig::new(2))),
        ServiceConfig {
            obs: Some(Arc::clone(&obs)),
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                ..Default::default()
            },
            mutation: MutationConfig { fold_threshold: 1, ..Default::default() },
            ..Default::default()
        },
    );
    let folds = || {
        parse_text(&obs.metrics.render_text()).unwrap().histograms["cgraph_mutation_fold_seconds"]
            .clone()
    };
    service.apply_updates([EdgeUpdate::insert(0, 20)].into_iter().collect()).unwrap();
    service.commit_epoch().unwrap();
    assert_eq!(folds().count, 0, "an overlay publish is not a fold");
    for round in 0..3u64 {
        let batch = [EdgeUpdate::insert(1, 21 + round), EdgeUpdate::delete(2, 3)];
        service.apply_updates(batch.into_iter().collect()).unwrap();
        service.commit_epoch().unwrap();
    }
    let after_commits = folds();
    assert_eq!(after_commits.count, 3);
    assert_eq!(after_commits.count, service.stats().epoch_folds);
    assert!(after_commits.sum > 0.0);
    // A miss and then hits of the same query: no fold is observed.
    for id in 0..5 {
        service.query(KhopQuery::single(id, 0, 2)).unwrap();
    }
    assert!(service.stats().cache_hits > 0);
    assert_eq!(folds().count, 3);
    service.shutdown();
}
