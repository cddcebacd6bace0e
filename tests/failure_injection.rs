//! Failure-injection and robustness tests: what happens when a
//! machine panics, when inputs are degenerate, and when the system is
//! pushed past its sizing assumptions.

mod common;

use cgraph::core::pcm::{PartitionCtx, PartitionProgram};
use cgraph::core::{BatchResult, EngineError, FaultInjection};
use cgraph::prelude::*;
use cgraph_comm::{ClusterError, PersistentCluster};
use common::reference_khop_levels;
use std::sync::Arc;
use std::time::Duration;

/// Asserts every lane of `br` against the sequential CSR reference —
/// an oracle that shares no code with the engine's superstep loop.
fn assert_matches_reference(
    br: &BatchResult,
    g: &EdgeList,
    sources: &[u64],
    ks: &[u32],
    tag: &str,
) {
    let csr = Csr::from_edges(g.num_vertices(), g.edges());
    for (lane, (&src, &k)) in sources.iter().zip(ks).enumerate() {
        let (visited, per_level) = reference_khop_levels(&csr, src, k);
        let mut column: Vec<u64> = br.per_level.iter().map(|row| row[lane]).collect();
        while column.last() == Some(&0) {
            column.pop();
        }
        assert_eq!(br.per_lane_visited[lane], visited, "{tag}: lane {lane} visited");
        assert_eq!(column, per_level, "{tag}: lane {lane} per-level");
    }
}

/// Partition 0 panics in its first superstep; every other partition
/// halts at once and waits for it at the next superstep barrier (or
/// reaches that barrier after the panic).
struct PanicsOnPartitionZero;

impl PartitionProgram for PanicsOnPartitionZero {
    type Out = ();

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        if ctx.partition_id() != 0 {
            ctx.vote_to_halt();
        }
    }

    fn compute(&mut self, _ctx: &mut PartitionCtx<'_>, _incoming: &[(VertexId, u64)]) {
        panic!("injected fault");
    }

    fn finish(self, _ctx: &PartitionCtx<'_>) {}
}

#[test]
fn machine_panic_propagates_not_hangs() {
    // A machine that panics while its peers wait at a superstep barrier
    // must surface as a panic in the caller that names it, not as a
    // deadlock. The wait is bounded so a regression fails here instead
    // of hanging the suite.
    for p in [2usize, 3] {
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let g: EdgeList = (0..30u64).map(|v| (v, (v + 1) % 30)).collect();
            let e = DistributedEngine::new(&g, EngineConfig::new(p));
            let run = std::panic::AssertUnwindSafe(|| e.run_program(|_| PanicsOnPartitionZero));
            let outcome = std::panic::catch_unwind(run)
                .map_err(|payload| payload.downcast_ref::<String>().cloned().unwrap_or_default());
            let _ = tx.send(outcome);
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("p={p}: the caller hung on a panicked machine"));
        caller.join().expect("the caller caught the panic");
        let message = outcome.expect_err("machine 0's panic must reach the caller");
        assert!(
            message.contains("machine 0") && message.contains("injected fault"),
            "p={p}: {message}"
        );
    }
}

#[test]
fn empty_graph_queries_are_safe() {
    let mut g = EdgeList::new();
    g.set_num_vertices(4); // vertices but no edges
    let e = DistributedEngine::new(&g, EngineConfig::new(2));
    assert_eq!(khop_count(&e, 0, 3), 1, "isolated source reaches only itself");
    let r =
        QueryScheduler::new(&e, SchedulerConfig::default()).execute(&[KhopQuery::single(0, 2, 5)]);
    assert_eq!(r[0].visited, 1);
    assert_eq!(r[0].per_level, vec![1]);
}

#[test]
fn single_vertex_graph() {
    let mut g = EdgeList::new();
    g.set_num_vertices(1);
    let e = DistributedEngine::new(&g, EngineConfig::new(1));
    assert_eq!(bfs_count(&e, 0), 1);
    let ranks = pagerank(&e, 3);
    assert_eq!(ranks.len(), 1);
}

#[test]
fn more_machines_than_vertices() {
    let g: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
    // 8 machines, 3 vertices: most shards are empty ranges.
    let e = DistributedEngine::new(&g, EngineConfig::new(8));
    assert_eq!(bfs_count(&e, 0), 3);
    assert_eq!(khop_count(&e, 0, 1), 2);
    let labels = weakly_connected_components(&e);
    assert!(labels.iter().all(|&l| l == 0));
}

#[test]
fn self_loop_heavy_input_survives_ingestion() {
    let mut b = GraphBuilder::new();
    for v in 0..50u64 {
        b.add_pair(v, v); // all self loops
        b.add_pair(v, (v + 1) % 50);
    }
    let g = b.build().edges; // loops dropped
    assert_eq!(g.len(), 50);
    let e = DistributedEngine::new(&g, EngineConfig::new(3));
    assert_eq!(bfs_count(&e, 0), 50);
}

#[test]
fn zero_hop_batch_touches_nothing() {
    let g: EdgeList = (0..64u64).map(|v| (v, (v + 1) % 64)).collect();
    let e = DistributedEngine::new(&g, EngineConfig::new(2));
    let sources: Vec<u64> = (0..64).collect();
    let ks = vec![0u32; 64];
    let r = e.run_traversal_batch(&sources, &ks).unwrap();
    assert!(r.per_lane_visited.iter().all(|&v| v == 1), "{:?}", r.per_lane_visited);
}

#[test]
fn duplicate_sources_in_one_batch() {
    // The same source in multiple lanes must produce identical,
    // independent results (lanes never bleed into each other).
    let g: EdgeList = (0..32u64).map(|v| (v, (v + 1) % 32)).collect();
    let e = DistributedEngine::new(&g, EngineConfig::new(2));
    let sources = vec![5u64; 10];
    let ks: Vec<u32> = (1..=10).collect();
    let r = e.run_traversal_batch(&sources, &ks).unwrap();
    for (lane, &k) in ks.iter().enumerate() {
        assert_eq!(r.per_lane_visited[lane], k as u64 + 1, "lane {lane}");
    }
}

#[test]
fn memory_budget_of_zero_still_makes_progress() {
    let g: EdgeList = (0..100u64).map(|v| (v, (v + 1) % 100)).collect();
    let e = DistributedEngine::new(&g, EngineConfig::new(2));
    let s = QueryScheduler::new(
        &e,
        SchedulerConfig { memory_budget_bytes: Some(0), ..Default::default() },
    );
    assert_eq!(s.effective_lanes(), 1, "degrades to serial, never to zero");
    let r = s.execute(&[KhopQuery::single(0, 0, 3)]);
    assert_eq!(r[0].visited, 4);
}

#[test]
fn titan_empty_db_queries() {
    let db = cgraph::baselines::TitanDb::new();
    db.insert_edge(Edge::unweighted(0, 1));
    assert_eq!(db.khop(0, 5, "knows").visited, 2);
    assert_eq!(db.khop(7, 5, "knows").visited, 1, "unknown vertex is its own world");
}

#[test]
fn persistent_batch_panic_errors_and_cluster_survives() {
    // A machine dying inside a real engine batch on the persistent
    // cluster must come back as an error — and the *same* cluster must
    // serve the next batch correctly.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let e = DistributedEngine::new(&g, EngineConfig::new(3));
    let cluster = PersistentCluster::new(3);

    // Machine 2 dies at superstep 1 on every attempt, and no
    // recovery is allowed: the first failure is the batch's answer.
    let plan = FaultPlan::new(21).crash(2, 1);
    let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
    let rc = RecoveryConfig { max_recoveries: 0, ..Default::default() };
    let err = e
        .run_traversal_batch_recoverable(&cluster, &[0, 24], &[3, 3], &rc, Some(fault))
        .expect_err("faulted batch must error");
    match err {
        EngineError::Cluster(ClusterError::MachinePanicked { machine, message }) => {
            assert_eq!(machine, 2, "root cause, not a poison-cascade victim");
            assert!(message.contains("crashed at superstep 1"), "{message}");
        }
        other => panic!("expected MachinePanicked, got {other:?}"),
    }

    let br = e
        .run_traversal_batch_on(&cluster, &[0, 24], &[3, 3])
        .expect("cluster must survive a failed batch");
    assert_eq!(br.per_lane_visited, vec![4, 4]);
    cluster.shutdown();
}

#[test]
fn service_machine_panic_fails_inflight_then_shuts_down_clean() {
    // Every in-flight query of a dying batch gets an error (nobody
    // blocks forever on a ticket), the service keeps accepting work,
    // and shutdown afterwards joins every parked thread.
    let g: EdgeList = (0..60u64).map(|v| (v, (v + 1) % 60)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));

    // A never-healing crash armed only for the first batch (chaos job
    // 0): that batch exhausts recoveries and retries; later batches
    // run outside the armed window and succeed.
    let plan = FaultPlan::new(13).crash(1, 1).arm_jobs(0..1);
    let service = Arc::new(QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
            ..Default::default()
        },
    ));

    // Concurrent submitters during the faulty phase: each must get a
    // definite answer — result or BatchFailed — never a hang.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query(KhopQuery::single(i, i as u64, 3)))
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(failed >= 1, "at least the first batch must have died");
    for o in &outcomes {
        if let Err(e) = o {
            assert!(
                matches!(e, ServiceError::BatchFailed(msg) if msg.contains("crashed at superstep")),
                "unexpected error {e:?}"
            );
        }
    }

    // The hook is spent: the service must answer correctly again.
    let r = service.query(KhopQuery::single(100, 0, 4)).expect("service must heal");
    assert_eq!(r.visited, 5);

    let stats = service.stats();
    assert_eq!(stats.queries_failed, failed as u64);
    assert_eq!(stats.queries_completed, (outcomes.len() - failed) as u64 + 1);

    // Shutdown must return (joins dispatcher + machine threads): a
    // deadlocked parked thread would hang the test harness here.
    service.shutdown();
    assert!(matches!(service.submit(KhopQuery::single(0, 0, 1)), Err(ServiceError::ShutDown)));
}

#[test]
fn service_submit_after_shutdown_is_an_error_not_a_hang() {
    let g: EdgeList = (0..10u64).map(|v| (v, (v + 1) % 10)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(1)));
    let service = QueryService::start(engine, ServiceConfig::default());
    // Queries admitted before shutdown are still answered (drained).
    let ticket = service.submit(KhopQuery::single(7, 0, 2)).unwrap();
    service.shutdown();
    assert_eq!(ticket.wait().unwrap().visited, 3);
    assert_eq!(service.submit(KhopQuery::single(8, 0, 2)).unwrap_err(), ServiceError::ShutDown);
    service.shutdown(); // idempotent
}

#[test]
fn persistent_submit_after_shutdown_errors() {
    let cluster = PersistentCluster::new(2);
    cluster.shutdown();
    let err = cluster.submit::<(), (), _>(|_h| ()).expect_err("submit after shutdown must error");
    assert!(matches!(err, ClusterError::ShutDown));
}

#[test]
fn recoverable_batch_matches_reference_without_faults() {
    // The no-fault case of the checkpointing path, anchored on the
    // sequential reference: a long batch commits checkpoints and logs
    // every send, and none of that bookkeeping may touch an answer.
    let mut b = GraphBuilder::new();
    b.add_edge_list(&cgraph::gen::graph500(9, 8, 12));
    let g = b.build().edges;
    let e = DistributedEngine::new(&g, EngineConfig::new(3));
    let cluster = PersistentCluster::new(3);
    let (sources, ks) = ([1u64, 7, 100], [3u32, 5, 2]);
    let (rec, report) = e
        .run_traversal_batch_recoverable(&cluster, &sources, &ks, &RecoveryConfig::default(), None)
        .unwrap();
    assert_matches_reference(&rec, &g, &sources, &ks, "recoverable, no fault");
    let plain = e.run_traversal_batch(&sources, &ks).unwrap();
    assert_eq!(rec.per_lane_visited, plain.per_lane_visited);
    assert_eq!(rec.per_level, plain.per_level);
    assert_eq!((report.attempts, report.recoveries), (1, 0));
    assert!(report.checkpoints_taken > 0, "long batch must commit checkpoints");
    cluster.shutdown();
}

#[test]
fn crash_at_every_superstep_sweep() {
    // Exhaustive crash-point sweep on a tiny ring: for p ∈ {2, 4} in
    // both sync and async mode, kill one machine at every superstep a
    // batch can reach; after recovery the result must equal the
    // sequential reference — and the fault-free batch — every time.
    let g: EdgeList = (0..24u64).map(|v| (v, (v + 1) % 24)).collect();
    let sources = [0u64, 12];
    let ks = [8u32, 8];
    for p in [2usize, 4] {
        for sync in [true, false] {
            let cfg = if sync { EngineConfig::new(p) } else { EngineConfig::new(p).asynchronous() };
            let e = DistributedEngine::new(&g, cfg);
            let baseline = e.run_traversal_batch(&sources, &ks).unwrap();
            assert_matches_reference(&baseline, &g, &sources, &ks, "fault-free");
            let cluster = PersistentCluster::new(p);
            let rc = RecoveryConfig { checkpoint_interval: 3, max_recoveries: 3 };
            // Supersteps run 0..=8 (boundary 9 observes completion);
            // sweep one past the end to cover the never-fires case.
            for s in 0..=9u32 {
                let m = s as usize % p;
                let plan = FaultPlan::new(1000 + u64::from(s)).crash(m, s).heal_after(1);
                let fault = FaultInjection { plan: &plan, job: u64::from(s), first_attempt: 0 };
                let (br, report) = e
                    .run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault))
                    .unwrap_or_else(|err| {
                        panic!("p={p} sync={sync} crash {m}@{s}: unrecovered {err}")
                    });
                let tag = format!("p={p} sync={sync} crash {m}@{s}");
                assert_matches_reference(&br, &g, &sources, &ks, &tag);
                assert_eq!(br.per_lane_visited, baseline.per_lane_visited, "{tag}");
                assert_eq!(br.per_level, baseline.per_level, "{tag}");
                if sync && report.recoveries > 0 {
                    assert_eq!(report.full_rollbacks, 0, "{tag}: sync crash must replay confined");
                }
            }
            cluster.shutdown();
        }
    }
}

#[test]
fn crash_sweep_at_128_lane_width() {
    // The superstep crash sweep again, but on a two-word (W = 128)
    // batch: recovery snapshots, sender logs, and live-lane masks all
    // carry multi-word lane state, and every crash point must still
    // reproduce the sequential reference (and the fault-free batch)
    // bit-for-bit. Fixed seed so CI failures replay exactly.
    let g: EdgeList = (0..96u64).map(|v| (v, (v + 1) % 96)).collect();
    let sources: Vec<u64> = (0..128).map(|i| (i * 7) % 96).collect();
    let ks: Vec<u32> = (0..128).map(|i| 2 + (i % 5) as u32).collect();
    let p = 4;
    let e = DistributedEngine::new(&g, EngineConfig::new(p));
    let baseline = e.run_traversal_batch(&sources, &ks).unwrap();
    let cluster = PersistentCluster::new(p);
    let rc = RecoveryConfig { checkpoint_interval: 2, max_recoveries: 3 };
    for s in 0..=7u32 {
        let m = s as usize % p;
        let plan = FaultPlan::new(4242 + u64::from(s)).crash(m, s).heal_after(1);
        let fault = FaultInjection { plan: &plan, job: u64::from(s), first_attempt: 0 };
        let (br, _) = e
            .run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault))
            .unwrap_or_else(|err| panic!("W=128 crash {m}@{s}: unrecovered {err}"));
        assert_matches_reference(&br, &g, &sources, &ks, &format!("W=128 crash {m}@{s}"));
        assert_eq!(br.per_lane_visited, baseline.per_lane_visited, "W=128 crash {m}@{s}");
        assert_eq!(br.per_level, baseline.per_level, "W=128 crash {m}@{s}");
    }
    cluster.shutdown();
}

#[test]
fn chaos_with_cache_recovers_and_stays_consistent() {
    // The chaos plan through the live service with the full query
    // plane on: a healing crash is absorbed by recovery (no query
    // fails), and a repeat-heavy stream straddling the crash keeps
    // answering the fault-free truth — only committed batches may
    // populate the cache, so the dying attempt leaks nothing.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let plan = FaultPlan::new(77).crash(1, 2).heal_after(1);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(200),
            fault_plan: Some(plan),
            max_retries: 2,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 2 },
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                coalesce: true,
                pack_locality: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Three hot sources re-asked round after round across the crash.
    for round in 0..6 {
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let src = [0u64, 16, 32][i % 3];
                service.submit(KhopQuery::single(round * 10 + i, src, 6)).unwrap()
            })
            .collect();
        for t in tickets {
            let r = t.wait().expect("healing crash must be absorbed by recovery");
            // 6 hops along a directed 48-ring: the source plus six.
            assert_eq!(r.visited, 7);
        }
    }
    let stats = service.stats();
    assert_eq!(stats.queries_failed, 0, "{stats:?}");
    assert_eq!(stats.queries_completed, 36);
    assert!(stats.cache_hits > 0, "repeat stream must hit the cache: {stats:?}");
    service.shutdown();
}

#[test]
fn crash_after_epoch_commit_restores_the_committed_snapshot() {
    // A never-healing crash armed for the first batch dispatched after
    // an epoch commit: the dying batch runs against the freshly
    // committed delta overlay. Its queries fail, it must leak nothing
    // into the cache, and — the recovery contract — the service keeps
    // serving the *committed* epoch's snapshot afterwards: answers
    // reflect the mutation, the epoch label is intact, and the next
    // commit still advances cleanly.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let plan = FaultPlan::new(29).crash(1, 1).arm_jobs(0..1);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(plan),
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(1 << 20),
                coalesce: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Rewire the ring before any batch dispatches: 0 now jumps to 24
    // and loses its step to 1. Chaos job 0 is the first batch *after*
    // this commit, so the armed crash hits the overlaid epoch.
    let batch: UpdateBatch =
        [EdgeUpdate::insert(0, 24), EdgeUpdate::delete(0, 1)].into_iter().collect();
    service.apply_updates(batch).unwrap();
    assert_eq!(service.commit_epoch().unwrap(), 1);

    let tickets: Vec<_> =
        (0..4).map(|i| service.submit(KhopQuery::single(i, 0, 6)).unwrap()).collect();
    let first_ok: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert!(first_ok.iter().any(|&ok| !ok), "the armed batch must have died");
    let mid = service.stats();
    if first_ok.iter().all(|&ok| !ok) {
        assert_eq!(mid.cache_insertions, 0, "a dying batch leaked into the cache");
        assert_eq!(mid.cache_entries, 0);
    }

    // Armed window spent: the snapshot served is epoch 1's, exactly.
    let r = service.query(KhopQuery::single(100, 0, 6)).expect("service must heal");
    assert_eq!(r.epoch, 1);
    assert_eq!(r.visited, 7, "0 walks the 24..29 detour, not the severed 1..6 arc");
    assert_eq!(r.per_level, vec![1, 1, 1, 1, 1, 1, 1]);
    let r = service.query(KhopQuery::single(101, 1, 2)).unwrap();
    assert_eq!((r.epoch, r.visited), (1, 3), "untouched vertices keep their old reach");
    // And the commit protocol is unharmed by the crash.
    assert_eq!(service.commit_epoch().unwrap(), 2);
    service.shutdown();
}

#[test]
fn healing_crash_during_delta_overlay_batches_is_absorbed() {
    // Healing crashes armed across several batches while every batch
    // scans base + live delta overlay (fold threshold never reached):
    // in-batch recovery replays the overlay-aware scan, so no query
    // fails and every answer tracks the mutated snapshot of its epoch.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let plan = FaultPlan::new(53).crash(1, 2).heal_after(1).arm_jobs(0..32);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(200),
            fault_plan: Some(plan),
            max_retries: 2,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 2 },
            mutation: MutationConfig { fold_threshold: usize::MAX, ..Default::default() },
            ..Default::default()
        },
    );
    // Each round splices one more shortcut into the ring and commits;
    // the overlay grows monotonically and is never folded away.
    for round in 0..3u64 {
        let hub = 12 * (round + 1);
        let batch: UpdateBatch = [EdgeUpdate::insert(0, hub)].into_iter().collect();
        service.apply_updates(batch).unwrap();
        assert_eq!(service.commit_epoch().unwrap(), round + 1);
        let r = service
            .query(KhopQuery::single(round as usize, 0, 1))
            .expect("healing crash must be absorbed by recovery");
        assert_eq!(r.epoch, round + 1);
        // 0's out-neighbours: the ring step plus one hub per committed
        // round (hubs are distinct and never equal to 1).
        assert_eq!(r.visited, 2 + (round + 1), "round {round}");
    }
    let stats = service.stats();
    assert_eq!(stats.queries_failed, 0, "{stats:?}");
    assert_eq!(stats.epoch_commits, 3);
    assert_eq!(stats.epoch_folds, 0, "overlay must stay live for this test");
    assert!(stats.delta_entries > 0);
    service.shutdown();
}

#[test]
fn async_mode_on_disconnected_graph_terminates() {
    // Quiescence detection must fire even when a query dies instantly
    // on an isolated source.
    let mut g: EdgeList = [(0u64, 1u64)].into_iter().collect();
    g.set_num_vertices(10);
    let e = DistributedEngine::new(&g, EngineConfig::new(3).asynchronous());
    let r = e.run_single_queue(&[7], 5, cgraph::core::traverse::ValueMode::TwoLevel);
    assert_eq!(r.visited, 1);
}
