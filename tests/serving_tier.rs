//! Serving-tier equivalence: a [`ServiceGroup`] of N replicated
//! front-ends over one shared cluster must be answer-for-answer
//! bit-identical to the single [`QueryService`] (and to the
//! closed-batch [`QueryScheduler`] oracle) on the same stream — for
//! every replica count, machine count, and query-plane setting — while
//! the router stays deterministic across identical-seed runs, epoch
//! commits fence every replica at once, an armed crash fails only the
//! lanes of the batch it hit, a closed replica never takes the rest of
//! the group down with it, and a durable group closes the same way in
//! any order, with a commit racing its last close.

use cgraph::prelude::*;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic Zipf-like stream over `n_vertices`: log-uniform rank
/// selection (heavy head, long tail) so repeats hammer a handful of
/// hot sources — the regime the cache, coalescer and heat-aware
/// router all exist for.
fn zipf_stream(n_queries: usize, n_vertices: u64, seed: u64) -> Vec<KhopQuery> {
    (0..n_queries)
        .map(|i| {
            let r = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            let rank = ((n_vertices as f64).powf(u).floor() as u64).min(n_vertices - 1);
            // Map rank to a scattered vertex id so hot sources spread
            // over partitions instead of all living on machine 0.
            let source = rank.wrapping_mul(0x9E37) % n_vertices;
            let k = (splitmix64(r) % 5) as u32 + 1;
            KhopQuery::single(i, source, k)
        })
        .collect()
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

fn trim(mut per_level: Vec<u64>) -> Vec<u64> {
    while per_level.last() == Some(&0) {
        per_level.pop();
    }
    per_level
}

fn plane_on() -> QueryPlaneConfig {
    QueryPlaneConfig { cache_capacity_bytes: Some(1 << 18), coalesce: true, ..Default::default() }
}

fn check_group_equivalence(replicas: usize, p: usize, plane: QueryPlaneConfig) {
    let n = 96u64;
    let graph = chordal_graph(n);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(p)));
    let queries = zipf_stream(120, n, 0x5E21);

    let expected: HashMap<usize, (u64, Vec<u64>)> =
        QueryScheduler::new(&engine, SchedulerConfig::default())
            .execute(&queries)
            .into_iter()
            .map(|r| (r.id, (r.visited, trim(r.per_level))))
            .collect();

    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas,
            service: ServiceConfig {
                max_batch_delay: Duration::from_micros(300),
                query_plane: plane,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert_eq!(group.replicas(), replicas);

    // Submit the whole stream (router decides the replica per query),
    // then redeem every ticket.
    let tickets: Vec<_> =
        queries.iter().map(|q| group.submit(q.clone()).expect("admission")).collect();
    for (q, t) in queries.iter().zip(tickets) {
        let got = t.wait().unwrap_or_else(|e| panic!("query {} failed: {e}", q.id));
        assert_eq!(
            (got.visited, trim(got.per_level)),
            expected[&q.id].clone(),
            "query {} diverged (replicas={replicas}, p={p})",
            q.id
        );
    }

    let rs = group.router_stats();
    assert_eq!(rs.routed.len(), replicas);
    assert_eq!(rs.routed.iter().sum::<u64>(), queries.len() as u64);
    let stats = group.stats();
    assert_eq!(stats.queries_completed, queries.len() as u64);
    assert_eq!(stats.queries_failed, 0);
    group.shutdown();
}

#[test]
fn replica_groups_match_the_scheduler_oracle_plane_off() {
    for &replicas in &[1usize, 2, 4] {
        for &p in &[1usize, 2, 4] {
            check_group_equivalence(replicas, p, QueryPlaneConfig::default());
        }
    }
}

#[test]
fn replica_groups_match_the_scheduler_oracle_plane_on() {
    for &replicas in &[1usize, 2, 4] {
        for &p in &[1usize, 2, 4] {
            check_group_equivalence(replicas, p, plane_on());
        }
    }
}

#[test]
fn router_is_deterministic_across_identical_seed_runs() {
    let n = 96u64;
    let graph = chordal_graph(n);
    let queries = zipf_stream(200, n, 0xC0FFEE);
    let run = |seed: u64| {
        let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(3)));
        let group = ServiceGroup::start(
            Arc::clone(&engine),
            GroupConfig {
                replicas: 4,
                router: RouterConfig { seed },
                service: ServiceConfig { query_plane: plane_on(), ..Default::default() },
            },
        );
        // Sequential submission: each query resolves before the next
        // routes, so heat evolves identically across runs.
        for q in &queries {
            group.query(q.clone()).expect("query");
        }
        let rs = group.router_stats();
        group.shutdown();
        rs
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.routed, b.routed, "same seed, same stream => same routing");
    assert_eq!(a.locality, b.locality);
    assert_eq!(a.heat_steered, b.heat_steered);
    assert_eq!(a.balance, b.balance);
    // A different seed rotates the home mapping: the totals still add
    // up even though the assignment moved.
    let c = run(8);
    assert_eq!(c.routed.iter().sum::<u64>(), queries.len() as u64);
}

#[test]
fn group_commit_fences_every_replica_at_once() {
    // Ring of 48; severing 0->1 collapses source 0's 6-hop reach from
    // 7 vertices to 1. Queries in flight on BOTH replicas while the
    // commit lands must each resolve against exactly the epoch their
    // result is labeled with — never a half-fenced mix.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let group = Arc::new(ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                max_batch_delay: Duration::from_micros(200),
                query_plane: plane_on(),
                ..Default::default()
            },
            ..Default::default()
        },
    ));

    // Pin a few epoch-0 answers first so both sides of the fence are
    // exercised for sure.
    for i in 0..4 {
        let r = group.replica(i % 2).query(KhopQuery::single(i, 0, 6)).unwrap();
        assert_eq!((r.epoch, r.visited), (0, 7));
    }

    // Two submitter threads (one pinned per replica) race a stream of
    // the same query while the main thread commits the severing edit.
    let mut handles = Vec::new();
    for t in 0..2usize {
        let group = Arc::clone(&group);
        handles.push(std::thread::spawn(move || {
            // Stream until the commit's epoch shows up in an answer
            // (bounded so a broken fence can't hang the test).
            let mut out = Vec::new();
            for i in 0..20_000 {
                let q = KhopQuery::single(100 + t * 100_000 + i, 0, 6);
                let r = group.replica(t).query(q).expect("query");
                out.push((r.epoch, r.visited));
                if r.epoch > 0 {
                    break;
                }
            }
            out
        }));
    }
    std::thread::sleep(Duration::from_millis(2));
    group.apply_updates([EdgeUpdate::delete(0, 1)].into_iter().collect()).unwrap();
    assert_eq!(group.commit_epoch().unwrap(), 1);

    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for h in handles {
        for (epoch, visited) in h.join().expect("submitter") {
            let want = if epoch == 0 { 7 } else { 1 };
            assert_eq!(visited, want, "epoch {epoch} answer not from that epoch's snapshot");
            *by_epoch.entry(epoch).or_default() += 1;
        }
    }
    // The fence is group-wide: once any replica serves epoch 1, no
    // replica may serve epoch 0 again — and post-commit queries on
    // both replicas see the new snapshot.
    for t in 0..2 {
        let r = group.replica(t).query(KhopQuery::single(5000 + t, 0, 6)).unwrap();
        assert_eq!((r.epoch, r.visited), (1, 1));
    }
    assert!(by_epoch.contains_key(&1), "commit landed inside the stream");
    group.shutdown();
}

#[test]
fn armed_crash_fails_only_the_blamed_replicas_lanes() {
    // A never-healing crash armed for chaos job 0 only. Jobs are
    // numbered in execution order group-wide, so the first batch to
    // execute — replica 0's, serialized by waiting on its ticket
    // before touching replica 1 — dies, and everything after it on
    // either replica is untouched.
    let g: EdgeList = (0..48u64).map(|v| (v, (v + 1) % 48)).collect();
    let engine = Arc::new(DistributedEngine::new(&g, EngineConfig::new(2)));
    let plan = FaultPlan::new(29).crash(1, 1).arm_jobs(0..1);
    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas: 2,
            service: ServiceConfig {
                max_batch_delay: Duration::from_micros(100),
                fault_plan: Some(plan),
                max_retries: 0,
                retry_backoff: Duration::from_micros(50),
                recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 0 },
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let doomed = group.replica(0).query(KhopQuery::single(0, 0, 6));
    assert!(doomed.is_err(), "job 0 carries the armed crash and no recovery budget");

    // The blame stops at that batch: replica 1 (and replica 0 itself,
    // now past the armed window) keep serving correct answers.
    for t in 0..2 {
        let r = group.replica(t).query(KhopQuery::single(10 + t, 0, 6)).expect("healed");
        assert_eq!(r.visited, 7);
    }
    let stats = group.stats();
    assert_eq!(stats.queries_failed, 1, "exactly the armed batch's lanes fail");
    assert_eq!(stats.queries_completed, 2);
    group.shutdown();
}

#[test]
fn closing_one_replica_leaves_the_group_serving() {
    let n = 96u64;
    let graph = chordal_graph(n);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(2)));
    let group = ServiceGroup::start(
        Arc::clone(&engine),
        GroupConfig {
            replicas: 3,
            service: ServiceConfig { query_plane: plane_on(), ..Default::default() },
            ..Default::default()
        },
    );

    group.shutdown_replica(1);

    // The router steers around the closed replica; every query still
    // answers, and mutation commits still work group-wide.
    let queries = zipf_stream(60, n, 0xDEAD);
    let expected: HashMap<usize, u64> = QueryScheduler::new(&engine, SchedulerConfig::default())
        .execute(&queries)
        .into_iter()
        .map(|r| (r.id, r.visited))
        .collect();
    for q in &queries {
        let r = group.query(q.clone()).expect("group must keep serving");
        assert_eq!(r.visited, expected[&q.id]);
    }
    let rs = group.router_stats();
    assert_eq!(rs.routed[1], 0, "no query may route to a closed replica");
    group.apply_updates([EdgeUpdate::insert(0, 50)].into_iter().collect()).unwrap();
    assert_eq!(group.commit_epoch().unwrap(), 1);

    group.shutdown();
    // Fully closed: admission and commits refuse, idempotently.
    assert!(matches!(group.query(KhopQuery::single(9, 0, 2)), Err(ServiceError::ShutDown)));
    assert!(matches!(group.commit_epoch(), Err(ServiceError::ShutDown)));
    group.shutdown();
}

#[test]
fn an_unroutable_query_is_answered_by_a_live_replica() {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(96), EngineConfig::new(2)));
    let group = ServiceGroup::start(engine, GroupConfig { replicas: 2, ..Default::default() });
    group.shutdown_replica(0);
    // Neither has a first source to route by: replica 1, the live one,
    // gives the single-service answers.
    let empty = KhopQuery { id: 7, sources: Vec::new(), k: 3 };
    let got = group.submit(empty).expect("an empty query completes at once").wait().unwrap();
    assert_eq!((got.id, got.visited, got.per_level), (7, 0, Vec::new()));
    let bad = group.submit(KhopQuery::single(8, 96, 3)).unwrap_err();
    assert!(matches!(bad, ServiceError::InvalidQuery(_)), "{bad:?}");
    assert_eq!(group.query(KhopQuery::single(9, 5, 2)).unwrap().visited, 3 + 1);
    group.shutdown();
}

/// How a durable group is taken down.
#[derive(Clone, Copy, Debug)]
enum Close {
    /// `shutdown_replica` 0, then 1, then 2.
    Ascending,
    /// `shutdown_replica` 2, then 1, then 0.
    Descending,
    /// The last handle dropped, no `shutdown` call.
    Dropped,
}

/// Runs `f` on a thread of its own; `None` if it has not returned within
/// the bound — a hang fails the test instead of stalling it.
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

fn within<T>(what: &str, rx: mpsc::Receiver<T>) -> T {
    rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| panic!("{what} hung"))
}

fn insert(src: u64, dst: u64) -> UpdateBatch {
    [EdgeUpdate::insert(src, dst)].into_iter().collect()
}

/// A durable three-replica group that commits once, queues a traversal
/// on every replica (held there by a long linger), buffers one more
/// update, and is then closed `how` while a second commit races the
/// last close. Whichever side wins, nothing hangs, nothing queued is
/// abandoned, and the directory reopens at the epoch the race decided,
/// with one snapshot per commit — the racing commit's written exactly
/// once, by the snapshot writer or, when that was still busy with the
/// first commit's, by the shutdown.
fn close_durable_group(how: Close) {
    let n = 20_000u64;
    let graph: EdgeList = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let dir =
        std::env::temp_dir().join(format!("cgraph-group-close-{how:?}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = GroupConfig {
        replicas: 3,
        service: ServiceConfig {
            max_batch_delay: Duration::from_secs(3600),
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(1)),
            ..Default::default()
        },
        ..Default::default()
    };
    let (group, fresh) =
        ServiceGroup::open_or_recover(&graph, EngineConfig::new(2), config.clone()).unwrap();
    assert!(!fresh.recovered);
    let group = Arc::new(group);

    // Inserts far from the sources below: every answer reads 4.
    group.apply_updates(insert(100, 5_000)).unwrap();
    assert_eq!(group.commit_epoch(), Ok(1));
    let tickets: Vec<_> = (0..3)
        .map(|r| group.replica(r).submit(KhopQuery::single(r, r as u64 * 7, 3)).unwrap())
        .collect();
    group.apply_updates(insert(200, 6_000)).unwrap();

    let order = if matches!(how, Close::Descending) { [2, 1, 0] } else { [0, 1, 2] };
    if !matches!(how, Close::Dropped) {
        group.shutdown_replica(order[0]);
        group.shutdown_replica(order[1]);
    }
    // The commit and the last close start together.
    let start = Arc::new(Barrier::new(2));
    let committer = {
        let (group, start) = (Arc::clone(&group), Arc::clone(&start));
        bounded(move || {
            start.wait();
            group.commit_epoch()
        })
    };
    let (committed, stats) = match how {
        Close::Dropped => {
            start.wait();
            drop(group);
            (within("the racing commit", committer), None)
        }
        Close::Ascending | Close::Descending => {
            let closer = {
                let group = Arc::clone(&group);
                bounded(move || {
                    start.wait();
                    group.shutdown_replica(order[2])
                })
            };
            let committed = within("the racing commit", committer);
            within("the last close", closer);
            // Closed for good: every entry point refuses.
            assert_eq!(group.commit_epoch(), Err(ServiceError::ShutDown));
            assert_eq!(group.apply_updates(insert(1, 2)), Err(ServiceError::ShutDown));
            let late = group.submit(KhopQuery::single(9, 3, 3));
            assert!(matches!(late, Err(ServiceError::ShutDown)), "{late:?}");
            (committed, Some(group.stats()))
        }
    };
    // A commit that won the race took the buffered update with it.
    let (epoch, pending) = match committed {
        Ok(e) => (e, 0),
        Err(e) => {
            assert_eq!(e, ServiceError::ShutDown);
            (1, 1)
        }
    };
    assert!(epoch == 2 || pending == 1, "{how:?}: commit returned epoch {epoch}");
    if let Some(s) = stats {
        // The fresh directory's snapshot, then one per commit.
        assert_eq!((s.snapshots_written, s.last_snapshot_epoch), (1 + epoch, epoch));
        assert_eq!(s.queries_completed, 3);
    }
    for t in tickets {
        let got = t.wait().expect("queued before its replica closed: answered, not abandoned");
        assert_eq!(got.visited, 4);
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut want: Vec<String> = (0..=epoch).map(|e| format!("snap-{e:016}.cgs")).collect();
    want.push("wal.log".into());
    assert_eq!(names, want, "{how:?}");

    // The WAL was synced before the close returned: the directory
    // reopens at the race's epoch with the uncommitted update pending.
    let mut config = config;
    config.service.max_batch_delay = Duration::ZERO;
    let (group, reopened) =
        ServiceGroup::open_or_recover(&graph, EngineConfig::new(2), config).unwrap();
    assert_eq!((reopened.epoch, reopened.pending_restored), (epoch, pending), "{how:?}");
    assert_eq!(group.query(KhopQuery::single(0, 0, 3)).unwrap().visited, 4);
    group.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_group_closes_in_any_order_with_a_commit_racing_the_last_close() {
    for how in [Close::Ascending, Close::Descending, Close::Dropped] {
        close_durable_group(how);
    }
}
