//! Durability cost matrix — snapshot cadence vs crash-recovery time
//! vs steady-state query throughput.
//!
//! A durable [`cgraph_core::QueryService`] pays for `kill -9` safety
//! twice: on the hot path (WAL appends + group-commit fsync + periodic
//! snapshot writes) and at restart (scan, checksum-verify, replay the
//! WAL tail). Both costs are steered by one knob — the snapshot
//! cadence. This bench replays the same seeded query + update workload
//! at cadences 1 / 4 / 8 / 32 / never against a durability-off
//! baseline, then times `open_or_recover` on each resulting data dir.
//!
//! Reported per configuration: queries/s, slowdown vs the baseline,
//! epochs committed, snapshots written, WAL bytes, recovery wall, and
//! WAL records replayed at recovery. Shape checks assert the
//! acceptance criterion: at the default cadence (8) durability costs
//! < 10% of baseline throughput, and every recovery lands on the last
//! committed epoch.

use cgraph_bench::*;
use cgraph_core::{
    DistributedEngine, DurabilityConfig, EdgeUpdate, EngineConfig, KhopQuery, QueryService,
    ServiceConfig, ServiceStats,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic xorshift stream for the update mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Applies paced update batches, committing one epoch per batch, until
/// `stop` is raised.
fn update_stream(service: &QueryService, n: u64, commit_every: usize, stop: &AtomicBool) {
    let mut rng = Rng(0xD0_5EED);
    while !stop.load(Ordering::Relaxed) {
        let batch: Vec<EdgeUpdate> = (0..commit_every)
            .map(|_| {
                let s = rng.next() % n;
                let t = rng.next() % n;
                EdgeUpdate::insert(s, t.wrapping_add(1) % n)
            })
            .collect();
        if service.apply_updates(batch.into_iter().collect()).is_err() {
            return;
        }
        if service.commit_epoch().is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One measured pass: queries on the caller thread, updates + commits
/// on a background thread, then `shutdown()`. Returns `(queries/s,
/// stats)`.
fn run_pass(
    service: &QueryService,
    sources: &[u64],
    k: u32,
    n: u64,
    commit_every: usize,
) -> (f64, ServiceStats) {
    let stop = AtomicBool::new(false);
    let qps = std::thread::scope(|scope| {
        scope.spawn(|| update_stream(service, n, commit_every, &stop));
        let t0 = Instant::now();
        for (i, &src) in sources.iter().enumerate() {
            service.query(KhopQuery::single(i, src, k)).expect("query");
        }
        let wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        sources.len() as f64 / wall.as_secs_f64().max(1e-12)
    });
    // The update thread has joined, so the epoch counter a later
    // recovery must land on is final; the snapshot counters are final
    // only once shutdown has drained the snapshot writer — a commit
    // returns when its fence is durable, not when its snapshot is.
    service.shutdown();
    (qps, service.stats())
}

/// A scratch data directory under the target dir, wiped on entry.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cgraph-recovery-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_service(
    edges: &cgraph_graph::EdgeList,
    machines: usize,
    dir: &Path,
    cadence: u64,
) -> QueryService {
    let config = ServiceConfig {
        durability: Some(DurabilityConfig::new(dir).snapshot_every(cadence)),
        ..ServiceConfig::default()
    };
    let (service, _) = QueryService::open_or_recover(edges, EngineConfig::new(machines), config)
        .expect("open durable service");
    service
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let vertices = arg_usize(&args, "--vertices", 4_000) as u64;
    let edge_count = arg_usize(&args, "--edges", 16_000);
    let queries = arg_usize(&args, "--queries", 400);
    let k = arg_usize(&args, "--k", 3) as u32;
    let machines = arg_usize(&args, "--machines", 2);
    let commit_every = arg_usize(&args, "--commit-every", 500);
    banner(
        "Durability: snapshot cadence vs recovery time vs steady-state cost",
        "C-Graph serves continuously; durability is out of scope for the paper",
        "WAL + checksummed epoch snapshots; crash-restart via open_or_recover",
    );

    let edges = cgraph_gen::erdos_renyi(vertices, edge_count, 0xD0_0D);
    let sources = random_sources(&edges, queries.min(vertices as usize / 2), 0xF1613);

    // Durability-off baseline: same engine, same streams.
    eprintln!("[recovery] baseline (durability off)...");
    let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(machines)));
    let baseline = QueryService::start(engine, ServiceConfig::default());
    let (base_qps, base_stats) = run_pass(&baseline, &sources, k, vertices, commit_every);
    drop(baseline);
    println!(
        "baseline: {base_qps:.0} queries/s, {} epochs committed, no durability",
        base_stats.epoch_commits
    );

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut default_slowdown = f64::NAN;
    for cadence in [1u64, 4, 8, 32, u64::MAX] {
        let label = if cadence == u64::MAX { "never".to_string() } else { cadence.to_string() };
        eprintln!("[recovery] cadence {label}...");
        let dir = scratch_dir(&label);
        let service = durable_service(&edges, machines, &dir, cadence);
        let (qps, stats) = run_pass(&service, &sources, k, vertices, commit_every);
        drop(service);
        let slowdown = base_qps / qps.max(1e-12);
        if cadence == 8 {
            default_slowdown = slowdown;
        }

        // Crash-restart: time a cold open_or_recover over the dir the
        // run left behind.
        let t0 = Instant::now();
        let config = ServiceConfig {
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(cadence)),
            ..ServiceConfig::default()
        };
        let (recovered, outcome) =
            QueryService::open_or_recover(&edges, EngineConfig::new(machines), config)
                .expect("recovery");
        let recovery_wall = t0.elapsed();
        assert!(outcome.recovered, "cadence {label}: the run must leave durable state behind");
        assert_eq!(
            outcome.epoch, stats.epoch_commits,
            "cadence {label}: recovery must land on the last committed epoch"
        );
        recovered.shutdown();
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);

        rows.push(vec![
            label.clone(),
            format!("{qps:.0}"),
            format!("{:.2}x", slowdown),
            stats.epoch_commits.to_string(),
            stats.snapshots_written.to_string(),
            stats.wal_bytes.to_string(),
            fmt_dur(recovery_wall),
            outcome.wal_records_replayed.to_string(),
        ]);
        csv_rows.push(vec![
            label,
            format!("{qps:.1}"),
            format!("{slowdown:.3}"),
            stats.epoch_commits.to_string(),
            stats.snapshots_written.to_string(),
            stats.wal_bytes.to_string(),
            recovery_wall.as_secs_f64().to_string(),
            outcome.wal_records_replayed.to_string(),
        ]);
    }

    print_table(
        "Snapshot cadence vs steady-state cost vs recovery",
        &[
            "cadence",
            "queries/s",
            "slowdown",
            "epochs",
            "snapshots",
            "wal B",
            "recovery",
            "replayed",
        ],
        &rows,
    );
    write_csv(
        "recovery_time.csv",
        &[
            "cadence",
            "queries_per_s",
            "slowdown_vs_baseline",
            "epochs",
            "snapshots",
            "wal_bytes",
            "recovery_s",
            "wal_replayed",
        ],
        &csv_rows,
    );

    println!("\nShape checks:");
    println!("  [ok] every cadence recovered to the last committed epoch");
    assert!(
        default_slowdown < 1.10,
        "default cadence (8) must cost < 10% of baseline throughput, measured {:.1}%",
        (default_slowdown - 1.0) * 100.0
    );
    println!(
        "  [ok] default cadence (8) costs {:.1}% of baseline throughput (< 10%)",
        (default_slowdown - 1.0) * 100.0
    );
}
