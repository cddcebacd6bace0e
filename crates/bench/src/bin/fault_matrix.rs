//! Fault matrix — recovery behaviour and overhead per fault class.
//!
//! Not a paper figure: C-Graph (ICPP'18) assumes fault-free machines.
//! This harness documents the robustness extension instead: for each
//! fault class of the deterministic chaos plane it runs the same
//! 64-lane k-hop batch stream through a [`cgraph_core::QueryService`]
//! with checkpointing, retries, and degradation enabled, and reports
//!
//! * how the fault was absorbed (confined replay / global rollback /
//!   retry / degradation),
//! * what it cost (batch overhead vs the fault-free baseline),
//! * and that no query was lost (`failed` must be 0 except for the
//!   deliberately unrecoverable row).
//!
//! Every plan carries a fixed seed: rerunning reproduces the exact
//! same faults, decisions, and counters.

use cgraph_bench::*;
use cgraph_core::{
    DistributedEngine, EngineConfig, FaultPlan, KhopQuery, QueryService, RecoveryConfig,
    ServiceConfig, ServiceStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `queries` k-hop queries through a fresh service configured
/// with `plan`, returning lifetime stats and wall time.
fn run_case(
    edges: &cgraph_graph::EdgeList,
    machines: usize,
    queries: usize,
    k: u32,
    plan: Option<FaultPlan>,
    degrade_after: Option<u32>,
) -> (ServiceStats, Duration) {
    let engine = Arc::new(DistributedEngine::new(edges, EngineConfig::new(machines)));
    let service = QueryService::start(
        engine,
        ServiceConfig {
            max_batch_delay: Duration::from_micros(200),
            fault_plan: plan,
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            recovery: RecoveryConfig { checkpoint_interval: 4, max_recoveries: 3 },
            degrade_after,
            ..Default::default()
        },
    );
    let sources = random_sources(edges, queries.min(256), 0xFA17);
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..queries)
        .map(|i| service.submit(KhopQuery::single(i, sources[i % sources.len()], k)).unwrap())
        .collect();
    for t in tickets {
        let _ = t.wait();
    }
    let wall = t0.elapsed();
    let stats = service.stats();
    service.shutdown();
    (stats, wall)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machines = arg_usize(&args, "--machines", 4);
    let queries = arg_usize(&args, "--queries", 512);
    let k = arg_usize(&args, "--k", 6) as u32;
    banner(
        "Fault matrix: chaos plane x recovery policy",
        "robustness extension (not a paper figure): C-Graph assumes fault-free machines",
        "same query stream per row; deterministic FaultPlan seeds; p=4 sync engine",
    );
    let edges = load_dataset_by_name(&arg_string(&args, "--dataset", "TINY"));

    // Each row: (label, plan, degrade_after). Crashes heal after one
    // attempt except the degradation row (repeated crashes of the
    // *last* machine, which re-partitioning removes) and the
    // unrecoverable row (which must exhaust every retry). The
    // transient crash hits superstep 4 — right after the interval-4
    // checkpoint commits — so recovery restores rather than replays.
    let cases: Vec<(&str, Option<FaultPlan>, Option<u32>)> = vec![
        ("fault-free", None, None),
        ("crash, transient", Some(FaultPlan::new(7).crash(2, 4).heal_after(1)), None),
        ("crash, repeated -> degrade", Some(FaultPlan::new(8).crash(3, 2)), Some(2)),
        ("drop 1% of messages", Some(FaultPlan::new(9).with_drop(0.01).heal_after(1)), None),
        ("dup 5% + reorder 5%", Some(FaultPlan::new(10).with_dup(0.05).with_reorder(0.05)), None),
        ("slow link 0->1 (+50us)", Some(FaultPlan::new(11).slow_link(0, 1, 50_000)), None),
        ("crash, unrecoverable (job 0)", Some(FaultPlan::new(12).crash(2, 2).arm_jobs(0..1)), None),
    ];

    let mut rows = Vec::new();
    let mut baseline_wall = Duration::ZERO;
    for (label, plan, degrade) in cases {
        eprintln!("[fault-matrix] {label}...");
        let spec = plan.as_ref().map_or_else(|| "-".to_string(), |p| p.to_string());
        let (s, wall) = run_case(&edges, machines, queries, k, plan, degrade);
        if label == "fault-free" {
            baseline_wall = wall;
        }
        let overhead = if baseline_wall.is_zero() {
            "1.00x".to_string()
        } else {
            format!("{:.2}x", wall.as_secs_f64() / baseline_wall.as_secs_f64())
        };
        rows.push(vec![
            label.to_string(),
            spec,
            s.queries_failed.to_string(),
            s.recoveries.to_string(),
            format!("{}/{}", s.checkpoints_restored, s.checkpoints_taken),
            s.partitions_replayed.to_string(),
            s.full_rollbacks.to_string(),
            s.retries.to_string(),
            s.degraded_generations.to_string(),
            overhead,
        ]);
    }
    let header = [
        "fault",
        "plan",
        "failed",
        "recoveries",
        "ckpt rst/taken",
        "part replayed",
        "rollbacks",
        "retries",
        "degraded",
        "wall vs clean",
    ];
    print_table("fault matrix", &header, &rows);
    write_csv("fault_matrix", &header, &rows);
}
