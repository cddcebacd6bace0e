//! Figure 7 — single-machine comparison of concurrent 3-hop queries,
//! C-Graph vs Titan, OR graph.
//!
//! Paper: 100 concurrent queries × 10 random sources each; C-Graph
//! 21×–74× faster rank-wise, all queries < 1 s while Titan goes to
//! 70 s. Here: same protocol on the OR analogue (sources per query
//! configurable — Titan's record-store traversal is expensive on a
//! single core, so the default is 2 sources/query; pass
//! `--sources 10 --queries 100` for the paper's exact counts).

use cgraph_bench::*;
use cgraph_core::metrics::{rankwise_speedup, ResponseStats};
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num_queries = arg_usize(&args, "--queries", 100);
    let per_query = arg_usize(&args, "--sources", 2);
    let k = arg_usize(&args, "--k", 3) as u32;
    banner(
        "Figure 7: 100 concurrent 3-hop queries, C-Graph vs Titan (1 machine, OR)",
        "100 queries x 10 sources; C-Graph 21x-74x faster; all < 1s vs Titan up to 70s",
        &format!("{num_queries} queries x {per_query} sources on the OR analogue"),
    );

    let edges = load_dataset(Dataset::Or);
    let sources = random_sources(&edges, num_queries * per_query, 0xF1607);

    // --- C-Graph: batched concurrent execution on 1 machine ---------
    let engine = DistributedEngine::new(&edges, EngineConfig::new(1));
    let queries: Vec<KhopQuery> = (0..num_queries)
        .map(|q| KhopQuery::multi(q, sources[q * per_query..(q + 1) * per_query].to_vec(), k))
        .collect();
    let cg = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);
    let mut cg_times: Vec<Duration> = cg.iter().map(|r| r.response_time).collect();
    cg_times.sort_unstable();

    // --- Titan: thread-pool concurrent execution --------------------
    eprintln!("[fig07] loading Titan store ({} edges)...", edges.len());
    let server = cgraph_baselines::TitanServer::new(
        cgraph_baselines::TitanDb::load(&edges),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
    );
    let titan_queries: Vec<(u64, u32)> = sources.iter().map(|&s| (s, k)).collect();
    eprintln!("[fig07] running {} Titan traversals...", titan_queries.len());
    let titan_out = server.run_concurrent_khop(&titan_queries);
    // Fold traversals into queries (mean response per query).
    let mut titan_times: Vec<Duration> = (0..num_queries)
        .map(|q| {
            let slice = &titan_out[q * per_query..(q + 1) * per_query];
            slice.iter().map(|o| o.response_time).sum::<Duration>() / per_query as u32
        })
        .collect();
    titan_times.sort_unstable();

    // --- Report ------------------------------------------------------
    let cg_stats = ResponseStats::new(cg_times.clone());
    let titan_stats = ResponseStats::new(titan_times.clone());
    let speedups = rankwise_speedup(&cg_stats, &titan_stats);
    let smin = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let smax = speedups.iter().cloned().fold(0.0, f64::max);

    let mut rows = Vec::new();
    for i in (0..num_queries).step_by((num_queries / 10).max(1)) {
        rows.push(vec![
            i.to_string(),
            fmt_dur(cg_times[i]),
            fmt_dur(titan_times[i]),
            format!("{:.1}x", speedups[i]),
        ]);
    }
    rows.push(vec![
        "max".into(),
        fmt_dur(*cg_times.last().unwrap()),
        fmt_dur(*titan_times.last().unwrap()),
        format!("{:.1}x", speedups[num_queries - 1]),
    ]);
    print_table(
        "Figure 7: sorted per-query response times",
        &["rank", "C-Graph", "Titan", "speedup"],
        &rows,
    );
    println!(
        "\nspeedup range {:.0}x–{:.0}x (paper: 21x–74x); C-Graph max {} (paper < 1s), \
         Titan max {} (paper up to 70s)",
        smin,
        smax,
        fmt_dur(*cg_times.last().unwrap()),
        fmt_dur(*titan_times.last().unwrap())
    );
    let csv_rows: Vec<Vec<String>> = (0..num_queries)
        .map(|i| {
            vec![
                i.to_string(),
                cg_times[i].as_secs_f64().to_string(),
                titan_times[i].as_secs_f64().to_string(),
            ]
        })
        .collect();
    write_csv("fig07_titan_vs_cgraph.csv", &["rank", "cgraph_s", "titan_s"], &csv_rows);
}
