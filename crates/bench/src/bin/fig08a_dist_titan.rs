//! Figure 8a — response-time distribution of all subgraph traversals,
//! C-Graph vs Titan, OR graph, single machine.
//!
//! Paper: box plot over 1000 traversals; mean 8.6 s (Titan) vs 0.25 s
//! (C-Graph); ~10% of Titan queries > 50 s.

use cgraph_bench::*;
use cgraph_core::metrics::ResponseStats;
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn five_number_row(name: &str, s: &ResponseStats) -> Vec<String> {
    let f = s.five_number();
    vec![
        name.to_string(),
        fmt_dur(f[0]),
        fmt_dur(f[1]),
        fmt_dur(f[2]),
        fmt_dur(f[3]),
        fmt_dur(f[4]),
        fmt_dur(s.mean()),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let traversals = arg_usize(&args, "--traversals", 200);
    let k = arg_usize(&args, "--k", 3) as u32;
    banner(
        "Figure 8a: traversal-time distribution, C-Graph vs Titan (OR, 1 machine)",
        "1000 traversals; mean 8.6s (Titan) vs 0.25s (C-Graph)",
        &format!("{traversals} traversals on the OR analogue"),
    );

    let edges = load_dataset(Dataset::Or);
    let sources = random_sources(&edges, traversals, 0xF160A);

    let engine = DistributedEngine::new(&edges, EngineConfig::new(1));
    let queries: Vec<KhopQuery> =
        sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();
    let cg = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);
    let cg_stats =
        ResponseStats::new(cg.iter().map(|r| r.response_time).collect::<Vec<Duration>>());

    eprintln!("[fig08a] running Titan traversals...");
    let server = cgraph_baselines::TitanServer::new(
        cgraph_baselines::TitanDb::load(&edges),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
    );
    let titan_queries: Vec<(u64, u32)> = sources.iter().map(|&s| (s, k)).collect();
    let titan_out = server.run_concurrent_khop(&titan_queries);
    let titan_stats = ResponseStats::new(titan_out.iter().map(|o| o.response_time).collect());

    let rows = vec![five_number_row("C-Graph", &cg_stats), five_number_row("Titan", &titan_stats)];
    print_table(
        "Figure 8a: distribution (min/q1/median/q3/max/mean)",
        &["system", "min", "q1", "median", "q3", "max", "mean"],
        &rows,
    );
    println!(
        "\nmean ratio Titan/C-Graph = {:.1}x (paper: 8.6s / 0.25s = 34x)",
        titan_stats.mean().as_secs_f64() / cg_stats.mean().as_secs_f64().max(1e-12)
    );
    write_csv(
        "fig08a_dist_titan.csv",
        &["system", "min", "q1", "median", "q3", "max", "mean"],
        &rows,
    );
}
