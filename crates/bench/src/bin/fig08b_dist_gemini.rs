//! Figure 8b — response-time distribution of 100 concurrent 3-hop
//! queries, C-Graph vs serialized Gemini, FR graph, 3 machines.
//!
//! Paper: Gemini executes each query in tens of milliseconds but
//! serializes the batch, so mean response ≈ 4.25 s of stacked wait;
//! C-Graph ≈ 0.3 s.

use cgraph_bench::*;
use cgraph_core::metrics::ResponseStats;
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num_queries = arg_usize(&args, "--queries", 100);
    let k = arg_usize(&args, "--k", 3) as u32;
    banner(
        "Figure 8b: 100 concurrent 3-hop queries vs Gemini (FR, 3 machines)",
        "mean 4.25s (Gemini, stacked waits) vs ~0.3s (C-Graph)",
        &format!("{num_queries} queries on the FR analogue"),
    );

    let edges = load_dataset(Dataset::Fr);
    let sources = random_sources(&edges, num_queries, 0xF160B);

    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let queries: Vec<KhopQuery> =
        sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();
    let cg = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);
    let cg_stats =
        ResponseStats::new(cg.iter().map(|r| r.response_time).collect::<Vec<Duration>>());

    eprintln!("[fig08b] running Gemini (serialized) ...");
    let gemini = cgraph_baselines::GeminiEngine::new(&edges);
    let gm_out =
        gemini.run_queries_serialized(&sources.iter().map(|&s| (s, k)).collect::<Vec<_>>());
    let gm_stats = ResponseStats::new(gm_out.iter().map(|o| o.response_time).collect());
    let gm_exec = ResponseStats::new(gm_out.iter().map(|o| o.exec_time).collect());

    let row = |name: &str, s: &ResponseStats| {
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
    };
    let rows = vec![
        row("C-Graph", &cg_stats),
        row("Gemini (response)", &gm_stats),
        row("Gemini (exec only)", &gm_exec),
    ];
    print_table(
        "Figure 8b: distribution (min/q1/median/q3/max/mean)",
        &["system", "min", "q1", "median", "q3", "max", "mean"],
        &rows,
    );
    println!(
        "\nmean ratio Gemini/C-Graph = {:.1}x (paper: 4.25s / 0.3s = 14x); \
         note Gemini per-query exec stays small — the response gap is queue wait",
        gm_stats.mean().as_secs_f64() / cg_stats.mean().as_secs_f64().max(1e-12)
    );
    write_csv(
        "fig08b_dist_gemini.csv",
        &["system", "min", "q1", "median", "q3", "max", "mean"],
        &rows,
    );
}
