//! Figure 9 — data-size scalability: 100 concurrent 3-hop queries on
//! OR / FR / FRS-B, 9 machines; sorted response times.
//!
//! Paper: ~85% of queries within 0.4 s (FR) / 0.6 s (FRS-100B);
//! upper bounds 1.2 s and 1.6 s — growing the graph 100× costs the
//! tail only ~30%.

use cgraph_bench::*;
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num_queries = arg_usize(&args, "--queries", 100);
    let machines = arg_usize(&args, "--machines", 9);
    let k = arg_usize(&args, "--k", 3) as u32;
    banner(
        "Figure 9: data-size scalability (100 concurrent 3-hop queries, 9 machines)",
        "OR-100M / FR-1B / FRS-100B; upper bounds 1.2s (FR), 1.6s (FRS)",
        &format!("{num_queries} queries, {machines} simulated machines, scaled datasets"),
    );

    let mut summary = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for ds in [Dataset::Or, Dataset::Fr, Dataset::FrsB] {
        let name = ds.spec().name;
        let edges = load_dataset(ds);
        eprintln!("[fig09] building engine for {name} ({} edges)...", edges.len());
        let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));
        let sources = random_sources(&edges, num_queries, 0xF1609);
        let queries: Vec<KhopQuery> =
            sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();
        let res = QueryScheduler::new(
            &engine,
            SchedulerConfig { use_sim_time: true, ..Default::default() },
        )
        .execute(&queries);
        let mut times: Vec<Duration> = res.iter().map(|r| r.response_time).collect();
        times.sort_unstable();
        let p85 = times[(num_queries * 85 / 100).min(num_queries - 1)];
        let max = *times.last().unwrap();
        println!(
            "[{name}] p50 {}  p85 {}  max {}",
            fmt_dur(times[num_queries / 2]),
            fmt_dur(p85),
            fmt_dur(max)
        );
        summary.push(vec![
            name.to_string(),
            edges.len().to_string(),
            fmt_dur(times[num_queries / 2]),
            fmt_dur(p85),
            fmt_dur(max),
        ]);
        for (i, t) in times.iter().enumerate() {
            csv_rows.push(vec![name.to_string(), i.to_string(), t.as_secs_f64().to_string()]);
        }
    }
    print_table(
        "Figure 9: response-time summary per dataset (simulated cluster time)",
        &["dataset", "edges", "p50", "p85", "max"],
        &summary,
    );
    println!(
        "\nshape check: max(FRS-B)/max(FR) should be a modest factor \
         (paper: 1.6s/1.2s = 1.33)"
    );
    write_csv("fig09_datasize.csv", &["dataset", "rank", "seconds"], &csv_rows);
}
