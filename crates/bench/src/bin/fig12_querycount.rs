//! Figure 12 — query-count scalability on FRS-B (9 machines):
//! 20 / 50 / 100 / 350 concurrent 3-hop queries.
//!
//! Paper: up to 100 queries, 80% finish within 0.6 s and 90% within
//! 1 s; at 350 queries the framework degrades (memory pressure) —
//! only ~40% respond within 1 s, ~60% within 2 s, the rest take
//! 4–7 s.

use cgraph_bench::*;
use cgraph_core::metrics::ResponseStats;
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machines = arg_usize(&args, "--machines", 9);
    let k = arg_usize(&args, "--k", 3) as u32;
    banner(
        "Figure 12: query-count scalability on FRS-B (9 machines)",
        "20/50/100/350 queries; degradation at 350 from resource limits",
        "same counts on the FRS-B analogue, simulated cluster time",
    );

    let edges = load_dataset(Dataset::FrsB);
    eprintln!("[fig12] building engine ({} edges)...", edges.len());
    let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));

    let max_queries = 350usize;
    let sources = random_sources(&edges, max_queries, 0xF1612);

    // Run all query counts, then derive bucket edges from the slowest
    // configuration (the paper's grid covers its own measured range).
    let mut all_stats = Vec::new();
    for count in [20usize, 50, 100, 350] {
        eprintln!("[fig12] {count} concurrent queries...");
        let queries: Vec<KhopQuery> =
            sources[..count].iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();
        let res = QueryScheduler::new(
            &engine,
            SchedulerConfig { use_sim_time: true, ..Default::default() },
        )
        .execute(&queries);
        let stats = ResponseStats::new(res.iter().map(|r| r.response_time).collect::<Vec<_>>());
        all_stats.push((count, stats));
    }
    let overall_max =
        all_stats.iter().map(|(_, s)| s.max()).max().unwrap_or(Duration::from_millis(10));
    let step = (overall_max / 10 + Duration::from_nanos(1)).max(Duration::from_micros(100));
    let buckets: Vec<Duration> = (1..=10u32).map(|i| step * i).collect();
    let labels: Vec<String> = buckets.iter().map(|d| format!("≤{}", fmt_dur(*d))).collect();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (count, stats) in &all_stats {
        let hist = stats.cumulative_histogram(&buckets);
        let mut cells = vec![count.to_string()];
        cells.extend(hist.iter().map(|pct| format!("{pct:.0}%")));
        cells.push(fmt_dur(stats.max()));
        rows.push(cells);
        for (b, pct) in hist.iter().enumerate() {
            csv_rows.push(vec![
                count.to_string(),
                buckets[b].as_secs_f64().to_string(),
                pct.to_string(),
            ]);
        }
    }
    let mut header: Vec<&str> = vec!["queries"];
    header.extend(labels.iter().map(String::as_str));
    header.push("max");
    print_table("Figure 12: cumulative % of queries within bucket", &header, &rows);
    println!(
        "\nshape check (paper): ≤100 queries respond fast; 350 queries degrade \
         markedly with a long tail"
    );
    write_csv("fig12_querycount.csv", &["queries", "bucket_s", "cum_pct"], &csv_rows);
}
