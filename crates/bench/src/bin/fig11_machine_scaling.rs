//! Figure 11 — multi-machine scalability of 100 concurrent k-hop
//! queries on FR, with 1 / 3 / 6 / 9 machines: cumulative response-time
//! histograms.
//!
//! Paper: with more machines most queries still finish fast (80%
//! within 0.2 s, 90% within 1 s) — more machines add boundary-vertex
//! synchronization but the partition-centric + edge-set design keeps
//! the distribution tight.

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
        "Figure 11: 100 concurrent 3-hop queries on FR, 1/3/6/9 machines",
        "cumulative histograms; 80% < 0.2s, 90% < 1s at all machine counts",
        &format!("{num_queries} queries, simulated cluster time, scaled buckets"),
    );

    let edges = load_dataset(Dataset::Fr);
    let sources = random_sources(&edges, num_queries, 0xF1611);
    let queries: Vec<KhopQuery> =
        sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, k)).collect();

    // Collect all configurations first, then derive bucket edges from
    // the slowest one — the paper's fixed 0.2s..2.0s grid covers its
    // own measured range; ours auto-scales with the smaller dataset.
    let mut all_stats = Vec::new();
    for p in [1usize, 3, 6, 9] {
        eprintln!("[fig11] {p} machine(s)...");
        let engine = DistributedEngine::new(&edges, EngineConfig::new(p));
        let res = QueryScheduler::new(
            &engine,
            SchedulerConfig { use_sim_time: true, ..Default::default() },
        )
        .execute(&queries);
        let stats = ResponseStats::new(res.iter().map(|r| r.response_time).collect::<Vec<_>>());
        all_stats.push((p, stats));
    }
    let overall_max =
        all_stats.iter().map(|(_, s)| s.max()).max().unwrap_or(Duration::from_millis(10));
    let step = (overall_max / 10 + Duration::from_nanos(1)).max(Duration::from_micros(100));
    let edges_buckets: Vec<Duration> = (1..=10u32).map(|i| step * i).collect();
    let labels: Vec<String> = edges_buckets.iter().map(|d| format!("≤{}", fmt_dur(*d))).collect();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (p, stats) in &all_stats {
        let hist = stats.cumulative_histogram(&edges_buckets);
        let mut cells = vec![format!("{p}")];
        cells.extend(hist.iter().map(|pct| format!("{pct:.0}%")));
        rows.push(cells);
        for (b, pct) in hist.iter().enumerate() {
            csv_rows.push(vec![
                p.to_string(),
                edges_buckets[b].as_secs_f64().to_string(),
                pct.to_string(),
            ]);
        }
    }
    let mut header: Vec<&str> = vec!["machines"];
    header.extend(labels.iter().map(String::as_str));
    print_table("Figure 11: cumulative % of queries within bucket", &header, &rows);
    println!("\nshape check (paper): distribution stays tight as machines grow");
    write_csv("fig11_machine_scaling.csv", &["machines", "bucket_s", "cum_pct"], &csv_rows);
}
