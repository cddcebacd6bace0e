//! Lane-width ablation — the fig13 concurrent-BFS workload (FR graph,
//! 3 machines) packed at batch widths W = 64 / 128 / 256 / 512.
//!
//! A W-wide batch shares every frontier-row scan across W queries
//! instead of 64, so the edge-set rows scanned *per query* must fall
//! monotonically as W grows; queries/s shows how much of that saving
//! survives the wider per-row mask work.

use cgraph_bench::*;
use cgraph_core::{DistributedEngine, EngineConfig};
use cgraph_gen::dataset_by_name;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machines = arg_usize(&args, "--machines", 3);
    let queries = arg_usize(&args, "--queries", 512);
    let k = arg_usize(&args, "--k", 4) as u32;
    let dataset = arg_string(&args, "--dataset", "FR");
    banner(
        "Lane-width ablation: k-hop batches at W = 64/128/256/512 (FR, 3 machines)",
        "§3.5 fixes one 64-bit word per vertex; wider batches are the natural extension",
        "runtime-width packing: scans-per-query must fall monotonically with W",
    );

    let edges = load_dataset(dataset_by_name(&dataset).expect("known dataset"));
    let sources = random_sources(&edges, queries, 0xF1613);
    let ks = vec![k; queries];
    eprintln!("[ablation] building engine...");
    let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut prev_spq = f64::INFINITY;
    let mut monotone = true;
    for width in [64usize, 128, 256, 512] {
        eprintln!("[ablation] W = {width}...");
        let t0 = std::time::Instant::now();
        let mut scans = 0u64;
        for (cs, ck) in sources.chunks(width).zip(ks.chunks(width)) {
            let r = engine.run_traversal_batch(cs, ck).unwrap();
            scans += r.scans;
        }
        let wall = t0.elapsed();
        let qps = queries as f64 / wall.as_secs_f64().max(1e-12);
        let spq = scans as f64 / queries as f64;
        monotone &= spq <= prev_spq;
        prev_spq = spq;
        rows.push(vec![
            width.to_string(),
            fmt_dur(wall),
            format!("{qps:.0}"),
            scans.to_string(),
            format!("{spq:.1}"),
        ]);
        csv_rows.push(vec![
            width.to_string(),
            wall.as_secs_f64().to_string(),
            format!("{qps:.1}"),
            scans.to_string(),
            format!("{spq:.2}"),
        ]);
    }
    print_table(
        &format!("Lane-width ablation: {queries} x {k}-hop queries ({dataset})"),
        &["W", "wall", "queries/s", "rows scanned", "scans/query"],
        &rows,
    );
    println!(
        "\nshape check: scans/query falls monotonically 64 -> 512 ({})",
        if monotone { "holds" } else { "VIOLATED" }
    );
    write_csv(
        "ablation_lane_width.csv",
        &["width", "wall_s", "queries_per_s", "rows_scanned", "scans_per_query"],
        &csv_rows,
    );
}
