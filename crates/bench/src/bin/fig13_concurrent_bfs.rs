//! Figure 13 — concurrent full BFS vs Gemini, FR graph, 3 machines,
//! 1 / 64 / 128 / 256 concurrent queries: total execution time.
//!
//! Paper: Gemini's total time is linear in query count (serialized);
//! C-Graph (bit operations enabled) grows sublinearly — 1.7× faster at
//! 64/128 queries and 2.4× at 256.

use cgraph_bench::*;
use cgraph_core::{DistributedEngine, EngineConfig};
use cgraph_gen::Dataset;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machines = arg_usize(&args, "--machines", 3);
    banner(
        "Figure 13: concurrent BFS total time vs Gemini (FR, 3 machines)",
        "Gemini linear in query count; C-Graph sublinear; 1.7x@64/128, 2.4x@256",
        "bit-operation batches vs serialized parallel BFS on the FR analogue",
    );

    let edges = load_dataset(Dataset::Fr);
    let sources = random_sources(&edges, 256, 0xF1613);
    eprintln!("[fig13] building engines...");
    let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));
    let gemini = cgraph_baselines::GeminiEngine::new(&edges);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for count in [1usize, 64, 128, 256] {
        eprintln!("[fig13] {count} concurrent BFS...");
        // C-Graph: 64-lane batches of full BFS.
        let t0 = std::time::Instant::now();
        let mut sim_total = Duration::ZERO;
        for chunk in sources[..count].chunks(64) {
            let ks = vec![u32::MAX; chunk.len()];
            let r = engine.run_traversal_batch(chunk, &ks).unwrap();
            sim_total += r.sim_exec_time();
        }
        let cg_wall = t0.elapsed();

        // Gemini: serialized queries.
        let gm_out = gemini.run_queries_serialized(
            &sources[..count].iter().map(|&s| (s, u32::MAX)).collect::<Vec<_>>(),
        );
        let gm_total = gm_out.last().unwrap().response_time;

        let ratio = gm_total.as_secs_f64() / cg_wall.as_secs_f64().max(1e-12);
        rows.push(vec![
            count.to_string(),
            fmt_dur(cg_wall),
            fmt_dur(sim_total),
            fmt_dur(gm_total),
            format!("{ratio:.1}x"),
        ]);
        csv_rows.push(vec![
            count.to_string(),
            cg_wall.as_secs_f64().to_string(),
            sim_total.as_secs_f64().to_string(),
            gm_total.as_secs_f64().to_string(),
        ]);
    }
    print_table(
        "Figure 13: total execution time for N concurrent BFS",
        &["queries", "C-Graph (wall)", "C-Graph (sim)", "Gemini", "Gemini/C-Graph"],
        &rows,
    );
    println!(
        "\nshape check (paper): Gemini linear; C-Graph sublinear; speedup grows \
         with query count (1.7x@64 → 2.4x@256)"
    );
    write_csv(
        "fig13_concurrent_bfs.csv",
        &["queries", "cgraph_wall_s", "cgraph_sim_s", "gemini_s"],
        &csv_rows,
    );
}
