//! Figure 1 — the hop plot (cumulative distance distribution).
//!
//! Paper: Slashdot Zoo, δ = 12, δ₀.₅ = 3.51, δ₀.₉ = 4.71 — "most of
//! the network will be visited with less than 5 hops".
//! Here: a Watts–Strogatz small-world graph of comparable shape plus
//! the OR social analogue, sampled via batched multi-source BFS.

use cgraph_analytics::hop_plot;
use cgraph_bench::{arg_usize, banner, load_dataset, print_table, write_csv};
use cgraph_core::{DistributedEngine, EngineConfig};
use cgraph_gen::Dataset;
use cgraph_graph::{BuildOptions, GraphBuilder};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sources = arg_usize(&args, "--sources", 64);
    banner(
        "Figure 1: hop plot",
        "Slashdot Zoo (79K vertices); δ=12, δ0.5=3.51, δ0.9=4.71",
        "small-world graph (50K vertices) + OR analogue; BFS-sampled CDF",
    );

    let mut rows = Vec::new();
    for (name, edges) in [
        ("small-world", {
            let raw = cgraph_gen::small_world(50_000, 6, 0.1, 0x51A5);
            let mut b =
                GraphBuilder::with_options(BuildOptions { symmetrize: true, ..Default::default() });
            b.add_edge_list(&raw);
            b.build().edges
        }),
        ("OR", load_dataset(Dataset::Or)),
    ] {
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let hp = hop_plot(&engine, sources, 7);
        let cdf = hp.cumulative_fractions();
        println!("\n[{name}] {} vertices, {} edges", edges.num_vertices(), edges.len());
        for (d, frac) in cdf.iter().enumerate() {
            println!("  distance ≤ {d:>2}: {:>6.2}%", frac * 100.0);
        }
        let d = hp.diameter();
        let d50 = hp.effective_diameter(0.5);
        let d90 = hp.effective_diameter(0.9);
        println!("  δ = {d}   δ0.5 = {d50:.2}   δ0.9 = {d90:.2}");
        rows.push(vec![name.to_string(), d.to_string(), format!("{d50:.2}"), format!("{d90:.2}")]);
    }
    print_table(
        "Figure 1 summary (paper: δ=12, δ0.5=3.51, δ0.9=4.71)",
        &["graph", "δ", "δ0.5", "δ0.9"],
        &rows,
    );
    write_csv("fig01_hopplot.csv", &["graph", "diameter", "d50", "d90"], &rows);
}
