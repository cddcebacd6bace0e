//! Multi-user query-server scenario (§2 and §4.2 of the paper).
//!
//! "In enterprise applications, a system usually has to gracefully
//! handle multiple queries at the same time." The paper grades
//! response times against human-perception thresholds: instantaneous
//! (≤0.2 s), interactive (≤2 s), attention-keeping (≤10 s).
//!
//! This example simulates three waves of users issuing 3-hop queries
//! against a shared social graph, and grades every wave against those
//! thresholds — comparing C-Graph's shared batches with the serialized
//! fallback a non-concurrent engine forces.
//!
//! Run with: `cargo run --release --example concurrent_server`

use cgraph::prelude::*;
use std::time::Duration;

fn grade(stats: &ResponseStats) -> String {
    // The paper's UX thresholds, scaled 100× down with the dataset
    // (§4.1 graphs are ~100–500× larger than our analogues).
    let instant = Duration::from_millis(2);
    let interactive = Duration::from_millis(20);
    format!(
        "{:>4.0}% instantaneous, {:>4.0}% interactive, max {:?}",
        stats.fraction_within(instant) * 100.0,
        stats.fraction_within(interactive) * 100.0,
        stats.max()
    )
}

fn main() {
    let raw = cgraph::gen::graph500(13, 16, 2024);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    println!(
        "serving graph: {} vertices, {} edges on 3 machines\n",
        edges.num_vertices(),
        edges.len()
    );

    for wave in [10usize, 50, 150] {
        let queries: Vec<KhopQuery> = (0..wave)
            .map(|i| KhopQuery::single(i, (i as u64 * 131) % edges.num_vertices(), 3))
            .collect();

        let shared = QueryScheduler::new(&engine, SchedulerConfig::default());
        let res = shared.execute(&queries);
        let stats = ResponseStats::new(res.iter().map(|r| r.response_time).collect());
        println!("wave of {wave:>3} users (shared batches): {}", grade(&stats));

        let serial = QueryScheduler::new(&engine, SchedulerConfig::serial());
        let res = serial.execute(&queries);
        let stats = ResponseStats::new(res.iter().map(|r| r.response_time).collect());
        println!("wave of {wave:>3} users (serialized)    : {}\n", grade(&stats));
    }

    println!(
        "shared batches keep the whole wave inside the interactive budget; \
         serialization pushes tail users past it — the paper's Fig. 8b/13 story."
    );
}
