//! Ablation A1/A5 — bit-packed frontier vs queue-based frontier, and
//! the memory footprint of dynamic (two-level) vertex values.
//!
//! The paper's §3.5 argument: with many concurrent traversals, set/queue
//! frontiers pay allocation + locking; bit arrays give constant-time,
//! allocation-free updates. Expect the 64-query batch to beat 64
//! queue-based runs by a wide margin.

use cgraph_core::traverse::ValueMode;
use cgraph_core::{DistributedEngine, EngineConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn build_engine() -> (DistributedEngine, Vec<u64>) {
    let raw = cgraph_gen::graph500(12, 16, 0xAB1);
    let mut b = cgraph_graph::GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    let sources: Vec<u64> = (0..64u64).map(|i| (i * 37) % edges.num_vertices()).collect();
    (engine, sources)
}

fn bench_frontier(c: &mut Criterion) {
    let (engine, sources) = build_engine();
    let ks = vec![3u32; 64];

    let mut group = c.benchmark_group("frontier_64x3hop");
    group.sample_size(10);
    group.bench_function("bit_batch", |b| {
        b.iter(|| engine.run_traversal_batch(&sources, &ks).unwrap())
    });
    group.bench_function("queue_serial", |b| {
        b.iter(|| {
            for &s in &sources {
                engine.run_single_queue(&[s], 3, ValueMode::TwoLevel);
            }
        })
    });
    group.finish();

    // A5: report the memory metric once (not a timing bench). Use a
    // larger-diameter small-world graph where frontiers stay thin —
    // the regime where the two-level window pays (k-hop queries with
    // small k on big graphs: the frontier is a sliver of |V|).
    let sw = cgraph_gen::small_world(50_000, 4, 0.02, 0xA5);
    let mut b = cgraph_graph::GraphBuilder::new();
    b.add_edge_list(&sw);
    let sw = b.build().edges;
    let sw_engine = DistributedEngine::new(&sw, EngineConfig::new(1));
    let two = sw_engine.run_single_queue(&[0], 4, ValueMode::TwoLevel);
    let full = sw_engine.run_single_queue(&[0], 4, ValueMode::Full);
    eprintln!(
        "[A5 memory] peak live vertex-value entries (4-hop, 50K-vertex small world): \
         two-level = {}, full = {} ({:.0}x reduction)",
        two.peak_value_entries,
        full.peak_value_entries,
        full.peak_value_entries as f64 / two.peak_value_entries.max(1) as f64
    );
}

criterion_group!(benches, bench_frontier);
criterion_main!(benches);
