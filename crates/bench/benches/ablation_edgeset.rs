//! Ablation A3 — edge-set blocking vs flat CSR.
//!
//! §3.2 claims the blocked layout improves locality for batched
//! traversals (frontier words and destination ranges stay cache-
//! resident per tile). The flat policy stores one tile per shard; the
//! default policy blocks to LLC-sized tiles with consolidation.

use cgraph_core::{DistributedEngine, EngineConfig};
use cgraph_graph::ConsolidationPolicy;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_edgeset(c: &mut Criterion) {
    let raw = cgraph_gen::graph500(13, 16, 0xAB3);
    let mut b = cgraph_graph::GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let sources: Vec<u64> = (0..64u64).map(|i| (i * 97) % edges.num_vertices()).collect();
    let ks = vec![3u32; 64];

    let mut group = c.benchmark_group("edgeset_64x3hop");
    group.sample_size(10);
    for (name, policy) in [
        ("flat_csr", ConsolidationPolicy::flat()),
        // A fine fixed grid: many tiny tiles, the pre-consolidation
        // state §3.2 calls inefficient.
        ("fine_grid_no_consolidation", ConsolidationPolicy::grid(1 << 8)),
        // The same fine grid with consolidation enabled — the paper's
        // remedy; fewer, larger tiles.
        (
            "fine_grid_consolidated",
            ConsolidationPolicy {
                target_edges_per_set: 1 << 8,
                min_edges_per_set: 1 << 12,
                horizontal: true,
                vertical: true,
            },
        ),
        ("blocked_default", ConsolidationPolicy::default()),
    ] {
        let engine =
            DistributedEngine::new(&edges, EngineConfig::new(2).with_edge_set_policy(policy));
        let tiles: usize = engine.shards().iter().map(|s| s.out_sets().sets().len()).sum();
        eprintln!("[A3] policy {name}: {tiles} tiles total");
        group.bench_function(name, |b| {
            b.iter(|| engine.run_traversal_batch(&sources, &ks).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_edgeset);
criterion_main!(benches);
