//! Ablation A2 — shared-subgraph batching on vs off.
//!
//! The scheduler either packs 64 queries into one bit-frontier batch
//! (shared edge-set scans) or runs them one by one. Sharing should win
//! because overlapping 3-hop neighbourhoods are traversed once per
//! batch instead of once per query (Fig. 3b's argument).

use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_sharing(c: &mut Criterion) {
    let raw = cgraph_gen::graph500(12, 16, 0xAB2);
    let mut b = cgraph_graph::GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    let queries: Vec<KhopQuery> = (0..64usize)
        .map(|i| KhopQuery::single(i, (i as u64 * 61) % edges.num_vertices(), 3))
        .collect();

    let mut group = c.benchmark_group("sharing_64x3hop");
    group.sample_size(10);
    group.bench_function("shared_batches", |b| {
        let s = QueryScheduler::new(&engine, SchedulerConfig::default());
        b.iter(|| s.execute(&queries))
    });
    group.bench_function("per_query_serial", |b| {
        let s = QueryScheduler::new(&engine, SchedulerConfig::serial());
        b.iter(|| s.execute(&queries))
    });
    group.finish();
}

criterion_group!(benches, bench_sharing);
criterion_main!(benches);
