//! Ablation A4 — synchronous supersteps vs asynchronous free-running
//! execution for a single k-hop query.
//!
//! §3.3 supports both; sync pays a barrier per hop, async pays
//! per-message sends and label correction. On small-diameter graphs
//! with few machines the barrier count is tiny, so sync usually wins;
//! async's advantage appears when stragglers make barriers expensive.

use cgraph_core::traverse::ValueMode;
use cgraph_core::{DistributedEngine, EngineConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_sync_async(c: &mut Criterion) {
    let raw = cgraph_gen::graph500(12, 16, 0xAB4);
    let mut b = cgraph_graph::GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let sync_engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let async_engine = DistributedEngine::new(&edges, EngineConfig::new(3).asynchronous());
    let src = 5u64;

    let mut group = c.benchmark_group("sync_vs_async_3hop");
    group.sample_size(10);
    group.bench_function("sync_supersteps", |b| {
        b.iter(|| sync_engine.run_single_queue(&[src], 3, ValueMode::TwoLevel))
    });
    group.bench_function("async_quiescence", |b| {
        b.iter(|| async_engine.run_single_queue(&[src], 3, ValueMode::TwoLevel))
    });
    group.finish();
}

criterion_group!(benches, bench_sync_async);
criterion_main!(benches);
