//! # cgraph — a concurrent graph reachability query framework
//!
//! A from-scratch Rust reproduction of *C-Graph: A Highly Efficient
//! Concurrent Graph Reachability Query Framework* (Zhou, Chen, Xia,
//! Teodorescu — ICPP 2018): an edge-set based, range-partitioned,
//! distributed graph engine that answers **hundreds of concurrent
//! k-hop reachability queries** by sharing traversal work across
//! queries through MS-BFS-style bit lanes.
//!
//! ## Quickstart
//!
//! ```
//! use cgraph::prelude::*;
//!
//! // A small social-style graph (Graph 500 Kronecker, cleaned).
//! let raw = cgraph::gen::graph500(10, 8, 42);
//! let mut b = GraphBuilder::new();
//! b.add_edge_list(&raw);
//! let edges = b.build().edges;
//!
//! // A 2-machine simulated cluster.
//! let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
//!
//! // 100 concurrent 3-hop queries, batched 64 per bit-frontier pass.
//! let queries: Vec<KhopQuery> =
//!     (0..100).map(|i| KhopQuery::single(i, (i as u64 * 7) % 1024, 3)).collect();
//! let results = QueryScheduler::new(&engine, SchedulerConfig::default())
//!     .execute(&queries);
//! assert_eq!(results.len(), 100);
//! assert!(results.iter().all(|r| r.visited >= 1));
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | cgraph-graph | CSR/CSC, edge-set tiles, bitmaps, properties, 2-hop labels |
//! | [`gen`] | cgraph-gen | Graph 500/RMAT, ER, small-world, BA, scaling, I/O |
//! | [`cache`] | cgraph-cache | the query plane in front of the engine: CLOCK result cache, in-flight coalescer, batch formation ([`cache::plan_batch`]) |
//! | [`comm`] | cgraph-comm | simulated cluster, barriers, termination, net model |
//! | [`core`] | cgraph-core | partitioning, shards, PCM, bit frontiers, engine, scheduler |
//! | [`index`] | cgraph-index | boundary reachability index: distance sketches that answer k-hop queries without traversing |
//! | [`obs`] | cgraph-obs | metrics registry, structured tracing, text exposition |
//! | [`baselines`] | cgraph-baselines | Titan-like graph DB, Gemini-like serialized engine |
//! | [`analytics`] | cgraph-analytics | BFS, k-hop, SSSP, PageRank, WCC, triangles, k-core, closeness, hop plot |
//! | [`ql`] | cgraph-ql | query language + concurrent-wave session (see `examples/query_shell.rs`) |

#![warn(missing_docs)]

pub use cgraph_analytics as analytics;
pub use cgraph_baselines as baselines;
pub use cgraph_cache as cache;
pub use cgraph_comm as comm;
pub use cgraph_core as core;
pub use cgraph_gen as gen;
pub use cgraph_graph as graph;
pub use cgraph_index as index;
pub use cgraph_obs as obs;
pub use cgraph_ql as ql;

/// The names most programs need.
pub mod prelude {
    pub use cgraph_analytics::{
        bfs_count, bfs_levels, closeness_of, count_triangles, hop_plot, kcore_decomposition,
        khop_count, khop_counts_batch, pagerank, sssp, sssp_within, top_closeness,
        weakly_connected_components,
    };
    pub use cgraph_core::gas::{Gas, PageRank};
    pub use cgraph_core::traverse::ValueMode;
    pub use cgraph_core::{
        DistributedEngine, DurabilityConfig, DurabilityError, DurabilityStats, EdgeUpdate,
        EngineConfig, FaultPlan, GroupConfig, IndexAnswer, IndexBuilder, IndexConfig, KhopQuery,
        MutationConfig, QueryPlaneConfig, QueryResult, QueryScheduler, QueryService, ReachIndex,
        RecoveryConfig, RecoveryOutcome, RecoveryReport, ResponseStats, RouterConfig, RouterStats,
        SchedulerConfig, ServiceConfig, ServiceError, ServiceGroup, ServiceStats, UpdateBatch,
        UpdateMode, VertexProgram,
    };
    pub use cgraph_gen::Dataset;
    pub use cgraph_graph::{
        BuildOptions, Csr, Edge, EdgeList, GraphBuilder, ReindexMode, VertexId,
    };
    pub use cgraph_index::{BoundaryIndexBuilder, IndexTier};
}
