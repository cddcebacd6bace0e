//! # cgraph-core — the C-Graph concurrent query framework
//!
//! This crate implements the primary contribution of *C-Graph: A Highly
//! Efficient Concurrent Graph Reachability Query Framework* (Zhou,
//! Chen, Xia, Teodorescu — ICPP 2018):
//!
//! * [`partition`] — range-based graph partitioning balanced by edge
//!   count (§3.1),
//! * [`shard`] — the per-machine subgraph shard: edge-set blocked
//!   out-edges and boundary-vertex accounting (§3.1–3.2; CSC in-edges
//!   are derived by the engine for GAS and partition programs),
//! * [`pcm`] — the partition-centric programming abstraction of
//!   Listing 1 (`compute`/`sendTo`/`voteToHalt`/…, §3.4),
//! * [`traverse`] — the queue-based `Traverse` of Listing 2 (two-level
//!   vertex values, §3.3) and its partition programs,
//! * [`bitfrontier`] — the MS-BFS style bit-packed concurrent traversal
//!   state (§3.5, Fig. 6),
//! * [`engine`] — the distributed engine: three machine loops (the lane
//!   batch, the BSP driver of partition programs, the async queue) on a
//!   [`cgraph_comm::PersistentCluster`] — the service's, or a one-shot
//!   one per call,
//! * [`gas`] — the Gather-Apply-Scatter interface of Listing 3 and its
//!   partition program (PageRank),
//! * [`scheduler`] — the concurrent-query front end: batches queries
//!   into lane groups up to 512 wide, shares subgraph traversals
//!   inside a batch, and enforces a memory budget (§3.3, §3.5),
//! * [`service`] — the persistent streaming front end: an admission
//!   queue with backpressure, batches formed group-wide by the one
//!   dispatcher thread that owns the engine, and execution on a long-lived
//!   [`cgraph_comm::PersistentCluster`],
//! * [`metrics`] — response-time distributions (the quantity every
//!   figure of §4 reports),
//! * [`recovery`] — superstep checkpointing and confined partition
//!   replay for fault-tolerant batch execution under an injected
//!   [`cgraph_comm::chaos::FaultPlan`],
//! * [`durability`] — the on-disk durability plane: checksummed epoch
//!   snapshots, an update WAL, and the crash-restart recovery path
//!   behind [`QueryService::open_or_recover`](service::QueryService::open_or_recover),
//! * [`index_api`] — the reachability-index contract: the
//!   [`ReachIndex`] surface the scheduler and the service consult for
//!   index-only answers (a query the index cannot answer is traversed
//!   in full), built by the `cgraph-index` crate (see `INDEXING.md`).

#![warn(missing_docs)]

pub mod bitfrontier;
pub mod config;
pub mod durability;
pub mod engine;
pub mod gas;
pub mod index_api;
pub mod metrics;
pub mod partition;
pub mod pcm;
pub mod query;
pub mod recovery;
pub mod scheduler;
pub mod service;
pub mod shard;
pub mod traverse;
pub mod vcm;

pub use cgraph_comm::chaos::{ChaosRun, CrashFault, FaultPlan, SlowLink};
pub use cgraph_graph::delta::{DeltaOverlay, EdgeUpdate, UpdateBatch};
pub use config::{EngineConfig, UpdateMode};
pub use durability::{DurabilityConfig, DurabilityError, DurabilityStats, RecoveryOutcome};
pub use engine::{BatchResult, DistributedEngine, EngineError, EngineMsg, FaultInjection};
pub use index_api::{IndexAnswer, IndexBuilder, IndexConfig, ReachIndex};
pub use metrics::ResponseStats;
pub use partition::RangePartition;
pub use query::{KhopQuery, QueryResult};
pub use recovery::{RecoveryConfig, RecoveryReport};
pub use scheduler::{QueryScheduler, SchedulerConfig};
pub use service::{
    GroupConfig, MutationConfig, QueryPlaneConfig, QueryService, QueryTicket, RouteDecision,
    RouteKind, Router, RouterConfig, RouterStats, ServiceConfig, ServiceError, ServiceGroup,
    ServiceStats,
};
pub use shard::Shard;
pub use vcm::{VertexProgram, VertexScope};
