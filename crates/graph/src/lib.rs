//! # cgraph-graph — graph data structures for C-Graph
//!
//! This crate is the storage substrate of the C-Graph reproduction
//! (Zhou, Chen, Xia, Teodorescu — ICPP 2018). It provides the
//! *multi-modal, edge-set based* graph representations of §3.2 of the
//! paper:
//!
//! * [`Csr`] — compressed sparse row, the out-edge view of a graph,
//! * [`Csc`] — compressed sparse column, the in-edge view,
//! * [`EdgeSetGraph`] — the 2D-blocked "edge-set" layout with
//!   horizontal/vertical consolidation of small blocks,
//! * [`GraphBuilder`] — ingestion: dedup, (optional) re-indexing,
//!   degree accounting,
//! * [`Bitmap`] / [`LaneMatrix`] — bit-level state used by the MS-BFS
//!   style concurrent traversals of §3.5,
//! * [`VertexProps`] / [`EdgeProps`] — columnar property storage
//!   (vertex values, edge weights),
//! * [`LevelProfile`] — reachability-index storage: the bounded-hop
//!   distance sketch an indexed source answers k-hop queries from.
//!
//! The crate is deliberately independent of any execution engine: it
//! contains no threads and no channels, only memory layouts and their
//! invariants, so it can be tested and property-tested in isolation.

#![warn(missing_docs)]

pub mod bitmap;
pub mod builder;
pub mod csc;
pub mod csr;
pub mod delta;
pub mod edge;
pub mod edge_set;
pub mod labels;
pub mod props;
pub mod rows;
pub mod snapshot;
pub mod stats;
pub mod types;

pub use bitmap::{Bitmap, LaneMask, LaneMatrix, LaneWidth, MAX_LANES, MAX_LANE_WORDS};
pub use builder::{BuildOptions, GraphBuilder, ReindexMode};
pub use csc::Csc;
pub use csr::Csr;
pub use delta::{DeltaOverlay, DeltaRow, EdgeUpdate, UpdateBatch};
pub use edge::{Edge, EdgeList};
pub use edge_set::{ConsolidationPolicy, EdgeSet, EdgeSetGraph, EdgeSetLayout};
pub use labels::{LevelProfile, MAX_EXACT_LEVEL};
pub use props::{EdgeProps, VertexProps};
pub use rows::SortedRows;
pub use snapshot::{
    decode_snapshot, decode_wal, encode_snapshot, encode_wal_record, CodecError, DiskFaults,
    PartitionData, SnapshotData, SnapshotTicket, WalRecord, WeightedRows,
};
pub use stats::{DegreeStats, GraphStats};
pub use types::{LocalVertexId, VertexId, Weight, INVALID_VERTEX};
