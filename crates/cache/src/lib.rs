//! # cgraph-cache — the query plane in front of the engine
//!
//! The paper's concurrent-query optimizations (§3.5) share work
//! *within* a batch: up to 512 traversals ride one edge-set scan. A
//! serving deployment additionally sees massive redundancy *across*
//! batches and *across time* — popular sources are re-queried
//! constantly, and identical `(source, k)` queries burn one lane each.
//! This crate supplies the three cooperating components the streaming
//! service (`cgraph_core::service`) threads between admission and the
//! engine:
//!
//! * [`ResultCache`] — a bounded, deterministic reachability result
//!   cache keyed by `(source, k, graph_epoch)`. Capacity is accounted
//!   in **bytes** (the same currency as the scheduler's memory
//!   budget); eviction is second-chance/CLOCK driven purely by a
//!   **logical clock** of accesses — no wall time anywhere, so two
//!   runs with the same operation sequence evict identically and stay
//!   byte-reproducible under fixed seeds. The epoch component of the
//!   key gives dynamic-graph work an explicit invalidation lever:
//!   bumping the epoch orphans every older entry at once.
//! * [`Coalescer`] — an in-flight table that detects identical
//!   `(source, k)` queries while one execution is already running, and
//!   fans that single execution out to every waiting ticket, freeing
//!   lanes for distinct work.
//! * [`pack_locality`] — locality-aware batch formation: when more
//!   traversals wait than lanes exist, prefer queries whose sources
//!   land in the same partition range (maximising shared-subgraph
//!   traversal, the first-order win Q-Graph reports), bounded by a
//!   fairness rule so cold-partition queries cannot starve.
//!   [`plan_batch`] is the service's whole formation step on top of
//!   it, over every queue of a group at once.
//! * [`HeatTable`] — per-`(replica, partition)` cache-heat counters
//!   fed by the hit/insertion events above; the serving tier's router
//!   reads them to keep steering a partition's queries at the replica
//!   whose cache already holds that partition's results.
//!
//! The crate is dependency-free and engine-agnostic: keys, values and
//! partition ids are plain integers, so it can sit in front of any
//! reachability engine.

#![warn(missing_docs)]

pub mod coalesce;
pub mod heat;
pub mod packer;
pub mod result_cache;

pub use coalesce::Coalescer;
pub use heat::HeatTable;
pub use packer::{
    pack_fifo, pack_locality, plan_batch, BatchPlan, Fate, FormItem, FormPolicy, PackItem,
    PackPolicy,
};
pub use result_cache::{CacheKey, CacheStats, CachedTraversal, ResultCache};
