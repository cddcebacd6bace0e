//! # cgraph-comm — the simulated distributed substrate
//!
//! The paper runs C-Graph on a 9-node Xeon cluster over MPI/sockets.
//! This crate reproduces that infrastructure in-process: each
//! *machine* is an OS thread owning its subgraph shard exclusively,
//! and machines exchange messages over per-pair channels — the "inbox
//! buffer for incoming tasks and an outbox buffer for outgoing tasks"
//! of Fig. 5.
//!
//! Provided pieces:
//!
//! * [`persistent::PersistentCluster`] / [`cluster::CommHandle`] — the
//!   one machine runtime: `p` machine threads, each job handed to every
//!   machine as a [`CommHandle`] that can send to any peer and drain its
//!   own inbox. Each job gets a fresh fabric; a machine panic poisons
//!   the job's barrier and detector, so the job fails with a typed
//!   [`ClusterError`] instead of hanging its peers, and the threads
//!   park again for the next job. The query service keeps one for its
//!   lifetime; a one-shot engine call makes one per call.
//! * [`barrier::ReduceBarrier`] — a sense-reversing barrier that also
//!   all-reduces a `u64` contribution (used for superstep termination:
//!   "the visited vertices are synchronized after each iteration").
//! * [`async_rt::TerminationDetector`] — message-credit quiescence
//!   detection for the asynchronous update mode (§3.3 supports both
//!   synchronous and asynchronous communication).
//! * [`netmodel::NetModel`] / [`netmodel::NetStats`] — an analytic
//!   latency/bandwidth model that *accounts* simulated network time per
//!   message without sleeping, so wall-clock benches stay meaningful
//!   while scaling analyses can still report communication volume.
//! * [`chaos::FaultPlan`] — a deterministic, seedable fault schedule
//!   (scripted machine crashes, message drop/dup/reorder, slow links)
//!   injected per job via
//!   [`PersistentCluster::submit_with_chaos`](persistent::PersistentCluster::submit_with_chaos),
//!   making failure a first-class, testable input.
//! * [`obs`] — the comm end of the observability plane (`cgraph-obs`):
//!   installing an [`Obs`](cgraph_obs::Obs) bundle on a
//!   [`PersistentCluster`] wires cached
//!   per-link traffic counters, chaos perturbation counters, and a
//!   per-machine tracer into every job's
//!   [`CommHandle`]s.
//!
//! Nothing in this crate knows about graphs; it is a generic
//! message-passing substrate tested in isolation.

#![warn(missing_docs)]

pub mod async_rt;
pub mod barrier;
pub mod chaos;
pub mod cluster;
pub mod cputime;
pub mod message;
pub mod netmodel;
pub mod obs;
pub mod persistent;

pub use async_rt::TerminationDetector;
pub use barrier::{BarrierPoisoned, ReduceBarrier, Reduction, REDUCE_WORDS};
pub use chaos::{ChaosRun, CrashFault, FaultPlan, SlowLink};
pub use cluster::CommHandle;
pub use cputime::thread_cpu_time;
pub use message::{Envelope, WireSize};
pub use netmodel::{NetModel, NetStats};
pub use obs::{JobCoords, MachineObs, MachineObsCore};
pub use persistent::{ClusterError, PersistentCluster};

/// Identifier of a simulated machine (= partition).
pub type MachineId = usize;
