//! Replicated query front-ends over one shared engine + cluster.
//!
//! A [`ServiceGroup`] runs N [`QueryService`] replicas of a single
//! [`SharedCore`](super::shared::SharedCore): one engine snapshot
//! chain, one persistent cluster, one dispatcher thread, one mutation
//! buffer, one durability plane, one epoch — and N independent
//! admission queues, result caches and coalescers. The [`Router`]
//! steers each query to the home replica of its first source's
//! partition (locality) and, once home is closed, to the open replica
//! whose cache the group's [`HeatTable`](cgraph_cache::HeatTable) says
//! is hottest for that partition: a replica that has been serving a
//! partition's sources holds that partition's results in its cache, so
//! the next query for the partition becomes a hit instead of a
//! traversal. Routing is seeded and wall-clock-free — identical streams
//! route identically, run after run.
//!
//! The decoupled shape follows smart query routing for distributed
//! graph querying (Khan et al., PAPERS.md): many near-stateless query
//! processors over shared storage, with the router keeping each
//! processor's cache hot.

use super::replica::submit;
use super::shared::{
    apply_updates_core, commit_epoch_core, open_fresh_plane, open_recovered, SharedCore,
};
use super::{
    validate_config, QueryService, QueryTicket, ServiceConfig, ServiceError, ServiceStats,
};
use crate::config::EngineConfig;
use crate::durability::RecoveryOutcome;
use crate::engine::DistributedEngine;
use crate::query::{KhopQuery, QueryResult};
use cgraph_cache::HeatTable;
use cgraph_graph::delta::UpdateBatch;
use cgraph_graph::EdgeList;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs of the deterministic query [`Router`]. Routing reads only
/// seeded, wall-clock-free inputs, so two runs with the same stream
/// route identically.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterConfig {
    /// Seed of the partition→home-replica assignment. Different seeds
    /// rotate which replica is "home" for which partition; the same
    /// seed reproduces the assignment exactly.
    pub seed: u64,
}

/// Why the router picked the replica it picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// The query went to its partition's home replica.
    Locality,
    /// A non-home replica won on cache heat for the partition.
    Heat,
    /// Neither locality nor heat decided: home was down and no open
    /// replica held more heat for the partition than home.
    Balance,
}

/// One routing decision: where a query went, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteDecision {
    /// Index of the chosen replica.
    pub replica: usize,
    /// What decided the pick.
    pub kind: RouteKind,
}

/// Lifetime routing counters, per replica and per decision kind.
#[derive(Clone, Debug, Default)]
pub struct RouterStats {
    /// Queries routed to each replica, by replica index.
    pub routed: Vec<u64>,
    /// Queries that landed on their partition's home replica.
    pub locality: u64,
    /// Queries steered off home by cache heat.
    pub heat_steered: u64,
    /// Queries placed by neither locality nor heat.
    pub balance: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic partition-locality router with a cache-heat fallback.
///
/// Every partition has a *home* replica — a seeded rotation of the
/// partition id. A query goes home while home is open. Otherwise it
/// goes to the open replica with the most heat for the partition, ring
/// order from home breaking ties. Replicas marked down are skipped, so
/// a single failed front-end degrades routing, never availability.
///
/// A weighted score — locality 2^20, heat 1 — picks the same replica
/// except when a non-home replica's heat for a partition exceeds home's
/// by more than 2^20 while home is open. Heat reaches a non-home
/// replica only through direct [`ServiceGroup::replica`] submits, the
/// later sources of a multi-source query (it routes by its first), or
/// after home has closed — and a closed replica never reopens; no test
/// or benchmark workload comes near that margin.
pub struct Router {
    heat: Arc<HeatTable>,
    /// Seeded rotation added to the partition id (mod replicas).
    offset: usize,
    routed: Vec<AtomicU64>,
    down: Vec<AtomicBool>,
    locality: AtomicU64,
    heat_steered: AtomicU64,
    balance: AtomicU64,
}

impl Router {
    /// A router over `replicas` front-ends sharing `heat`.
    pub fn new(cfg: RouterConfig, replicas: usize, heat: Arc<HeatTable>) -> Self {
        let replicas = replicas.max(1);
        Self {
            offset: (splitmix64(cfg.seed) % replicas as u64) as usize,
            routed: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            down: (0..replicas).map(|_| AtomicBool::new(false)).collect(),
            locality: AtomicU64::new(0),
            heat_steered: AtomicU64::new(0),
            balance: AtomicU64::new(0),
            heat,
        }
    }

    /// The home replica of `partition` under this router's seed.
    pub fn home(&self, partition: usize) -> usize {
        (partition + self.offset) % self.routed.len()
    }

    /// Picks the replica for a query whose first source lives in
    /// `partition`, and records the decision in the routing counters.
    pub fn route(&self, partition: usize) -> RouteDecision {
        let n = self.routed.len();
        let home = self.home(partition);
        let open = |r: &usize| !self.down[*r].load(Ordering::SeqCst);
        // Home while it is open; otherwise the hottest open replica,
        // the first in ring order from home among equals. Every replica
        // marked down: home — the caller's submit will surface the
        // shutdown, which is the truth.
        let chosen = if open(&home) {
            home
        } else {
            (1..n)
                .map(|step| (home + step) % n)
                .filter(open)
                .min_by_key(|&r| Reverse(self.heat.get(r, partition)))
                .unwrap_or(home)
        };
        self.routed[chosen].fetch_add(1, Ordering::SeqCst);
        let kind = if chosen == home {
            RouteKind::Locality
        } else if self.heat.get(chosen, partition) > self.heat.get(home, partition) {
            RouteKind::Heat
        } else {
            RouteKind::Balance
        };
        match kind {
            RouteKind::Locality => self.locality.fetch_add(1, Ordering::SeqCst),
            RouteKind::Heat => self.heat_steered.fetch_add(1, Ordering::SeqCst),
            RouteKind::Balance => self.balance.fetch_add(1, Ordering::SeqCst),
        };
        RouteDecision { replica: chosen, kind }
    }

    /// The lowest-numbered replica not marked down — replica 0 when
    /// every replica is down. Records nothing.
    fn first_up(&self) -> usize {
        (0..self.down.len()).find(|&r| !self.down[r].load(Ordering::SeqCst)).unwrap_or(0)
    }

    /// Takes `replica` out of the candidate set (e.g. it was shut
    /// down); its partitions re-home to the next ring candidate.
    pub fn mark_down(&self, replica: usize) {
        if let Some(d) = self.down.get(replica) {
            d.store(true, Ordering::SeqCst);
        }
    }

    /// Snapshot of the lifetime routing counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.routed.iter().map(|c| c.load(Ordering::SeqCst)).collect(),
            locality: self.locality.load(Ordering::SeqCst),
            heat_steered: self.heat_steered.load(Ordering::SeqCst),
            balance: self.balance.load(Ordering::SeqCst),
        }
    }
}

/// Configuration of a [`ServiceGroup`]: how many front-end replicas,
/// how to route, and the per-service knobs every replica shares.
#[derive(Clone)]
pub struct GroupConfig {
    /// Number of front-end replicas (clamped to at least 1), fixed for
    /// the group's life. Each gets its own admission queue, result
    /// cache and coalescer; `service.query_plane.cache_capacity_bytes`
    /// is *per replica*, so the group's aggregate cache scales with N.
    /// One dispatcher thread serves them all.
    pub replicas: usize,
    /// Router knobs (the home-assignment seed).
    pub router: RouterConfig,
    /// The service configuration every replica runs under.
    pub service: ServiceConfig,
}

impl Default for GroupConfig {
    fn default() -> Self {
        Self { replicas: 1, router: RouterConfig::default(), service: ServiceConfig::default() }
    }
}

/// N replicated query front-ends over one shared engine, cluster,
/// mutation buffer and durability plane, behind a deterministic
/// locality/heat [`Router`].
///
/// Every replica is a full [`QueryService`] — the solo service *is* a
/// group of one — so everything a service guarantees holds per
/// replica, plus the group-wide guarantees: epoch commits and
/// degradations fence **all** replicas (the group's one dispatcher runs
/// them strictly between its batches), and results never leak across
/// epochs or replicas uncommitted.
pub struct ServiceGroup {
    core: Arc<SharedCore>,
    members: Vec<QueryService>,
    router: Arc<Router>,
}

impl ServiceGroup {
    /// Starts a group serving `engine`, panicking on invalid
    /// configuration (the [`ServiceGroup::try_start`] failure modes).
    pub fn start(engine: Arc<DistributedEngine>, config: GroupConfig) -> Self {
        Self::try_start(engine, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ServiceGroup::start`] with the failure modes surfaced — the
    /// same contract as [`QueryService::try_start`], applied once to
    /// the shared state (one data directory, one initial snapshot).
    pub fn try_start(
        engine: Arc<DistributedEngine>,
        config: GroupConfig,
    ) -> Result<Self, ServiceError> {
        validate_config(&config.service)?;
        let durability = open_fresh_plane(&engine, &config.service)?;
        Ok(Self::assemble(engine, config, durability, Vec::new(), None))
    }

    /// Starts a group over the durable state in
    /// `config.service.durability.dir`, recovering whatever committed
    /// state survives there — [`QueryService::open_or_recover`], group
    /// sized. Exactly one recovery runs however many replicas serve.
    pub fn open_or_recover(
        edges: &EdgeList,
        engine_config: EngineConfig,
        config: GroupConfig,
    ) -> Result<(Self, RecoveryOutcome), ServiceError> {
        validate_config(&config.service)?;
        let (engine, plane, pending, outcome) =
            open_recovered(edges, engine_config, &config.service)?;
        let group = Self::assemble(engine, config, Some(plane), pending, Some(&outcome));
        Ok((group, outcome))
    }

    fn assemble(
        engine: Arc<DistributedEngine>,
        config: GroupConfig,
        durability: Option<crate::durability::DurabilityPlane>,
        restored_pending: Vec<cgraph_graph::delta::EdgeUpdate>,
        recovery: Option<&RecoveryOutcome>,
    ) -> Self {
        let n = config.replicas.max(1);
        let heat = Arc::new(HeatTable::new(n, engine.partition().num_partitions()));
        let core = SharedCore::start(
            engine,
            config.service,
            n,
            durability,
            restored_pending,
            recovery,
            Some(Arc::clone(&heat)),
        );
        let members = (0..n).map(|id| QueryService { core: Arc::clone(&core), id }).collect();
        let router = Arc::new(Router::new(config.router, n, heat));
        Self { core, members, router }
    }

    /// Number of front-end replicas in the group.
    pub fn replicas(&self) -> usize {
        self.members.len()
    }

    /// Direct handle to replica `i` — for targeting a specific
    /// front-end (tests, per-replica drains).
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.replicas()`.
    pub fn replica(&self, i: usize) -> &QueryService {
        &self.members[i]
    }

    /// Lanes per batch after the memory budget (fixed at start-up,
    /// identical across replicas).
    pub fn effective_lanes(&self) -> usize {
        self.core.lanes
    }

    /// Routes `query` by its first source's partition (locality, with
    /// the cache-heat tiebreak) and admits it on the chosen replica.
    /// An empty query, or one whose first source is out of range, goes
    /// to the lowest-numbered live replica, whose admission path
    /// produces the exact single-service behaviour (immediate
    /// completion / [`ServiceError::InvalidQuery`]).
    pub fn submit(&self, query: KhopQuery) -> Result<QueryTicket, ServiceError> {
        // The one read of the serving value a submit makes: routing
        // here; validation, heat, epoch and index in the replica's
        // admission.
        let serving = self.core.serving();
        let idx = match query.sources.first() {
            Some(&s) if s < serving.engine.num_vertices() => {
                let d = self.router.route(serving.engine.partition().owner(s));
                let o = &self.core.obs;
                o.router_queries_routed.inc();
                match d.kind {
                    RouteKind::Locality => o.router_locality.inc(),
                    RouteKind::Heat => o.router_heat_steered.inc(),
                    RouteKind::Balance => {}
                }
                d.replica
            }
            _ => self.router.first_up(),
        };
        submit(&self.core, &self.core.replicas[idx], serving, query)
    }

    /// Submits `query` and blocks for its result (submit + wait).
    pub fn query(&self, query: KhopQuery) -> Result<QueryResult, ServiceError> {
        self.submit(query)?.wait()
    }

    /// Buffers `batch`'s edge updates for the next epoch commit —
    /// shared across the group; see [`QueryService::apply_updates`].
    pub fn apply_updates(&self, batch: UpdateBatch) -> Result<(), ServiceError> {
        apply_updates_core(&self.core, batch.into_updates())
    }

    /// Runs the full group-wide commit protocol and returns the new
    /// epoch; see [`QueryService::commit_epoch`]. Every replica is
    /// fenced.
    pub fn commit_epoch(&self) -> Result<u64, ServiceError> {
        commit_epoch_core(&self.core)
    }

    /// Current graph epoch (shared by every replica).
    pub fn graph_epoch(&self) -> u64 {
        self.core.graph_epoch()
    }

    /// The engine value now serving: the graph of
    /// [`ServiceGroup::graph_epoch`], overlays included. Programs and
    /// GAS run on it answer for that epoch; a later commit publishes a
    /// new value and leaves this one as it is.
    pub fn engine(&self) -> Arc<DistributedEngine> {
        Arc::clone(&self.core.serving().engine)
    }

    /// Commits the (possibly empty) update buffer, fencing **every**
    /// replica's cache; see [`QueryService::invalidate_cache`].
    pub fn invalidate_cache(&self) -> u64 {
        self.commit_epoch().unwrap_or_else(|_| self.graph_epoch())
    }

    /// Group-wide stats snapshot: shared planes once, per-replica
    /// cache occupancy summed. Taken under the stats fence, so no
    /// commit can be half-visible across planes.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// Snapshot of the router's lifetime decision counters.
    pub fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }

    /// Closes admission on replica `i` and takes it out of the router's
    /// candidate set, then returns; the shared cluster, WAL and every
    /// sibling keep serving. What replica `i` already queued is still
    /// answered by the group's dispatcher — at the latest before
    /// [`ServiceGroup::shutdown`] returns. Closing the last open replica
    /// is the group's shutdown.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.replicas()`.
    pub fn shutdown_replica(&self, i: usize) {
        self.router.mark_down(i);
        self.members[i].shutdown();
    }

    /// Stops admission on every replica, then waits for the dispatcher
    /// to answer every already-admitted query, serve a commit already
    /// requested, sync the WAL and park the shared cluster. Idempotent;
    /// also runs on drop (each member shuts down when dropped, and the
    /// last one waits).
    pub fn shutdown(&self) {
        (0..self.members.len()).for_each(|i| self.shutdown_replica(i));
    }
}
