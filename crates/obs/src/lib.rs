//! # cgraph-obs — the observability plane
//!
//! Zero-dependency metrics + tracing substrate shared by every cgraph
//! layer (service, engine, cluster, chaos/recovery). Two halves:
//!
//! * [`metrics`] — a lock-cheap [`MetricsRegistry`] handing out typed
//!   atomic handles ([`Counter`], [`Gauge`], [`Histogram`]) with
//!   Prometheus-style text exposition ([`MetricsRegistry::render_text`])
//!   and a parser ([`parse_text`]) for tests and tooling.
//! * [`trace`] — structured span/instant events carrying
//!   `(job, attempt, superstep, machine)` and **no wall clock**,
//!   ring-buffered per machine thread and drained into a
//!   deterministic, replayable log ([`TraceSink::drain`]).
//!
//! The [`Obs`] bundle ties both together; layers receive an
//! `Arc<Obs>` and register their own handles. See `OBSERVABILITY.md`
//! at the repository root for the full metric catalogue and trace
//! schema.
//!
//! ```
//! use cgraph_obs::{Obs, TraceCtx, COORD};
//!
//! let obs = Obs::shared();
//! obs.metrics.counter("demo_total", "demo").inc();
//! obs.trace.tracer(COORD).instant("demo", TraceCtx::default(), 1);
//! assert!(obs.metrics.render_text().contains("demo_total 1"));
//! assert_eq!(obs.trace.drain().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    log2_edges, parse_text, Counter, Gauge, Histogram, MetricsRegistry, ParsedHistogram, Snapshot,
    LOG_LATENCY_EDGES_SECS,
};
pub use trace::{TraceCtx, TraceEvent, TraceKind, TraceSink, Tracer, COORD};

/// Default per-machine trace-ring capacity: large enough for a long
/// chaos-seeded stream without wrapping, small enough to stay cheap.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The bundle a process shares across layers: one registry, one trace
/// sink.
pub struct Obs {
    /// Metric registry (get-or-create typed handles).
    pub metrics: MetricsRegistry,
    /// Trace sink (per-machine rings).
    pub trace: TraceSink,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Creates a bundle with the default trace capacity.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a bundle whose trace rings hold `capacity` events each.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self { metrics: MetricsRegistry::new(), trace: TraceSink::new(capacity) }
    }

    /// Convenience: a fresh bundle behind an `Arc`, ready to hand to
    /// the service/cluster layers.
    pub fn shared() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::new())
    }
}
