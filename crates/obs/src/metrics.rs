//! Lock-cheap metrics registry with Prometheus-style text exposition.
//!
//! The registry hands out typed handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) that layers cache outside their hot loops; every
//! update after registration is a single atomic RMW (plus a CAS loop
//! for histogram sums), never a lock. Registration itself
//! (get-or-create by name + label set) takes a registry-wide mutex and
//! is expected once per component lifetime, not per superstep.
//!
//! Naming follows the Prometheus convention: `snake_case` families
//! prefixed with the owning layer (`cgraph_service_`, `cgraph_engine_`,
//! `cgraph_comm_`, `cgraph_recovery_`), `_total` suffix on counters,
//! and units spelled out (`_seconds`, `_bytes`). Labels distinguish
//! series within a family (for example `link="0->2"` on the per-link
//! traffic counters).
//!
//! [`MetricsRegistry::render_text`] emits the classic text format
//! (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="..."}` rows),
//! and [`parse_text`] parses such a snapshot back for tests and
//! tooling.
//!
//! ```
//! use cgraph_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let queries = reg.counter("demo_queries_total", "Queries admitted.");
//! queries.add(3);
//! let text = reg.render_text();
//! assert!(text.contains("demo_queries_total 3"));
//! let snap = cgraph_obs::parse_text(&text).unwrap();
//! assert_eq!(snap.counters["demo_queries_total"], 3);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Log-spaced bucket edges for durations this system actually takes:
/// 1 µs to 10 s in 1-2-5 steps. (On the paper's 0.2–2.0 s response-time
/// bins of Figs. 11–12 every sample of a microsecond-to-millisecond
/// span lands in the first bucket; those figures bucket exact samples
/// with their own edges.)
pub const LOG_LATENCY_EDGES_SECS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,
    0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
];

/// Power-of-two bucket edges `1, 2, 4, …, 2^(n-1)` for count-valued
/// histograms (frontier sizes, supersteps per batch).
pub fn log2_edges(n: u32) -> Vec<f64> {
    (0..n).map(|i| (1u64 << i) as f64).collect()
}

/// Monotonically increasing counter (`AtomicU64`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (`AtomicI64`): queue depths, occupancy.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram. Buckets are cumulative only at render time;
/// internally each atomic slot counts observations falling in
/// `(edges[i-1], edges[i]]`, with one extra slot for `+Inf`. The total
/// is the sum of the slots, so `_count` and the `+Inf` row of one
/// rendering always agree.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, stored as f64 bits and accumulated with
    /// a CAS loop (no lock on the observe path).
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(edges: Vec<f64>) -> Self {
        let n = edges.len();
        Self {
            edges,
            buckets: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.edges.partition_point(|&e| e < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if v == 0.0 {
            // Adding zero is the identity, and zero-second latencies
            // (answers that never queued or ran) are the hottest
            // observations a server makes: spare them the CAS.
            return;
        }
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Bucket upper edges (exclusive of the implicit `+Inf`).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Non-cumulative per-bucket counts (last slot is `+Inf`).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: Kind,
    /// Keyed by rendered label set (`""` or `{k="v",...}`), in
    /// BTreeMap order so rendering is stable.
    series: BTreeMap<String, Series>,
}

/// Process-wide metric registry: get-or-create typed handles, stable
/// text exposition.
///
/// Handles are `Arc`s — callers register once and cache the handle;
/// the registry lock is never taken on the update path.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn family<'a>(
        map: &'a mut BTreeMap<String, Family>,
        name: &str,
        help: &str,
        kind: Kind,
    ) -> &'a mut Family {
        let fam = map.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(fam.kind, kind, "metric {name} re-registered with a different type");
        fam
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Get-or-create a counter with a label set.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let mut map = self.lock();
        let fam = Self::family(&mut map, name, help, Kind::Counter);
        let entry = fam
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| Series::Counter(Arc::new(Counter::default())));
        match entry {
            Series::Counter(c) => Arc::clone(c),
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        let fam = Self::family(&mut map, name, help, Kind::Gauge);
        let entry = fam
            .series
            .entry(String::new())
            .or_insert_with(|| Series::Gauge(Arc::new(Gauge::default())));
        match entry {
            Series::Gauge(g) => Arc::clone(g),
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Get-or-create an unlabeled histogram with the given bucket
    /// edges. Edges must be strictly increasing; an `+Inf` bucket is
    /// implicit. If the family already exists the stored edges win.
    pub fn histogram(&self, name: &str, help: &str, edges: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], help, edges)
    }

    /// Get-or-create a histogram with a label set (same edge rules as
    /// [`MetricsRegistry::histogram`], per series).
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        edges: &[f64],
    ) -> Arc<Histogram> {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let mut map = self.lock();
        let fam = Self::family(&mut map, name, help, Kind::Histogram);
        let entry = fam
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| Series::Histogram(Arc::new(Histogram::new(edges.to_vec()))));
        match entry {
            Series::Histogram(h) => Arc::clone(h),
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Registered family names, sorted (the catalogue surface that
    /// `OBSERVABILITY.md` documents).
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Renders the Prometheus text exposition format. Families and
    /// series appear in sorted order, so two registries holding the
    /// same values render identically.
    pub fn render_text(&self) -> String {
        let map = self.lock();
        let mut out = String::new();
        for (name, fam) in map.iter() {
            let kind = match fam.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Series::Histogram(h) => {
                        // `le` joins the series' own labels, last.
                        let own = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
                        let lead = own.map(|l| format!("{l},")).unwrap_or_default();
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, edge) in h.edges().iter().enumerate() {
                            cum += counts[i];
                            let _ = writeln!(out, "{name}_bucket{{{lead}le=\"{edge}\"}} {cum}");
                        }
                        cum += counts[h.edges().len()];
                        let _ = writeln!(out, "{name}_bucket{{{lead}le=\"+Inf\"}} {cum}");
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {cum}");
                    }
                }
            }
        }
        out
    }
}

/// A parsed histogram family from [`parse_text`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHistogram {
    /// `(upper_edge, cumulative_count)` rows; the final row is the
    /// `+Inf` bucket (`f64::INFINITY`).
    pub buckets: Vec<(f64, u64)>,
    /// Sum of observations.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

/// A parsed metrics snapshot: series keyed by full name (labels
/// included; a histogram's key carries its series labels without the
/// per-bucket `le`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter series values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge series values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram families.
    pub histograms: BTreeMap<String, ParsedHistogram>,
}

impl Snapshot {
    /// Sums every counter series of family `name` (labels collapsed).
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Parses [`MetricsRegistry::render_text`] output back into a
/// [`Snapshot`]. Returns an error describing the first malformed line.
pub fn parse_text(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
            let kind = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
            kinds.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("bad sample line: {line}"))?;
        let family = series.split('{').next().unwrap_or(series);
        let base = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .filter(|b| kinds.get(*b).map(String::as_str) == Some("histogram"));
        if let Some(base) = base {
            // The series' own labels: everything but the bucket's `le`,
            // which render_text appends last — split there, not at the
            // first `le="` (a `role="…"` label ends in one too).
            let labels = series.split_once('{').map_or("", |(_, rest)| rest.trim_end_matches('}'));
            let (own, le) = if family.ends_with("_bucket") {
                let (own, le) = labels
                    .rsplit_once("le=\"")
                    .filter(|(own, _)| own.is_empty() || own.ends_with(','))
                    .ok_or_else(|| format!("bucket without le label: {line}"))?;
                (own.trim_end_matches(','), le.trim_end_matches('"'))
            } else {
                (labels, "")
            };
            let key = if own.is_empty() { base.to_string() } else { format!("{base}{{{own}}}") };
            let hist = snap.histograms.entry(key).or_insert(ParsedHistogram {
                buckets: Vec::new(),
                sum: 0.0,
                count: 0,
            });
            if family.ends_with("_bucket") {
                let edge = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().map_err(|e| format!("bad le {le}: {e}"))?
                };
                let cum = value.parse::<u64>().map_err(|e| format!("bad bucket value: {e}"))?;
                hist.buckets.push((edge, cum));
            } else if family.ends_with("_sum") {
                hist.sum = value.parse::<f64>().map_err(|e| format!("bad sum: {e}"))?;
            } else {
                hist.count = value.parse::<u64>().map_err(|e| format!("bad count: {e}"))?;
            }
            continue;
        }
        match kinds.get(family).map(String::as_str) {
            Some("counter") => {
                let v = value.parse::<u64>().map_err(|e| format!("bad counter value: {e}"))?;
                snap.counters.insert(series.to_string(), v);
            }
            Some("gauge") => {
                let v = value.parse::<i64>().map_err(|e| format!("bad gauge value: {e}"))?;
                snap.gauges.insert(series.to_string(), v);
            }
            other => return Err(format!("sample {series} has unknown type {other:?}")),
        }
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear edges with a wide first bucket: 0.2 to 2.0 in 0.2 steps.
    const LINEAR_EDGES: [f64; 10] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0];

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let same = reg.counter("t_total", "help");
        same.inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("t_depth", "help");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let snap = parse_text(&reg.render_text()).unwrap();
        assert_eq!(snap.counters["t_total"], 6);
        assert_eq!(snap.gauges["t_depth"], 5);
    }

    #[test]
    fn labeled_counters_render_per_series() {
        let reg = MetricsRegistry::new();
        reg.counter_with("t_link_total", &[("link", "0->1")], "help").add(3);
        reg.counter_with("t_link_total", &[("link", "1->0")], "help").add(9);
        let snap = parse_text(&reg.render_text()).unwrap();
        assert_eq!(snap.counters["t_link_total{link=\"0->1\"}"], 3);
        assert_eq!(snap.counter_family("t_link_total"), 12);
        assert_eq!(reg.names(), vec!["t_link_total".to_string()]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_consistent() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t_lat_seconds", "help", &LINEAR_EDGES);
        for v in [0.1, 0.2, 0.3, 1.9, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        let snap = parse_text(&reg.render_text()).unwrap();
        let hist = &snap.histograms["t_lat_seconds"];
        assert_eq!(hist.count, 5);
        assert_eq!(hist.buckets.last().unwrap(), &(f64::INFINITY, 5));
        // 0.2-edge bucket holds 0.1 and the boundary value 0.2.
        assert_eq!(hist.buckets[0], (0.2, 2));
        // Cumulative counts are monotone.
        assert!(hist.buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((hist.sum - 7.5).abs() < 1e-9);
    }

    #[test]
    fn labeled_histograms_render_and_parse_per_series() {
        let reg = MetricsRegistry::new();
        let enc =
            reg.histogram_with("t_phase_seconds", &[("phase", "encode")], "help", &[0.1, 1.0]);
        let wr = reg.histogram_with("t_phase_seconds", &[("phase", "write")], "help", &[0.1, 1.0]);
        enc.observe(0.05);
        wr.observe(0.5);
        wr.observe(3.0);
        let text = reg.render_text();
        assert!(text.contains("t_phase_seconds_bucket{phase=\"write\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("t_phase_seconds_count{phase=\"encode\"} 1"), "{text}");
        let snap = parse_text(&text).unwrap();
        let e = &snap.histograms["t_phase_seconds{phase=\"encode\"}"];
        let w = &snap.histograms["t_phase_seconds{phase=\"write\"}"];
        assert_eq!((e.count, w.count), (1, 2));
        assert_eq!(e.buckets, vec![(0.1, 1), (1.0, 1), (f64::INFINITY, 1)]);
        assert_eq!(w.buckets, vec![(0.1, 0), (1.0, 1), (f64::INFINITY, 2)]);
        assert!((w.sum - 3.5).abs() < 1e-12);
        assert_eq!(reg.names(), vec!["t_phase_seconds".to_string()]);

        // A label whose name ends in `le` is not the bucket label.
        let reg = MetricsRegistry::new();
        for (role, v) in [("leader", 0.05), ("follower", 0.5)] {
            reg.histogram_with("t_role_seconds", &[("role", role)], "help", &[0.1]).observe(v);
        }
        let snap = parse_text(&reg.render_text()).unwrap();
        assert_eq!(snap.histograms.len(), 2);
        let l = &snap.histograms["t_role_seconds{role=\"leader\"}"];
        assert_eq!((l.buckets.clone(), l.count), (vec![(0.1, 1), (f64::INFINITY, 1)], 1));
        let f = &snap.histograms["t_role_seconds{role=\"follower\"}"];
        assert_eq!((f.buckets.clone(), f.count), (vec![(0.1, 0), (f64::INFINITY, 1)], 1));
    }

    #[test]
    fn log_latency_edges_span_a_microsecond_to_ten_seconds() {
        let e = &LOG_LATENCY_EDGES_SECS;
        assert_eq!((e[0], e[e.len() - 1]), (1e-6, 10.0));
        assert!(e.windows(2).all(|w| w[0] < w[1] && w[1] / w[0] <= 2.5 + 1e-9));
    }

    #[test]
    fn zero_observation_lands_in_the_first_bucket() {
        // Cache hits observe a literal 0.0-second latency; it must
        // land in the lowest finite bucket (edges are `< v`, so zero
        // never skips past an edge), count toward the total, and
        // leave the sum exact.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t_lat_seconds", "help", &LINEAR_EDGES);
        h.observe(0.0);
        h.observe_duration(std::time::Duration::ZERO);
        h.observe(1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[0], 2);
        let snap = parse_text(&reg.render_text()).unwrap();
        let hist = &snap.histograms["t_lat_seconds"];
        assert_eq!(hist.buckets[0], (0.2, 2));
        assert!((hist.sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log2_edges_cover_powers() {
        assert_eq!(log2_edges(4), vec![1.0, 2.0, 4.0, 8.0]);
        let h = Histogram::new(log2_edges(3));
        h.observe(1.0);
        h.observe(2.0);
        h.observe(3.0);
        h.observe(100.0);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1]);
    }
}
