//! The five workloads: what each feeds the service, how the service
//! is set up for it, and one measured run of it.

use crate::drive::{self, Recorder, Step, UpdaterOut};
use crate::host::{self, Sensor};
use crate::metrics::Values;
use crate::oracle::{Answer, Csr, Oracle, Overlay};
use crate::probes;
use crate::spans::{SpanLog, NONE};
use crate::stats::{self, Sample};
use crate::streams;
use cgraph_core::{
    DistributedEngine, DurabilityConfig, EngineConfig, GroupConfig, MutationConfig,
    QueryPlaneConfig, RouterStats, ServiceConfig, ServiceGroup, ServiceStats,
};
use cgraph_gen::Dataset;
use cgraph_graph::EdgeList;
use cgraph_index::BoundaryIndexBuilder;
use cgraph_obs::metrics::{parse_text, Snapshot};
use cgraph_obs::Obs;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hop budget of every query.
pub const K: u32 = 3;
/// Simulated machines — one per core of the sizing host.
pub const MACHINES: usize = 2;
/// Front-end replicas in the group (the open loop runs with one).
pub const REPLICAS: usize = 2;
/// Result-cache capacity per replica.
pub const CACHE_BYTES: usize = 1 << 20;
/// Queries the closed loop keeps in flight.
pub const OUTSTANDING: usize = 256;
/// Offered load of the open-loop workload's measured window: about a
/// third of what the engine sustains on OR with uniform sources.
pub const OPEN_RATE: f64 = 1000.0;
/// Offered-load steps of the open-loop sweep (trace run only).
pub const SWEEP_RATES: [f64; 3] = [500.0, 1000.0, 2000.0];
/// Latency limit a sweep step must meet at its p99.
pub const SWEEP_LIMIT_MS: f64 = 100.0;
/// Set-ups per run; `setup_s` is their median, the last one serves.
pub const SETUPS: usize = 5;
/// Samples a slice needs to support its own p99.
pub const SLICE_MIN_SAMPLES: usize = 1000;
/// Request trees written in full to `trace-<workload>.jsonl`.
pub const TRACE_TREES: usize = 20_000;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sources {
    /// A seeded permutation of every vertex with an out-edge.
    Uniform,
    /// Zipf(1.0) over the hub-headed hot set.
    ZipfHot,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    Closed,
    Open,
}

/// An update stream running beside the queries.
#[derive(Clone, Copy, Debug)]
pub struct Updates {
    /// One 128-update apply-and-commit per this many completed
    /// queries: the write share of the mix.
    pub queries_per_commit: u64,
    pub durable: bool,
    pub fold_threshold: usize,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub sources: Sources,
    pub cache: bool,
    pub index: bool,
    pub updates: Option<Updates>,
    pub load: Load,
    pub replicas: usize,
    /// Completions per slice of the window: about a second of work,
    /// at least the 1 000 a slice needs to carry its own p99, and a
    /// whole number of the workload's update cycles.
    pub slice_queries: usize,
    /// How the workload's times follow the host sensor's, as an
    /// exponent (`host::quiet`): 1 for the three closed loops whose
    /// time goes into traversals — they slow as the sensor does; less
    /// where the time goes into locks and hash probes, which a busy
    /// sibling hardly slows; more for the open loop, whose queueing
    /// amplifies a slower server. Fitted over 27-44 runs per workload
    /// across quiet and contended phases of the host (`CALIBRATION.md`).
    pub elasticity: f64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "fr-uniform",
        why: "FR, distinct uniform sources, closed loop: the traversal engine and comm do the work, the cache only pays its miss path",
        dataset: Dataset::Fr,
        sources: Sources::Uniform,
        cache: true,
        index: false,
        updates: None,
        load: Load::Closed,
        replicas: REPLICAS,
        slice_queries: 1024,
        elasticity: 1.0,
    },
    Spec {
        name: "or-zipf-hot",
        why: "OR, Zipf(1.0) over a 1024-vertex hot set that fits the caches, read-only: router, cache and coalescer do the work, the engine almost none",
        dataset: Dataset::Or,
        sources: Sources::ZipfHot,
        cache: true,
        index: false,
        updates: None,
        load: Load::Closed,
        replicas: REPLICAS,
        slice_queries: 1 << 18,
        elasticity: 0.5,
    },
    Spec {
        name: "or-zipf-mutate",
        why: "the hot stream beside a durable 128-update commit per 512 queries (~10 a second), then recovery: commit fence, cache fence, overlay scans, WAL, snapshots",
        dataset: Dataset::Or,
        sources: Sources::ZipfHot,
        cache: true,
        index: false,
        // ~10 commits a second at ~5 k q/s.
        updates: Some(Updates { queries_per_commit: 512, durable: true, fold_threshold: 8192 }),
        load: Load::Closed,
        replicas: REPLICAS,
        // Eight commits, one of them with a snapshot.
        slice_queries: 8 * 512,
        elasticity: 1.0,
    },
    Spec {
        name: "or-zipf-index",
        why: "the hot stream with the cache off and the boundary index on, a commit per 8192 queries: the index answers, and every commit rebuilds it under the exec lock",
        dataset: Dataset::Or,
        sources: Sources::ZipfHot,
        cache: false,
        index: true,
        // Each commit stalls the ~256 traversals in flight for the
        // index build: 256 of 8192 puts ~3 % of all queries in a stall,
        // so p99 sits inside the stalled population, not on its edge.
        updates: Some(Updates { queries_per_commit: 8192, durable: false, fold_threshold: 1 << 16 }),
        load: Load::Closed,
        replicas: REPLICAS,
        // One commit, one index build.
        slice_queries: 8192,
        elasticity: 1.0,
    },
    Spec {
        name: "or-open-rate",
        why: "OR, distinct uniform sources offered to one front-end at 1000 q/s (Poisson arrivals) whatever the service does, latency from the due time: batch delay and near-empty batches",
        dataset: Dataset::Or,
        sources: Sources::Uniform,
        cache: true,
        index: false,
        updates: None,
        load: Load::Open,
        // Two dispatchers taking turns on the exec lock make open-loop
        // latency chaotic (see README, "the convoy"); one measures the
        // batch-delay / fill trade-off this workload exists for.
        replicas: 1,
        slice_queries: 1024,
        elasticity: 1.25,
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory (how the driver runs it), else where it was built.
pub fn bench_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").exists() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// `BENCHMARK.json`, beside the benchmark's directory.
pub fn manifest_path() -> PathBuf {
    bench_dir().join("..").join("BENCHMARK.json")
}

pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Loads `ds` from `benchmark/target/datasets/`, generating and
/// caching it on first use. Not part of any measured time: the
/// program receives the graph as an input.
pub fn load_dataset(ds: Dataset) -> EdgeList {
    let dir = bench_dir().join("target").join("datasets");
    std::fs::create_dir_all(&dir).expect("create dataset cache");
    let path = dir.join(format!("{}.{}.cg", ds.spec().name, cgraph_gen::RNG_STREAM_VERSION));
    if let Ok(list) = cgraph_gen::io::read_binary(&path) {
        return list;
    }
    eprintln!("[bench] generating dataset {} (cached at {})", ds.spec().name, path.display());
    let list = ds.generate();
    // Write-then-rename, so a run killed mid-write leaves no torn cache.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    cgraph_gen::io::write_binary(&tmp, &list).expect("write dataset cache");
    std::fs::rename(&tmp, &path).expect("publish dataset cache");
    list
}

/// Everything a run feeds the program, made from the seed alone.
pub struct Inputs {
    /// Query sources in submission order (cycled if exhausted).
    pub stream: Vec<u64>,
    /// Sources of the untimed-by-the-window warm-up inside set-up.
    pub warm: Vec<u64>,
    pub stream_digest: u64,
    pub updates_digest: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, csr: &Csr, seed: u64) -> Self {
        let (stream, warm) = match spec.sources {
            Sources::Uniform => {
                let stream = streams::uniform_sources(csr, seed, 1 << 18);
                // The tail of the permutation: asked again only after
                // every other vertex has been.
                let distinct = stream
                    .iter()
                    .skip(1)
                    .position(|&s| s == stream[0])
                    .map_or(stream.len(), |p| p + 1);
                let warm = stream[distinct.saturating_sub(512)..distinct].to_vec();
                (stream, warm)
            }
            Sources::ZipfHot => {
                let hot = streams::hot_set(csr, seed);
                (streams::zipf_sources(&hot, seed, 1 << 21), hot)
            }
        };
        Self {
            stream_digest: streams::digest(stream.iter().copied()),
            // Over the head of the (endless) update stream.
            updates_digest: spec
                .updates
                .map_or(0, |_| streams::updates_digest(&streams::update_batches(csr, seed, 16))),
            stream,
            warm,
        }
    }
}

pub fn group_config(spec: &Spec, obs: Option<Arc<Obs>>, data_dir: Option<&Path>) -> GroupConfig {
    let service = ServiceConfig {
        query_plane: QueryPlaneConfig {
            cache_capacity_bytes: spec.cache.then_some(CACHE_BYTES),
            coalesce: true,
            pack_locality: true,
            ..Default::default()
        },
        index: spec.index.then(|| {
            Arc::new(BoundaryIndexBuilder::new(probes::INDEX_CONFIG))
                as Arc<dyn cgraph_core::IndexBuilder>
        }),
        mutation: MutationConfig {
            fold_threshold: spec
                .updates
                .map_or(MutationConfig::default().fold_threshold, |u| u.fold_threshold),
            ..Default::default()
        },
        durability: data_dir.map(DurabilityConfig::new),
        obs,
        ..Default::default()
    };
    GroupConfig { replicas: spec.replicas, service, ..Default::default() }
}

/// A started, warmed service and what starting it cost.
pub struct Served {
    pub engine: Arc<DistributedEngine>,
    pub group: ServiceGroup,
    pub obs: Option<Arc<Obs>>,
    pub data_dir: Option<PathBuf>,
    pub started: Instant,
    pub setup_s: f64,
    pub engine_build_s: f64,
}

impl Served {
    /// Stops the service and removes its data directory.
    pub fn teardown(self) {
        self.group.shutdown();
        drop(self.group);
        if let Some(dir) = self.data_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

fn fresh_data_dir(spec: &Spec) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = bench_dir().join("target").join("run").join(format!(
        "{}-{}-{n}",
        spec.name,
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Set-up as a user pays it: build the engine from the edge list,
/// start the group (initial snapshot and index build included), and
/// warm it with `inputs.warm` until every answer is back.
pub fn setup(
    spec: &Spec,
    edges: &EdgeList,
    inputs: &Inputs,
    traced: bool,
) -> Result<Served, String> {
    let obs = traced.then(Obs::shared);
    let data_dir = spec.updates.is_some_and(|u| u.durable).then(|| fresh_data_dir(spec));
    let start = Instant::now();
    let engine = Arc::new(DistributedEngine::new(edges, EngineConfig::new(MACHINES)));
    let engine_build_s = start.elapsed().as_secs_f64();
    let group = ServiceGroup::try_start(
        Arc::clone(&engine),
        group_config(spec, obs.clone(), data_dir.as_deref()),
    )
    .map_err(|e| format!("group start: {e}"))?;
    let warmed = drive::ask_all(&group, &inputs.warm, K);
    let setup_s = start.elapsed().as_secs_f64();
    if warmed.iter().any(Option::is_none) {
        return Err("a warm-up query failed".into());
    }
    Ok(Served { engine, group, obs, data_dir, started: start, setup_s, engine_build_s })
}

/// Program-side counters read at a window edge.
struct Counters {
    stats: ServiceStats,
    router: RouterStats,
    obs: Option<Snapshot>,
}

impl Counters {
    fn read(served: &Served) -> Self {
        Self {
            stats: served.group.stats(),
            router: served.group.router_stats(),
            obs: served.obs.as_ref().map(|o| {
                parse_text(&o.metrics.render_text()).expect("registry renders parseable text")
            }),
        }
    }

    fn obs_counter(&self, name: &str) -> f64 {
        self.obs.as_ref().map_or(0.0, |s| s.counter_family(name) as f64)
    }
}

pub struct RunOptions {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// Harness self-test: every workload on TINY.
    pub smoke: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Human-readable notes (digests, sample counts).
    pub notes: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// One end-to-end estimate of a run.
struct Estimate {
    /// As measured.
    raw: f64,
    /// Stated for a quiet host.
    quiet: f64,
}

/// Checks served answers against the oracle; returns mismatches.
fn verify(
    oracle: &mut Oracle<'_>,
    overlay: Option<&Overlay>,
    asked: &[u64],
    served: &[Option<(Answer, u64)>],
    want_epoch: u64,
    what: &str,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut memo: std::collections::HashMap<u64, Answer> = std::collections::HashMap::new();
    for (&source, got) in asked.iter().zip(served) {
        let want = memo.entry(source).or_insert_with(|| oracle.khop(overlay, source, K));
        match got {
            None => bad.push(format!("{what}: query for source {source} failed")),
            Some((answer, epoch)) => {
                if answer != want {
                    bad.push(format!(
                        "{what}: source {source} served {answer:?}, oracle says {want:?}"
                    ));
                } else if *epoch != want_epoch {
                    bad.push(format!(
                        "{what}: source {source} answered at epoch {epoch}, expected {want_epoch}"
                    ));
                }
            }
        }
    }
    bad
}

/// What the measured window recorded.
struct Window {
    rec: Recorder,
    updater: UpdaterOut,
    /// Program counters at the window's edges (traced runs only).
    edges: Option<(Counters, Counters)>,
    start_epoch: u64,
    /// Last epoch a commit acknowledged.
    acked_epoch: u64,
}

/// Drives `spec`'s load (and its updater) at `served` for the window.
fn measure(spec: &Spec, opts: &RunOptions, served: &Served, inputs: &Inputs, csr: &Csr) -> Window {
    let group = &served.group;
    let before = opts.traced.then(|| Counters::read(served));
    let start_epoch = group.graph_epoch();
    let acked = AtomicU64::new(start_epoch);
    let progress = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut rec = Recorder::new(t0, K, opts.traced.then_some(TRACE_TREES));
    let mut updater = UpdaterOut::default();
    std::thread::scope(|scope| {
        let handle = spec.updates.map(|u| {
            let (acked, progress) = (&acked, &progress);
            let stream = streams::UpdateStream::new(csr, opts.seed);
            scope.spawn(move || {
                drive::updater(
                    group,
                    stream,
                    u.queries_per_commit,
                    progress,
                    t0,
                    opts.window,
                    acked,
                )
            })
        });
        match spec.load {
            Load::Closed => {
                drive::closed_loop(
                    group,
                    &inputs.stream,
                    OUTSTANDING,
                    opts.window,
                    &acked,
                    &progress,
                    &mut rec,
                );
            }
            Load::Open => {
                let step =
                    Step { rate: OPEN_RATE, from_s: 0.0, until_s: opts.window.as_secs_f64() };
                let due = drive::poisson_due_times_ns(&[step], opts.seed);
                drive::open_loop(group, &inputs.stream, &due, &mut rec);
            }
        }
        if let Some(h) = handle {
            updater = h.join().expect("updater thread panicked");
        }
    });
    let after = opts.traced.then(|| Counters::read(served));
    for f in std::mem::take(&mut updater.failures) {
        rec.attempted += 1;
        rec.fail(f);
    }
    Window {
        rec,
        updater,
        edges: before.zip(after),
        start_epoch,
        acked_epoch: acked.load(std::sync::atomic::Ordering::SeqCst),
    }
}

/// What recovering the durable workload measured.
#[derive(Default)]
struct Recovery {
    recover_s: f64,
    wal_replayed: f64,
    spans: SpanLog,
}

/// Correctness, after the window. Read-only workloads: the sampled
/// answers served inside it, against the oracle on the base graph.
/// Mutating workloads: a verification set asked at the final epoch,
/// against the oracle on base + every committed update. Durable
/// workloads then stop, recover from disk alone, and answer the set
/// again. Consumes the service; failures land in `w.rec`. Returns the
/// recovery measurements and how many answers were verified.
fn check(
    spec: &Spec,
    edges: &EdgeList,
    csr: &Csr,
    inputs: &Inputs,
    served: Served,
    w: &mut Window,
) -> (Recovery, usize) {
    let mut oracle = Oracle::new(csr);
    let mut overlay = Overlay::default();
    for u in w.updater.committed.iter().flatten() {
        overlay.apply(csr, u);
    }
    let idx: Vec<usize> = drive::verify_indices(inputs.stream.len()).collect();
    let asked: Vec<u64> = idx.iter().map(|&i| inputs.stream[i]).collect();
    let mut verified = 0;
    let mut recovery = Recovery::default();
    if spec.updates.is_none() {
        let (sources, answers): (Vec<u64>, Vec<_>) = idx
            .iter()
            .filter_map(|i| w.rec.sampled.get(i))
            .map(|(s, a, e)| (*s, Some((a.clone(), *e))))
            .unzip();
        verified += sources.len();
        if sources.is_empty() {
            w.rec.fail("no sampled answer completed inside the window".into());
        }
        for bad in verify(&mut oracle, None, &sources, &answers, w.start_epoch, "in-window") {
            w.rec.fail(bad);
        }
        served.teardown();
        return (recovery, verified);
    }

    let answers = drive::ask_all(&served.group, &asked, K);
    w.rec.attempted += asked.len() as u64;
    verified += asked.len();
    for bad in verify(&mut oracle, Some(&overlay), &asked, &answers, w.acked_epoch, "final epoch") {
        w.rec.fail(bad);
    }
    let Some(dir) = served.data_dir.clone() else {
        served.teardown();
        return (recovery, verified);
    };
    // Stop without removing the data directory: it is what recovers.
    served.group.shutdown();
    drop(served);
    let start = w.rec.now_ns();
    let recovered = ServiceGroup::open_or_recover(
        edges,
        EngineConfig::new(MACHINES),
        group_config(spec, None, Some(&dir)),
    );
    let end = w.rec.now_ns();
    recovery.recover_s = (end - start) as f64 / 1e9;
    recovery.spans.push_tree(("open_or_recover", start, end), &[], NONE);
    w.rec.attempted += 1;
    match recovered {
        Err(e) => w.rec.fail(format!("recovery: {e}")),
        Ok((regroup, outcome)) => {
            recovery.wal_replayed = outcome.wal_records_replayed as f64;
            if !outcome.recovered || outcome.epoch != w.acked_epoch {
                w.rec.fail(format!(
                    "recovered={} at epoch {}, last acknowledged epoch {}",
                    outcome.recovered, outcome.epoch, w.acked_epoch
                ));
            }
            let answers = drive::ask_all(&regroup, &asked, K);
            w.rec.attempted += asked.len() as u64;
            verified += asked.len();
            for bad in
                verify(&mut oracle, Some(&overlay), &asked, &answers, w.acked_epoch, "recovered")
            {
                w.rec.fail(bad);
            }
            regroup.shutdown();
        }
    }
    std::fs::remove_dir_all(dir).ok();
    (recovery, verified)
}

/// One measured run of `spec`.
pub fn run(spec: &Spec, opts: &RunOptions) -> Result<Outcome, String> {
    let dataset = if opts.smoke { Dataset::Tiny } else { spec.dataset };
    let edges = load_dataset(dataset);
    let csr = Csr::from_edges(&edges);
    let inputs = Inputs::generate(spec, &csr, opts.seed);
    let mut notes = vec![format!(
        "inputs: dataset {} ({} vertices, {} edges), seed {}, stream digest {:016x}, updates digest {:016x}",
        dataset.spec().name,
        edges.num_vertices(),
        edges.len(),
        opts.seed,
        inputs.stream_digest,
        inputs.updates_digest
    )];

    // Set up SETUPS times; the last instance serves the window.
    let sensor = Sensor::start();
    let mut setups = Vec::new();
    let mut setup_spans = Vec::new();
    let mut builds = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(prev) = served.take() {
            Served::teardown(prev);
        }
        let s = setup(spec, &edges, &inputs, opts.traced)?;
        setups.push(s.setup_s);
        setup_spans.push((s.started, s.started + Duration::from_secs_f64(s.setup_s)));
        builds.push(s.engine_build_s);
        served = Some(s);
    }
    let served = served.expect("SETUPS >= 1");
    // Read before the window: what set-up left resident. Inside the
    // window the process grows with the *number* of queries answered
    // (the service and this bench both keep per-query samples), so a
    // later peak would charge a faster service for being faster.
    let setup_rss_mb = peak_rss_mb();
    let probe_engine = Arc::clone(&served.engine);

    let mut w = measure(spec, opts, &served, &inputs, &csr);
    let host = sensor.finish();
    let (recovery, verified) = check(spec, &edges, &csr, &inputs, served, &mut w);

    // End-to-end metrics: medians over the slices of the window.
    let window_s = opts.window.as_secs_f64();
    let slices = stats::work_slices(&w.rec.samples, window_s, spec.slice_queries);
    if slices.is_empty() {
        return Err(format!(
            "fewer than two queries completed inside the window ({} failures: {:?})",
            w.rec.failed, w.rec.failures
        ));
    }
    let t0 = w.rec.t0;
    let at = |s: f64| t0 + Duration::from_secs_f64(s);
    let window_slowdown = host.slowdown(t0, at(window_s)).unwrap_or(1.0);
    let slowdowns: Vec<f64> = slices
        .iter()
        .map(|s| host.slowdown(at(s.from_s), at(s.until_s)).unwrap_or(window_slowdown))
        .collect();
    let setup_slowdowns: Vec<f64> = setup_spans
        .iter()
        .map(|&(from, until)| host.slowdown(from, until).unwrap_or(window_slowdown))
        .collect();
    // Each estimate twice: as measured, and stated for a quiet host
    // (`host::quiet`) — slice by slice, each with its own slowdown,
    // then the median over the slices.
    let e = spec.elasticity;
    let estimate = |of: &dyn Fn(&stats::Slice) -> f64, adjust: fn(f64, f64, f64) -> f64| Estimate {
        raw: stats::median(&slices.iter().map(of).collect::<Vec<f64>>()),
        quiet: stats::median(
            &slices.iter().zip(&slowdowns).map(|(s, &h)| adjust(of(s), h, e)).collect::<Vec<f64>>(),
        ),
    };
    let qps = estimate(
        &stats::Slice::rate,
        match spec.load {
            Load::Closed => host::quiet_rate,
            // The offered rate, whatever the host does.
            Load::Open => |rate, _, _| rate,
        },
    );
    let mean_ms = estimate(&stats::Slice::mean, host::quiet);
    let p99_ms = estimate(&|s| s.percentile(99.0), host::quiet);
    let setup_s = Estimate {
        raw: stats::median(&setups),
        quiet: stats::median(
            &setups
                .iter()
                .zip(&setup_slowdowns)
                .map(|(&s, &h)| host::quiet(s, h, e))
                .collect::<Vec<f64>>(),
        ),
    };
    let mut end_to_end = Values::default();
    end_to_end.set("qps", qps.quiet);
    end_to_end.set("query_mean_ms", mean_ms.quiet);
    end_to_end.set("query_p99_ms", p99_ms.quiet);
    end_to_end.set("setup_s", setup_s.quiet);
    end_to_end.set("peak_rss_mb", setup_rss_mb);
    let completions: usize = slices.iter().map(|s| s.values.len()).sum();
    notes.push(format!(
        "window {window_s} s: {completions} completions in {} slices of {} (a slice's p99 needs {SLICE_MIN_SAMPLES}), {} commits, {verified} answers verified against the oracle",
        slices.len(),
        slices[0].values.len(),
        w.updater.commits.len(),
    ));
    notes.push(format!(
        "host slowdown: window {window_slowdown:.3} (slices {:.3} to {:.3}), set-ups {setup_slowdowns:.3?}; times below are stated for a quiet host, measured / slowdown^{e}",
        slowdowns.iter().copied().fold(f64::MAX, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
    ));
    notes.push(format!(
        "as measured: qps {:.4} 1/s, query_mean_ms {:.4}, query_p99_ms {:.4}, setup_s {:.4} (set-ups {setups:.4?}, engine build {builds:.4?})",
        qps.raw, mean_ms.raw, p99_ms.raw, setup_s.raw
    ));
    notes.push(format!(
        "slice-median latency ladder as measured (ms): {:?}",
        [50.0, 90.0, 95.0, 99.0].map(|p| (p, estimate(&|s| s.percentile(p), host::quiet).raw))
    ));
    notes.push(format!(
        "per-slice completions/s as measured: {:.1?}",
        slices.iter().map(stats::Slice::rate).collect::<Vec<f64>>()
    ));
    notes.push(format!(
        "per-slice p99 as measured (ms): {:.1?}",
        slices.iter().map(|s| s.percentile(99.0)).collect::<Vec<f64>>()
    ));

    let mut per_layer = Values::default();
    if let Some((before, after)) = &w.edges {
        per_layer.set("obs.qps_traced", qps.quiet);
        per_layer.set("bench.host_slowdown", window_slowdown);
        per_layer.set("bench.qps_raw", qps.raw);
        per_layer.set("bench.query_mean_raw_ms", mean_ms.raw);
        per_layer.set("bench.query_p99_raw_ms", p99_ms.raw);
        per_layer.set("bench.setup_raw_s", setup_s.raw);
        per_layer.set("bench.query_p50_ms", estimate(&|s| s.percentile(50.0), host::quiet).raw);
        per_layer.set("bench.peak_rss_end_mb", peak_rss_mb());
        per_layer.set("core.shard.build_s", stats::median(&builds));
        per_layer.set("core.shard.bytes", probe_engine.shard_bytes() as f64);
        per_layer.set("core.durability.recover_s", recovery.recover_s);
        per_layer.set("core.durability.wal_replayed", recovery.wal_replayed);
        traced_metrics(&mut per_layer, &w.rec, &w.updater, before, after, window_s);

        let mut log = w.rec.spans.take().unwrap_or_default();
        log.merge(std::mem::take(&mut w.updater.spans));
        log.merge(recovery.spans);
        let span = |name: &str| log.rollup().get(name).copied().unwrap_or_default();
        per_layer.set("span.query.count", span("query").count as f64);
        for name in ["query", "submit", "response", "apply_updates", "commit_epoch"] {
            per_layer.set(&format!("span.{name}.total_s"), span(name).total_ns as f64 / 1e9);
        }
        per_layer.set("span.update_cycle.self_s", span("update_cycle").self_ns as f64 / 1e9);
        let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
        log.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "spans: {} rolled up, {} written to {} (first {TRACE_TREES} request trees, every commit)",
            log.rollup().values().map(|r| r.count).sum::<u64>(),
            log.spans.len(),
            path.display()
        ));

        let probe_inputs = probes::ProbeInputs {
            spec,
            edges: &edges,
            csr: &csr,
            engine: &probe_engine,
            stream: &inputs.stream,
            seed: opts.seed,
            smoke: opts.smoke,
        };
        probes::run_all(&probe_inputs, &mut per_layer, &mut notes)?;
    }

    Ok(Outcome {
        attempted: w.rec.attempted,
        failed: w.rec.failed,
        failures: w.rec.failures,
        end_to_end,
        per_layer,
        notes,
    })
}

/// Per-layer numbers of the traced window, from the program's public
/// counters read at the window's edges and from the bench's spans.
fn traced_metrics(
    out: &mut Values,
    rec: &Recorder,
    upd: &UpdaterOut,
    before: &Counters,
    after: &Counters,
    window_s: f64,
) {
    let (s0, s1) = (&before.stats, &after.stats);
    let d = |f: fn(&ServiceStats) -> u64| (f(s1) - f(s0)) as f64;
    let obs_d = |name: &str| after.obs_counter(name) - before.obs_counter(name);
    let completed = d(|s| s.queries_completed);
    let batches = d(|s| s.batches_dispatched);
    let mean_ms = |f: fn(&ServiceStats) -> &cgraph_core::ResponseStats| {
        let total = |s: &ServiceStats| f(s).mean().as_secs_f64() * f(s).len() as f64;
        ratio((total(s1) - total(s0)) * 1e3, (f(s1).len() - f(s0).len()) as f64)
    };

    out.set("core.service.submit_stall_us_p99", stats::tail_of(&rec.stalls_us));
    out.set("core.service.admission_wait_ms_mean", mean_ms(|s| &s.admission_wait));
    out.set("core.service.exec_ms_mean", mean_ms(|s| &s.exec));
    out.set("core.service.batches", batches);
    let traversals = completed
        - d(|s| s.cache_hits).min(completed)
        - d(|s| s.index_only_answers)
        - d(|s| s.coalesced_traversals);
    out.set("core.service.lanes_per_batch", ratio(traversals.max(0.0), batches));
    out.set("core.service.retries", d(|s| s.retries));
    out.set("core.service.failed", d(|s| s.queries_failed));
    out.set("core.service.commits", d(|s| s.epoch_commits));
    out.set("core.service.folds", d(|s| s.epoch_folds));
    out.set("core.service.updates_applied", d(|s| s.updates_applied));

    let commit_ms: Vec<f64> = upd.commits.iter().map(|c| c.value).collect();
    out.set("core.service.apply_ms_p50", stats::percentile_of(&upd.applies_ms, 50.0));
    out.set("core.service.commit_ms_p50", stats::percentile_of(&commit_ms, 50.0));
    out.set("core.service.commit_ms_p90", stats::percentile_of(&commit_ms, 90.0));
    // `+ 0.0`: the sum of no commits is -0.0.
    out.set(
        "core.service.commit_wall_share",
        (commit_ms.iter().sum::<f64>() + 0.0) / 1e3 / window_s,
    );
    out.set("core.service.commit_overlap_p99_ms", commit_overlap_tail(&rec.samples, &upd.commits));

    let latency_ms = rec.stall_ms_sum + rec.wait_ms_sum + rec.exec_ms_sum;
    out.set("core.service.submit_share", ratio(rec.stall_ms_sum, latency_ms));
    out.set("core.service.wait_share", ratio(rec.wait_ms_sum, latency_ms));
    out.set("core.engine.exec_share", ratio(rec.exec_ms_sum, latency_ms));
    out.set("core.engine.answer_share", ratio(traversals.max(0.0), completed));
    out.set(
        "core.engine.supersteps_per_batch",
        ratio(obs_d("cgraph_engine_supersteps_total"), batches),
    );

    out.set("cache.hit_ratio", ratio(d(|s| s.cache_hits), completed));
    out.set("cache.coalesced_ratio", ratio(d(|s| s.coalesced_traversals), completed));
    out.set("cache.evictions", d(|s| s.cache_evictions));
    out.set("cache.resident_bytes", s1.cache_bytes as f64);

    let routed: Vec<f64> = after
        .router
        .routed
        .iter()
        .zip(&before.router.routed)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let routed_total: f64 = routed.iter().sum();
    out.set(
        "router.locality_ratio",
        ratio((after.router.locality - before.router.locality) as f64, routed_total),
    );
    out.set(
        "router.heat_steered_ratio",
        ratio((after.router.heat_steered - before.router.heat_steered) as f64, routed_total),
    );
    let (lo, hi) = routed.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    out.set("router.balance", ratio(lo, hi));

    out.set("comm.bytes_per_query", ratio(obs_d("cgraph_comm_bytes_sent_total"), completed));
    out.set("comm.msgs_per_query", ratio(obs_d("cgraph_comm_msgs_sent_total"), completed));
    out.set(
        "comm.barrier_generations_per_batch",
        ratio(obs_d("cgraph_comm_barrier_generations_total"), batches),
    );

    out.set("index.only_ratio", ratio(d(|s| s.index_only_answers), completed));
    out.set("index.builds", d(|s| s.index_builds));

    out.set("graph.delta.entries_end", s1.delta_entries as f64);
    out.set(
        "core.durability.wal_bytes_per_update",
        ratio(d(|s| s.wal_bytes), d(|s| s.updates_applied)),
    );
    out.set("core.durability.snapshots", d(|s| s.snapshots_written));
    out.set("core.durability.snapshot_bytes", d(|s| s.snapshot_bytes));

    out.set("bench.gen_late_p99_ms", stats::tail_of(&rec.late_ms));
}

/// Tail latency of the queries in flight during some commit: the
/// foreground stall commits cause. `0` when there is no such query.
pub fn commit_overlap_tail(samples: &[Sample], commits: &[Sample]) -> f64 {
    // Commits are sequential (one updater), so their intervals are
    // disjoint and ascending.
    let spans: Vec<(f64, f64)> = commits.iter().map(|c| (c.at_s, c.at_s + c.value / 1e3)).collect();
    let hit: Vec<f64> = samples
        .iter()
        .filter(|q| {
            let (start, end) = (q.at_s - q.value / 1e3, q.at_s);
            let first_ending_after = spans.partition_point(|&(_, e)| e < start);
            spans.get(first_ending_after).is_some_and(|&(s, _)| s <= end)
        })
        .map(|q| q.value)
        .collect();
    stats::tail_of(&hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_overlap_picks_only_queries_in_flight_during_a_commit() {
        // Commits over [1.0, 1.2] and [3.0, 3.1].
        let commits = [Sample { at_s: 1.0, value: 200.0 }, Sample { at_s: 3.0, value: 100.0 }];
        let q = |done: f64, ms: f64| Sample { at_s: done, value: ms };
        let samples = [
            q(0.9, 50.0),  // [0.85, 0.9]: before
            q(1.1, 300.0), // [0.8, 1.1]: overlaps the first
            q(2.0, 100.0), // [1.9, 2.0]: between
            q(3.05, 10.0), // [3.04, 3.05]: inside the second
            q(4.0, 950.0), // [3.05, 4.0]: starts inside the second
            q(5.0, 100.0), // after
        ];
        // Three overlap; fewer than ten samples, so the median rules.
        assert_eq!(commit_overlap_tail(&samples, &commits), 300.0);
        assert_eq!(commit_overlap_tail(&samples[..1], &commits), 0.0);
        assert_eq!(commit_overlap_tail(&samples, &[]), 0.0);
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
