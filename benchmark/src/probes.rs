//! Layer probes: the benchmark calls one layer's public functions
//! directly, on fixed inputs taken from the workload's own stream,
//! from a single caller thread — so the counts repeat exactly and
//! the times are that layer's alone.
//!
//! Probes run after the traced window of a `--trace 1` run, on the
//! workload's dataset. Sizes are fixed small enough that the whole
//! set stays within a few seconds on FR.

use crate::drive::{self, Recorder, Step};
use crate::metrics::Values;
use crate::oracle::Csr;
use crate::stats;
use crate::streams;
use crate::workload::{self, Load, Spec, K, MACHINES};
use cgraph_cache::{
    pack_locality, CacheKey, CachedTraversal, HeatTable, PackItem, PackPolicy, ResultCache,
};
use cgraph_comm::PersistentCluster;
use cgraph_core::bitfrontier::BitFrontier;
use cgraph_core::durability::{engine_from_snapshot, snapshot_of};
use cgraph_core::{
    DistributedEngine, EngineConfig, IndexConfig, KhopQuery, QueryScheduler, Router, RouterConfig,
    SchedulerConfig, ServiceGroup,
};
use cgraph_graph::snapshot::{decode_snapshot, encode_snapshot, encode_wal_record, WalRecord};
use cgraph_graph::{EdgeList, EdgeUpdate};
use cgraph_index::BoundaryIndexBuilder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The index the indexed workload serves with, and the probe builds.
pub const INDEX_CONFIG: IndexConfig = IndexConfig { hops: 4, max_sources: 64 };

/// Stream entries the engine probes replay: 16 FIFO batches of 64,
/// or 2 of 512.
const ENGINE_QUERIES: usize = 1024;
/// Single-lane batches of the sparse-batch probe.
const SPARSE_BATCHES: usize = 8;
/// Batches the overlay-penalty probe replays on each engine.
const PENALTY_BATCHES: usize = 8;
/// Overlay rows behind `overlay_scan_penalty`.
const PENALTY_OVERLAY_ROWS: usize = 8192;
/// Keys the cache and router probes replay.
const KEY_PROBE: usize = 100_000;

pub struct ProbeInputs<'a> {
    pub spec: &'a Spec,
    pub edges: &'a EdgeList,
    pub csr: &'a Csr,
    pub engine: &'a Arc<DistributedEngine>,
    pub stream: &'a [u64],
    pub seed: u64,
    pub smoke: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn run_all(
    p: &ProbeInputs<'_>,
    out: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let (result, took) = timed(|| -> Result<(), String> {
        cache_and_router(p, out);
        engine(p, out)?;
        bitfrontier(p, out);
        scheduler(p, out);
        delta(p, out)?;
        snapshot_and_restore(p, out)?;
        if p.spec.index {
            index(p, out)?;
        }
        if p.spec.load == Load::Open {
            open_sweep(p, out)?;
        }
        Ok(())
    });
    notes.push(format!("layer probes took {:.2} s", took.as_secs_f64()));
    result
}

/// `ResultCache` at the workload's capacity replaying the stream's
/// keys; `pack_locality` over a 1024-deep queue; `Router::route`.
fn cache_and_router(p: &ProbeInputs<'_>, out: &mut Values) {
    let keys: Vec<CacheKey> = p
        .stream
        .iter()
        .take(KEY_PROBE)
        .map(|&source| CacheKey { source, k: K, epoch: 0 })
        .collect();
    let value = || CachedTraversal { visited: 4, per_level: vec![1, 1, 1, 1] };

    // Hit ratio of get-then-insert-on-miss: a count, repeats exactly.
    let mut cache = ResultCache::new(workload::CACHE_BYTES);
    let mut hits = 0u64;
    for key in &keys {
        if cache.get(key).is_some() {
            hits += 1;
        } else {
            cache.insert(*key, value());
        }
    }
    out.set("cache.probe_hit_ratio", hits as f64 / keys.len() as f64);

    let (found, took) = timed(|| keys.iter().filter(|k| cache.get(k).is_some()).count());
    black_box(found);
    out.set("cache.get_ns", took.as_nanos() as f64 / keys.len() as f64);

    let mut fresh = ResultCache::new(workload::CACHE_BYTES);
    let ((), took) = timed(|| {
        for key in &keys {
            black_box(fresh.insert(*key, value()));
        }
    });
    out.set("cache.insert_ns", took.as_nanos() as f64 / keys.len() as f64);

    let partition = p.engine.partition();
    let queue: Vec<PackItem> = p
        .stream
        .iter()
        .take(1024)
        .enumerate()
        .map(|(i, &s)| PackItem { partition: partition.owner(s), skips: (i % 5) as u32 })
        .collect();
    let rounds = 200;
    let ((), took) = timed(|| {
        for _ in 0..rounds {
            black_box(pack_locality(black_box(&queue), 64, PackPolicy::default()));
        }
    });
    out.set("cache.pack_locality_us", took.as_secs_f64() * 1e6 / f64::from(rounds));

    let heat = Arc::new(HeatTable::new(workload::REPLICAS, partition.num_partitions()));
    let router = Router::new(RouterConfig::default(), workload::REPLICAS, heat);
    let owners: Vec<usize> = p.stream.iter().take(KEY_PROBE).map(|&s| partition.owner(s)).collect();
    let ((), took) = timed(|| {
        for &o in &owners {
            black_box(router.route(o));
        }
    });
    out.set("router.route_ns", took.as_nanos() as f64 / owners.len() as f64);
}

/// What one replay of stream batches through the engine measured.
struct Replay {
    batch_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    scans: u64,
    supersteps: u64,
    busy_s: f64,
    exec_s: f64,
    wire_bytes: u64,
    queries: usize,
}

fn replay(
    engine: &DistributedEngine,
    cluster: &PersistentCluster,
    stream: &[u64],
    width: usize,
    batches: usize,
) -> Result<Replay, String> {
    let mut r = Replay {
        batch_ms: Vec::new(),
        sim_ms: Vec::new(),
        scans: 0,
        supersteps: 0,
        busy_s: 0.0,
        exec_s: 0.0,
        wire_bytes: 0,
        queries: 0,
    };
    for sources in stream.chunks(width).take(batches) {
        let ks = vec![K; sources.len()];
        let b = engine
            .run_traversal_batch_on(cluster, sources, &ks)
            .map_err(|e| format!("engine probe: {e}"))?;
        r.batch_ms.push(ms(b.exec_time));
        r.sim_ms.push(ms(b.sim_exec_time()));
        r.scans += b.scans;
        r.supersteps += u64::from(b.supersteps);
        r.busy_s += b.per_machine_busy.iter().map(Duration::as_secs_f64).sum::<f64>();
        r.exec_s += b.exec_time.as_secs_f64();
        r.wire_bytes += b.traffic.total_bytes();
        r.queries += sources.len();
    }
    Ok(r)
}

/// `run_traversal_batch_on` over the head of the stream in FIFO
/// batches of 64 and of 512, and over single-lane batches.
fn engine(p: &ProbeInputs<'_>, out: &mut Values) -> Result<(), String> {
    let cluster = PersistentCluster::with_model(MACHINES, p.engine.config().net_model);
    let head = &p.stream[..ENGINE_QUERIES.min(p.stream.len())];
    let w64 = replay(p.engine, &cluster, head, 64, ENGINE_QUERIES / 64)?;
    let w512 = replay(p.engine, &cluster, head, 512, ENGINE_QUERIES / 512)?;
    let sparse = replay(p.engine, &cluster, head, 1, SPARSE_BATCHES)?;
    cluster.shutdown();
    out.set("core.engine.batch_ms_p50.w64", stats::median(&w64.batch_ms));
    out.set("core.engine.batch_ms_p50.w512", stats::median(&w512.batch_ms));
    out.set("core.engine.scans_per_query.w64", w64.scans as f64 / w64.queries as f64);
    out.set("core.engine.scans_per_query.w512", w512.scans as f64 / w512.queries as f64);
    out.set("core.engine.supersteps.w64", w64.supersteps as f64);
    out.set("core.engine.busy_share.w64", w64.busy_s / (MACHINES as f64 * w64.exec_s));
    out.set("core.engine.sim_ms_p50.w64", stats::median(&w64.sim_ms));
    out.set("core.engine.sparse_batch_ms_p50", stats::median(&sparse.batch_ms));
    out.set("comm.wire_bytes_per_query.w64", w64.wire_bytes as f64 / w64.queries as f64);
    Ok(())
}

/// `BitFrontier` on machine 0's shard alone: 64 lanes seeded from the
/// stream's local sources, scan + advance until the shard-local
/// frontier empties (remote deliveries are dropped — this times the
/// scan and advance loops, not a traversal).
fn bitfrontier(p: &ProbeInputs<'_>, out: &mut Values) {
    let shard = &p.engine.shards()[0];
    let mut seeds: Vec<u64> = Vec::new();
    for &s in p.stream {
        if shard.is_local(s) && !seeds.contains(&s) {
            seeds.push(s);
            if seeds.len() == 64 {
                break;
            }
        }
    }
    let mut frontier = BitFrontier::new(shard, 64);
    for (lane, &s) in seeds.iter().enumerate() {
        frontier.seed(s, lane);
    }
    let (mut scan_ns, mut rows, mut advance_ns, mut advances) = (0u128, 0u64, 0u128, 0u32);
    while !frontier.frontier_empty() && advances < 16 {
        let (scanned, took) = timed(|| frontier.scan(shard, None, |_, _| {}));
        scan_ns += took.as_nanos();
        rows += scanned;
        let (result, took) = timed(|| frontier.advance());
        black_box(result);
        advance_ns += took.as_nanos();
        advances += 1;
    }
    out.set("core.bitfrontier.scan_ns_per_row", scan_ns as f64 / rows.max(1) as f64);
    out.set("core.bitfrontier.advance_us", advance_ns as f64 / 1e3 / f64::from(advances.max(1)));
}

/// The paper's closed-batch path: `QueryScheduler::execute` on 512
/// queries handed over at once.
fn scheduler(p: &ProbeInputs<'_>, out: &mut Values) {
    let queries: Vec<KhopQuery> =
        p.stream.iter().take(512).enumerate().map(|(i, &s)| KhopQuery::single(i, s, K)).collect();
    let sched = QueryScheduler::new(p.engine, SchedulerConfig::default());
    let (results, took) = timed(|| sched.execute(&queries));
    out.set("core.scheduler.closed_batch_qps", results.len() as f64 / took.as_secs_f64());
}

/// `DistributedEngine::with_updates`: publishing one 128-update batch
/// as an overlay, folding it into fresh edge-sets, and what an
/// 8192-row overlay costs the scan loop.
fn delta(p: &ProbeInputs<'_>, out: &mut Values) -> Result<(), String> {
    let rows = PENALTY_OVERLAY_ROWS / streams::UPDATES_PER_BATCH;
    let batches = streams::update_batches(p.csr, p.seed, rows);
    let one = &batches[0];
    let overlay_ms: Vec<f64> = (0..20)
        .map(|_| ms(timed(|| black_box(p.engine.with_updates(one, usize::MAX))).1))
        .collect();
    out.set("graph.delta.overlay_commit_ms", stats::median(&overlay_ms));
    let fold_ms: Vec<f64> = (0..if p.smoke { 1 } else { 3 })
        .map(|_| {
            let ((_, folded), took) = timed(|| p.engine.with_updates(one, 0));
            assert!(folded, "a zero threshold folds");
            ms(took)
        })
        .collect();
    out.set("graph.delta.fold_commit_ms", stats::median(&fold_ms));

    // Inserts only, so the overlay holds exactly the asked-for rows.
    let inserts: Vec<EdgeUpdate> =
        batches.iter().flatten().filter(|u| u.is_insert()).copied().collect();
    let (overlaid, _) = p.engine.with_updates(&inserts, usize::MAX);
    let cluster = PersistentCluster::with_model(MACHINES, p.engine.config().net_model);
    let head = &p.stream[..(PENALTY_BATCHES * 64).min(p.stream.len())];
    let with = replay(&overlaid, &cluster, head, 64, PENALTY_BATCHES)?;
    let without = replay(p.engine, &cluster, head, 64, PENALTY_BATCHES)?;
    cluster.shutdown();
    out.set(
        "graph.delta.overlay_scan_penalty",
        stats::median(&with.batch_ms) / stats::median(&without.batch_ms),
    );
    Ok(())
}

/// The snapshot codec and the WAL record codec on the workload's
/// graph, then rebuilding an engine from the decoded snapshot.
fn snapshot_and_restore(p: &ProbeInputs<'_>, out: &mut Values) -> Result<(), String> {
    let (bytes, took) = timed(|| encode_snapshot(&snapshot_of(p.engine, 0)));
    out.set("graph.snapshot.encode_ms", ms(took));
    out.set("graph.snapshot.bytes_per_edge", bytes.len() as f64 / p.edges.len() as f64);
    let (decoded, took) = timed(|| decode_snapshot(&bytes));
    let snap = decoded.map_err(|e| format!("snapshot probe: {e}"))?;
    out.set("graph.snapshot.decode_ms", ms(took));
    drop(bytes);

    let updates = streams::update_batches(p.csr, p.seed, 1).remove(0);
    let n = updates.len();
    let record = WalRecord::Updates { seq: 1, updates };
    let rounds = 200;
    let ((), took) = timed(|| {
        for _ in 0..rounds {
            black_box(encode_wal_record(black_box(&record)));
        }
    });
    out.set(
        "graph.snapshot.wal_encode_ns_per_update",
        took.as_nanos() as f64 / (rounds * n) as f64,
    );

    let (restored, took) = timed(|| engine_from_snapshot(&snap, EngineConfig::new(MACHINES)));
    if restored.num_vertices() != p.engine.num_vertices() {
        return Err("restored engine lost vertices".into());
    }
    out.set("core.durability.restore_engine_ms", ms(took));
    Ok(())
}

/// `BoundaryIndexBuilder::build_tier` and `ReachIndex::answer`.
fn index(p: &ProbeInputs<'_>, out: &mut Values) -> Result<(), String> {
    use cgraph_core::ReachIndex;
    let (tier, took) = timed(|| BoundaryIndexBuilder::new(INDEX_CONFIG).build_tier(p.engine));
    let tier = tier.map_err(|e| format!("index probe: {e}"))?;
    out.set("index.build_s", took.as_secs_f64());
    out.set("index.bytes", tier.size_bytes() as f64);
    let asks = &p.stream[..KEY_PROBE.min(p.stream.len())];
    let (answered, took) = timed(|| asks.iter().filter(|&&s| tier.answer(s, K).is_some()).count());
    black_box(answered);
    out.set("index.answer_ns", took.as_nanos() as f64 / asks.len() as f64);
    Ok(())
}

/// Offers `steps` to a fresh untraced group and returns what was
/// recorded once every query is answered.
fn offer(
    p: &ProbeInputs<'_>,
    replicas: usize,
    steps: &[Step],
    offset: usize,
) -> Result<Recorder, String> {
    let config =
        cgraph_core::GroupConfig { replicas, ..workload::group_config(p.spec, None, None) };
    let group = ServiceGroup::try_start(Arc::clone(p.engine), config)
        .map_err(|e| format!("sweep group: {e}"))?;
    let mut rec = Recorder::new(Instant::now(), K, None);
    let due = drive::poisson_due_times_ns(steps, p.seed);
    drive::open_loop(&group, &p.stream[offset % p.stream.len()..], &due, &mut rec);
    group.shutdown();
    if rec.failed > 0 {
        return Err(format!(
            "open-loop sweep: {} failures, first: {:?}",
            rec.failed,
            rec.failures.first()
        ));
    }
    Ok(rec)
}

/// Ascending latencies of the queries due inside `step`.
fn step_latencies(rec: &Recorder, step: &Step) -> Result<Vec<f64>, String> {
    let mut lat: Vec<f64> = rec
        .samples
        .iter()
        .zip(&rec.due_s)
        .filter(|(_, &due)| due >= step.from_s && due < step.until_s)
        .map(|(s, _)| s.value)
        .collect();
    if lat.is_empty() {
        return Err(format!("sweep step {} q/s completed nothing", step.rate));
    }
    stats::sort(&mut lat);
    Ok(lat)
}

/// The open-loop sweep: a fresh untraced group, set up as the
/// workload's, offered 500, 1000 and 2000 q/s for equal spans after a
/// discarded lead-in, latency from the due time. `max_rate_ok` is the
/// highest step whose p99 met the limit with no failure and no
/// growing backlog. Then the 1000 q/s step once more on a group of
/// *two* replicas (`.r2`): what the exec-lock convoy between two
/// dispatchers costs.
fn open_sweep(p: &ProbeInputs<'_>, out: &mut Values) -> Result<(), String> {
    let (lead, span) = if p.smoke { (0.2, 0.4) } else { (1.0, 2.0) };
    let mut steps = vec![Step { rate: workload::SWEEP_RATES[0], from_s: 0.0, until_s: lead }];
    for (i, &rate) in workload::SWEEP_RATES.iter().enumerate() {
        let from_s = lead + span * i as f64;
        steps.push(Step { rate, from_s, until_s: from_s + span });
    }
    // Past the measured window's share of the permutation, so the
    // sweep's keys are fresh to the caches as well.
    let offset = (workload::OPEN_RATE * 60.0) as usize;
    let rec = offer(p, p.spec.replicas, &steps, offset)?;
    let mut max_ok = 0.0;
    for step in &steps[1..] {
        let lat = step_latencies(&rec, step)?;
        let p99 = stats::percentile(&lat, 99.0);
        let rate = step.rate as u32;
        out.set(&format!("open.p50_ms_at_{rate}"), stats::percentile(&lat, 50.0));
        out.set(&format!("open.p99_ms_at_{rate}"), p99);
        let mid = drive::backlog_at(&rec, (step.from_s + step.until_s) / 2.0);
        let end = drive::backlog_at(&rec, step.until_s);
        if p99 <= workload::SWEEP_LIMIT_MS && end <= mid + 64 {
            max_ok = step.rate;
        }
    }
    out.set("open.max_rate_ok", max_ok);

    let pair = [
        Step { rate: workload::OPEN_RATE, from_s: 0.0, until_s: lead },
        Step { rate: workload::OPEN_RATE, from_s: lead, until_s: lead + span },
    ];
    let rec = offer(p, workload::REPLICAS, &pair, offset + 20_000)?;
    let lat = step_latencies(&rec, &pair[1])?;
    out.set("open.p50_ms_at_1000.r2", stats::percentile(&lat, 50.0));
    out.set("open.p99_ms_at_1000.r2", stats::percentile(&lat, 99.0));
    Ok(())
}
