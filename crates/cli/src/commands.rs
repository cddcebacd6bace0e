//! Command implementations.

use crate::args::Args;
use crate::{build_engine, load_graph, run_bench, save_graph, summary};
use cgraph_core::{
    DurabilityConfig, EdgeUpdate, EngineConfig, FaultPlan, GroupConfig, IndexBuilder, IndexConfig,
    KhopQuery, MutationConfig, QueryPlaneConfig, RecoveryConfig, RouterConfig, SchedulerConfig,
    ServiceConfig, ServiceGroup,
};
use cgraph_index::BoundaryIndexBuilder;
use cgraph_obs::{Obs, TraceSink};
use cgraph_ql::Session;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `cgraph generate <MODEL> [ARGS..] [--seed S] -o <FILE>`
pub fn generate(args: Args) -> Result<(), String> {
    args.reject_unknown(&["--seed", "-o", "--raw"])?;
    let model = args.require(0, "model name")?.to_string();
    let seed: u64 = args.flag_parse("--seed", 42)?;
    let out = args.flag("-o").ok_or("missing -o <FILE>")?.to_string();
    let list = match model.as_str() {
        "graph500" => {
            let scale: u32 = args.pos_parse(1, "scale")?;
            let ef: usize = args.pos_parse(2, "edge factor")?;
            cgraph_gen::graph500(scale, ef, seed)
        }
        "rmat" => {
            let scale: u32 = args.pos_parse(1, "scale")?;
            let edges: usize = args.pos_parse(2, "edge count")?;
            cgraph_gen::rmat(scale, edges, cgraph_gen::RmatParams::GRAPH500, seed)
        }
        "er" => {
            let n: u64 = args.pos_parse(1, "vertex count")?;
            let m: usize = args.pos_parse(2, "edge count")?;
            cgraph_gen::erdos_renyi(n, m, seed)
        }
        "smallworld" => {
            let n: u64 = args.pos_parse(1, "vertex count")?;
            let k: usize = args.pos_parse(2, "ring degree k")?;
            let beta: f64 = args.pos_parse(3, "rewire probability")?;
            cgraph_gen::small_world(n, k, beta, seed)
        }
        "ba" => {
            let n: u64 = args.pos_parse(1, "vertex count")?;
            let m: usize = args.pos_parse(2, "attachments per vertex")?;
            cgraph_gen::pref_attach(n, m, seed)
        }
        other => return Err(format!("unknown model {other:?}")),
    };
    // Clean before writing (dedup, drop loops) unless told otherwise.
    let list = if args.switch("--raw") {
        list
    } else {
        let mut b = cgraph_graph::GraphBuilder::new();
        b.add_edge_list(&list);
        b.build().edges
    };
    save_graph(&out, &list)?;
    println!("wrote {} vertices, {} edges to {out}", list.num_vertices(), list.len());
    Ok(())
}

/// `cgraph stats <FILE>`
pub fn stats(args: Args) -> Result<(), String> {
    args.reject_unknown(&[])?;
    let path = args.require(0, "graph file")?;
    let edges = load_graph(path)?;
    let (s, hist) = summary(&edges);
    println!("graph     : {path}");
    println!("vertices  : {}", s.num_vertices);
    println!("edges     : {}", s.num_edges);
    println!("E/V ratio : {:.2}", s.edge_vertex_ratio());
    println!(
        "out-degree: min {}, median {}, mean {:.1}, max {}, isolated {}",
        s.degrees.min, s.degrees.median, s.degrees.mean, s.degrees.max, s.degrees.isolated
    );
    println!("degree histogram (2^i buckets):");
    for (i, count) in hist.iter().enumerate() {
        if *count > 0 {
            let lo = if i == 0 { 0 } else { 1usize << i };
            println!("  [{lo:>8}, {:>8}) : {count}", 1usize << (i + 1));
        }
    }
    Ok(())
}

/// `cgraph convert <IN> <OUT>`
pub fn convert(args: Args) -> Result<(), String> {
    args.reject_unknown(&[])?;
    let input = args.require(0, "input file")?;
    let output = args.require(1, "output file")?.to_string();
    let edges = load_graph(input)?;
    save_graph(&output, &edges)?;
    println!("converted {input} -> {output} ({} edges)", edges.len());
    Ok(())
}

/// `cgraph query <FILE> [-p MACHINES] [-e STATEMENT]...`
pub fn query(args: Args) -> Result<(), String> {
    args.reject_unknown(&["-p", "-e"])?;
    let path = args.require(0, "graph file")?;
    let machines: usize = args.flag_parse("-p", 3)?;
    let edges = load_graph(path)?;
    let group =
        ServiceGroup::start(Arc::new(build_engine(&edges, machines)), GroupConfig::default());
    let session = Session::new(&group);

    let program = {
        let inline = args.flag_all("-e");
        if inline.is_empty() {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        } else {
            inline.join("\n")
        }
    };
    let queries = cgraph_ql::parse_program(&program).map_err(|e| e.to_string())?;
    if queries.is_empty() {
        return Err("no statements given (use -e or stdin)".into());
    }
    let answers = session.execute_batch(queries);
    group.shutdown();
    for a in &answers {
        println!("[{}] {}  ({:?})", a.index, a.output, a.response_time);
    }
    Ok(())
}

/// `cgraph bench <FILE> [-p MACHINES] [-q QUERIES] [-k HOPS]`
pub fn bench(args: Args) -> Result<(), String> {
    args.reject_unknown(&["-p", "-q", "-k"])?;
    let path = args.require(0, "graph file")?;
    let machines: usize = args.flag_parse("-p", 3)?;
    let queries: usize = args.flag_parse("-q", 100)?;
    let k: u32 = args.flag_parse("-k", 3)?;
    let edges = load_graph(path)?;
    println!("{}", run_bench(&edges, machines, queries, k));
    Ok(())
}

/// Flags shared by `serve` and `replay` for [`start_service`].
const SERVICE_FLAGS: &[&str] = &[
    "-p",
    "--replicas",
    "--router-seed",
    "--batch-width",
    "--delay-us",
    "--depth",
    "--cache-mb",
    "--coalesce",
    "--index",
    "--index-hops",
    "--pack-locality",
    "--chaos",
    "--deadline-ms",
    "--retries",
    "--ckpt-interval",
    "--degrade-after",
    "--update-stream",
    "--commit-every",
    "--fold-threshold",
    "--data-dir",
    "--snapshot-every",
    "--metrics",
    "--trace-out",
];

/// Where the observability plane's output goes after the stream
/// drains: a metrics snapshot (Prometheus text format) and/or the
/// replayable trace event log. `"-"` means stdout.
struct ObsOut {
    obs: Arc<Obs>,
    metrics_to: Option<String>,
    trace_to: Option<String>,
}

/// Builds the [`Obs`] bundle when `--metrics` and/or `--trace-out` was
/// given. `--metrics` works as a bare switch (print to stdout) or with
/// a path; `--trace-out` always takes a path (or `-` for stdout).
fn obs_from_args(args: &Args) -> Option<ObsOut> {
    let metrics_to = if args.switch("--metrics") {
        Some("-".to_string())
    } else {
        args.flag("--metrics").map(str::to_string)
    };
    let trace_to = args.flag("--trace-out").map(str::to_string);
    if metrics_to.is_none() && trace_to.is_none() {
        return None;
    }
    Some(ObsOut { obs: Obs::shared(), metrics_to, trace_to })
}

/// Writes the metrics snapshot and the drained trace log to their
/// configured sinks once the stream has drained.
fn write_obs(out: &ObsOut) -> Result<(), String> {
    let emit = |target: &str, what: &str, text: String| -> Result<(), String> {
        if target == "-" {
            print!("{text}");
            Ok(())
        } else {
            std::fs::write(target, text).map_err(|e| format!("cannot write {what} {target}: {e}"))
        }
    };
    if let Some(t) = &out.trace_to {
        let events = out.obs.trace.drain();
        emit(t, "--trace-out", TraceSink::render(&events))?;
    }
    if let Some(t) = &out.metrics_to {
        emit(t, "--metrics", out.obs.metrics.render_text())?;
    }
    Ok(())
}

/// Builds a running serving tier — a [`ServiceGroup`] of `--replicas`
/// query front-ends (default 1, the classic single service) over one
/// shared cluster — from common serve/replay flags.
fn start_service(args: &Args, path: &str, obs: Option<&ObsOut>) -> Result<ServiceGroup, String> {
    let machines: usize = args.flag_parse("-p", 3)?;
    let replicas: usize = args.flag_parse("--replicas", 1)?;
    if replicas == 0 || replicas > 64 {
        return Err(format!("bad --replicas {replicas}: must be between 1 and 64"));
    }
    let router_seed: u64 = args.flag_parse("--router-seed", 0)?;
    // What no flag sets is what the library serves.
    let defaults = ServiceConfig::default();
    let batch_width: usize = args.flag_parse("--batch-width", defaults.scheduler.batch_lanes)?;
    if !matches!(batch_width, 64 | 128 | 256 | 512) {
        return Err(format!("bad --batch-width {batch_width}: must be 64, 128, 256 or 512"));
    }
    let delay_us: u64 =
        args.flag_parse("--delay-us", defaults.max_batch_delay.as_micros() as u64)?;
    let depth: usize = args.flag_parse("--depth", defaults.max_queue_depth)?;
    let fault_plan = match args.flag("--chaos") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("bad --chaos spec: {e}"))?),
        None => None,
    };
    let deadline_ms: u64 = args.flag_parse("--deadline-ms", 0)?;
    let max_retries: u32 = args.flag_parse("--retries", 2)?;
    let ckpt: u32 = args.flag_parse("--ckpt-interval", 4)?;
    let degrade: u32 = args.flag_parse("--degrade-after", 0)?;
    let cache_mb: usize = args.flag_parse("--cache-mb", 0)?;
    let query_plane = QueryPlaneConfig {
        cache_capacity_bytes: (cache_mb > 0).then_some(cache_mb << 20),
        coalesce: args.switch("--coalesce"),
        pack_locality: args.switch("--pack-locality"),
        ..Default::default()
    };
    let index_hops: u32 = args.flag_parse("--index-hops", IndexConfig::default().hops)?;
    let index = args.switch("--index").then(|| {
        Arc::new(BoundaryIndexBuilder::new(IndexConfig { hops: index_hops, ..Default::default() }))
            as Arc<dyn IndexBuilder>
    });
    let commit_every: usize = args.flag_parse("--commit-every", 0)?;
    let mutation = MutationConfig {
        commit_threshold: (commit_every > 0).then_some(commit_every),
        fold_threshold: args
            .flag_parse("--fold-threshold", MutationConfig::default().fold_threshold)?,
    };
    let snapshot_every: u64 = args.flag_parse("--snapshot-every", 8)?;
    let durability = args
        .flag("--data-dir")
        .map(|dir| DurabilityConfig::new(dir).snapshot_every(snapshot_every));
    let edges = load_graph(path)?;
    let config = ServiceConfig {
        scheduler: SchedulerConfig { batch_lanes: batch_width, ..defaults.scheduler },
        max_batch_delay: Duration::from_micros(delay_us),
        max_queue_depth: depth,
        fault_plan,
        query_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        query_plane,
        index,
        mutation,
        durability,
        max_retries,
        recovery: RecoveryConfig { checkpoint_interval: ckpt, ..Default::default() },
        degrade_after: (degrade > 0).then_some(degrade),
        obs: obs.map(|o| Arc::clone(&o.obs)),
        ..defaults
    };
    let group_config =
        GroupConfig { replicas, router: RouterConfig { seed: router_seed }, service: config };
    if group_config.service.durability.is_some() {
        // Durable (restart-capable) serving: resume from whatever
        // committed state survives in --data-dir, or ingest the graph
        // file fresh at epoch 0 when the directory is empty.
        let (service, rec) =
            ServiceGroup::open_or_recover(&edges, EngineConfig::new(machines), group_config)
                .map_err(|e| e.to_string())?;
        println!(
            "recovery recovered={} epoch={} wal_replayed={} snapshots_corrupt={} \
             wal_truncated_bytes={} pending_restored={}",
            u64::from(rec.recovered),
            rec.epoch,
            rec.wal_records_replayed,
            rec.snapshots_corrupt,
            rec.wal_truncated_bytes,
            rec.pending_restored,
        );
        Ok(service)
    } else {
        let engine = Arc::new(build_engine(&edges, machines));
        ServiceGroup::try_start(engine, group_config).map_err(|e| e.to_string())
    }
}

/// Parses one edge-update line: `add SRC DST [W]` (alias `+`) or
/// `del SRC DST` (alias `-`). Blank lines and `#` comments yield
/// `Ok(None)`.
pub fn parse_update_line(line: &str) -> Result<Option<EdgeUpdate>, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.is_empty() || tokens[0].starts_with('#') {
        return Ok(None);
    }
    let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad vertex {t:?}"));
    match tokens[0] {
        "add" | "+" => match tokens.len() {
            3 => Ok(Some(EdgeUpdate::insert(parse(tokens[1])?, parse(tokens[2])?))),
            4 => {
                let w: f32 =
                    tokens[3].parse().map_err(|_| format!("bad weight {:?}", tokens[3]))?;
                Ok(Some(EdgeUpdate::insert_weighted(parse(tokens[1])?, parse(tokens[2])?, w)))
            }
            _ => Err(format!("need `add SRC DST [W]`, got {:?}", line.trim())),
        },
        "del" | "-" => {
            if tokens.len() != 3 {
                return Err(format!("need `del SRC DST`, got {:?}", line.trim()));
            }
            Ok(Some(EdgeUpdate::delete(parse(tokens[1])?, parse(tokens[2])?)))
        }
        other => Err(format!("unknown update op {other:?} (expected add/+/del/-)")),
    }
}

/// Streams edge updates from `path` into the service on a background
/// thread: updates apply in chunks (so a `--commit-every` threshold
/// can fire between them), and one final [`ServiceGroup::commit_epoch`]
/// publishes whatever the threshold left pending once the file drains.
fn spawn_update_stream(service: Arc<ServiceGroup>, path: String) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cgraph: cannot read --update-stream {path}: {e}");
                return;
            }
        };
        let mut buf: Vec<EdgeUpdate> = Vec::new();
        let flush = |buf: &mut Vec<EdgeUpdate>| {
            if buf.is_empty() {
                return;
            }
            if let Err(e) = service.apply_updates(buf.drain(..).collect()) {
                eprintln!("cgraph: --update-stream: {e}");
            }
        };
        for line in text.lines() {
            match parse_update_line(line) {
                Ok(Some(u)) => buf.push(u),
                Ok(None) => {}
                Err(e) => eprintln!("cgraph: --update-stream: {e}"),
            }
            if buf.len() >= 256 {
                flush(&mut buf);
            }
        }
        flush(&mut buf);
        match service.commit_epoch() {
            Ok(ep) => eprintln!("cgraph: update stream drained; committed epoch {ep}"),
            Err(e) => eprintln!("cgraph: --update-stream final commit: {e}"),
        }
    })
}

/// Prints the service's lifetime latency summary. The first line is
/// the canonical machine-parseable `stats` record (`key=value` pairs,
/// fixed order) that operators and tests key on; the human-readable
/// summary follows. Call it after `shutdown()`: a commit returns once
/// its fence is durable, while its snapshot is still being written —
/// only the shutdown barrier makes `snapshots` / `last_snapshot_epoch`
/// final.
fn print_service_stats(service: &ServiceGroup) {
    let s = service.stats();
    let r = service.router_stats();
    println!(
        "stats completed={} failed={} deadline_exceeded={} batches={} retries={} \
         recoveries={} checkpoints_taken={} checkpoints_restored={} partitions_replayed={} \
         full_rollbacks={} degraded={} cache_hits={} cache_misses={} cache_insertions={} \
         cache_evictions={} coalesced={} updates_applied={} updates_inserted={} \
         updates_deleted={} epoch_commits={} epoch_folds={} pending_updates={} \
         delta_entries={} delta_bytes={} wal_records={} wal_bytes={} snapshots={} \
         snapshot_bytes={} wal_replayed={} snapshots_corrupt={} durable_recoveries={} \
         last_snapshot_epoch={} index_builds={} index_only={} index_sources={} \
         index_bytes={} replicas={} router_locality={} router_heat={} router_balance={}",
        s.queries_completed,
        s.queries_failed,
        s.queries_deadline_exceeded,
        s.batches_dispatched,
        s.retries,
        s.recoveries,
        s.checkpoints_taken,
        s.checkpoints_restored,
        s.partitions_replayed,
        s.full_rollbacks,
        s.degraded_generations,
        s.cache_hits,
        s.cache_misses,
        s.cache_insertions,
        s.cache_evictions,
        s.coalesced_traversals,
        s.updates_applied,
        s.updates_inserted,
        s.updates_deleted,
        s.epoch_commits,
        s.epoch_folds,
        s.pending_updates,
        s.delta_entries,
        s.delta_bytes,
        s.wal_records,
        s.wal_bytes,
        s.snapshots_written,
        s.snapshot_bytes,
        s.wal_replayed,
        s.snapshots_corrupt,
        s.durable_recoveries,
        s.last_snapshot_epoch,
        s.index_builds,
        s.index_only_answers,
        s.index_sources,
        s.index_bytes,
        service.replicas(),
        r.locality,
        r.heat_steered,
        r.balance,
    );
    println!(
        "served {} queries ({} failed, {} past deadline) in {} batches; \
         wait p50 {:?}, response p50 {:?} / p95 {:?} / max {:?}",
        s.queries_completed,
        s.queries_failed,
        s.queries_deadline_exceeded,
        s.batches_dispatched,
        s.admission_wait.median(),
        s.response.median(),
        s.response.quantile(0.95),
        s.response.max(),
    );
    if service.replicas() > 1 {
        println!(
            "serving tier: {} replicas, per-replica queries {:?} ({} locality, \
             {} heat-steered, {} balance-spilled)",
            service.replicas(),
            r.routed,
            r.locality,
            r.heat_steered,
            r.balance,
        );
    }
    if s.cache_hits + s.cache_misses + s.coalesced_traversals > 0 {
        let lookups = s.cache_hits + s.cache_misses;
        let pct = if lookups > 0 { 100.0 * s.cache_hits as f64 / lookups as f64 } else { 0.0 };
        println!(
            "query plane: {} cache hits / {} lookups ({pct:.1}%), {} inserted, {} evicted, \
             {} entries ({} B) resident, {} traversals coalesced",
            s.cache_hits,
            lookups,
            s.cache_insertions,
            s.cache_evictions,
            s.cache_entries,
            s.cache_bytes,
            s.coalesced_traversals,
        );
    }
    if s.index_builds > 0 {
        println!(
            "index tier: {} builds, {} sources ({} B) resident; {} queries answered index-only",
            s.index_builds, s.index_sources, s.index_bytes, s.index_only_answers,
        );
    }
    if s.updates_applied + s.epoch_commits + s.pending_updates > 0 {
        println!(
            "mutations: {} updates ({} inserts, {} deletes) across {} epoch commits \
             ({} folds); {} pending, {} delta rows ({} B) live",
            s.updates_applied,
            s.updates_inserted,
            s.updates_deleted,
            s.epoch_commits,
            s.epoch_folds,
            s.pending_updates,
            s.delta_entries,
            s.delta_bytes,
        );
    }
    if s.retries + s.recoveries + s.full_rollbacks + s.degraded_generations > 0 {
        println!(
            "robustness: {} retries, {} recoveries ({} checkpoints taken, {} restored, \
             {} partitions replayed, {} full rollbacks), {} degradations",
            s.retries,
            s.recoveries,
            s.checkpoints_taken,
            s.checkpoints_restored,
            s.partitions_replayed,
            s.full_rollbacks,
            s.degraded_generations,
        );
    }
    if s.wal_records + s.snapshots_written + s.durable_recoveries > 0 {
        println!(
            "durability: {} WAL records ({} B), {} snapshots ({} B, newest epoch {}), \
             {} records replayed / {} snapshots corrupt across {} recoveries",
            s.wal_records,
            s.wal_bytes,
            s.snapshots_written,
            s.snapshot_bytes,
            s.last_snapshot_epoch,
            s.wal_replayed,
            s.snapshots_corrupt,
            s.durable_recoveries,
        );
    }
    if s.pending_updates > 0 {
        if s.wal_records > 0 {
            eprintln!(
                "cgraph: {} buffered updates were never committed; they are WAL-logged \
                 and will be restored (uncommitted) on the next open of this data dir",
                s.pending_updates
            );
        } else {
            eprintln!(
                "cgraph: warning: {} buffered updates were never committed and are \
                 discarded at shutdown (no --data-dir; run `commit` or set --commit-every)",
                s.pending_updates
            );
        }
    }
}

/// `cgraph serve <FILE> [-p MACHINES] [--replicas N] [--batch-width W] [--delay-us D]
/// [--depth N] [--chaos SPEC] [--deadline-ms MS] [--retries N]
/// [--ckpt-interval K] [--degrade-after N]`
///
/// Reads queries from stdin, one per line: one or more source vertices
/// followed by the hop count (`7 3` = 3 hops from vertex 7;
/// `1 2 3 4` = 4 hops from sources 1, 2, 3). Queries are answered as
/// the streaming service packs them into batches; results print in
/// submission order. EOF drains the queue and prints a latency summary.
pub fn serve(args: Args) -> Result<(), String> {
    args.reject_unknown(SERVICE_FLAGS)?;
    let path = args.require(0, "graph file")?;
    let obs = obs_from_args(&args);
    let service = Arc::new(start_service(&args, path, obs.as_ref())?);
    let updater = args
        .flag("--update-stream")
        .map(|p| spawn_update_stream(Arc::clone(&service), p.to_string()));

    // Printer thread: redeems tickets in submission order so output
    // is deterministic while batching continues behind it.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, cgraph_core::QueryTicket)>();
    let printer = std::thread::spawn(move || {
        for (id, ticket) in rx {
            match ticket.wait() {
                Ok(r) => println!(
                    "[{id}] visited {} (depth {}), response {:?}",
                    r.visited,
                    r.depth(),
                    r.response_time
                ),
                Err(e) => println!("[{id}] error: {e}"),
            }
        }
    });

    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut id = 0usize;
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("cannot read stdin: {e}")),
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() || tokens[0].starts_with('#') {
            continue;
        }
        if tokens.len() < 2 {
            eprintln!("cgraph: need `<SRC>... <K>`, got {:?}", line.trim());
            continue;
        }
        let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad number {t:?}"));
        let k = parse(tokens[tokens.len() - 1])? as u32;
        let sources: Vec<u64> =
            tokens[..tokens.len() - 1].iter().map(|t| parse(t)).collect::<Result<_, _>>()?;
        // A rejected query (e.g. a source outside the vertex range)
        // fails only its own line; the stream keeps serving.
        match service.submit(KhopQuery::multi(id, sources, k)) {
            Ok(ticket) => {
                tx.send((id, ticket)).expect("printer thread alive");
                id += 1;
            }
            Err(cgraph_core::ServiceError::ShutDown) => return Err("service shut down".into()),
            Err(e) => eprintln!("cgraph: rejected {:?}: {e}", line.trim()),
        }
    }
    if let Some(u) = updater {
        u.join().expect("update-stream thread panicked");
    }
    drop(tx);
    printer.join().expect("printer thread panicked");
    service.shutdown();
    print_service_stats(&service);
    if let Some(o) = &obs {
        write_obs(o)?;
    }
    Ok(())
}

/// `cgraph mutate <FILE> [-p MACHINES] [--commit-every N]
/// [--fold-threshold N] ...`
///
/// Interactive/scripted live mutations: reads a mixed op stream from
/// stdin, one op per line —
///
/// * `add SRC DST [W]` (alias `+`) — buffer an edge insertion,
/// * `del SRC DST` (alias `-`) — buffer an edge deletion,
/// * `commit` — fold buffered updates into a new epoch (prints it),
/// * `query SRC... K` (alias `q`) — k-hop query against the current
///   snapshot; the answer prints with the epoch it was computed at.
///
/// Updates buffer until a `commit` (or a crossed `--commit-every`
/// threshold); queries always answer against the latest committed
/// epoch. EOF commits anything still buffered and prints the stats
/// summary.
pub fn mutate(args: Args) -> Result<(), String> {
    args.reject_unknown(SERVICE_FLAGS)?;
    let path = args.require(0, "graph file")?;
    let obs = obs_from_args(&args);
    let service = start_service(&args, path, obs.as_ref())?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut id = 0usize;
    let mut buf: Vec<EdgeUpdate> = Vec::new();
    let mut dirty = false;
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("cannot read stdin: {e}")),
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() || tokens[0].starts_with('#') {
            continue;
        }
        // Ops that look at the graph flush the local buffer first, so
        // a script reads top-to-bottom: every earlier update is at
        // least *pending* before a commit or query runs.
        let flush = |buf: &mut Vec<EdgeUpdate>, dirty: &mut bool| {
            if buf.is_empty() {
                return;
            }
            match service.apply_updates(buf.drain(..).collect()) {
                Ok(()) => *dirty = true,
                Err(e) => eprintln!("cgraph: {e}"),
            }
        };
        match tokens[0] {
            "add" | "+" | "del" | "-" => match parse_update_line(&line) {
                Ok(Some(u)) => buf.push(u),
                Ok(None) => {}
                Err(e) => eprintln!("cgraph: {e}"),
            },
            "commit" => {
                flush(&mut buf, &mut dirty);
                match service.commit_epoch() {
                    Ok(ep) => {
                        dirty = false;
                        println!("committed epoch {ep}");
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
            "query" | "q" => {
                flush(&mut buf, &mut dirty);
                if tokens.len() < 3 {
                    eprintln!("cgraph: need `query <SRC>... <K>`, got {:?}", line.trim());
                    continue;
                }
                let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad number {t:?}"));
                let k = parse(tokens[tokens.len() - 1])? as u32;
                let sources: Vec<u64> = tokens[1..tokens.len() - 1]
                    .iter()
                    .map(|t| parse(t))
                    .collect::<Result<_, _>>()?;
                match service.query(KhopQuery::multi(id, sources, k)) {
                    Ok(r) => println!(
                        "[{id}] visited {} (depth {}) @ epoch {}, response {:?}",
                        r.visited,
                        r.depth(),
                        r.epoch,
                        r.response_time
                    ),
                    Err(e) => println!("[{id}] error: {e}"),
                }
                id += 1;
            }
            other => eprintln!("cgraph: unknown op {other:?} (add/del/commit/query)"),
        }
    }
    // EOF: publish anything still buffered so the stream's effects are
    // never silently dropped.
    if !buf.is_empty() {
        match service.apply_updates(buf.drain(..).collect()) {
            Ok(()) => dirty = true,
            Err(e) => eprintln!("cgraph: {e}"),
        }
    }
    if dirty {
        match service.commit_epoch() {
            Ok(ep) => println!("committed epoch {ep}"),
            Err(e) => return Err(e.to_string()),
        }
    }
    service.shutdown();
    print_service_stats(&service);
    if let Some(o) = &obs {
        write_obs(o)?;
    }
    Ok(())
}

/// `cgraph replay <FILE> [-p M] [--replicas N] [-q N] [-k K] [--rate QPS]
/// [--batch-width W] [--delay-us D] [--depth N] [--chaos SPEC]
/// [--deadline-ms MS] [--retries N] [--ckpt-interval K]
/// [--degrade-after N]`
///
/// Open-loop load generator: replays a deterministic stream of `N`
/// k-hop queries through the streaming service at `--rate` queries/sec
/// (0 = as fast as possible), then reports throughput and the latency
/// distribution. The open loop means submission times never wait for
/// responses — exactly how an external client population behaves.
pub fn replay(args: Args) -> Result<(), String> {
    let mut known: Vec<&str> = SERVICE_FLAGS.to_vec();
    known.extend(["-q", "-k", "--rate", "--zipf", "--zipf-seed"]);
    args.reject_unknown(&known)?;
    let path = args.require(0, "graph file")?;
    let queries: usize = args.flag_parse("-q", 1000)?;
    let k: u32 = args.flag_parse("-k", 3)?;
    let rate: f64 = args.flag_parse("--rate", 0.0)?;
    let zipf_alpha: f64 = args.flag_parse("--zipf", 0.0)?;
    let zipf_seed: u64 = args.flag_parse("--zipf-seed", 42)?;
    let obs = obs_from_args(&args);
    let service = Arc::new(start_service(&args, path, obs.as_ref())?);
    let updater = args
        .flag("--update-stream")
        .map(|p| spawn_update_stream(Arc::clone(&service), p.to_string()));
    let n = {
        let edges = load_graph(path)?;
        edges.num_vertices()
    };

    // `--zipf A` replays a seeded Zipf(A)-skewed source stream — the
    // repeat-heavy traffic shape the query plane (result cache and
    // coalescing) is built for; the default is the legacy scrambled
    // near-uniform stream.
    let zipf_sources: Option<Vec<u64>> = (zipf_alpha > 0.0).then(|| {
        let stream = cgraph_gen::QueryStream::zipf(zipf_seed, zipf_alpha, queries);
        stream.ranks().iter().map(|&r| (r as u64).wrapping_mul(0x9E37) % n).collect()
    });

    let start = Instant::now();
    let mut tickets = Vec::with_capacity(queries);
    for i in 0..queries {
        if rate > 0.0 {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let source = match &zipf_sources {
            Some(srcs) => srcs[i],
            None => (i as u64).wrapping_mul(0x9E37) % n,
        };
        tickets.push(service.submit(KhopQuery::single(i, source, k)).map_err(|e| e.to_string())?);
    }
    let mut visited = 0u64;
    let mut failed = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(r) => visited += r.visited,
            Err(_) => failed += 1,
        }
    }
    let wall = start.elapsed();
    println!(
        "replayed {queries} x {k}-hop queries in {wall:?} \
         ({:.0} queries/s), {visited} vertices visited, {failed} failed",
        queries as f64 / wall.as_secs_f64().max(1e-12)
    );
    if let Some(u) = updater {
        u.join().expect("update-stream thread panicked");
    }
    service.shutdown();
    print_service_stats(&service);
    if let Some(o) = &obs {
        write_obs(o)?;
    }
    Ok(())
}
