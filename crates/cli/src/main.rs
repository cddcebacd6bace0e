//! `cgraph` — the command-line face of the C-Graph engine.
//!
//! ```text
//! cgraph generate <MODEL> [ARGS..] -o graph.cg     synthesize a graph
//! cgraph stats <graph.{cg,el}>                     summary + degree histogram
//! cgraph convert <in> <out>                        text <-> binary edge lists
//! cgraph query <graph> [-p MACHINES] [-e STMT..]   run query statements
//! cgraph bench <graph> [-p M] [-q N] [-k K]        concurrent k-hop benchmark
//! cgraph serve <graph> [-p M]                      streaming service on stdin
//! cgraph replay <graph> [-p M] [-q N] [--rate R]   open-loop stream replay
//! cgraph mutate <graph> [-p M]                     live mutation script on stdin
//! ```
//!
//! Models for `generate`: `graph500 <scale> <edge_factor>`,
//! `rmat <scale> <edges>`, `er <vertices> <edges>`,
//! `smallworld <vertices> <k> <beta>`, `ba <vertices> <m>`.
//! Seeds default to 42 (`--seed` overrides). File format is chosen by
//! extension: `.cg` binary, anything else text.

use cgraph_core::{
    DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig, ServiceConfig,
};
use cgraph_graph::{Csr, EdgeList, GraphStats};
use std::process::ExitCode;

mod args;
mod commands;

use args::Args;

fn main() -> ExitCode {
    // Die quietly on a closed pipe (`cgraph stats | head`) instead of
    // panicking: restore the default SIGPIPE disposition Rust masks.
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let args = Args::new(rest.to_vec());
    let result = match cmd.as_str() {
        "generate" => commands::generate(args),
        "stats" => commands::stats(args),
        "convert" => commands::convert(args),
        "query" => commands::query(args),
        "bench" => commands::bench(args),
        "serve" => commands::serve(args),
        "replay" => commands::replay(args),
        "mutate" => commands::mutate(args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cgraph: {msg}");
            ExitCode::from(1)
        }
    }
}

/// The help text; the serving defaults it names are the library's.
fn usage() -> String {
    let service = ServiceConfig::default();
    format!(
        "\
cgraph — concurrent graph reachability queries (C-Graph, ICPP'18)

USAGE:
  cgraph generate <MODEL> [MODEL-ARGS..] [--seed S] -o <FILE>
  cgraph stats <FILE>
  cgraph convert <IN> <OUT>
  cgraph query <FILE> [-p MACHINES] [-e STATEMENT]...  (or statements on stdin)
  cgraph bench <FILE> [-p MACHINES] [-q QUERIES] [-k HOPS]
  cgraph serve <FILE> [-p MACHINES] [--delay-us D] [--depth N]   (queries on stdin: \"SRC.. K\")
  cgraph replay <FILE> [-p MACHINES] [-q QUERIES] [-k HOPS] [--rate QPS] [--zipf A]
  cgraph mutate <FILE> [-p MACHINES]   (ops on stdin: \"add S D [W]\" / \"del S D\" /
                                        \"commit\" / \"query SRC.. K\")

SERVICE BATCHING (serve & replay):
  --batch-width W    lane cap of a batch, formed from every replica's queue:
                     64, 128, 256 or 512 (default {lanes}); a batch with
                     fewer lanes runs at the width they need, and the
                     memory budget may step the cap back down
  --delay-us D       how long a front-end lets its oldest query wait for
                     the backlog to reach the cap before asking for the
                     engine (default {delay_us}; 0 = start as soon as the
                     engine is free — a busy engine batches by itself)
  --depth N          admission-queue depth per replica above which
                     submitters block (default {depth})

QUERY PLANE (serve & replay):
  --cache-mb MB      result cache capacity in MiB (0 = off, the default);
                     deterministic CLOCK eviction, repeat queries answered
                     without burning a lane
  --coalesce         single-flight identical (source, k) queries: queued
                     and in-flight duplicates share one execution
  --pack-locality    pack batches by source partition locality (bounded
                     fairness; cold partitions are never starved)
  --zipf A           (replay) draw sources from a seeded Zipf(A) stream —
                     repeat-heavy traffic the query plane can harvest
                     (0 = legacy near-uniform stream; see --zipf-seed)

INDEX TIER (serve & replay):
  --index            build the boundary reachability index at start and after
                     every epoch commit: small-k queries from indexed boundary
                     sources are answered without traversing (bit-identical),
                     and batched traversals prune provably no-op deliveries
  --index-hops H     hop budget of the per-source distance sketches
                     (default 16, clamped to 1..=62); queries deeper than a
                     sketch's horizon fall back to the traversal path

SERVICE ROBUSTNESS (serve & replay):
  --chaos SPEC       deterministic fault plan, e.g.
                     \"seed=7,crash=1@3,drop=0.01,heal=1,jobs=0..4\"
  --deadline-ms MS   per-query deadline (0 = none)
  --retries N        whole-batch retries with backoff (default 2)
  --ckpt-interval K  checkpoint every K supersteps (default 4)
  --degrade-after N  drop to p-1 machines after N same-machine crashes (0 = never)

LIVE MUTATIONS (mutate, serve & replay):
  --update-stream F  (serve/replay) apply an edge-update file (\"add S D [W]\" /
                     \"del S D\" lines) on a background thread while queries flow;
                     one final commit publishes the tail when the file drains
  --commit-every N   auto-commit a new graph epoch once N updates are buffered
                     (0 = only explicit `commit` ops / end-of-stream)
  --fold-threshold N fold the delta overlay into fresh base edge-sets when a
                     commit would leave more than N overlay rows (default 65536)

DURABILITY (mutate, serve & replay):
  --data-dir DIR     restart-capable serving: every update batch is WAL-logged
                     before it is buffered and every epoch commit is fenced on
                     disk; on start the service recovers the newest valid
                     snapshot + WAL tail from DIR (kill -9 safe), or ingests
                     the graph file fresh when DIR is empty
  --snapshot-every N write a checksummed epoch snapshot every N commits
                     (default 8; temp-file + atomic rename, older snapshots
                     pruned); disk faults from --chaos (torn=/short=/flip=/
                     lost=) are injected on this write path

OBSERVABILITY (serve & replay):
  --metrics [PATH]   after the stream drains, write a metrics snapshot
                     (Prometheus text format) to PATH, or stdout if no
                     PATH / PATH is \"-\"
  --trace-out PATH   write the deterministic, replayable trace event log
                     to PATH (\"-\" = stdout); see OBSERVABILITY.md

MODELS:
  graph500 <scale> <edge_factor>
  rmat <scale> <edges>
  er <vertices> <edges>
  smallworld <vertices> <k> <beta>
  ba <vertices> <m>",
        lanes = service.scheduler.batch_lanes,
        delay_us = service.max_batch_delay.as_micros(),
        depth = service.max_queue_depth,
    )
}

/// Loads an edge list by extension (`.cg` binary, otherwise text).
pub fn load_graph(path: &str) -> Result<EdgeList, String> {
    let loaded = if path.ends_with(".cg") {
        cgraph_gen::io::read_binary(path)
    } else {
        cgraph_gen::io::read_text(path)
    };
    loaded.map_err(|e| format!("cannot read {path}: {e}"))
}

/// Saves an edge list by extension.
pub fn save_graph(path: &str, list: &EdgeList) -> Result<(), String> {
    let saved = if path.ends_with(".cg") {
        cgraph_gen::io::write_binary(path, list)
    } else {
        cgraph_gen::io::write_text(path, list)
    };
    saved.map_err(|e| format!("cannot write {path}: {e}"))
}

/// Builds an engine over `p` simulated machines.
pub fn build_engine(edges: &EdgeList, p: usize) -> DistributedEngine {
    DistributedEngine::new(edges, EngineConfig::new(p))
}

/// Shared pieces used by the `stats` and `bench` commands.
pub fn summary(edges: &EdgeList) -> (GraphStats, Vec<usize>) {
    let csr = Csr::from_edges(edges.num_vertices(), edges.edges());
    (GraphStats::from_csr(&csr), cgraph_graph::stats::degree_histogram(&csr))
}

/// Runs the concurrent k-hop benchmark used by `cgraph bench`.
pub fn run_bench(edges: &EdgeList, machines: usize, queries: usize, k: u32) -> String {
    let engine = build_engine(edges, machines);
    let n = edges.num_vertices();
    let qs: Vec<KhopQuery> = (0..queries)
        .map(|i| KhopQuery::single(i, (i as u64).wrapping_mul(0x9E37) % n, k))
        .collect();
    let t0 = std::time::Instant::now();
    let results = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&qs);
    let wall = t0.elapsed();
    let stats = cgraph_core::ResponseStats::new(
        results.iter().map(|r| r.response_time).collect::<Vec<_>>(),
    );
    let visited: u64 = results.iter().map(|r| r.visited).sum();
    format!(
        "{queries} concurrent {k}-hop queries on {machines} machine(s): \
         total {wall:?}, mean response {:?}, p95 {:?}, max {:?}, {visited} vertices visited",
        stats.mean(),
        stats.quantile(0.95),
        stats.max()
    )
}
