//! Index effectiveness — the boundary reachability index on
//! hot-source Zipf streams.
//!
//! A serving deployment's hottest sources are high-degree hub
//! vertices, and high-degree hubs are overwhelmingly *boundary*
//! vertices under range partitioning — exactly the set the
//! [`cgraph_index`] tier sketches. This bench replays a seeded
//! Zipf(α) stream whose top ranks land on indexed boundary sources
//! through the engine twice:
//!
//! 1. **baseline** — every query runs as a packed batched traversal;
//! 2. **indexed** — queries the current-epoch index can answer are
//!    served from the distance sketches without traversing (zero
//!    scans); the rest run as the same packed batches.
//!
//! Answers must be **bit-identical** between the two runs — the index
//! may only change *whether* a traversal executes, never a `visited`
//! count or a per-level profile.
//!
//! Reported per dataset: index build wall / sources / resident bytes,
//! index-only answer rate, and queries/s and scans per query for both
//! runs. Shape checks assert the ISSUE-8 acceptance bar: bit-identical
//! answers and ≥ 2× queries/s and ≥ 2× scan reduction on the
//! hot-source stream.

use cgraph_bench::*;
use cgraph_core::{DistributedEngine, EngineConfig, IndexConfig, ReachIndex};
use cgraph_gen::QueryStream;
use cgraph_graph::VertexId;
use std::time::{Duration, Instant};

/// One query's canonical answer: distinct vertices reached plus the
/// trailing-zero-trimmed per-level profile (trimming makes the
/// profile invariant to how the query was packed or answered).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Answer {
    visited: u64,
    per_level: Vec<u64>,
}

fn trim(mut levels: Vec<u64>) -> Vec<u64> {
    while levels.last() == Some(&0) {
        levels.pop();
    }
    levels
}

/// Lane `lane` of a batch result as a canonical [`Answer`].
fn lane_answer(br: &cgraph_core::BatchResult, lane: usize) -> Answer {
    let levels = br.per_level.iter().map(|row| row[lane]).collect();
    Answer { visited: br.per_lane_visited[lane], per_level: trim(levels) }
}

struct RunStats {
    wall: Duration,
    scans: u64,
    index_only: u64,
    answers: Vec<Answer>,
}

/// Baseline: every query is a lane in a packed traversal batch.
fn run_baseline(engine: &DistributedEngine, stream: &[VertexId], k: u32, lanes: usize) -> RunStats {
    let mut answers = Vec::with_capacity(stream.len());
    let mut scans = 0u64;
    let t0 = Instant::now();
    for chunk in stream.chunks(lanes) {
        let ks = vec![k; chunk.len()];
        let br = engine.run_traversal_batch(chunk, &ks).expect("baseline batch");
        scans += br.scans;
        for lane in 0..chunk.len() {
            answers.push(lane_answer(&br, lane));
        }
    }
    RunStats { wall: t0.elapsed(), scans, index_only: 0, answers }
}

/// Indexed: sketch-answerable queries skip the engine entirely; the
/// rest run as packed batches.
fn run_indexed(
    engine: &DistributedEngine,
    index: &dyn ReachIndex,
    stream: &[VertexId],
    k: u32,
    lanes: usize,
) -> RunStats {
    let mut answers: Vec<Option<Answer>> = vec![None; stream.len()];
    let mut pending: Vec<usize> = Vec::new();
    let mut scans = 0u64;
    let mut index_only = 0u64;
    let t0 = Instant::now();
    for (qid, &src) in stream.iter().enumerate() {
        match index.answer(src, k) {
            Some(ans) => {
                index_only += 1;
                answers[qid] = Some(Answer { visited: ans.visited, per_level: ans.per_level });
            }
            None => pending.push(qid),
        }
    }
    for chunk in pending.chunks(lanes) {
        let sources: Vec<VertexId> = chunk.iter().map(|&qid| stream[qid]).collect();
        let ks = vec![k; chunk.len()];
        let br = engine.run_traversal_batch(&sources, &ks).expect("residual batch");
        scans += br.scans;
        for (lane, &qid) in chunk.iter().enumerate() {
            answers[qid] = Some(lane_answer(&br, lane));
        }
    }
    RunStats {
        wall: t0.elapsed(),
        scans,
        index_only,
        answers: answers.into_iter().map(|a| a.expect("every query answered")).collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machines = arg_usize(&args, "--machines", 3);
    let queries = arg_usize(&args, "--queries", 1000);
    let k = arg_usize(&args, "--k", 4) as u32;
    let alpha_pct = arg_usize(&args, "--alpha-pct", 100); // α × 100
    let alpha = alpha_pct as f64 / 100.0;
    let hops = arg_usize(&args, "--hops", 8) as u32;
    let max_sources = arg_usize(&args, "--max-sources", 512);
    let lanes = arg_usize(&args, "--lanes", 64);
    let datasets = arg_string(&args, "--datasets", "OR,FR");
    banner(
        "Index effectiveness: boundary reachability index on hot-source Zipf streams",
        "serving extension (not a paper figure): index tier of ISSUE 8",
        "same seeded Zipf stream, batched traversals vs sketch answers + residual batches",
    );

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut md_rows: Vec<String> = Vec::new();
    let mut all_agree = true;
    let mut all_fast = true;
    for name in datasets.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        eprintln!("[index] {name}: loading + building engine...");
        let edges = load_dataset_by_name(name);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(machines).traversal_only());

        let t0 = Instant::now();
        let tier = cgraph_index::BoundaryIndexBuilder::new(IndexConfig { hops, max_sources })
            .build_tier(&engine)
            .expect("index build");
        let build_wall = t0.elapsed();
        eprintln!(
            "[index] {name}: {} sources, {} B in {}",
            tier.num_sources(),
            tier.size_bytes(),
            fmt_dur(build_wall)
        );

        // Hot-source candidate set: the Zipf head lands on indexed
        // boundary sources (hub traffic), the tail on uniformly
        // random sources the index cannot answer.
        let mut candidates: Vec<VertexId> = tier.sources().iter().copied().take(192).collect();
        for v in random_sources(&edges, 256, 0x1DE8) {
            if candidates.len() >= 256 {
                break;
            }
            if !candidates.contains(&v) {
                candidates.push(v);
            }
        }
        let stream =
            QueryStream::zipf(0x1DE80 + queries as u64, alpha, queries).sources(&candidates);

        eprintln!("[index] {name}: baseline run...");
        let base = run_baseline(&engine, &stream, k, lanes);
        eprintln!("[index] {name}: indexed run...");
        let fast = run_indexed(&engine, &tier, &stream, k, lanes);

        let agree = base.answers == fast.answers;
        all_agree &= agree;
        let base_qps = queries as f64 / base.wall.as_secs_f64().max(1e-12);
        let fast_qps = queries as f64 / fast.wall.as_secs_f64().max(1e-12);
        let speedup = fast_qps / base_qps.max(1e-12);
        let base_spq = base.scans as f64 / queries as f64;
        let fast_spq = fast.scans as f64 / queries as f64;
        let scan_cut = base_spq / fast_spq.max(1e-12);
        let rate = fast.index_only as f64 / queries as f64;
        all_fast &= speedup >= 2.0 && scan_cut >= 2.0;

        rows.push(vec![
            name.to_string(),
            fmt_dur(build_wall),
            tier.num_sources().to_string(),
            format!("{:.1}%", 100.0 * rate),
            format!("{base_qps:.0}"),
            format!("{fast_qps:.0}"),
            format!("{speedup:.2}x"),
            format!("{base_spq:.0}"),
            format!("{fast_spq:.0}"),
            format!("{scan_cut:.2}x"),
            if agree { "yes".into() } else { "NO".into() },
        ]);
        csv_rows.push(vec![
            name.to_string(),
            build_wall.as_secs_f64().to_string(),
            tier.num_sources().to_string(),
            tier.size_bytes().to_string(),
            format!("{rate:.4}"),
            format!("{base_qps:.1}"),
            format!("{fast_qps:.1}"),
            format!("{speedup:.3}"),
            format!("{base_spq:.1}"),
            format!("{fast_spq:.1}"),
            agree.to_string(),
        ]);
        md_rows.push(format!(
            "| {name} | {} | {} | {:.1}% | {base_qps:.0} | {fast_qps:.0} | {speedup:.2}× | \
             {base_spq:.0} | {fast_spq:.0} | {} |",
            fmt_dur(build_wall),
            tier.num_sources(),
            100.0 * rate,
            if agree { "yes" } else { "NO" },
        ));
    }

    print_table(
        &format!("Boundary index on {queries} x {k}-hop Zipf(α={alpha}) hot-source queries"),
        &[
            "dataset",
            "build",
            "sources",
            "index-only",
            "base q/s",
            "index q/s",
            "speedup",
            "scans/q",
            "scans/q ix",
            "scan cut",
            "identical",
        ],
        &rows,
    );
    println!(
        "\nshape check: bit-identical answers on every dataset ({})",
        if all_agree { "holds" } else { "VIOLATED" }
    );
    println!(
        "shape check: >= 2x queries/s and >= 2x scans/query on every dataset ({})",
        if all_fast { "holds" } else { "VIOLATED" }
    );
    println!("\nEXPERIMENTS.md rows:");
    for r in &md_rows {
        println!("{r}");
    }
    write_csv(
        "index_effectiveness.csv",
        &[
            "dataset",
            "build_s",
            "sources",
            "bytes",
            "index_only_rate",
            "base_qps",
            "index_qps",
            "speedup",
            "base_scans_per_q",
            "index_scans_per_q",
            "identical",
        ],
        &csv_rows,
    );
    if !(all_agree && all_fast) {
        std::process::exit(1);
    }
}
