//! Property-based tests over the core invariants, driven by random
//! graphs and query parameters.

mod common;

use cgraph::core::FaultInjection;
use cgraph::prelude::*;
use cgraph_comm::PersistentCluster;
use cgraph_core::bitfrontier::{BitFrontier, FrontierBatch, OverlayScan, COUNT_FLUSH_ROWS};
use cgraph_core::shard::build_shards;
use cgraph_core::RangePartition;
use cgraph_graph::types::VertexRange;
use cgraph_graph::{Bitmap, ConsolidationPolicy, DeltaOverlay, EdgeSetGraph, LaneMask};
use common::reference_khop_levels;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Strategy: a random directed graph as (num_vertices, edge pairs).
fn graph_strategy(max_v: u64, max_e: usize) -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (2..max_v).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..max_e);
        (Just(n), edges)
    })
}

fn build_list(n: u64, pairs: &[(u64, u64)]) -> EdgeList {
    let mut l = EdgeList::with_num_vertices(n);
    for &(s, t) in pairs {
        if s != t {
            l.push_pair(s, t);
        }
    }
    l.set_num_vertices(n);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&l);
    b.build().edges
}

fn reference_khop(csr: &Csr, source: VertexId, k: u32) -> u64 {
    let mut seen = vec![false; csr.num_vertices() as usize];
    let mut q = VecDeque::new();
    seen[source as usize] = true;
    q.push_back((source, 0u32));
    let mut count = 1u64;
    while let Some((v, d)) = q.pop_front() {
        if d >= k {
            continue;
        }
        for &t in csr.neighbors(v) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                count += 1;
                q.push_back((t, d + 1));
            }
        }
    }
    count
}

/// The committed edge set as a model: pairs cleaned exactly the way
/// [`GraphBuilder`] cleans them (self-loops dropped, duplicates merged).
fn model_of(n: u64, pairs: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    pairs.iter().copied().filter(|&(s, t)| s != t && s < n && t < n).collect()
}

/// Rebuilds a [`Csr`] from scratch for a model snapshot.
fn csr_of(n: u64, model: &BTreeSet<(u64, u64)>) -> Csr {
    let pairs: Vec<(u64, u64)> = model.iter().copied().collect();
    let edges = build_list(n, &pairs);
    Csr::from_edges(edges.num_vertices(), edges.edges())
}

/// One step of a random mutation script.
#[derive(Clone, Debug)]
enum MutOp {
    /// Buffer a batch of `(kind, src_pick, dst_pick)` updates
    /// (`kind == 0` → delete, else insert; picks taken mod `n`).
    Batch(Vec<(u64, u64, u64)>),
    /// Ask `(src_pick, k)` and check it against the rebuilt snapshot.
    Query(u64, u32),
    /// Commit a new epoch.
    Commit,
}

fn mut_op() -> impl Strategy<Value = MutOp> {
    prop_oneof![
        prop::collection::vec((0u64..4, 0u64..60, 0u64..60), 1..8).prop_map(MutOp::Batch),
        (0u64..60, 0u32..5).prop_map(|(s, k)| MutOp::Query(s, k)),
        Just(MutOp::Commit),
    ]
}

/// One lane's level profile (its column of `per_level`), trimmed of
/// trailing zeros so profiles compare across batches of different
/// depths.
fn lane_levels(br: &cgraph::core::engine::BatchResult, lane: usize) -> Vec<u64> {
    let mut v: Vec<u64> = br.per_level.iter().map(|row| row[lane]).collect();
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_khop_matches_reference((n, pairs) in graph_strategy(120, 400),
                                     src_pick in 0u64..120,
                                     k in 0u32..6,
                                     machines in 1usize..5) {
        let edges = build_list(n, &pairs);
        let src = src_pick % n;
        let csr = Csr::from_edges(edges.num_vertices(), edges.edges());
        let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));
        let expect = reference_khop(&csr, src, k);
        prop_assert_eq!(khop_count(&engine, src, k), expect);
    }

    #[test]
    fn khop_is_monotone_in_k((n, pairs) in graph_strategy(80, 300), src_pick in 0u64..80) {
        let edges = build_list(n, &pairs);
        let src = src_pick % n;
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let mut prev = 0u64;
        for k in 0..5u32 {
            let c = khop_count(&engine, src, k);
            prop_assert!(c >= prev, "k-hop set must grow with k");
            prev = c;
        }
        // ... and bounded by the vertex count.
        prop_assert!(prev <= n);
    }

    #[test]
    fn partition_covers_and_balances((n, pairs) in graph_strategy(200, 500),
                                     p in 1usize..10) {
        let edges = build_list(n, &pairs);
        let part = RangePartition::from_edges(edges.num_vertices(), edges.edges(), p);
        // Full disjoint coverage.
        let covered: u64 = part.ranges().iter().map(|r| r.len()).sum();
        prop_assert_eq!(covered, edges.num_vertices());
        for v in 0..edges.num_vertices() {
            let o = part.owner(v);
            prop_assert!(part.range(o).contains(v));
        }
    }

    #[test]
    fn edge_set_blocking_is_lossless((n, pairs) in graph_strategy(100, 400),
                                     target in 1usize..64) {
        let edges = build_list(n, &pairs);
        let span = VertexRange::new(0, edges.num_vertices());
        let blocked = EdgeSetGraph::build(
            edges.edges(), span, span, ConsolidationPolicy::grid(target));
        let flat = EdgeSetGraph::flat(edges.edges(), span, span);
        for v in 0..edges.num_vertices() {
            prop_assert_eq!(blocked.out_columns(v), flat.out_columns(v));
        }
        let total: usize = blocked.sets().iter().map(|s| s.num_edges()).sum();
        prop_assert_eq!(total, edges.len());
    }

    #[test]
    fn bitmap_behaves_like_hashset(ops in prop::collection::vec((0usize..300, any::<bool>()), 1..200)) {
        let mut bm = Bitmap::new(300);
        let mut set = std::collections::HashSet::new();
        for (i, insert) in ops {
            if insert {
                bm.set(i);
                set.insert(i);
            } else {
                bm.clear(i);
                set.remove(&i);
            }
        }
        prop_assert_eq!(bm.count_ones(), set.len());
        let from_bm: std::collections::HashSet<usize> = bm.iter_ones().collect();
        prop_assert_eq!(from_bm, set);
    }

    #[test]
    fn sssp_respects_edge_relaxation((n, pairs) in graph_strategy(60, 200)) {
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let dist = sssp(&engine, 0);
        // Relaxed fixed point: no edge can improve any distance.
        for e in edges.edges() {
            let ds = dist[e.src as usize];
            let dt = dist[e.dst as usize];
            if ds.is_finite() {
                prop_assert!(dt <= ds + e.weight + 1e-4,
                    "edge {}->{} violates triangle inequality", e.src, e.dst);
            }
        }
        prop_assert_eq!(dist[0], 0.0);
    }

    #[test]
    fn wcc_labels_are_consistent_with_edges((n, pairs) in graph_strategy(80, 250)) {
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
        let labels = weakly_connected_components(&engine);
        // Endpoint of every edge shares a label.
        for e in edges.edges() {
            prop_assert_eq!(labels[e.src as usize], labels[e.dst as usize]);
        }
        // Labels are canonical: the label is the min vertex of its class.
        for (v, &l) in labels.iter().enumerate() {
            prop_assert!(l <= v as u64);
            prop_assert_eq!(labels[l as usize], l);
        }
    }

    #[test]
    fn recovered_batch_is_bit_identical_to_fault_free(
        (n, pairs) in graph_strategy(80, 250),
        src_picks in prop::collection::vec(0u64..80, 1..6),
        k in 1u32..6,
        machines in 2usize..5,
        crash_pick in 0usize..8,
        crash_step in 0u32..8,
        interval in 1u32..5,
    ) {
        // A crash at an arbitrary superstep, recovered via confined
        // partition replay (or global rollback when the crash point
        // precludes it), must reproduce the fault-free batch bit for
        // bit: same per-lane visited counts, same per-level profile.
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));
        let sources: Vec<u64> = src_picks.iter().map(|s| s % n).collect();
        let ks = vec![k; sources.len()];
        let baseline = engine.run_traversal_batch(&sources, &ks).unwrap();
        let cluster = PersistentCluster::new(machines);
        let plan = FaultPlan::new(n ^ 0x5eed)
            .crash(crash_pick % machines, crash_step)
            .heal_after(1);
        let rc = RecoveryConfig { checkpoint_interval: interval, max_recoveries: 3 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let run = engine.run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault));
        cluster.shutdown();
        let (br, _report) = run.expect("healed crash must recover");
        prop_assert_eq!(br.per_lane_visited, baseline.per_lane_visited);
        prop_assert_eq!(br.per_level, baseline.per_level);
    }

    #[test]
    fn lossy_link_recovery_is_bit_identical(
        (n, pairs) in graph_strategy(60, 200),
        src_pick in 0u64..60,
        k in 1u32..6,
        machines in 2usize..4,
        drop_prob in 0.05f64..0.6,
        interval in 1u32..5,
    ) {
        // Message loss voids confined recovery (logs record intent,
        // not delivery); the global-rollback fallback must still land
        // on exactly the fault-free answer once the plan heals.
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(machines));
        let sources = [src_pick % n];
        let ks = [k];
        let baseline = engine.run_traversal_batch(&sources, &ks).unwrap();
        let cluster = PersistentCluster::new(machines);
        let plan = FaultPlan::new(n.wrapping_mul(31) ^ 0xd409).with_drop(drop_prob).heal_after(1);
        let rc = RecoveryConfig { checkpoint_interval: interval, max_recoveries: 3 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let run = engine.run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault));
        cluster.shutdown();
        let (br, _report) = run.expect("healed lossy plan must recover");
        prop_assert_eq!(br.per_lane_visited, baseline.per_lane_visited);
        prop_assert_eq!(br.per_level, baseline.per_level);
    }

    #[test]
    fn wide_batch_is_bit_identical_to_64_lane_chunks(
        (n, pairs) in graph_strategy(100, 350),
        width_pick in 0usize..2,
        src_salt in 0u64..1000,
        p_pick in 0usize..3,
    ) {
        // A W-wide batch (W ∈ {128, 256}) must be observationally
        // identical to running its lanes as W/64 separate 64-lane
        // batches: same per-lane visited count, same per-lane level
        // profile. Lanes never bleed across word boundaries.
        let width = [128usize, 256][width_pick];
        let p = [1usize, 2, 4][p_pick];
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(p));
        let sources: Vec<u64> = (0..width as u64).map(|i| (i * 13 + src_salt) % n).collect();
        let ks: Vec<u32> = (0..width).map(|i| 1 + (i % 5) as u32).collect();
        let wide = engine.run_traversal_batch(&sources, &ks).unwrap();
        for (chunk, (cs, ck)) in sources.chunks(64).zip(ks.chunks(64)).enumerate() {
            let narrow = engine.run_traversal_batch(cs, ck).unwrap();
            for lane in 0..cs.len() {
                let wl = chunk * 64 + lane;
                prop_assert_eq!(wide.per_lane_visited[wl], narrow.per_lane_visited[lane],
                    "visited diverges at wide lane {}", wl);
                prop_assert_eq!(lane_levels(&wide, wl), lane_levels(&narrow, lane),
                    "level profile diverges at wide lane {}", wl);
            }
        }
    }

    #[test]
    fn wide_recovered_batch_matches_chunked_fault_free(
        (n, pairs) in graph_strategy(80, 250),
        src_salt in 0u64..500,
        p_pick in 0usize..2,
        crash_pick in 0usize..8,
        crash_step in 0u32..6,
        interval in 1u32..4,
    ) {
        // The same chunk-equivalence must hold when the 128-wide batch
        // crashes mid-flight and recovers: multi-word snapshots, sender
        // logs, and live-lane masks may not corrupt any lane.
        let width = 128usize;
        let p = [2usize, 4][p_pick];
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(p));
        let sources: Vec<u64> = (0..width as u64).map(|i| (i * 11 + src_salt) % n).collect();
        let ks: Vec<u32> = (0..width).map(|i| 1 + (i % 4) as u32).collect();
        let cluster = PersistentCluster::new(p);
        let plan = FaultPlan::new(n ^ 0xd1de)
            .crash(crash_pick % p, crash_step)
            .heal_after(1);
        let rc = RecoveryConfig { checkpoint_interval: interval, max_recoveries: 3 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let run = engine.run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault));
        cluster.shutdown();
        let (wide, _report) = run.expect("healed crash must recover");
        for (chunk, (cs, ck)) in sources.chunks(64).zip(ks.chunks(64)).enumerate() {
            let narrow = engine.run_traversal_batch(cs, ck).unwrap();
            for lane in 0..cs.len() {
                let wl = chunk * 64 + lane;
                prop_assert_eq!(wide.per_lane_visited[wl], narrow.per_lane_visited[lane],
                    "recovered visited diverges at wide lane {}", wl);
                prop_assert_eq!(lane_levels(&wide, wl), lane_levels(&narrow, lane),
                    "recovered level profile diverges at wide lane {}", wl);
            }
        }
    }

    #[test]
    fn scan_emits_each_remote_destination_once_in_order(
        (n, pairs) in graph_strategy(90, 300),
        p_pick in 0usize..3,
        wide in 0usize..2,
        seeds in prop::collection::vec((0u64..90, 0usize..512), 1..40),
        updates in prop::collection::vec((0u64..3, 0u64..90, 0u64..90), 0..30),
        origin in 0usize..3,
        retired in prop::collection::vec(0usize..512, 0..300),
    ) {
        // The scan's emission contract, against a reference built from
        // `Shard::out_neighbors_weighted` + `DeltaRow::merge`
        // (what a fold would materialise): every remote destination
        // of a live frontier row comes out exactly once, with its lanes
        // ORed, in ascending vertex order — base edges to boundary
        // slots, overlay inserts to boundary slots, and overlay inserts
        // to remote vertices no base edge reaches (the spill) alike.
        // Three supersteps per shard: a boundary row left non-zero by
        // one scan would leak into the next one's emission (and trips
        // `advance`'s debug assertion).
        //
        // The scan works from a list of live rows it derives itself, so
        // the frontier it is handed comes from each of its writers:
        // `seed` (origin 0), `restore_words` over a state that already
        // scanned something else (1), and `mask_frontier` retiring
        // lanes before every scan, as the engine does, so that rows go
        // zero in between (2). The returned count is checked against
        // the definition: one per (live row, tile holding an edge of
        // it) pair plus one per live row with overlay inserts.
        let p = [1usize, 2, 4][p_pick];
        let lanes = [64usize, 512][wide];
        let edges = build_list(n, &pairs);
        let part = RangePartition::from_edges(n, edges.edges(), p);
        let shards = build_shards(&part, edges.edges(), ConsolidationPolicy::grid(32));
        let mut deltas = vec![DeltaOverlay::new(); p];
        for &(kind, a, b) in &updates {
            // kind 0 deletes a base edge (when there is one to pick),
            // anything else inserts an arbitrary pair.
            let u = if kind == 0 && !edges.is_empty() {
                let e = edges.edges()[(a * 90 + b) as usize % edges.len()];
                EdgeUpdate::delete(e.src, e.dst)
            } else {
                EdgeUpdate::insert(a % n, b % n)
            };
            deltas[part.owner(u.src())].apply(&u);
        }
        let mut keep = LaneMask::all(lanes);
        if origin == 2 {
            let mut gone = LaneMask::zero(keep.width());
            for &lane in &retired {
                gone.set(lane % lanes);
            }
            keep = keep.and_not(&gone);
        }
        for (shard, delta) in shards.iter().zip(&deltas) {
            let delta = (!delta.is_empty()).then_some(delta);
            let form = delta.map(|d| OverlayScan::new(d, shard));
            let mut bf = BitFrontier::new(shard, lanes);
            for &(v, lane) in &seeds {
                if shard.is_local(v % n) {
                    bf.seed(v % n, lane % lanes);
                }
            }
            if origin == 1 {
                let (frontier, visited) = bf.snapshot_words();
                bf = BitFrontier::new(shard, lanes);
                for v in shard.local_range().iter() {
                    bf.seed(v, (v as usize * 7) % lanes);
                }
                bf.scan(shard, form.as_ref(), |_, _| {});
                bf.restore_words(&frontier, &visited);
            }
            for _ in 0..3 {
                bf.mask_frontier(&keep);
                let mut expect: BTreeMap<u64, LaneMask> = BTreeMap::new();
                let mut expect_scanned = 0u64;
                for v in shard.local_range().iter() {
                    let mask = bf.frontier_mask(v);
                    if mask.is_zero() {
                        continue;
                    }
                    expect_scanned += shard
                        .out_sets()
                        .sets()
                        .iter()
                        .filter(|set| !set.row_span(v).is_empty())
                        .count() as u64;
                    expect_scanned +=
                        u64::from(delta.and_then(|d| d.row(v)).is_some_and(|r| !r.inserts().is_empty()));
                    // The effective adjacency, by the fold primitive.
                    let base = shard.out_neighbors_weighted(v);
                    let merged: Vec<_> = match delta.and_then(|d| d.row(v)) {
                        Some(r) => r.merge(base).collect(),
                        None => base,
                    };
                    for (t, _) in merged.into_iter().filter(|e| !shard.is_local(e.0)) {
                        expect
                            .entry(t)
                            .or_insert_with(|| LaneMask::zero(bf.width()))
                            .or_assign(&mask);
                    }
                }
                let mut emitted = Vec::new();
                let scanned =
                    bf.scan(shard, form.as_ref(), |t, w| emitted.push((t, LaneMask::from_words(w))));
                prop_assert_eq!(emitted, expect.into_iter().collect::<Vec<_>>(),
                    "shard {} of {}", shard.id(), p);
                prop_assert_eq!(scanned, expect_scanned, "shard {} of {}", shard.id(), p);
                bf.advance();
            }
        }
    }

    #[test]
    fn advance_counts_match_bit_iteration(
        width_pick in 0usize..3,
        flushes in 0usize..3,
        offset in 0usize..20,
        density in 0u64..6,
        salt in 0u64..u64::MAX,
    ) {
        // `advance` counts discoveries with bit-sliced counters fed
        // eight rows at a time and flushed every `COUNT_FLUSH_ROWS`;
        // the reference counts them one bit at a time. Row counts sit
        // on both sides of every flush boundary and of the eight-row
        // block, at one, two and eight words per row.
        let lanes = [64usize, 128, 512][width_pick];
        let stride = lanes / 64;
        let rows = (flushes * COUNT_FLUSH_ROWS + offset).saturating_sub(10).max(1);
        let mut edges = EdgeList::with_num_vertices(rows as u64);
        edges.set_num_vertices(rows as u64);
        let part = RangePartition::by_vertices(rows as u64, 1);
        let shard = &build_shards(&part, edges.edges(), ConsolidationPolicy::default())[0];
        // Random words, thinned by ANDing `density` draws, so that some
        // cases have mostly-empty rows and blocks; at density 0 every
        // lane discovers every row and the counters run at their
        // ceiling.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(salt);
        let mut word = move || (0..density).fold(u64::MAX, |w, _| w & rng.next_u64());
        let visited: Vec<u64> =
            (0..rows * stride).map(|_| if density == 0 { 0 } else { word() }).collect();
        let mut arriving = FrontierBatch::new(stride);
        let mut next = Vec::with_capacity(rows * stride);
        for v in 0..rows {
            let row: Vec<u64> = (0..stride).map(|_| word()).collect();
            arriving.push(v as u64, &row);
            next.extend(row);
        }
        let mut bf = BitFrontier::new(shard, lanes);
        bf.restore_words(&vec![0; rows * stride], &visited);
        bf.absorb(&arriving);
        let got = bf.advance();

        let mut per_lane = vec![0u64; lanes];
        let mut active = vec![0u64; stride];
        let mut frontier_vertices = 0u64;
        let mut frontier = vec![0u64; rows * stride];
        let mut visited_after = visited.clone();
        for v in 0..rows {
            let mut any = false;
            for j in 0..stride {
                let new = next[v * stride + j] & !visited[v * stride + j];
                frontier[v * stride + j] = new;
                visited_after[v * stride + j] |= new;
                active[j] |= new;
                any |= new != 0;
                for bit in (0..64).filter(|b| new >> b & 1 == 1) {
                    per_lane[j * 64 + bit] += 1;
                }
            }
            frontier_vertices += u64::from(any);
        }
        prop_assert_eq!(&got.new_per_lane, &per_lane);
        prop_assert_eq!(got.active_lanes, LaneMask::from_words(&active));
        prop_assert_eq!(got.frontier_vertices, frontier_vertices);
        prop_assert_eq!(bf.snapshot_words(), (frontier, visited_after.clone()));
        // `visited_per_lane` shares the counter.
        let mut visited_counts = vec![0u64; lanes];
        for (i, w) in visited_after.iter().enumerate() {
            for bit in (0..64).filter(|b| w >> b & 1 == 1) {
                visited_counts[i % stride * 64 + bit] += 1;
            }
        }
        prop_assert_eq!(bf.visited_per_lane(), visited_counts);
    }

    #[test]
    fn crashed_batches_never_populate_the_cache(
        (n, pairs) in graph_strategy(80, 250),
        src_picks in prop::collection::vec(0u64..80, 2..6),
        k in 1u32..5,
        machines in 2usize..4,
        crash_machine in 0usize..4,
        crash_step in 0u32..5,
    ) {
        // A FaultPlan crash mid-batch must never leak the dying
        // batch's partial state into the result cache: only committed
        // batches insert, and re-asking every key after the armed
        // window must land on exactly the fault-free reference — a
        // leaked partial entry would be served as a hit here and
        // diverge.
        let edges = build_list(n, &pairs);
        let csr = Csr::from_edges(edges.num_vertices(), edges.edges());
        let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(machines)));
        let sources: Vec<u64> = src_picks.iter().map(|s| s % n).collect();
        // Never-healing crash armed only for the first dispatched
        // chaos job; retries of that job crash too, so whichever batch
        // it catches dies for good.
        let plan = FaultPlan::new(n ^ 0xcac4e)
            .crash(crash_machine % machines, crash_step)
            .arm_jobs(0..1);
        let service = QueryService::start(
            Arc::clone(&engine),
            ServiceConfig {
                max_batch_delay: Duration::from_micros(100),
                fault_plan: Some(plan),
                max_retries: 1,
                retry_backoff: Duration::from_micros(20),
                recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
                query_plane: QueryPlaneConfig {
                    cache_capacity_bytes: Some(1 << 20),
                    coalesce: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let tickets: Vec<_> = sources.iter().enumerate()
            .map(|(i, &s)| service.submit(KhopQuery::single(i, s, k)).unwrap())
            .collect();
        let first_ok: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
        let mid = service.stats();
        // Insertions come from committed batches only: when the whole
        // wave died, the cache must hold nothing at all.
        if first_ok.iter().all(|&ok| !ok) {
            prop_assert_eq!(mid.cache_insertions, 0, "failed batch inserted into the cache");
            prop_assert_eq!(mid.cache_entries, 0);
        }
        // The armed window is spent: every key now resolves — fresh or
        // cached — to the fault-free reference answer.
        for (i, &s) in sources.iter().enumerate() {
            let r = service.query(KhopQuery::single(1000 + i, s, k)).unwrap();
            prop_assert_eq!(r.visited, reference_khop(&csr, s, k),
                "post-crash answer diverges for source {} k {}", s, k);
        }
        service.shutdown();
    }

    #[test]
    fn scheduler_preserves_query_identity((n, pairs) in graph_strategy(100, 300),
                                          count in 1usize..80) {
        let edges = build_list(n, &pairs);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let queries: Vec<KhopQuery> = (0..count)
            .map(|i| KhopQuery::single(i * 3, (i as u64 * 7) % n, 2))
            .collect();
        let results = QueryScheduler::new(&engine, SchedulerConfig::default())
            .execute(&queries);
        prop_assert_eq!(results.len(), count);
        for (q, r) in queries.iter().zip(&results) {
            prop_assert_eq!(r.id, q.id);
            prop_assert_eq!(r.visited, khop_count(&engine, q.sources[0], q.k));
        }
    }

    #[test]
    fn mutation_interleavings_match_rebuild(
        (n, pairs) in graph_strategy(60, 200),
        script in prop::collection::vec(mut_op(), 4..14),
        p_pick in 0usize..3,
        asynchronous in any::<bool>(),
    ) {
        // Random (update batch, query, commit) interleavings across
        // p ∈ {1, 2, 4} × sync/async: every answer must be
        // bit-identical to the same query against a graph rebuilt from
        // scratch at the answer's own epoch.
        let p = [1usize, 2, 4][p_pick];
        let edges = build_list(n, &pairs);
        let mut cfg = EngineConfig::new(p);
        if asynchronous {
            cfg = cfg.asynchronous();
        }
        let engine = Arc::new(DistributedEngine::new(&edges, cfg));
        let service = QueryService::start(
            Arc::clone(&engine),
            ServiceConfig {
                max_batch_delay: Duration::from_micros(50),
                query_plane: QueryPlaneConfig {
                    cache_capacity_bytes: Some(1 << 20),
                    coalesce: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut model = model_of(n, &pairs);
        let mut history = vec![model.clone()];
        let mut next_id = 0usize;
        for op in script {
            match op {
                MutOp::Batch(items) => {
                    let updates: Vec<EdgeUpdate> = items
                        .into_iter()
                        .filter_map(|(kind, sp, tp)| {
                            let (s, t) = (sp % n, tp % n);
                            if s == t {
                                None
                            } else if kind == 0 {
                                Some(EdgeUpdate::delete(s, t))
                            } else {
                                Some(EdgeUpdate::insert(s, t))
                            }
                        })
                        .collect();
                    for u in &updates {
                        if u.is_insert() {
                            model.insert((u.src(), u.dst()));
                        } else {
                            model.remove(&(u.src(), u.dst()));
                        }
                    }
                    service.apply_updates(updates.into_iter().collect()).unwrap();
                }
                MutOp::Query(sp, k) => {
                    let src = sp % n;
                    next_id += 1;
                    let r = service.query(KhopQuery::single(next_id, src, k)).unwrap();
                    prop_assert!((r.epoch as usize) < history.len(),
                        "answer epoch {} beyond committed history {}", r.epoch, history.len());
                    let csr = csr_of(n, &history[r.epoch as usize]);
                    let (visited, per_level) = reference_khop_levels(&csr, src, k);
                    prop_assert_eq!(r.visited, visited,
                        "visited diverges from scratch rebuild at epoch {}", r.epoch);
                    prop_assert_eq!(r.per_level, per_level,
                        "per_level diverges from scratch rebuild at epoch {}", r.epoch);
                }
                MutOp::Commit => {
                    let ep = service.commit_epoch().unwrap();
                    prop_assert_eq!(ep as usize, history.len(), "epochs advance densely");
                    history.push(model.clone());
                }
            }
        }
        // Land the tail: one final commit + spot query at the newest epoch.
        let ep = service.commit_epoch().unwrap();
        prop_assert_eq!(ep as usize, history.len());
        history.push(model.clone());
        let r = service.query(KhopQuery::single(usize::MAX / 2, 0, 3)).unwrap();
        prop_assert_eq!(r.epoch, ep);
        let csr = csr_of(n, &history[ep as usize]);
        let (visited, per_level) = reference_khop_levels(&csr, 0, 3);
        prop_assert_eq!(r.visited, visited);
        prop_assert_eq!(r.per_level, per_level);
        service.shutdown();
    }

    #[test]
    fn crashed_mutating_batches_never_populate_the_cache(
        (n, pairs) in graph_strategy(80, 250),
        upd_picks in prop::collection::vec((0u64..4, 0u64..80, 0u64..80), 1..10),
        src_picks in prop::collection::vec(0u64..80, 2..6),
        k in 1u32..5,
        machines in 2usize..4,
        crash_machine in 0usize..4,
        crash_step in 0u32..5,
    ) {
        // The mutating variant of `crashed_batches_never_populate_the_
        // cache`: the armed batch runs against a freshly committed
        // epoch (delta overlay or folded base). A crash mid-batch must
        // not leak overlay-tainted partial state into the cache, and
        // once the armed window is spent every key must land on the
        // committed epoch's scratch-rebuild answer.
        let edges = build_list(n, &pairs);
        let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(machines)));
        let plan = FaultPlan::new(n ^ 0x3a11c)
            .crash(crash_machine % machines, crash_step)
            .arm_jobs(0..1);
        let service = QueryService::start(
            Arc::clone(&engine),
            ServiceConfig {
                max_batch_delay: Duration::from_micros(100),
                fault_plan: Some(plan),
                max_retries: 1,
                retry_backoff: Duration::from_micros(20),
                recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 1 },
                query_plane: QueryPlaneConfig {
                    cache_capacity_bytes: Some(1 << 20),
                    coalesce: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Mutate and commit before any batch dispatches, so chaos job 0
        // (the first dispatched batch) executes on the mutated epoch.
        let mut model = model_of(n, &pairs);
        let updates: Vec<EdgeUpdate> = upd_picks
            .into_iter()
            .filter_map(|(kind, sp, tp)| {
                let (s, t) = (sp % n, tp % n);
                if s == t {
                    None
                } else if kind == 0 {
                    Some(EdgeUpdate::delete(s, t))
                } else {
                    Some(EdgeUpdate::insert(s, t))
                }
            })
            .collect();
        for u in &updates {
            if u.is_insert() {
                model.insert((u.src(), u.dst()));
            } else {
                model.remove(&(u.src(), u.dst()));
            }
        }
        service.apply_updates(updates.into_iter().collect()).unwrap();
        prop_assert_eq!(service.commit_epoch().unwrap(), 1);
        let csr = csr_of(n, &model);
        let sources: Vec<u64> = src_picks.iter().map(|s| s % n).collect();
        let tickets: Vec<_> = sources.iter().enumerate()
            .map(|(i, &s)| service.submit(KhopQuery::single(i, s, k)).unwrap())
            .collect();
        let first_ok: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
        let mid = service.stats();
        if first_ok.iter().all(|&ok| !ok) {
            prop_assert_eq!(mid.cache_insertions, 0,
                "failed mutating batch inserted into the cache");
            prop_assert_eq!(mid.cache_entries, 0);
        }
        for (i, &s) in sources.iter().enumerate() {
            let r = service.query(KhopQuery::single(1000 + i, s, k)).unwrap();
            prop_assert_eq!(r.epoch, 1, "post-crash answer carries a stale epoch");
            let (visited, per_level) = reference_khop_levels(&csr, s, k);
            prop_assert_eq!(r.visited, visited,
                "post-crash answer diverges for source {} k {}", s, k);
            prop_assert_eq!(r.per_level, per_level);
        }
        service.shutdown();
    }
}
