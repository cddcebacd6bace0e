//! Every execution path in the repository must agree on what a k-hop
//! query returns: the bit-frontier batch, the queue-based sync
//! traversal, the asynchronous traversal, the Titan baseline and the
//! Gemini baseline are five independent implementations of the same
//! semantics. The queue traversals and the GAS engine are also held to
//! sequential references: a queue BFS and Listing 3 run in one loop,
//! and the in-edge view to a CSC of the edges a value holds.

mod common;

use cgraph::prelude::*;
use cgraph_baselines::{GeminiEngine, TitanDb};
use cgraph_core::traverse::{ChainedKhop, ValueMode};
use cgraph_core::RangePartition;
use cgraph_graph::{ConsolidationPolicy, Csc};
use common::reference_khop_levels;

fn test_graph(seed: u64) -> EdgeList {
    let raw = cgraph::gen::graph500(9, 8, seed);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    b.build().edges
}

#[test]
fn five_implementations_agree() {
    let edges = test_graph(31);
    let sync_engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let async_engine = DistributedEngine::new(&edges, EngineConfig::new(3).asynchronous());
    let titan = TitanDb::load(&edges);
    let gemini = GeminiEngine::new(&edges);

    for src in [0u64, 7, 63, 200] {
        for k in [1u32, 2, 3] {
            let batch = sync_engine.run_traversal_batch(&[src], &[k]).unwrap().per_lane_visited[0];
            let queue = sync_engine.run_single_queue(&[src], k, ValueMode::TwoLevel).visited;
            let asynch = async_engine.run_single_queue(&[src], k, ValueMode::TwoLevel).visited;
            let t = titan.khop(src, k, "knows").visited;
            let g = gemini.khop(src, k);
            assert_eq!(batch, queue, "batch vs queue (src {src}, k {k})");
            assert_eq!(batch, asynch, "batch vs async (src {src}, k {k})");
            assert_eq!(batch, t, "batch vs titan (src {src}, k {k})");
            assert_eq!(batch, g, "batch vs gemini (src {src}, k {k})");
        }
    }
}

#[test]
fn value_modes_agree_on_reachability() {
    let edges = test_graph(32);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    for src in [3u64, 41] {
        let two = engine.run_single_queue(&[src], 3, ValueMode::TwoLevel);
        let full = engine.run_single_queue(&[src], 3, ValueMode::Full);
        assert_eq!(two.visited, full.visited);
        assert_eq!(two.per_level, full.per_level);
        // ... but the dynamic mode retains far fewer values.
        assert!(two.peak_value_entries <= full.peak_value_entries);
    }
}

#[test]
fn batched_lanes_match_their_isolated_runs() {
    let edges = test_graph(33);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let sources: Vec<u64> = (0..64u64).map(|i| (i * 5) % edges.num_vertices()).collect();
    let ks: Vec<u32> = (0..64u32).map(|i| 1 + i % 4).collect();
    let batch = engine.run_traversal_batch(&sources, &ks).unwrap();
    for lane in (0..64).step_by(7) {
        let solo = engine.run_traversal_batch(&[sources[lane]], &[ks[lane]]).unwrap();
        assert_eq!(
            batch.per_lane_visited[lane], solo.per_lane_visited[0],
            "lane {lane} (src {}, k {})",
            sources[lane], ks[lane]
        );
    }
}

#[test]
fn pagerank_matches_titan_reference_iteration() {
    // Titan's record-store PageRank and the GAS engine compute the
    // same per-edge-share formula; compare one iteration's direction.
    let edges = test_graph(34);
    let n = edges.num_vertices() as usize;
    let titan = TitanDb::load(&edges);
    let titan_r = titan.pagerank_iteration(&vec![1.0; n], 0.85);

    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    let gas_r = pagerank(&engine, 1);
    for v in 0..n {
        assert!(
            (titan_r[v] - gas_r[v]).abs() < 1e-9,
            "vertex {v}: titan {} vs gas {}",
            titan_r[v],
            gas_r[v]
        );
    }
}

// ---------------------------------------------------------------------
// The queue and GAS jobs against sequential references
// ---------------------------------------------------------------------

/// Per-machine level counts summed, trailing empty levels trimmed
/// (level 0, the sources, always stays).
fn summed_levels<'a>(machines: impl Iterator<Item = &'a Vec<u64>>) -> Vec<u64> {
    let mut sum = vec![0u64];
    for levels in machines {
        if levels.len() > sum.len() {
            sum.resize(levels.len(), 0);
        }
        for (s, &c) in sum.iter_mut().zip(levels) {
            *s += c;
        }
    }
    while sum.len() > 1 && sum.last() == Some(&0) {
        sum.pop();
    }
    sum
}

/// The edge list `updates` leave of `g`: a pair's last update wins, a
/// delete drops every copy of the pair, an insert keeps one.
fn effective_edges(g: &EdgeList, updates: &[EdgeUpdate]) -> EdgeList {
    let mut last = std::collections::BTreeMap::new();
    for u in updates {
        last.insert((u.src(), u.dst()), *u);
    }
    let mut out = EdgeList::with_num_vertices(g.num_vertices());
    for e in g.edges().iter().filter(|e| !last.contains_key(&(e.src, e.dst))) {
        out.push(*e);
    }
    for u in last.values() {
        if let EdgeUpdate::Insert { src, dst, weight } = *u {
            out.push(Edge::weighted(src, dst, weight));
        }
    }
    out
}

/// Deletes of every fifth edge of `g` beside 60 inserted pairs.
fn churn(g: &EdgeList) -> Vec<EdgeUpdate> {
    let n = g.num_vertices();
    let deletes = g.edges().iter().step_by(5).map(|e| EdgeUpdate::delete(e.src, e.dst));
    let inserts = (1..=60u64).map(|i| EdgeUpdate::insert(i * 7 % n, i * 13 % n));
    deletes.chain(inserts).collect()
}

/// The sync queue (both value modes), the async queue and the chained
/// partition program report the per-level profile of a sequential BFS,
/// on a static graph and on a live overlay, where the reference walks
/// the edges the overlay leaves.
#[test]
fn queue_levels_match_the_sequential_reference() {
    let g = test_graph(35);
    let updates = churn(&g);
    let effective = effective_edges(&g, &updates);
    for p in [1usize, 2, 3] {
        for (graph, live) in [(&g, false), (&effective, true)] {
            let csr = Csr::from_edges(graph.num_vertices(), graph.edges());
            let engines = [EngineConfig::new(p), EngineConfig::new(p).asynchronous()].map(|c| {
                let base = DistributedEngine::new(&g, c);
                if live {
                    let (overlaid, did_fold) = base.with_updates(&updates, usize::MAX);
                    assert!(!did_fold && overlaid.has_delta());
                    overlaid
                } else {
                    base
                }
            });
            let [sync_e, async_e] = &engines;
            for src in [0u64, 9, 77, 300] {
                for k in [1u32, 2, 3, u32::MAX] {
                    let at = format!("p {p} live {live} src {src} k {k}");
                    let (visited, levels) = reference_khop_levels(&csr, src, k);
                    for mode in [ValueMode::TwoLevel, ValueMode::Full] {
                        let r = sync_e.run_single_queue(&[src], k, mode);
                        assert_eq!(r.per_level, levels, "sync {mode:?} {at}");
                        assert_eq!(r.visited, visited, "sync {mode:?} {at}");
                    }
                    let r = async_e.run_single_queue(&[src], k, ValueMode::TwoLevel);
                    assert_eq!(r.per_level, levels, "async {at}");
                    assert_eq!(r.visited, visited, "async {at}");
                    let sources = [src];
                    let outs = sync_e.run_program(|_| ChainedKhop::new(&sources, k));
                    let chained = summed_levels(outs.iter().map(|o| &o.per_level));
                    assert_eq!(chained, levels, "chained {at}");
                }
            }
        }
    }
}

/// Listing 3 run sequentially: every vertex gathers its in-edges in
/// ascending source order from the scatter values of the previous
/// iteration, then applies.
fn reference_gas<G: Gas>(gas: &G, g: &EdgeList, iterations: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut out_degree = vec![0u32; n as usize];
    let mut in_edges = vec![Vec::new(); n as usize];
    let mut by_source = g.edges().to_vec();
    by_source.sort_by_key(|e| e.src);
    for e in &by_source {
        out_degree[e.src as usize] += 1;
        in_edges[e.dst as usize].push((e.src, e.weight));
    }
    let mut values: Vec<f64> = (0..n).map(|v| gas.init(v, n)).collect();
    for _ in 0..iterations {
        let scatter: Vec<f64> =
            (0..n).map(|u| gas.scatter(u, values[u as usize], out_degree[u as usize])).collect();
        values = (0..n)
            .map(|v| {
                let sum = in_edges[v as usize]
                    .iter()
                    .fold(0.0, |sum, &(u, w)| gas.gather(sum, scatter[u as usize], w));
                gas.apply(v, sum)
            })
            .collect();
    }
    values
}

/// PageRank through the GAS engine equals the sequential Listing 3 bit
/// for bit, at every machine count.
#[test]
fn pagerank_is_the_sequential_listing_3_bit_for_bit() {
    let g = Dataset::Tiny.generate();
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for iterations in [0u32, 1, 5] {
        let want = bits(&reference_gas(&PageRank::default(), &g, iterations));
        for p in [1usize, 3, 4] {
            let r = DistributedEngine::new(&g, EngineConfig::new(p))
                .run_gas(&PageRank::default(), iterations);
            assert_eq!(r.iterations, iterations);
            assert_eq!(bits(&r.values), want, "p {p} iterations {iterations}");
        }
    }
}

/// The sync queue's superstep count and peak of live vertex values in
/// both value modes, pinned at what the level-synchronous superstep
/// loop reported for them.
#[test]
fn sync_queue_supersteps_and_value_peaks_are_pinned() {
    let g = test_graph(32);
    let mut got = Vec::new();
    for p in [2usize, 3] {
        let engine = DistributedEngine::new(&g, EngineConfig::new(p));
        for (src, k) in [(3u64, 3u32), (41, 2), (0, u32::MAX), (3, u32::MAX)] {
            for mode in [ValueMode::TwoLevel, ValueMode::Full] {
                let r = engine.run_single_queue(&[src], k, mode);
                got.push((p, src, k, mode, r.supersteps, r.peak_value_entries));
            }
        }
    }
    // A ring over three machines: each machine's queue idles while the
    // traversal crosses the others and is woken by a boundary message.
    let ring: EdgeList = (0..30u64).map(|v| (v, (v + 1) % 30)).collect();
    let engine = DistributedEngine::new(&ring, EngineConfig::new(3));
    for k in [15u32, u32::MAX] {
        for mode in [ValueMode::TwoLevel, ValueMode::Full] {
            let r = engine.run_single_queue(&[0], k, mode);
            let expect = if k == 15 { 16 } else { 30 };
            assert_eq!(r.visited, expect, "ring k {k} {mode:?}");
            got.push((3, 0, k, mode, r.supersteps, r.peak_value_entries));
        }
    }
    // Machine 1 holds level 2 (three sinks), sits level 3 out with an
    // empty queue, and is woken for level 4: its value window holds
    // level 4 only, as it did when every machine closed every level.
    let mut fan: EdgeList = [
        (0u64, 1u64),
        (1, 2),
        (2, 3),
        (1, 10),
        (1, 11),
        (1, 12),
        (3, 13),
        (3, 14),
        (3, 15),
        (3, 16),
    ]
    .into_iter()
    .collect();
    fan.set_num_vertices(20);
    let halves = RangePartition::by_vertices(20, 2);
    let engine = DistributedEngine::with_partition(&fan, halves, EngineConfig::new(2));
    for mode in [ValueMode::TwoLevel, ValueMode::Full] {
        let r = engine.run_single_queue(&[0], u32::MAX, mode);
        assert_eq!(r.per_level, [1, 1, 4, 1, 4], "fan {mode:?}");
        got.push((2, 0, u32::MAX, mode, r.supersteps, r.peak_value_entries));
    }
    use ValueMode::{Full, TwoLevel};
    const ALL: u32 = u32::MAX;
    #[rustfmt::skip]
    let want = [
        (2, 3, 3, TwoLevel, 4, 139), (2, 3, 3, Full, 4, 277),
        (2, 41, 2, TwoLevel, 3, 38), (2, 41, 2, Full, 3, 277),
        (2, 0, ALL, TwoLevel, 2, 2), (2, 0, ALL, Full, 2, 277),
        (2, 3, ALL, TwoLevel, 7, 151), (2, 3, ALL, Full, 7, 277),
        (3, 3, 3, TwoLevel, 4, 100), (3, 3, 3, Full, 4, 179),
        (3, 41, 2, TwoLevel, 3, 29), (3, 41, 2, Full, 3, 179),
        (3, 0, ALL, TwoLevel, 2, 2), (3, 0, ALL, Full, 2, 179),
        (3, 3, ALL, TwoLevel, 7, 102), (3, 3, ALL, Full, 7, 179),
        // The ring.
        (3, 0, 15, TwoLevel, 16, 2), (3, 0, 15, Full, 16, 10),
        (3, 0, ALL, TwoLevel, 30, 2), (3, 0, ALL, Full, 30, 10),
        // The fan.
        (2, 0, ALL, TwoLevel, 5, 4), (2, 0, ALL, Full, 5, 10),
    ];
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// The in-edge view against a CSC of the edge list
// ---------------------------------------------------------------------

/// Raw R-MAT (duplicate `(src, dst)` pairs kept) with a distinct weight
/// per edge, so the order of duplicates is observable.
fn weighted_rmat() -> EdgeList {
    let mut g = cgraph::gen::graph500(9, 16, 5);
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        e.weight = 0.5 + i as f32;
    }
    g
}

/// Machine by machine, `e.in_edges()` is the CSC of `g`'s edges into
/// that machine's range: the same sources, the same weight bits and
/// duplicates in the same order.
fn assert_in_edges_are_the_csc_of(e: &DistributedEngine, g: &EdgeList, at: &str) {
    let n = g.num_vertices();
    for (m, csc) in e.in_edges().iter().enumerate() {
        let range = e.partition().range(m);
        let into: Vec<Edge> = g.edges().iter().copied().filter(|x| range.contains(x.dst)).collect();
        let reference = Csc::from_edges(n, &into);
        let bits = |c: &Csc, v| -> Vec<(u64, u32)> {
            c.in_neighbors_weighted(v).map(|(s, w)| (s, w.to_bits())).collect()
        };
        for v in range.iter() {
            assert_eq!(bits(csc, v), bits(&reference, v), "{at} machine {m} vertex {v}");
        }
    }
}

/// The in-edge view of an ingested value, of a fold that leaves the
/// graph as it was, and of a live overlay, against `Csc::from_edges` of
/// the edges each value holds.
#[test]
fn in_edges_are_derived_from_the_shards_as_the_input_orders_them() {
    let g = weighted_rmat();
    let n = g.num_vertices();
    // Duplicated pairs `(dst, src)` into long in-lists, where a sort's
    // choice of order for equal keys shows: one is deleted, one
    // re-weighted and the rest keep their duplicates.
    let mut pairs: Vec<(u64, u64)> = g.edges().iter().map(|x| (x.dst, x.src)).collect();
    pairs.sort_unstable();
    let in_degree = |d: u64| pairs.iter().filter(|p| p.0 == d).count();
    let mut duplicated: Vec<(u64, u64)> =
        pairs.windows(2).filter(|w| w[0] == w[1] && in_degree(w[0].0) > 32).map(|w| w[0]).collect();
    duplicated.dedup();
    assert!(duplicated.len() >= 3, "the fixture holds duplicated pairs into long in-lists");
    let [(deleted_dst, deleted_src), (reweighted_dst, reweighted_src)] =
        [duplicated[0], duplicated[duplicated.len() / 2]];
    let mut updates = vec![
        EdgeUpdate::delete(deleted_src, deleted_dst),
        EdgeUpdate::insert_weighted(reweighted_src, reweighted_dst, 7.25),
    ];
    let inserts = (1..=20u64).map(|i| EdgeUpdate::insert_weighted(i * 7 % n, i * 13 % n, i as f32));
    updates.extend(inserts);
    let effective = effective_edges(&g, &updates);
    let non_edge = (0..n).find(|&t| !g.edges().iter().any(|x| x.src == 0 && x.dst == t)).unwrap();
    let unchanged = [EdgeUpdate::insert(0, non_edge), EdgeUpdate::delete(0, non_edge)];
    for p in [1usize, 2, 4] {
        for policy in [ConsolidationPolicy::default(), ConsolidationPolicy::grid(256)] {
            let at = format!("p {p} {policy:?}");
            let e = DistributedEngine::new(&g, EngineConfig::new(p).with_edge_set_policy(policy));
            assert_in_edges_are_the_csc_of(&e, &g, &format!("ingest {at}"));
            let (folded, did_fold) = e.with_updates(&unchanged, 0);
            assert!(did_fold);
            assert_in_edges_are_the_csc_of(&folded, &g, &format!("fold {at}"));
            let (overlaid, did_fold) = e.with_updates(&updates, usize::MAX);
            assert!(!did_fold && overlaid.has_delta());
            assert_in_edges_are_the_csc_of(&overlaid, &effective, &format!("live overlay {at}"));
        }
    }
}
