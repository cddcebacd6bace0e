//! Results must be invariant to deployment choices: machine count,
//! edge-set tiling policy, partitioning strategy and update mode are
//! performance knobs, never semantics.

use cgraph::prelude::*;
use cgraph_graph::ConsolidationPolicy;

fn test_graph(seed: u64) -> EdgeList {
    let raw = cgraph::gen::graph500(9, 8, seed);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    b.build().edges
}

#[test]
fn machine_count_invariance_khop() {
    let edges = test_graph(41);
    let reference: Vec<u64> = {
        let e = DistributedEngine::new(&edges, EngineConfig::new(1));
        (0..40u64).map(|src| khop_count(&e, src * 7 % edges.num_vertices(), 3)).collect()
    };
    for p in [2usize, 3, 5, 9] {
        let e = DistributedEngine::new(&edges, EngineConfig::new(p));
        for (i, &expect) in reference.iter().enumerate() {
            let src = (i as u64) * 7 % edges.num_vertices();
            assert_eq!(khop_count(&e, src, 3), expect, "p={p}, src={src}");
        }
    }
}

#[test]
fn edge_set_policy_invariance() {
    let edges = test_graph(42);
    let policies = [
        ConsolidationPolicy::default(),
        ConsolidationPolicy::flat(),
        ConsolidationPolicy::grid(1 << 10),
        ConsolidationPolicy {
            target_edges_per_set: 1 << 10,
            min_edges_per_set: 1 << 8,
            horizontal: true,
            vertical: false,
        },
    ];
    let mut reference: Option<Vec<u64>> = None;
    for policy in policies {
        let e = DistributedEngine::new(&edges, EngineConfig::new(3).with_edge_set_policy(policy));
        let counts: Vec<u64> =
            (0..20u64).map(|src| khop_count(&e, src * 11 % edges.num_vertices(), 3)).collect();
        match &reference {
            None => reference = Some(counts),
            Some(r) => assert_eq!(&counts, r, "policy {policy:?}"),
        }
    }
}

#[test]
fn pagerank_invariant_to_machines_and_policy() {
    let edges = test_graph(43);
    let r1 = pagerank(&DistributedEngine::new(&edges, EngineConfig::new(1)), 8);
    let r9 = pagerank(
        &DistributedEngine::new(
            &edges,
            EngineConfig::new(9).with_edge_set_policy(ConsolidationPolicy::flat()),
        ),
        8,
    );
    for (a, b) in r1.iter().zip(&r9) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn sssp_invariant_to_update_mode_semantics() {
    // Sync SSSP via PCM; compare against 1-machine run.
    let edges = test_graph(44);
    let d1 = sssp(&DistributedEngine::new(&edges, EngineConfig::new(1)), 5);
    let d4 = sssp(&DistributedEngine::new(&edges, EngineConfig::new(4)), 5);
    assert_eq!(d1, d4);
}

#[test]
fn wcc_invariant_to_machines() {
    let edges = test_graph(45);
    let l1 = weakly_connected_components(&DistributedEngine::new(&edges, EngineConfig::new(1)));
    let l5 = weakly_connected_components(&DistributedEngine::new(&edges, EngineConfig::new(5)));
    assert_eq!(l1, l5);
}

#[test]
fn hop_plot_invariant_to_machines() {
    let edges = test_graph(46);
    let hp2 = hop_plot(&DistributedEngine::new(&edges, EngineConfig::new(2)), 16, 9);
    let hp4 = hop_plot(&DistributedEngine::new(&edges, EngineConfig::new(4)), 16, 9);
    assert_eq!(hp2.pairs_within, hp4.pairs_within);
}

/// Raw R-MAT (duplicate `(src, dst)` pairs kept) with a distinct
/// weight per edge, so the order duplicates are kept in is observable.
fn weighted_rmat(seed: u64) -> EdgeList {
    let mut g = cgraph::gen::graph500(9, 16, seed);
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        e.weight = 0.5 + i as f32;
    }
    g
}

/// The same logical graph through a fold: insert, then delete, a pair
/// that is not an edge, with a fold threshold of 0.
fn folded_unchanged(e: &DistributedEngine, g: &EdgeList) -> DistributedEngine {
    let non_edge = (0..g.num_vertices())
        .find(|&t| !g.edges().iter().any(|x| x.src == 0 && x.dst == t))
        .expect("vertex 0 is not adjacent to every vertex");
    let churn = [EdgeUpdate::insert(0, non_edge), EdgeUpdate::delete(0, non_edge)];
    let (folded, did_fold) = e.with_updates(&churn, 0);
    assert!(did_fold);
    folded
}

#[test]
fn in_edge_view_is_the_csc_of_the_input() {
    let g = weighted_rmat(47);
    let n = g.num_vertices();
    for p in [1usize, 2, 4] {
        let ingested = DistributedEngine::new(&g, EngineConfig::new(p));
        let folded = folded_unchanged(&ingested, &g);
        for (name, e) in [("ingest", &ingested), ("fold", &folded)] {
            for (m, csc) in e.in_edges().iter().enumerate() {
                let range = e.partition().range(m);
                let into: Vec<Edge> =
                    g.edges().iter().copied().filter(|x| range.contains(x.dst)).collect();
                let reference = cgraph_graph::Csc::from_edges(n, &into);
                for v in range.iter() {
                    assert_eq!(
                        csc.in_neighbors(v),
                        reference.in_neighbors(v),
                        "{name} p={p} v={v}"
                    );
                    let got: Vec<(u64, u32)> =
                        csc.in_neighbors_weighted(v).map(|(s, w)| (s, w.to_bits())).collect();
                    let want: Vec<(u64, u32)> =
                        reference.in_neighbors_weighted(v).map(|(s, w)| (s, w.to_bits())).collect();
                    assert_eq!(got, want, "{name} p={p} v={v}: weights or duplicate order");
                }
            }
        }
    }
}

#[test]
fn one_shard_three_ways() {
    use cgraph_core::durability::{engine_from_snapshot, snapshot_of};
    let g = weighted_rmat(48);
    for p in [1usize, 3] {
        for policy in [ConsolidationPolicy::default(), ConsolidationPolicy::grid(256)] {
            let config = EngineConfig::new(p).with_edge_set_policy(policy);
            let ingested = DistributedEngine::new(&g, config);
            let folded = folded_unchanged(&ingested, &g);
            let restored = engine_from_snapshot(&snapshot_of(&ingested, 0), config);
            for (name, e) in [("fold", &folded), ("restore", &restored)] {
                assert_eq!(e.partition(), ingested.partition(), "{name}");
                for v in 0..g.num_vertices() {
                    assert_eq!(e.out_degree(v), ingested.out_degree(v), "{name} degree of {v}");
                }
                for (a, b) in ingested.shards().iter().zip(e.shards()) {
                    let at = format!("{name} p={p} {policy:?} shard {}", a.id());
                    assert_eq!(a.boundary_vertices(), b.boundary_vertices(), "{at}");
                    let (ta, tb) = (a.out_sets().sets(), b.out_sets().sets());
                    assert_eq!(ta.len(), tb.len(), "{at}: tile count");
                    for (i, (x, y)) in ta.iter().zip(tb).enumerate() {
                        assert_eq!((x.row_range, x.col_range), (y.row_range, y.col_range), "{at}");
                        let ((xo, xt, xw), (yo, yt, yw)) = (x.raw_parts(), y.raw_parts());
                        assert_eq!((xo, xt), (yo, yt), "{at} tile {i}: offsets or targets");
                        let bits = |w: &[f32]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(xw), bits(yw), "{at} tile {i}: weights");
                        assert_eq!(a.tile_slots(i), b.tile_slots(i), "{at} tile {i}: slots");
                    }
                }
            }
        }
    }
}

#[test]
fn programs_refuse_a_live_overlay() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // Two rings, 0..5 and 5..10; an overlay edge joins them.
    let g: EdgeList = (0..10u64).map(|v| (v, if v % 5 == 4 { v - 4 } else { v + 1 })).collect();
    let base = DistributedEngine::new(&g, EngineConfig::new(2));
    let components = |e: &DistributedEngine| {
        let mut labels = weakly_connected_components(e);
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    };
    assert_eq!(components(&base), 2);
    let (overlaid, did_fold) = base.with_updates(&[EdgeUpdate::insert(2, 7)], usize::MAX);
    assert!(!did_fold && overlaid.has_delta());
    let refused = catch_unwind(AssertUnwindSafe(|| components(&overlaid)));
    let message = refused.expect_err("WCC over a live overlay answers for the base graph");
    let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(message.contains("fold the delta overlay first"), "{message}");
    assert!(catch_unwind(AssertUnwindSafe(|| pagerank(&overlaid, 2))).is_err());
    // Folded, the same logical graph answers: one component.
    let (folded, did_fold) = overlaid.with_updates(&[], 0);
    assert!(did_fold);
    assert_eq!(components(&folded), 1);
}
