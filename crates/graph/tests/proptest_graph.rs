//! Property-based tests for the storage layer: CSR/CSC duality,
//! ingestion idempotence, edge-set losslessness under arbitrary
//! consolidation policies, and lane-matrix algebra.

use cgraph_graph::types::VertexRange;
use cgraph_graph::{
    Bitmap, BuildOptions, ConsolidationPolicy, Csc, Csr, Edge, EdgeList, EdgeSetGraph,
    GraphBuilder, LaneMatrix, ReindexMode,
};
use proptest::prelude::*;

fn graph_strategy(max_v: u64, max_e: usize) -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (2..max_v).prop_flat_map(move |n| (Just(n), prop::collection::vec((0..n, 0..n), 0..max_e)))
}

fn to_list(n: u64, pairs: &[(u64, u64)]) -> EdgeList {
    let mut l = EdgeList::with_num_vertices(n);
    for &(s, t) in pairs {
        l.push_pair(s, t);
    }
    l.set_num_vertices(n);
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_csc_are_duals((n, pairs) in graph_strategy(100, 300)) {
        let l = to_list(n, &pairs);
        let csr = Csr::from_edges(n, l.edges());
        let csc = Csc::from_edges(n, l.edges());
        prop_assert_eq!(csr.num_edges(), csc.num_edges());
        // u -> v in CSR ⇔ u ∈ in_neighbors(v) in CSC (multiset equality
        // reduces to count equality per pair after dedup-free build).
        for u in 0..n {
            for &v in csr.neighbors(u) {
                prop_assert!(csc.in_neighbors(v).contains(&u));
            }
        }
        let out_sum: usize = (0..n).map(|v| csr.degree(v)).sum();
        let in_sum: usize = (0..n).map(|v| csc.in_degree(v)).sum();
        prop_assert_eq!(out_sum, in_sum);
    }

    #[test]
    fn builder_is_idempotent((n, pairs) in graph_strategy(80, 250)) {
        let l = to_list(n, &pairs);
        let once = {
            let mut b = GraphBuilder::new();
            b.add_edge_list(&l);
            b.build().edges
        };
        let twice = {
            let mut b = GraphBuilder::new();
            b.add_edge_list(&once);
            b.build().edges
        };
        prop_assert_eq!(once.edges(), twice.edges());
    }

    #[test]
    fn compact_reindex_preserves_structure((n, pairs) in graph_strategy(80, 200)) {
        let l = to_list(n, &pairs);
        let plain = {
            let mut b = GraphBuilder::new();
            b.add_edge_list(&l);
            b.build()
        };
        let compact = {
            let mut b = GraphBuilder::with_options(BuildOptions {
                reindex: ReindexMode::Compact,
                ..Default::default()
            });
            b.add_edge_list(&l);
            b.build()
        };
        prop_assert_eq!(plain.edges.len(), compact.edges.len());
        // Edge (u, v) exists pre-reindex ⇔ (map(u), map(v)) exists post.
        let csr = Csr::from_edges(compact.edges.num_vertices(), compact.edges.edges());
        for e in plain.edges.edges() {
            prop_assert!(csr.has_edge(compact.map_vertex(e.src), compact.map_vertex(e.dst)));
        }
    }

    #[test]
    fn edge_set_lossless_under_any_policy((n, pairs) in graph_strategy(80, 250),
                                          target in 1usize..200,
                                          min_edges in 0usize..32,
                                          horizontal: bool,
                                          vertical: bool) {
        let l = to_list(n, &pairs);
        let span = VertexRange::new(0, n);
        let policy = ConsolidationPolicy {
            target_edges_per_set: target,
            min_edges_per_set: min_edges,
            horizontal,
            vertical,
        };
        let blocked = EdgeSetGraph::build(l.edges(), span, span, policy);
        let flat = EdgeSetGraph::flat(l.edges(), span, span);
        for v in 0..n {
            prop_assert_eq!(blocked.out_columns(v), flat.out_columns(v));
        }
        // Every tile's edges stay inside its declared ranges.
        for s in blocked.sets() {
            for (src, ts) in s.iter_rows() {
                prop_assert!(s.row_range.contains(src));
                for &t in ts {
                    prop_assert!(s.col_range.contains(t.into()));
                }
            }
        }
    }

    #[test]
    fn lane_matrix_or_new_is_exact(words in prop::collection::vec(any::<u64>(), 1..50),
                                    masks in prop::collection::vec(any::<u64>(), 1..50)) {
        let mut m = LaneMatrix::new(words.len());
        for (i, &w) in words.iter().enumerate() {
            m.set_word(i, w);
        }
        for (i, &mask) in masks.iter().enumerate() {
            let i = i % words.len();
            let before = m.word(i);
            let fresh = m.or_new(i, mask);
            prop_assert_eq!(fresh, mask & !before);
            prop_assert_eq!(m.word(i), before | mask);
        }
    }

    #[test]
    fn bitmap_union_subtract_algebra(a_bits in prop::collection::vec(0usize..256, 0..60),
                                      b_bits in prop::collection::vec(0usize..256, 0..60)) {
        let mut a = Bitmap::new(256);
        let mut b = Bitmap::new(256);
        for &i in &a_bits { a.set(i); }
        for &i in &b_bits { b.set(i); }
        let mut u = a.clone();
        u.union_with(&b);
        // u = a ∪ b
        for i in 0..256 {
            prop_assert_eq!(u.get(i), a.get(i) || b.get(i));
        }
        // (a ∪ b) \ b ⊆ a and disjoint from b
        let mut diff = u.clone();
        diff.subtract(&b);
        for i in 0..256 {
            prop_assert_eq!(diff.get(i), a.get(i) && !b.get(i));
        }
    }

    #[test]
    fn weights_survive_csr_roundtrip(edges in prop::collection::vec(
        (0u64..50, 0u64..50, 0.01f32..10.0), 1..120)) {
        let list: Vec<Edge> =
            edges.iter().map(|&(s, t, w)| Edge::weighted(s, t, w)).collect();
        let csr = Csr::from_edges(50, &list);
        // Total weight is conserved.
        let before: f64 = list.iter().map(|e| e.weight as f64).sum();
        let after: f64 = (0..50u64)
            .flat_map(|v| csr.weights(v).iter().map(|&w| w as f64).collect::<Vec<_>>())
            .sum();
        prop_assert!((before - after).abs() < 1e-3);
        // Each (src, dst, w) triple is present.
        for e in &list {
            let pairs: Vec<(u64, f32)> = csr.neighbors_weighted(e.src).collect();
            prop_assert!(pairs.contains(&(e.dst, e.weight)));
        }
    }
}
