//! Results must be invariant to deployment choices: machine count,
//! edge-set tiling policy, partitioning strategy and update mode are
//! performance knobs, never semantics.

use cgraph::prelude::*;
use cgraph_core::pcm::{PartitionCtx, PartitionProgram};
use cgraph_core::shard::Shard;
use cgraph_graph::{ConsolidationPolicy, DeltaOverlay, EdgeSet};
use proptest::prelude::*;

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

/// The superstep a program reads is the barrier count, on every
/// partition: partition 1 halts in `init`, partition 0 computes in
/// supersteps 1–3 and messages partition 1 in superstep 3, so partition
/// 1 computes in superstep 4 and reads 4.
#[test]
fn a_woken_partition_reads_the_barrier_count() {
    struct Probe(Vec<u64>);
    impl PartitionProgram for Probe {
        type Out = Vec<u64>;
        fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
            if ctx.partition_id() == 1 {
                ctx.vote_to_halt();
            }
        }
        fn compute(&mut self, ctx: &mut PartitionCtx<'_>, _: &[(VertexId, u64)]) {
            self.0.push(ctx.superstep());
            if ctx.partition_id() == 0 && ctx.superstep() == 3 {
                // The last vertex belongs to the last partition.
                ctx.send_to(ctx.num_all_vertices() - 1, 0);
            }
            if ctx.partition_id() == 1 || ctx.superstep() == 3 {
                ctx.vote_to_halt();
            }
        }
        fn finish(self, _: &PartitionCtx<'_>) -> Vec<u64> {
            self.0
        }
    }
    let ring: EdgeList = (0..10u64).map(|v| (v, (v + 1) % 10)).collect();
    let e = DistributedEngine::new(&ring, EngineConfig::new(2));
    assert_eq!(e.run_program(|_| Probe(Vec::new())), vec![vec![1, 2, 3], vec![4]]);
}

/// A message is read in the superstep after the one that sent it, never
/// earlier: every partition messages every remote vertex in each of 300
/// supersteps, stamping the superstep it sends in.
#[test]
fn a_message_is_read_in_the_superstep_after_its_send() {
    struct Stamp(u64);
    impl PartitionProgram for Stamp {
        type Out = u64;
        fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
            self.compute(ctx, &[]);
        }
        fn compute(&mut self, ctx: &mut PartitionCtx<'_>, incoming: &[(VertexId, u64)]) {
            let now = ctx.superstep();
            self.0 += incoming.iter().filter(|&&(_, sent)| sent + 1 != now).count() as u64;
            if now == 300 {
                return ctx.vote_to_halt();
            }
            for v in 0..ctx.num_all_vertices() {
                if !ctx.is_local_vertex(v) {
                    ctx.send_to(v, now);
                }
            }
        }
        fn finish(self, _: &PartitionCtx<'_>) -> u64 {
            self.0
        }
    }
    let ring: EdgeList = (0..40u64).map(|v| (v, (v + 1) % 40)).collect();
    for p in [2, 4] {
        let e = DistributedEngine::new(&ring, EngineConfig::new(p));
        assert_eq!(e.run_program(|_| Stamp(0)), vec![0; p], "p {p}: messages read early");
    }
}

/// Traffic is pinned exactly. A GAS run sends each machine's scatter
/// values to every peer once per gather: `iterations · n · (p − 1)`
/// pairs of 16 bytes (the values after the last iteration are not
/// sent). The sync queue sends one message per machine pair and level
/// that has boundary work, on a static graph and on a live overlay.
#[test]
fn traffic_is_pinned_exactly() {
    let ring: EdgeList = (0..12u64).map(|v| (v, (v + 1) % 12)).collect();
    for p in [1u64, 2, 3, 4] {
        let e = DistributedEngine::new(&ring, EngineConfig::new(p as usize));
        for iterations in [0u64, 1, 4] {
            let r = e.run_gas(&PageRank::default(), iterations as u32);
            assert_eq!(r.traffic.total_bytes(), iterations * 12 * (p - 1) * 16, "p {p}");
            assert!(r.values.iter().all(|&x| x == 1.0), "ring ranks stay 1.0");
        }
    }
    let g = test_graph(35);
    let n = g.num_vertices();
    let deletes = g.edges().iter().step_by(5).map(|e| EdgeUpdate::delete(e.src, e.dst));
    let inserts = (1..=60u64).map(|i| EdgeUpdate::insert(i * 7 % n, i * 13 % n));
    let updates: Vec<EdgeUpdate> = deletes.chain(inserts).collect();
    let mut got = Vec::new();
    for p in [2usize, 3] {
        let base = DistributedEngine::new(&g, EngineConfig::new(p));
        let (overlaid, _) = base.with_updates(&updates, usize::MAX);
        for e in [&base, &overlaid] {
            for (src, k) in [(0u64, 3u32), (77, 2), (300, u32::MAX)] {
                got.push(e.run_single_queue(&[src], k, ValueMode::TwoLevel).traffic.total_msgs());
            }
        }
    }
    // Recorded from the level-synchronous superstep loop.
    assert_eq!(got, [5, 0, 7, 5, 1, 9, 14, 0, 18, 14, 2, 25]);
}

/// Raw R-MAT (duplicate `(src, dst)` pairs kept) with a distinct
/// weight per edge, so the order duplicates are kept in is observable.
fn weighted_rmat(seed: u64) -> EdgeList {
    weighted_rmat_at(9, 16, seed)
}

/// [`weighted_rmat`] at `2^scale` vertices and `edge_factor` edges per
/// vertex.
fn weighted_rmat_at(scale: u32, edge_factor: usize, seed: u64) -> EdgeList {
    let mut g = cgraph::gen::graph500(scale, edge_factor, seed);
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        e.weight = 0.5 + i as f32;
    }
    g
}

/// A scale-12 R-MAT with duplicate edges whose weights `(i % 97) × 0.25`
/// mix 1.0 with other values inside one tile.
fn mixed_rmat12() -> EdgeList {
    let mut g = cgraph::gen::graph500(12, 8, 49);
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        e.weight = (i % 97) as f32 * 0.25;
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
                        // With the boundaries equal, equal slots are equal
                        // targets; a weight column is kept by all three
                        // builds or by none.
                        let ((xo, xs, xw), (yo, ys, yw)) = (x.raw_parts(), y.raw_parts());
                        assert_eq!((xo, xs), (yo, ys), "{at} tile {i}: offsets or slots");
                        let bits = |w: &[f32]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(xw), bits(yw), "{at} tile {i}: weights");
                    }
                }
            }
        }
    }
}

#[test]
fn programs_answer_for_a_live_overlay() {
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
    // WCC over the live overlay answers for its epoch: one component.
    assert_eq!(components(&overlaid), 1);
    let (folded, did_fold) = overlaid.with_updates(&[], 0);
    assert!(did_fold);
    assert_eq!(components(&folded), 1);
    let bits = |r: Vec<f64>| r.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(pagerank(&overlaid, 2)), bits(pagerank(&folded, 2)));
    // The in-edge view answers for the epoch too: the fold's.
    for (m, (a, b)) in overlaid.in_edges().iter().zip(folded.in_edges()).enumerate() {
        for v in overlaid.partition().range(m).iter() {
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "machine {m} vertex {v}");
        }
    }
    let owner = overlaid.partition().owner(7);
    assert_eq!(overlaid.in_edges()[owner].in_neighbors(7), [2, 6]);
}

/// One tile as a scan reads it: its ranges, offsets, and per edge its
/// target (derived from its slot), weight bits (1.0 where the tile keeps
/// no weight column) and slot.
#[derive(Debug, PartialEq)]
struct TileFields {
    ranges: [u64; 4],
    offsets: Vec<u32>,
    targets: Vec<u64>,
    weight_bits: Vec<u32>,
    slots: Vec<u32>,
}

/// Every field of one shard that a scan, a snapshot or a GAS run
/// reads: its tiles, then the boundary and the out-degree of every
/// local vertex.
#[derive(Debug, PartialEq)]
struct ShardFields {
    tiles: Vec<TileFields>,
    boundary: Vec<u64>,
    out_degree: Vec<u32>,
}

fn shard_fields(e: &DistributedEngine) -> Vec<ShardFields> {
    let tile = |s: &Shard, t: &EdgeSet| {
        let (offsets, slots, _) = t.raw_parts();
        TileFields {
            ranges: [t.row_range.start, t.row_range.end, t.col_range.start, t.col_range.end],
            offsets: offsets.to_vec(),
            targets: slots.iter().map(|&slot| s.target_of(slot)).collect(),
            weight_bits: (0..t.num_edges()).map(|i| t.weight(i).to_bits()).collect(),
            slots: slots.to_vec(),
        }
    };
    e.shards()
        .iter()
        .map(|s| ShardFields {
            tiles: s.out_sets().sets().iter().map(|t| tile(s, t)).collect(),
            boundary: s.boundary_vertices().to_vec(),
            out_degree: s.local_range().iter().map(|v| e.out_degree(v)).collect(),
        })
        .collect()
}

/// Asserts `got == want`, naming the first shard, tile and field that
/// differ rather than printing whole shards.
fn assert_same_shards(got: &[ShardFields], want: &[ShardFields], at: &str) {
    assert_eq!(got.len(), want.len(), "{at}: shard count");
    for (m, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.boundary, b.boundary, "{at} shard {m}: boundary");
        assert_eq!(a.out_degree, b.out_degree, "{at} shard {m}: out-degrees");
        assert_eq!(a.tiles.len(), b.tiles.len(), "{at} shard {m}: tile count");
        for (i, (x, y)) in a.tiles.iter().zip(&b.tiles).enumerate() {
            let at = format!("{at} shard {m} tile {i}");
            assert_eq!(x.ranges, y.ranges, "{at}: ranges");
            assert_eq!(x.offsets, y.offsets, "{at}: offsets");
            assert_eq!(x.targets, y.targets, "{at}: targets");
            assert_eq!(x.weight_bits, y.weight_bits, "{at}: weight bits");
            assert_eq!(x.slots, y.slots, "{at}: slots");
        }
    }
}

/// FNV-1a over the little-endian words of one shard's fields.
fn shard_digest(s: &ShardFields) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    fold(s.tiles.len() as u64);
    for t in &s.tiles {
        t.ranges.into_iter().for_each(&mut fold);
        fold(t.offsets.len() as u64);
        fold(t.targets.len() as u64);
        t.offsets.iter().map(|&o| u64::from(o)).for_each(&mut fold);
        t.targets.iter().copied().for_each(&mut fold);
        t.weight_bits.iter().map(|&w| u64::from(w)).for_each(&mut fold);
        t.slots.iter().map(|&s| u64::from(s)).for_each(&mut fold);
    }
    fold(s.boundary.len() as u64);
    s.boundary.iter().copied().for_each(&mut fold);
    s.out_degree.iter().map(|&d| u64::from(d)).for_each(&mut fold);
    digest
}

/// The shard layout did not move: on TINY, a weighted R-MAT with
/// duplicate edges and a scale-12 R-MAT, at p ∈ {1, 2, 3} under the
/// default policy and `grid(256)`, every shard hashes to the digest
/// recorded from the builder at commit 099b67a (edges copied into
/// per-cell vectors, each tile stable-sorted), before the two-pass
/// build from sorted rows replaced it.
#[test]
fn shard_layout_is_pinned() {
    let graphs = [
        ("TINY", Dataset::Tiny.generate()),
        ("rmat48", weighted_rmat(48)),
        ("rmat12", mixed_rmat12()),
    ];
    const PINNED: &[(&str, &[u64])] = &[
        ("TINY p=1 default", &[0x9763_b9c3_a4ed_3d12]),
        ("TINY p=1 grid256", &[0x747f_7f20_293f_bfd7]),
        ("TINY p=2 default", &[0x4a54_f6f5_c9e3_1acd, 0x9922_592a_0c39_f28d]),
        ("TINY p=2 grid256", &[0xa0b1_b26b_f154_2899, 0xa5a4_95cb_d69e_d495]),
        (
            "TINY p=3 default",
            &[0x1052_1d34_1094_5562, 0x1103_afff_2597_4498, 0xdffb_6aa0_efb5_0f05],
        ),
        (
            "TINY p=3 grid256",
            &[0xc0d3_516f_a051_0e06, 0x55a2_2230_172c_7aad, 0xc719_fe8d_c23b_fbec],
        ),
        ("rmat48 p=1 default", &[0x8c26_0f5d_db7a_d6ff]),
        ("rmat48 p=1 grid256", &[0xacf4_ee3c_1033_2b34]),
        ("rmat48 p=2 default", &[0x5a9b_7de2_2038_9822, 0xda55_d4a3_8473_9809]),
        ("rmat48 p=2 grid256", &[0x9990_f355_129a_6a97, 0xef2b_0a4d_6e56_4f0e]),
        (
            "rmat48 p=3 default",
            &[0x4a24_0e67_d35c_1523, 0x58c8_773e_a6a1_7ab6, 0x2f72_60bf_ac45_58ca],
        ),
        (
            "rmat48 p=3 grid256",
            &[0x410e_54bf_3f6b_a369, 0x61c4_e9d1_5a1f_bd3d, 0xd5ee_f5b9_b6f5_8579],
        ),
        ("rmat12 p=1 default", &[0xc8d4_2f7c_d9f0_f6b4]),
        ("rmat12 p=1 grid256", &[0xba30_c0f3_e7d3_d360]),
        ("rmat12 p=2 default", &[0xf09c_7984_db59_369f, 0x6a93_b61c_7ea8_2d2b]),
        ("rmat12 p=2 grid256", &[0x3b8a_6353_55c2_34fe, 0x4f5d_a66b_a950_27d1]),
        (
            "rmat12 p=3 default",
            &[0x9822_cd6b_20f7_790d, 0x4b19_3526_0757_a032, 0x171f_0616_ab53_090d],
        ),
        (
            "rmat12 p=3 grid256",
            &[0x747c_f4d8_2812_2e1c, 0xefa9_dce0_5497_963d, 0xf169_1c29_978e_df76],
        ),
    ];
    let mut pinned = PINNED.iter();
    for (name, g) in &graphs {
        for p in [1usize, 2, 3] {
            for (pname, policy) in [
                ("default", ConsolidationPolicy::default()),
                ("grid256", ConsolidationPolicy::grid(256)),
            ] {
                let e =
                    DistributedEngine::new(g, EngineConfig::new(p).with_edge_set_policy(policy));
                let digests: Vec<u64> = shard_fields(&e).iter().map(shard_digest).collect();
                let at = format!("{name} p={p} {pname}");
                let &(want_at, want) = pinned.next().expect("one pinned row per case");
                assert_eq!(at, want_at);
                assert_eq!(digests, want, "{at}: shard layout moved off the recorded one");
            }
        }
    }
    assert!(pinned.next().is_none());
}

/// The sequential reference of a shard row: per source, its edges of
/// `g` as `(target, weight bits)`, stably sorted by target (duplicates
/// keep their input order).
fn reference_rows(g: &EdgeList) -> Vec<Vec<(u64, u32)>> {
    let mut rows = vec![Vec::new(); g.num_vertices() as usize];
    for e in g.edges() {
        rows[e.src as usize].push((e.dst, e.weight.to_bits()));
    }
    for row in &mut rows {
        row.sort_by_key(|&(t, _)| t);
    }
    rows
}

/// Every shard reads back the rows it was built from: on TINY, a
/// weighted R-MAT and a mixed-weight one, at p ∈ {1, 2, 3} under the
/// default policy and `grid(256)` (rows spanning several tiles), each
/// local vertex's derived `(target, weight)` row is the edge list's row
/// stably sorted by target; the boundary is the sorted set of remote
/// targets, each owner's run contiguous and in partition order; every
/// tile column is a slot that round-trips through `slot_of`, and a
/// remote vertex no base edge reaches has none. With a live overlay,
/// `effective_rows` is the reference of the edges the updates leave.
#[test]
fn shard_rows_are_the_reference_rows() {
    let graphs = [
        ("TINY", Dataset::Tiny.generate()),
        ("rmat48", weighted_rmat(48)),
        ("rmat12", mixed_rmat12()),
    ];
    for (name, g) in &graphs {
        let n = g.num_vertices();
        let reference = reference_rows(g);
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let updates: Vec<EdgeUpdate> = (0..200)
            .map(|i| {
                let base = g.edges()[rng.below(g.len() as u64) as usize];
                let (s, t) = (rng.below(n), rng.below(n));
                match rng.below(4) {
                    0 => EdgeUpdate::delete(base.src, base.dst),
                    1 => EdgeUpdate::insert_weighted(base.src, base.dst, 0.5 + i as f32),
                    2 => EdgeUpdate::insert(s, t),
                    _ => EdgeUpdate::delete(s, t),
                }
            })
            .collect();
        let updated = reference_rows(&effective_edges(g, &updates));
        for p in [1usize, 2, 3] {
            for policy in [ConsolidationPolicy::default(), ConsolidationPolicy::grid(256)] {
                let e =
                    DistributedEngine::new(g, EngineConfig::new(p).with_edge_set_policy(policy));
                let (overlaid, did_fold) = e.with_updates(&updates, usize::MAX);
                assert!(!did_fold);
                let mut scratch = vec![(u64::MAX, 9.0)]; // stale content must not survive
                for s in e.shards() {
                    let at = format!("{name} p={p} {policy:?} shard {}", s.id());
                    let bits = |row: &[(u64, f32)]| -> Vec<(u64, u32)> {
                        row.iter().map(|&(t, w)| (t, w.to_bits())).collect()
                    };
                    let mut remote = Vec::new();
                    for v in s.local_range().iter() {
                        let want = &reference[v as usize];
                        let row: Vec<(u64, f32)> = s.row(v).collect();
                        assert_eq!(&bits(&row), want, "{at}: row of {v}");
                        s.out_neighbors_weighted_into(v, &mut scratch);
                        assert_eq!(scratch, row, "{at}: weighted neighbours of {v}");
                        let targets: Vec<u64> = want.iter().map(|&(t, _)| t).collect();
                        assert_eq!(s.out_neighbors(v), targets, "{at}: neighbours of {v}");
                        remote.extend(targets.into_iter().filter(|&t| !s.is_local(t)));
                    }
                    remote.sort_unstable();
                    remote.dedup();
                    assert_eq!(s.boundary_vertices(), remote, "{at}: boundary");
                    let owners: Vec<usize> =
                        remote.iter().map(|&v| e.partition().owner(v)).collect();
                    assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{at}: owner runs");
                    assert!(!owners.contains(&s.id()), "{at}: a local vertex is boundary");
                    assert_eq!(s.num_slots(), s.num_local() + remote.len(), "{at}");
                    let mut edges = 0;
                    for tile in s.out_sets().sets() {
                        for &slot in tile.raw_parts().1 {
                            assert!((slot as usize) < s.num_slots(), "{at}: slot {slot}");
                            assert_eq!(s.slot_of(s.target_of(slot)), Some(slot), "{at}");
                            edges += 1;
                        }
                    }
                    assert_eq!(edges, s.num_out_edges(), "{at}");
                    if let Some(unreached) = (0..n).find(|&v| !s.is_local(v) && !s.is_boundary(v)) {
                        assert_eq!(s.slot_of(unreached), None, "{at}");
                    }
                    // The rows a fold of the live overlay reads.
                    let empty = DeltaOverlay::new();
                    let delta = overlaid.delta(s.id()).unwrap_or(&empty);
                    let effective: Vec<(u64, u64, u32)> = overlaid.shards()[s.id()]
                        .effective_rows(delta)
                        .edges()
                        .map(|x| (x.src, x.dst, x.weight.to_bits()))
                        .collect();
                    let want: Vec<(u64, u64, u32)> = s
                        .local_range()
                        .iter()
                        .flat_map(|v| updated[v as usize].iter().map(move |&(t, w)| (v, t, w)))
                        .collect();
                    assert_eq!(effective, want, "{at}: effective rows");
                }
            }
        }
    }
}

/// A shard costs its arrays and no more: `size_bytes` is the sum of
/// every tile's offsets, columns and weights and of the boundary, 4
/// bytes an edge on an unweighted graph, whose rows and tiles carry no
/// weight column at ingest or after a fold. One edge of weight ≠ 1.0
/// gives its own tile, and only that one, a column, and its row answers
/// the weight bit-exactly.
#[test]
fn a_weight_column_only_where_a_weight_is_not_one() {
    use cgraph_graph::SortedRows;
    let tiny = Dataset::Tiny.generate();
    let footprint = |s: &Shard| -> usize {
        let arrays = s.out_sets().sets().iter().map(|t| {
            let (offsets, slots, weights) = t.raw_parts();
            4 * (offsets.len() + slots.len() + weights.len())
        });
        arrays.sum::<usize>() + 8 * s.boundary_vertices().len()
    };
    let columns = |e: &DistributedEngine| -> Vec<(usize, usize)> {
        let tiles = e.shards().iter().flat_map(|s| s.out_sets().sets().iter().map(|t| (s.id(), t)));
        tiles
            .enumerate()
            .filter(|(_, (_, t))| !t.raw_parts().2.is_empty())
            .map(|(i, (m, _))| (m, i))
            .collect()
    };
    for p in [1usize, 2, 3] {
        for policy in [ConsolidationPolicy::default(), ConsolidationPolicy::grid(256)] {
            let at = format!("p={p} {policy:?}");
            let config = EngineConfig::new(p).with_edge_set_policy(policy);
            let e = DistributedEngine::new(&tiny, config);
            let rows = SortedRows::group(e.partition().ranges(), tiny.edges());
            assert!(rows.iter().all(|r| r.weights().is_empty()), "{at}: rows weighted");
            let (folded, did_fold) =
                e.with_updates(&[EdgeUpdate::insert(0, 1), EdgeUpdate::delete(1, 2)], 0);
            assert!(did_fold);
            for e in [&e, &folded] {
                assert_eq!(columns(e), vec![], "{at}: a weight column on an unweighted graph");
                let mut sum = 0;
                for s in e.shards() {
                    assert_eq!(s.size_bytes(), footprint(s), "{at} shard {}", s.id());
                    let offsets: usize =
                        s.out_sets().sets().iter().map(|t| t.raw_parts().0.len()).sum();
                    let boundary = 8 * s.boundary_vertices().len();
                    assert_eq!(s.size_bytes(), 4 * (s.num_out_edges() + offsets) + boundary);
                    sum += s.size_bytes();
                }
                assert_eq!(e.shard_bytes(), sum + 4 * tiny.num_vertices() as usize, "{at}");
            }

            // One edge re-weighted: a column in its tile only.
            let mut one = tiny.clone();
            let k = one.len() / 2;
            one.edges_mut()[k].weight = 0.1;
            let edge = one.edges()[k];
            let e = DistributedEngine::new(&one, config);
            let m = e.partition().owner(edge.src);
            let rows = SortedRows::group(e.partition().ranges(), one.edges());
            let weighted: Vec<bool> = rows.iter().map(|r| !r.weights().is_empty()).collect();
            assert_eq!(weighted, (0..p).map(|i| i == m).collect::<Vec<_>>(), "{at}: rows");
            let shard = &e.shards()[m];
            let holder = shard
                .out_sets()
                .sets()
                .iter()
                .position(|t| t.row_range.contains(edge.src) && t.col_range.contains(edge.dst))
                .unwrap();
            let first = e.shards()[..m].iter().map(|s| s.out_sets().sets().len()).sum::<usize>();
            assert_eq!(columns(&e), vec![(m, first + holder)], "{at}");
            assert_eq!(
                shard.out_sets().sets()[holder].raw_parts().2.len(),
                shard.out_sets().sets()[holder].num_edges()
            );
            assert_eq!(shard.size_bytes(), footprint(shard), "{at}");
            let row: Vec<(u64, u32)> = shard.row(edge.src).map(|(t, w)| (t, w.to_bits())).collect();
            assert_eq!(row, reference_rows(&one)[edge.src as usize], "{at}");
            assert!(row.contains(&(edge.dst, 0.1f32.to_bits())), "{at}");
        }
    }
}

/// Deterministic xorshift stream for the seeded update batches.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The edge list `updates` leave of `g` under the overlay's rules: a
/// pair's last update wins, a delete drops every copy of the pair, an
/// insert replaces every copy with one edge of its weight. Surviving
/// base edges keep their input order; inserts follow.
fn effective_edges(g: &EdgeList, updates: &[EdgeUpdate]) -> EdgeList {
    let mut last = std::collections::BTreeMap::new();
    for u in updates {
        last.insert((u.src(), u.dst()), *u);
    }
    let mut out = EdgeList::with_num_vertices(g.num_vertices());
    for e in g.edges() {
        if !last.contains_key(&(e.src, e.dst)) {
            out.push(*e);
        }
    }
    for u in last.values() {
        if let EdgeUpdate::Insert { src, dst, weight } = *u {
            out.push(Edge::weighted(src, dst, weight));
        }
    }
    out
}

/// A fold of updates builds the shards ingest builds from the edge
/// list those updates leave: for seeded batches — one of them folding
/// over a live overlay — and for an emptied stripe, a deleted
/// duplicate edge and a re-weighted base edge, `with_updates(U, 0)`
/// equals `with_partition` over the effective edges field by field.
#[test]
fn fold_of_updates_is_ingest_of_the_effective_edges() {
    let g = weighted_rmat(48);
    let n = g.num_vertices();
    let pair_count = |s: u64, t: u64| g.edges().iter().filter(|e| e.src == s && e.dst == t).count();
    let duplicate = g.edges().iter().find(|e| pair_count(e.src, e.dst) >= 2).copied().unwrap();
    for p in [1usize, 3] {
        for policy in [ConsolidationPolicy::default(), ConsolidationPolicy::grid(256)] {
            let config = EngineConfig::new(p).with_edge_set_policy(policy);
            let ingested = DistributedEngine::new(&g, config);
            // Machine 0 loses every out-edge and its first vertex gains
            // 300: all its degree mass sits in one vertex, so under
            // `grid(256)` the stripes after the first hold no edge and
            // have no tile.
            let first = ingested.partition().range(0);
            let emptied: Vec<EdgeUpdate> = g
                .edges()
                .iter()
                .filter(|e| first.contains(e.src))
                .map(|e| EdgeUpdate::delete(e.src, e.dst))
                .chain((0..300).map(|t| EdgeUpdate::insert_weighted(first.start, t, t as f32)))
                .collect();
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ p as u64);
            let mut seeded = |len: usize| -> Vec<EdgeUpdate> {
                (0..len)
                    .map(|i| {
                        let base = g.edges()[rng.below(g.len() as u64) as usize];
                        let (s, t) = (rng.below(n), rng.below(n));
                        match rng.below(4) {
                            0 => EdgeUpdate::delete(base.src, base.dst),
                            1 => EdgeUpdate::insert_weighted(base.src, base.dst, 1e3 + i as f32),
                            2 => EdgeUpdate::delete(s, t),
                            _ => EdgeUpdate::insert_weighted(s, t, 2e3 + i as f32),
                        }
                    })
                    .collect()
            };
            let (batch_a, batch_b, batch_c) = (seeded(300), seeded(40), seeded(60));
            let cases: [(&str, Vec<EdgeUpdate>, Vec<EdgeUpdate>); 5] = [
                ("seeded", vec![], batch_a),
                ("seeded over an overlay", batch_b, batch_c),
                ("emptied stripe", vec![], emptied),
                (
                    "deleted duplicate",
                    vec![],
                    vec![EdgeUpdate::delete(duplicate.src, duplicate.dst)],
                ),
                (
                    "re-weighted duplicate",
                    vec![],
                    vec![EdgeUpdate::insert_weighted(duplicate.src, duplicate.dst, -7.5)],
                ),
            ];
            for (name, overlay, folding) in cases {
                let at = format!("{name} p={p} {policy:?}");
                let (overlaid, did_fold) = ingested.with_updates(&overlay, usize::MAX);
                assert!(!did_fold, "{at}");
                let (folded, did_fold) = overlaid.with_updates(&folding, 0);
                assert!(did_fold, "{at}");
                let all: Vec<EdgeUpdate> = overlay.iter().chain(&folding).copied().collect();
                let rebuilt = DistributedEngine::with_partition(
                    &effective_edges(&g, &all),
                    ingested.partition().clone(),
                    config,
                );
                assert_same_shards(&shard_fields(&folded), &shard_fields(&rebuilt), &at);
                if name == "emptied stripe" && policy.target_edges_per_set == 256 {
                    let shard = &folded.shards()[0];
                    let stripes = &shard.out_sets().layout().row_ranges;
                    let tiled = |r: &cgraph_graph::types::VertexRange| {
                        shard.out_sets().sets().iter().any(|t| t.row_range == *r)
                    };
                    assert!(stripes.iter().any(|r| !tiled(r)), "{at}: no stripe was emptied");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// WCC, k-core, SSSP and PageRank on an engine with a live overlay
    /// answer for its epoch: bit for bit what an engine ingested from
    /// the edge list the updates leave, over the same partition, answers.
    #[test]
    fn analytics_on_a_live_overlay_are_those_of_its_effective_graph(
        seed in 0u64..1_000,
        p in 1usize..4,
        batches in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..1_000_000, 0u64..1_000_000), 1..40),
            1..4,
        ),
    ) {
        let g = weighted_rmat_at(7, 8, seed);
        let n = g.num_vertices();
        let mut engine = DistributedEngine::new(&g, EngineConfig::new(p));
        let mut all = Vec::new();
        for batch in &batches {
            // Deletes and re-weightings of base edges (duplicates
            // included) beside updates of arbitrary pairs; weights stay
            // positive for SSSP.
            let updates: Vec<EdgeUpdate> = batch
                .iter()
                .map(|&(kind, a, b)| {
                    let base = g.edges()[(a % g.len() as u64) as usize];
                    let weight = 1.0 + (b % 97) as f32;
                    match kind {
                        0 => EdgeUpdate::delete(base.src, base.dst),
                        1 => EdgeUpdate::insert_weighted(base.src, base.dst, weight),
                        2 => EdgeUpdate::delete(a % n, b % n),
                        _ => EdgeUpdate::insert_weighted(a % n, b % n, weight),
                    }
                })
                .collect();
            let (next, did_fold) = engine.with_updates(&updates, usize::MAX);
            prop_assert!(!did_fold);
            engine = next;
            all.extend(updates);
        }
        prop_assert!(engine.has_delta());
        let rebuilt = DistributedEngine::with_partition(
            &effective_edges(&g, &all),
            engine.partition().clone(),
            *engine.config(),
        );
        prop_assert_eq!(weakly_connected_components(&engine), weakly_connected_components(&rebuilt));
        prop_assert_eq!(kcore_decomposition(&engine), kcore_decomposition(&rebuilt));
        let f32_bits = |d: Vec<f32>| d.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let source = seed % n;
        prop_assert_eq!(f32_bits(sssp(&engine, source)), f32_bits(sssp(&rebuilt, source)));
        let f64_bits = |r: Vec<f64>| r.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(f64_bits(pagerank(&engine, 10)), f64_bits(pagerank(&rebuilt, 10)));
    }
}
