//! Index tier semantics: the boundary reachability index may change
//! *whether* a traversal executes — never an answer.
//!
//! The suite drives the same seeded streams through a live
//! [`QueryService`] with the index off and on, across partition
//! counts, execution modes and batch widths; under an armed crash
//! plan; and straddling a mutation commit (where a stale index must
//! be fenced, never consulted). A commit whose index build is held,
//! and a degradation, show the engine and its index published
//! together: until the swap, admissions see the old value whole. A
//! deterministic case pins the built
//! sketches on TINY to per-source traversals and to the digest the
//! probed build of PR 14 produced, and a property test demands that
//! every answer the index volunteers on a random graph equals the
//! traversal's (pinned corpus: `proptest-regressions/index_tier.txt`).
//!
//! It also holds the INDEXING.md catalogue contract: the doc's
//! backtick-quoted `cgraph_index_*` names equal the registered metric
//! families exactly, in both directions.

use cgraph::core::engine::EngineError;
use cgraph::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Ring backbone plus chords, so traversals cross machine boundaries
/// at every hop count (the streaming-equivalence suite's shape).
fn chordal_pairs(n: u64) -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for v in (0..n).step_by(3) {
        edges.push((v, (v * 7 + 5) % n));
    }
    for v in (0..n).step_by(11) {
        edges.push(((v * 3) % n, v));
    }
    edges
}

fn chordal_graph(n: u64) -> EdgeList {
    chordal_pairs(n).into_iter().collect()
}

/// The index builder every test uses: enough hops that sketches on
/// the small test graphs complete, so indexed sources answer any `k`.
fn builder() -> Arc<dyn IndexBuilder> {
    Arc::new(BoundaryIndexBuilder::new(IndexConfig { hops: 16, ..Default::default() }))
}

/// A stream mixing sketch-answerable sources (when the partitioning
/// yields any) with arbitrary interior sources, across small and deep
/// hop counts — both index fast-path food and traversal fallbacks.
fn mixed_stream(n: u64, answerable: &[VertexId], n_queries: usize) -> Vec<KhopQuery> {
    (0..n_queries)
        .map(|i| {
            let k = [2u32, 3, 4, 16][i % 4];
            let src = if i % 2 == 0 && !answerable.is_empty() {
                answerable[(i / 2) % answerable.len()]
            } else {
                (i as u64 * 13 + 5) % n
            };
            KhopQuery::single(i, src, k)
        })
        .collect()
}

/// Runs `queries` through a fresh service in closed-loop waves and
/// returns each query's `(visited, per_level)` plus the final stats.
fn run_stream(
    engine: &Arc<DistributedEngine>,
    queries: &[KhopQuery],
    config: ServiceConfig,
) -> (HashMap<usize, (u64, Vec<u64>)>, ServiceStats) {
    let service = QueryService::start(Arc::clone(engine), config);
    let mut got = HashMap::new();
    for wave in queries.chunks(32) {
        let tickets: Vec<_> =
            wave.iter().map(|q| (q.id, service.submit(q.clone()).expect("submit"))).collect();
        for (id, t) in tickets {
            let r = t.wait().expect("query failed");
            got.insert(id, (r.visited, r.per_level));
        }
    }
    let stats = service.stats();
    service.shutdown();
    (got, stats)
}

/// Index-assisted serving is bit-identical to index-off serving for
/// one (partition count, execution mode, batch width) cell.
fn check_index_transparent(p: usize, asynchronous: bool, width: usize) {
    let n = 120u64;
    let graph = chordal_graph(n);
    let config =
        if asynchronous { EngineConfig::new(p).asynchronous() } else { EngineConfig::new(p) };
    let engine = Arc::new(DistributedEngine::new(&graph, config));

    // What the service's builder will build, built here too, so the
    // stream provably contains sketch-answerable sources (when the
    // partitioning yields a boundary at all).
    let tier = BoundaryIndexBuilder::new(IndexConfig { hops: 16, ..Default::default() })
        .build_tier(&engine)
        .expect("index build");
    let answerable: Vec<VertexId> =
        tier.sources().iter().copied().filter(|&s| tier.answer(s, 3).is_some()).collect();
    let queries = mixed_stream(n, &answerable, 100);

    let base = ServiceConfig {
        scheduler: SchedulerConfig { batch_lanes: width, ..Default::default() },
        max_batch_delay: Duration::from_micros(100),
        ..Default::default()
    };
    let (off, off_stats) = run_stream(&engine, &queries, base.clone());
    let (on, on_stats) =
        run_stream(&engine, &queries, ServiceConfig { index: Some(builder()), ..base });

    assert_eq!(off.len(), queries.len());
    assert_eq!(on.len(), queries.len());
    for (id, exp) in &off {
        assert_eq!(
            on.get(id),
            Some(exp),
            "query {id} diverged with the index on (p={p}, async={asynchronous}, W={width})"
        );
    }
    assert_eq!(off_stats.index_builds, 0, "index off must not build");
    assert_eq!(off_stats.index_only_answers, 0);
    assert_eq!(on_stats.index_builds, 1, "index on must build exactly once");
    assert_eq!(on_stats.index_sources as usize, tier.num_sources());
    if !answerable.is_empty() {
        assert!(
            on_stats.index_only_answers > 0,
            "answerable sources present but no index-only answers: {on_stats:?}"
        );
    }
    assert_eq!(on_stats.queries_completed, queries.len() as u64);
    assert_eq!(on_stats.queries_failed, 0);
}

#[test]
fn index_is_transparent_p1_sync_w64() {
    check_index_transparent(1, false, 64);
}

#[test]
fn index_is_transparent_p2_sync_w64() {
    check_index_transparent(2, false, 64);
}

#[test]
fn index_is_transparent_p4_sync_w64() {
    check_index_transparent(4, false, 64);
}

#[test]
fn index_is_transparent_p2_async_w64() {
    check_index_transparent(2, true, 64);
}

#[test]
fn index_is_transparent_p4_async_w64() {
    check_index_transparent(4, true, 64);
}

#[test]
fn index_is_transparent_p1_sync_w512() {
    check_index_transparent(1, false, 512);
}

#[test]
fn index_is_transparent_p2_sync_w512() {
    check_index_transparent(2, false, 512);
}

#[test]
fn index_is_transparent_p4_async_w512() {
    check_index_transparent(4, true, 512);
}

/// The index under chaos: an armed crash plan forces a recovery on
/// the first traversal batch, and every answer — index-only or
/// recovered — still matches the engine's fault-free ground truth.
#[test]
fn index_survives_armed_crash_recovery() {
    let n = 60u64;
    let graph = chordal_graph(n);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(3)));
    let plan = FaultPlan::new(7).crash(1, 1).heal_after(1).arm_jobs(0..1);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            fault_plan: Some(plan),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 3 },
            index: Some(builder()),
            ..Default::default()
        },
    );
    // Interior sources: these must reach the (crashing) traversal
    // path, not be absorbed by the index fast path.
    for i in 0..6u64 {
        let src = (i * 17 + 1) % n;
        let r = service.query(KhopQuery::single(i as usize, src, 4)).expect("chaos heals");
        assert_eq!(r.visited, khop_count(&engine, src, 4), "source {src}");
    }
    let stats = service.stats();
    service.shutdown();
    assert!(stats.recoveries > 0, "the scripted crash must force a recovery: {stats:?}");
    assert_eq!(stats.index_builds, 1);
    assert_eq!(stats.queries_failed, 0);
}

/// A mutation commit fences the stale index: the post-commit re-ask
/// must see the committed graph (a stale sketch would happily return
/// the old answer), and the commit must trigger a rebuild.
#[test]
fn commit_fences_stale_index_and_rebuilds() {
    let n = 80u64;
    let graph = chordal_graph(n);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(2)));
    let tier = BoundaryIndexBuilder::new(IndexConfig { hops: 16, ..Default::default() })
        .build_tier(&engine)
        .expect("index build");
    // A sketch-answerable source whose 3-hop world we then mutate.
    let hot = *tier
        .sources()
        .iter()
        .find(|&&s| tier.answer(s, 3).is_some())
        .expect("p=2 chordal graph has a boundary");
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { index: Some(builder()), ..Default::default() },
    );

    let before = service.query(KhopQuery::single(0, hot, 3)).unwrap();
    assert_eq!(before.epoch, 0);
    assert_eq!(service.stats().index_only_answers, 1, "epoch-0 ask must be index-only");

    // Sever `hot`'s ring edge and graft a chord, then commit.
    let batch: UpdateBatch =
        [EdgeUpdate::delete(hot, (hot + 1) % n), EdgeUpdate::insert(hot, (hot + 40) % n)]
            .into_iter()
            .collect();
    service.apply_updates(batch).unwrap();
    assert_eq!(service.commit_epoch().unwrap(), 1);

    let mutated: EdgeList = chordal_pairs(n)
        .into_iter()
        .filter(|&pair| pair != (hot, (hot + 1) % n))
        .chain(std::iter::once((hot, (hot + 40) % n)))
        .collect();
    let truth = DistributedEngine::new(&mutated, EngineConfig::new(2));
    let after = service.query(KhopQuery::single(1, hot, 3)).unwrap();
    assert_eq!(after.epoch, 1);
    assert_eq!(
        after.visited,
        khop_count(&truth, hot, 3),
        "post-commit ask must see the committed graph, not a stale sketch"
    );
    let stats = service.stats();
    assert_eq!(stats.index_builds, 2, "the commit must rebuild the index: {stats:?}");
    service.shutdown();
}

/// Queries straddling a commit resolve against exactly one epoch's
/// graph — whichever side of the fence each landed on — with the
/// index tier in play on both sides.
#[test]
fn straddling_queries_resolve_against_one_epoch_each() {
    let n = 60u64;
    let graph = chordal_graph(n);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(2)));
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_millis(5),
            index: Some(builder()),
            ..Default::default()
        },
    );
    // Submit a window of queries on source 7, rewire 7 while they sit
    // queued, and commit.
    let tickets: Vec<_> =
        (0..8).map(|i| service.submit(KhopQuery::single(i, 7, 3)).unwrap()).collect();
    let batch: UpdateBatch =
        [EdgeUpdate::insert(7, 31), EdgeUpdate::delete(7, 8)].into_iter().collect();
    service.apply_updates(batch).unwrap();
    assert_eq!(service.commit_epoch().unwrap(), 1);
    let results: Vec<QueryResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    let mutated: EdgeList = chordal_pairs(n)
        .into_iter()
        .filter(|&pair| pair != (7, 8))
        .chain(std::iter::once((7, 31)))
        .collect();
    let truth_new = DistributedEngine::new(&mutated, EngineConfig::new(2));
    let expect_old = khop_count(&engine, 7, 3);
    let expect_new = khop_count(&truth_new, 7, 3);
    for r in &results {
        let expect = match r.epoch {
            0 => expect_old,
            1 => expect_new,
            e => panic!("impossible epoch {e}"),
        };
        assert_eq!(r.visited, expect, "epoch {} answer diverges", r.epoch);
    }
    let stats = service.stats();
    assert!(stats.index_builds >= 2, "initial build plus the commit rebuild: {stats:?}");
    service.shutdown();
}

/// An index that answers exactly `(5, 3)`, with `visited` set to a tag
/// no traversal of the test graphs produces — so an answer names the
/// build that served it.
struct TaggedIndex {
    epoch: u64,
    tag: u64,
}

impl ReachIndex for TaggedIndex {
    fn epoch(&self) -> u64 {
        self.epoch
    }
    fn answer(&self, source: VertexId, k: u32) -> Option<IndexAnswer> {
        (source == 5 && k == 3)
            .then(|| IndexAnswer { visited: self.tag, per_level: vec![self.tag] })
    }
    fn size_bytes(&self) -> usize {
        64
    }
    fn num_sources(&self) -> usize {
        1
    }
}

/// Tags its index `1000 + epoch` and holds its second build — the
/// first commit's — until released: the window between building e + 1
/// and publishing it, forced.
struct HeldBuilder {
    builds: AtomicUsize,
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl IndexBuilder for HeldBuilder {
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError> {
        if self.builds.fetch_add(1, Ordering::SeqCst) == 1 {
            let _ = self.entered.send(());
            let _ = self.release.lock().unwrap().recv();
        }
        let epoch = engine.graph_epoch();
        Ok(Arc::new(TaggedIndex { epoch, tag: 1000 + epoch }))
    }
}

/// A commit publishes e + 1's engine, epoch and index in one swap:
/// while its index is still being built, the service reports epoch 0
/// and answers a covered query at admission from epoch 0's index; once
/// the build lands, the same query answers from the new index at
/// epoch 1.
#[test]
fn a_commit_publishes_its_engine_and_index_together() {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(40), EngineConfig::new(2)));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let builder = HeldBuilder {
        builds: AtomicUsize::new(0),
        entered: entered_tx,
        release: Mutex::new(release_rx),
    };
    let service = Arc::new(QueryService::start(
        engine,
        ServiceConfig { index: Some(Arc::new(builder)), ..Default::default() },
    ));
    let before = service.query(KhopQuery::single(0, 5, 3)).unwrap();
    assert_eq!((before.visited, before.epoch), (1000, 0));

    let committer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.commit_epoch())
    };
    entered_rx.recv_timeout(Duration::from_secs(20)).expect("the commit builds its index");
    // Read while the build is held; asserted after the release, so a
    // failure cannot leave the dispatcher parked in the builder.
    let epoch_during = service.graph_epoch();
    let during = service.submit(KhopQuery::single(1, 5, 3)).unwrap().try_wait();
    release_tx.send(()).unwrap();
    assert_eq!(epoch_during, 0, "nothing is published before its index is built");
    let during = during.expect("a covered query is answered at admission").unwrap();
    assert_eq!((during.visited, during.epoch), (1000, 0), "the old index, at the old epoch");

    assert_eq!(committer.join().unwrap().unwrap(), 1);
    assert_eq!(service.graph_epoch(), 1);
    let after = service.query(KhopQuery::single(2, 5, 3)).unwrap();
    assert_eq!((after.visited, after.epoch), (1001, 1), "the new index, at the new epoch");
    let stats = service.stats();
    assert_eq!(stats.index_builds, 2);
    assert_eq!(stats.index_only_answers, 3);
    service.shutdown();
}

/// Tags its index with the engine's machine count.
struct MachinesBuilder;

impl IndexBuilder for MachinesBuilder {
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError> {
        let tag = engine.num_machines() as u64;
        Ok(Arc::new(TaggedIndex { epoch: engine.graph_epoch(), tag }))
    }
}

/// A degradation publishes the smaller layout with its own index:
/// machine 1 dies on every attempt, the service re-partitions onto one
/// machine after two blames, and the covered query then reports the
/// one-machine index.
#[test]
fn a_degradation_publishes_the_smaller_layouts_index() {
    let engine = Arc::new(DistributedEngine::new(&chordal_graph(40), EngineConfig::new(2)));
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_batch_delay: Duration::from_micros(100),
            fault_plan: Some(FaultPlan::new(5).crash(1, 1)),
            max_retries: 4,
            retry_backoff: Duration::from_micros(50),
            recovery: RecoveryConfig { checkpoint_interval: 2, max_recoveries: 0 },
            degrade_after: Some(2),
            index: Some(Arc::new(MachinesBuilder)),
            ..Default::default()
        },
    );
    assert_eq!(service.query(KhopQuery::single(0, 5, 3)).unwrap().visited, 2);
    // An uncovered query traverses, crashes machine 1 and degrades.
    let r = service.query(KhopQuery::single(1, 0, 5)).unwrap();
    assert_eq!(r.visited, khop_count(&engine, 0, 5));
    let after = service.query(KhopQuery::single(2, 5, 3)).unwrap();
    assert_eq!(after.visited, 1, "the covered query reads the one-machine index");
    let stats = service.stats();
    assert_eq!(stats.degraded_generations, 1);
    assert_eq!(stats.index_builds, 2, "start-up build + the degradation's");
    assert_eq!(stats.queries_failed, 0);
    service.shutdown();
}

/// `build_tier` is one plain batch per chunk of ranked boundary
/// sources. On TINY at the serving benchmark's index config, every
/// sketch equals what a single-lane traversal of its source reports,
/// and sources plus sketches hash to the digest recorded from PR 14's
/// probed build — removing the probes, masks and labels changed
/// nothing the tier serves.
#[test]
fn build_tier_sketches_equal_per_source_traversal_on_tiny() {
    let hops = 4u32;
    let engine = DistributedEngine::new(&Dataset::Tiny.generate(), EngineConfig::new(2));
    let tier = BoundaryIndexBuilder::new(IndexConfig { hops, max_sources: 64 })
        .build_tier(&engine)
        .expect("index build");
    assert_eq!(tier.num_sources(), 64);

    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over little-endian words
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &s in tier.sources() {
        fold(s);
        // One hop past the budget tells whether the BFS drained.
        let deep = engine.run_traversal_batch(&[s], &[hops + 1]).expect("traversal");
        let column: Vec<u64> = deep.per_level.iter().map(|row| row[0]).collect();
        let drained = column.get(hops as usize + 1).is_none_or(|&gain| gain == 0);
        for k in (0..=hops).chain([u32::MAX]) {
            let got = tier.answer(s, k);
            let within = (k as usize).min(column.len() - 1);
            let expect = (k <= hops || drained).then(|| IndexAnswer {
                visited: column[..=within].iter().sum(),
                per_level: trim(column[..=within].to_vec()),
            });
            assert_eq!(got, expect, "source {s} k {k}");
            match got {
                Some(ans) => {
                    fold(ans.visited);
                    ans.per_level.into_iter().for_each(&mut fold);
                }
                None => fold(u64::MAX),
            }
        }
    }
    assert_eq!(digest, 0x02dd_6011_3f7f_5692, "sources or sketches moved off PR 14's");
}

/// INDEXING.md promises a complete metric catalogue: its
/// backtick-quoted `cgraph_index_*` names must equal the registered
/// families exactly, in both directions.
#[test]
fn indexing_doc_catalogues_every_index_metric() {
    use cgraph::obs::Obs;
    let graph = chordal_graph(40);
    let engine = Arc::new(DistributedEngine::new(&graph, EngineConfig::new(2)));
    let obs = Obs::shared();
    let service = QueryService::start(
        Arc::clone(&engine),
        ServiceConfig { index: Some(builder()), obs: Some(Arc::clone(&obs)), ..Default::default() },
    );
    service.query(KhopQuery::single(0, 1, 3)).unwrap();
    service.shutdown();

    let registered: std::collections::BTreeSet<String> =
        obs.metrics.names().into_iter().filter(|n| n.starts_with("cgraph_index_")).collect();
    assert!(!registered.is_empty(), "index service must register cgraph_index_* families");

    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/INDEXING.md"))
        .expect("INDEXING.md must exist at the repo root");
    let documented: std::collections::BTreeSet<String> = doc
        .split('`')
        .skip(1)
        .step_by(2) // every other fragment is inside backticks
        .filter(|tok| {
            tok.starts_with("cgraph_index_")
                && tok.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        .map(str::to_string)
        .collect();

    let missing: Vec<_> = registered.difference(&documented).collect();
    assert!(missing.is_empty(), "metrics registered but not in INDEXING.md: {missing:?}");
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(stale.is_empty(), "metrics documented but never registered: {stale:?}");
}

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

fn trim(mut levels: Vec<u64>) -> Vec<u64> {
    while levels.last() == Some(&0) {
        levels.pop();
    }
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a random graph, for random query batches: every query the
    /// index volunteers an answer for agrees with the traversal — the
    /// index tier's whole soundness contract.
    #[test]
    fn index_pruning_never_changes_answers(
        (n, pairs) in graph_strategy(40, 120),
        p in 1usize..5,
        hops in 1u32..5,
        queries in prop::collection::vec((0u64..40, 0u32..7), 1..9),
    ) {
        let list = build_list(n, &pairs);
        let engine = Arc::new(DistributedEngine::new(&list, EngineConfig::new(p)));
        let tier = BoundaryIndexBuilder::new(IndexConfig { hops, max_sources: 16 })
            .build_tier(&engine)
            .expect("index build");

        let sources: Vec<VertexId> = queries.iter().map(|&(s, _)| s % n).collect();
        let ks: Vec<u32> = queries.iter().map(|&(_, k)| k).collect();
        let plain = engine.run_traversal_batch(&sources, &ks).expect("plain batch");
        for (lane, (&s, &k)) in sources.iter().zip(&ks).enumerate() {
            if let Some(ans) = tier.answer(s, k) {
                prop_assert_eq!(
                    ans.visited, plain.per_lane_visited[lane],
                    "index answer diverges for source {} k {}", s, k
                );
                let column: Vec<u64> =
                    plain.per_level.iter().map(|row| row[lane]).collect();
                prop_assert_eq!(ans.per_level, trim(column));
            }
        }
    }
}
