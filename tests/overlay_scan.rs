//! Differential oracle for the overlay's scan form.
//!
//! A commit below the fold threshold publishes its updates as one
//! `DeltaOverlay` per machine, and every scan reads that overlay in a
//! form derived from it once (`cgraph_core::bitfrontier::OverlayScan`:
//! source-ordered lists, inserted targets resolved to their slots). A
//! fold (`with_updates(.., 0)`) rebuilds the edge-sets from the same
//! updates instead. The logical graph is the same either way, so every
//! batch must come back bit-identical — `per_level` and visited counts,
//! lane for lane — whichever side of the threshold its epoch landed on:
//! at 1, 64, 128 and 256 lanes; over overlays grown across many commits
//! that delete absent edges, cancel pending deletes and re-insert; with
//! inserted edges to remote vertices no base edge of the shard reaches
//! (the scan's spill path); and under a scripted crash, whose confined
//! replay rescans the failed partition from the same form. Pinned
//! cases: `proptest-regressions/overlay_scan.txt`.

use cgraph::core::FaultInjection;
use cgraph::prelude::*;
use cgraph_comm::PersistentCluster;
use cgraph_obs::{parse_text, Obs};
use proptest::prelude::*;
use std::sync::Arc;

const N: u64 = 96;

/// Lanes per batch: a single lane and each width the engine packs up to.
const WIDTHS: [usize; 4] = [1, 64, 128, 256];

/// A ring with a chord on every third vertex: paths long enough that a
/// full BFS takes many supersteps, and few enough cross-machine edges
/// that most remote vertices lie outside every shard's boundary.
fn base_graph() -> EdgeList {
    let mut l = EdgeList::with_num_vertices(N);
    for v in 0..N {
        l.push_pair(v, (v + 1) % N);
        if v % 3 == 0 {
            l.push_pair(v, (v * 5 + 3) % N);
        }
    }
    l.set_num_vertices(N);
    l
}

fn engine(p: usize) -> DistributedEngine {
    DistributedEngine::new(&base_graph(), EngineConfig::new(p))
}

/// The hand-written commits: deletes of edges the graph does not have
/// beside inserts to far vertices; deletes of base edges; an insert
/// that cancels a pending delete, a re-insert with a new weight, and an
/// insert cancelled and re-inserted within one commit.
fn scripted_commits() -> Vec<Vec<EdgeUpdate>> {
    use EdgeUpdate as U;
    vec![
        vec![
            U::delete(0, 40),
            U::delete(7, 70),
            U::delete(50, 2),
            U::delete(90, 17),
            U::insert(1, 60),
            U::insert(2, 80),
            U::insert(49, 5),
            U::insert(70, 20),
        ],
        vec![U::delete(3, 4), U::delete(9, 48), U::delete(0, 3), U::delete(60, 61)],
        vec![
            U::insert(3, 4),
            U::insert_weighted(1, 60, 2.0),
            U::delete(2, 80),
            U::insert(2, 80),
            U::delete(0, 40),
        ],
    ]
}

/// Seeded churn over every pair — most deletes name absent edges.
fn churn_commits(seed: u64, commits: usize) -> Vec<Vec<EdgeUpdate>> {
    let mut z = seed;
    let mut next = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        z
    };
    (0..commits)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let (s, t) = (next() % N, next() % N);
                    if next() % 3 == 0 {
                        EdgeUpdate::delete(s, t)
                    } else {
                        EdgeUpdate::insert(s, t)
                    }
                })
                .collect()
        })
        .collect()
}

/// Lane `i` of a `width`-lane batch: a spread of sources and a mix of
/// hop budgets, full BFS included.
fn batch(width: usize, salt: u64) -> (Vec<u64>, Vec<u32>) {
    let sources = (0..width as u64).map(|i| (i * 37 + salt * 11) % N).collect();
    let ks = (0..width).map(|i| [1, 2, 4, u32::MAX][i % 4]).collect();
    (sources, ks)
}

/// Publishes `commit` on both chains: as an overlay on the first, as a
/// fold on the second.
fn commit_both(
    overlaid: &DistributedEngine,
    folded: &DistributedEngine,
    commit: &[EdgeUpdate],
) -> (DistributedEngine, DistributedEngine) {
    let (o, did_fold) = overlaid.with_updates(commit, usize::MAX);
    assert!(!did_fold, "an unbounded threshold publishes an overlay");
    let (f, did_fold) = folded.with_updates(commit, 0);
    assert!(did_fold || !f.has_delta(), "a zero threshold folds");
    (o, f)
}

/// True when some machine's overlay inserts an edge to a vertex its
/// shard has no slot for (the scan spills it).
fn spills(engine: &DistributedEngine) -> bool {
    (0..engine.num_machines()).any(|m| {
        engine.delta(m).is_some_and(|d| {
            d.rows().any(|(_, r)| {
                r.inserts().iter().any(|&(t, _)| engine.shards()[m].slot_of(t).is_none())
            })
        })
    })
}

#[test]
fn overlay_grown_over_many_commits_scans_like_its_fold() {
    for p in [2, 4] {
        let (mut overlaid, mut folded) = (engine(p), engine(p));
        let cluster = PersistentCluster::new(p);
        let mut spilled = false;
        for (c, commit) in
            scripted_commits().into_iter().chain(churn_commits(0x0FE7, 24)).enumerate()
        {
            (overlaid, folded) = commit_both(&overlaid, &folded, &commit);
            spilled |= spills(&overlaid);
            for &width in &WIDTHS {
                let (sources, ks) = batch(width, c as u64);
                let got = overlaid.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
                let want = folded.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
                assert_eq!(got.per_level, want.per_level, "p={p}, commit {c}, {width} lanes");
                assert_eq!(
                    got.per_lane_visited, want.per_lane_visited,
                    "p={p}, commit {c}, {width} lanes"
                );
            }
        }
        assert!(spilled, "p={p}: some inserted edge took the spill path");
        assert!(overlaid.delta_entries() > 100, "p={p}: the overlay grew over the commits");
        cluster.shutdown();
    }
}

#[test]
fn confined_replay_rescans_the_overlay_form() {
    let p = 4;
    let (mut overlaid, mut folded) = (engine(p), engine(p));
    for commit in scripted_commits().into_iter().chain(churn_commits(0xC2A5, 6)) {
        (overlaid, folded) = commit_both(&overlaid, &folded, &commit);
    }
    assert!((0..p).all(|m| overlaid.delta(m).is_some()), "every partition replays over an overlay");
    let cluster = PersistentCluster::new(p);
    let sources: Vec<u64> = (0..128).map(|i| (i * 3) % N).collect();
    let ks = vec![u32::MAX; sources.len()];
    let want = folded.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
    for (interval, crash_at) in [(3, 5), (2, 3), (4, 6)] {
        assert!(want.supersteps > crash_at + 1, "the batch outlives the crash");
        let plan = FaultPlan::new(7).crash(2, crash_at).heal_after(1);
        let recovery = RecoveryConfig { checkpoint_interval: interval, max_recoveries: 2 };
        let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
        let (got, report) = overlaid
            .run_traversal_batch_recoverable(&cluster, &sources, &ks, &recovery, Some(fault))
            .unwrap();
        let what = format!("checkpoint every {interval}, crash at {crash_at}");
        assert_eq!(got.per_level, want.per_level, "{what}");
        assert_eq!(got.per_lane_visited, want.per_lane_visited, "{what}");
        assert_eq!((report.recoveries, report.full_rollbacks), (1, 0), "{what}: confined");
        assert!(report.partitions_replayed == 1 && report.supersteps_replayed >= 1, "{what}");
    }
    cluster.shutdown();
}

#[test]
fn scan_form_is_timed_once_per_published_overlay() {
    let p = 4;
    let obs = Obs::shared();
    let cluster = PersistentCluster::new(p);
    cluster.set_obs(Arc::clone(&obs));
    let derived = || {
        let snap = parse_text(&obs.metrics.render_text()).expect("snapshot parses");
        snap.histograms["cgraph_delta_scan_form_seconds"].count
    };
    let with_entries =
        |e: &DistributedEngine| (0..p).filter(|&m| e.delta(m).is_some()).count() as u64;
    let scan_many = |e: &DistributedEngine| {
        for salt in 0..5 {
            let (sources, ks) = batch(64, salt);
            e.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
        }
    };
    let base = engine(p);
    scan_many(&base);
    assert_eq!(derived(), 0, "no overlay, nothing to derive");

    let commits = scripted_commits();
    let (e1, _) = base.with_updates(&commits[0], usize::MAX);
    scan_many(&e1);
    let once = with_entries(&e1);
    assert!(once > 0);
    assert_eq!(derived(), once);
    // An empty commit shares the published overlay and its form.
    let (e2, _) = e1.with_updates(&[], usize::MAX);
    scan_many(&e2);
    assert_eq!(derived(), once);
    let (e3, _) = e2.with_updates(&commits[1], usize::MAX);
    scan_many(&e3);
    assert_eq!(derived(), once + with_entries(&e3));
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn overlaid_batches_match_the_fold(
        commits in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..N, 0u64..N), 1..10),
            1..8,
        ),
        p_pick in 0usize..3,
        width_pick in 0usize..4,
    ) {
        // Kind 0 deletes the drawn pair — an edge the graph almost never
        // has — kind 1 the ring edge out of the drawn source, anything
        // else inserts the drawn pair.
        let p = [1usize, 2, 4][p_pick];
        let width = WIDTHS[width_pick];
        let (mut overlaid, mut folded) = (engine(p), engine(p));
        let cluster = PersistentCluster::new(p);
        for (c, items) in commits.iter().enumerate() {
            let commit: Vec<EdgeUpdate> = items
                .iter()
                .map(|&(kind, s, t)| match kind {
                    0 => EdgeUpdate::delete(s, t),
                    1 => EdgeUpdate::delete(s, (s + 1) % N),
                    _ => EdgeUpdate::insert(s, t),
                })
                .collect();
            (overlaid, folded) = commit_both(&overlaid, &folded, &commit);
            let (sources, ks) = batch(width, c as u64);
            let got = overlaid.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
            let want = folded.run_traversal_batch_on(&cluster, &sources, &ks).unwrap();
            prop_assert_eq!(&got.per_level, &want.per_level, "p={}, commit {}", p, c);
            prop_assert_eq!(&got.per_lane_visited, &want.per_lane_visited, "p={}, commit {}", p, c);
        }
        cluster.shutdown();
    }
}
