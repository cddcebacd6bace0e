//! Crash-restart oracle for the durability plane: a durable
//! [`QueryService`] must come back from **any** crash point —
//! `kill -9` between commits, a torn WAL tail, a corrupt or lost
//! snapshot — to a committed epoch whose answers are **bit-identical**
//! to the same query asked of a graph rebuilt from scratch at that
//! epoch, and recovery must never read past a failed checksum.
//!
//! The model is the same one `tests/mutation_plane.rs` uses: a plain
//! `BTreeSet<(src, dst)>` per committed epoch, a reference BFS for
//! `(visited, per_level)`. Crashes are simulated by (a) cutting the
//! WAL at every byte offset, (b) flipping / truncating snapshot files,
//! (c) running the whole open → mutate → kill → reopen loop under
//! a disk-fault [`FaultPlan`] (torn writes, bit flips, lost renames),
//! and (d) leaving the directory as a crash would at each point of a
//! snapshot job that runs on the plane's writer thread, beside the
//! commits (taken but never run, temp file never renamed, skipped
//! because the writer was busy).

use cgraph::graph::snapshot::{decode_snapshot_header, SnapshotRef};
use cgraph::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic xorshift stream so every run replays identically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A deterministic sparse digraph on `n` vertices (no self-loops).
fn seed_edges(n: u64, m: usize, seed: u64) -> BTreeSet<(u64, u64)> {
    let mut rng = Rng(seed | 1);
    let mut set = BTreeSet::new();
    while set.len() < m {
        let s = rng.below(n);
        let t = rng.below(n);
        if s != t {
            set.insert((s, t));
        }
    }
    set
}

fn edge_list(n: u64, edges: &BTreeSet<(u64, u64)>) -> EdgeList {
    let mut l = EdgeList::with_num_vertices(n);
    for &(s, t) in edges {
        l.push_pair(s, t);
    }
    l.set_num_vertices(n);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&l);
    b.build().edges
}

/// Applies a batch to the model edge set (last update wins per pair).
fn model_apply(set: &mut BTreeSet<(u64, u64)>, updates: &[EdgeUpdate]) {
    for u in updates {
        if u.is_insert() {
            set.insert((u.src(), u.dst()));
        } else {
            set.remove(&(u.src(), u.dst()));
        }
    }
}

/// Reference `(visited, per_level)` by BFS over the model edge set,
/// trailing zeros trimmed — matches [`QueryResult`]'s convention.
fn reference(n: u64, edges: &BTreeSet<(u64, u64)>, src: u64, k: u32) -> (u64, Vec<u64>) {
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for &(s, t) in edges {
        adj[s as usize].push(t);
    }
    let mut seen = vec![false; n as usize];
    let mut levels = vec![0u64; 1];
    let mut q = VecDeque::new();
    seen[src as usize] = true;
    levels[0] = 1;
    q.push_back((src, 0u32));
    let mut visited = 1u64;
    while let Some((v, d)) = q.pop_front() {
        if d >= k {
            continue;
        }
        for &t in &adj[v as usize] {
            if !seen[t as usize] {
                seen[t as usize] = true;
                visited += 1;
                if levels.len() <= (d + 1) as usize {
                    levels.resize((d + 2) as usize, 0);
                }
                levels[(d + 1) as usize] += 1;
                q.push_back((t, d + 1));
            }
        }
    }
    while levels.last() == Some(&0) {
        levels.pop();
    }
    (visited, levels)
}

/// A random update batch against the *current* model: deletes drawn
/// from live edges, inserts anywhere (no self-loops).
fn random_batch(
    n: u64,
    current: &BTreeSet<(u64, u64)>,
    rng: &mut Rng,
    len: usize,
) -> Vec<EdgeUpdate> {
    let live: Vec<(u64, u64)> = current.iter().copied().collect();
    (0..len)
        .map(|_| {
            if !live.is_empty() && rng.below(3) == 0 {
                let (s, t) = live[rng.below(live.len() as u64) as usize];
                EdgeUpdate::delete(s, t)
            } else {
                loop {
                    let s = rng.below(n);
                    let t = rng.below(n);
                    if s != t {
                        break EdgeUpdate::insert(s, t);
                    }
                }
            }
        })
        .collect()
}

/// Asserts one service answer against the model snapshot at the
/// answer's own epoch.
fn check(history: &[BTreeSet<(u64, u64)>], n: u64, src: u64, k: u32, r: &QueryResult) {
    assert!(
        (r.epoch as usize) < history.len(),
        "answer labelled epoch {} but only {} epochs exist",
        r.epoch,
        history.len()
    );
    let (visited, per_level) = reference(n, &history[r.epoch as usize], src, k);
    assert_eq!(
        r.visited, visited,
        "visited diverges from scratch rebuild at epoch {} (src {src}, k {k})",
        r.epoch
    );
    assert_eq!(
        r.per_level, per_level,
        "per_level diverges from scratch rebuild at epoch {} (src {src}, k {k})",
        r.epoch
    );
}

/// A self-cleaning data directory, unique across the concurrently
/// running tests of this binary.
struct TempDir(PathBuf);

static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);

impl TempDir {
    fn new(tag: &str) -> Self {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir()
            .join(format!("cgraph-durplane-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn durable_config(dir: &Path, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        max_batch_delay: Duration::from_micros(50),
        durability: Some(DurabilityConfig::new(dir).snapshot_every(snapshot_every)),
        ..Default::default()
    }
}

/// Runs `rounds` of (batch, commit, spot-check query) against a live
/// durable service, extending the epoch history and returning the
/// batches in commit order.
fn run_rounds(
    svc: &QueryService,
    n: u64,
    model: &mut BTreeSet<(u64, u64)>,
    history: &mut Vec<BTreeSet<(u64, u64)>>,
    rng: &mut Rng,
    rounds: usize,
    batch_len: usize,
) -> Vec<Vec<EdgeUpdate>> {
    let mut batches = Vec::new();
    for _ in 0..rounds {
        let batch = random_batch(n, model, rng, batch_len);
        model_apply(model, &batch);
        svc.apply_updates(batch.iter().cloned().collect()).unwrap();
        batches.push(batch);
        let ep = svc.commit_epoch().unwrap();
        history.push(model.clone());
        assert_eq!(ep as usize, history.len() - 1, "epochs advance by one per commit");
        let src = rng.below(n);
        let r = svc.query(KhopQuery::single(history.len(), src, 2)).unwrap();
        check(history, n, src, 2, &r);
    }
    batches
}

/// Blocks until the snapshot writer has booked the job the last commit
/// handed it: `snapshot_bytes` moves past `before` when the temp file
/// is written — whether or not a fault then loses the rename — in the
/// same step that lets the plane take its next job. A test that must
/// not depend on how long a write takes waits here after every due
/// commit, so no later commit can find the writer busy.
fn settle_snapshot(svc: &QueryService, before: u64) {
    let started = Instant::now();
    while svc.stats().snapshot_bytes == before {
        assert!(started.elapsed() < Duration::from_secs(60), "the snapshot writer never finished");
        std::thread::yield_now();
    }
}

/// The plane's snapshot cadence as a settled run sees it: which commits
/// hand a job off. A lost rename leaves the cadence primed, so the next
/// commit is due again.
struct DueCommits {
    every: u64,
    since: u64,
}

impl DueCommits {
    /// After a commit (`before` = the stats read ahead of it): waits for
    /// the job when the commit was due.
    fn settle_commit(&mut self, svc: &QueryService, before: &ServiceStats) {
        self.since += 1;
        if self.since >= self.every {
            settle_snapshot(svc, before.snapshot_bytes);
            if svc.stats().snapshots_written > before.snapshots_written {
                self.since = 0;
            }
        }
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Sorted final-name snapshot files inside a data directory.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cgs"))
        .collect();
    v.sort();
    v
}

/// [`snapshot_files`] by file name.
fn snapshot_names(dir: &Path) -> Vec<String> {
    snapshot_files(dir)
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// Names of the files a snapshot write that never reached its rename
/// left behind.
fn tmp_files(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    v.sort();
    v
}

/// Turns the newest snapshot back into the temp file it was renamed
/// from: what the directory holds when the process dies between the
/// temp file's fsync and the rename.
fn unrename_newest_snapshot(dir: &Path) {
    let newest = snapshot_files(dir).pop().expect("a snapshot to un-rename");
    fs::rename(&newest, newest.with_extension("cgs.tmp")).unwrap();
}

/// Copies a data directory, truncating `wal.log` to `wal_len` bytes.
fn copy_dir_with_wal_prefix(src: &Path, dst: &Path, wal_len: usize) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        if name == "wal.log" {
            let bytes = fs::read(&p).unwrap();
            fs::write(dst.join(&name), &bytes[..wal_len.min(bytes.len())]).unwrap();
        } else {
            fs::copy(&p, dst.join(&name)).unwrap();
        }
    }
}

/// Flips one byte in the middle of a file.
fn flip_byte(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(path, bytes).unwrap();
}

/// Cold start, four committed epochs, graceful stop, reopen: the
/// service must resume at the last committed epoch with every answer
/// bit-identical to the scratch rebuild, and stay writable.
#[test]
fn restart_resumes_last_committed_epoch() {
    const N: u64 = 32;
    let tmp = TempDir::new("restart");
    let base = seed_edges(N, 60, 0xD00D);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0xFEED);

    let (svc, out) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 2))
            .unwrap();
    assert!(!out.recovered, "an empty data dir is a fresh start");
    assert_eq!(out.epoch, 0);
    run_rounds(&svc, N, &mut model, &mut history, &mut rng, 4, 10);
    let stats = svc.stats();
    assert!(stats.wal_records >= 8, "4 update records + 4 commit fences");
    assert!(stats.snapshots_written >= 1);
    svc.shutdown();
    drop(svc);

    let (svc, out) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 2))
            .unwrap();
    assert!(out.recovered);
    assert_eq!(out.epoch, 4, "recovery lands on the last committed epoch");
    assert_eq!(out.pending_restored, 0, "everything was committed before the stop");
    for q in 0..8 {
        let src = rng.below(N);
        let k = 1 + rng.below(3) as u32;
        let r = svc.query(KhopQuery::single(q, src, k)).unwrap();
        assert_eq!(r.epoch, 4, "answers come from the recovered epoch");
        check(&history, N, src, k, &r);
    }
    // The recovered service keeps committing where the old one left off.
    run_rounds(&svc, N, &mut model, &mut history, &mut rng, 2, 8);
    assert_eq!(svc.stats().durable_recoveries, 1);
    svc.shutdown();
}

/// The overlay a restart replays is the overlay the restarted service
/// reports: `delta_entries` / `delta_bytes` (and their gauges) describe
/// the engine value now serving, not the last commit this process made.
#[test]
fn replayed_overlay_is_counted_before_any_new_commit() {
    const N: u64 = 32;
    let tmp = TempDir::new("overlay-count");
    let edges = edge_list(N, &seed_edges(N, 60, 0xD00D));
    // Cadence 100: the two commits stay in the WAL, so the restart
    // rebuilds their overlay by replay.
    let open = |obs: Option<Arc<cgraph::obs::Obs>>| {
        let cfg = ServiceConfig { obs, ..durable_config(tmp.path(), 100) };
        QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg).unwrap()
    };
    let (svc, _) = open(None);
    for dst in [7, 9] {
        svc.apply_updates([EdgeUpdate::insert(0, dst)].into_iter().collect()).unwrap();
        svc.commit_epoch().unwrap();
    }
    let before = svc.stats();
    assert!(before.delta_entries == 2 && before.delta_bytes > 0, "{before:?}");
    svc.shutdown();
    drop(svc);

    let obs = cgraph::obs::Obs::shared();
    let (svc, out) = open(Some(Arc::clone(&obs)));
    assert_eq!((out.epoch, out.wal_records_replayed), (2, 4));
    let after = svc.stats();
    assert_eq!(
        (after.delta_entries, after.delta_bytes),
        (before.delta_entries, before.delta_bytes),
        "the replayed overlay is live before any new commit"
    );
    let snap = cgraph::obs::parse_text(&obs.metrics.render_text()).unwrap();
    assert_eq!(snap.gauges["cgraph_mutation_delta_entries"], after.delta_entries as i64);
    assert_eq!(snap.gauges["cgraph_mutation_delta_bytes"], after.delta_bytes as i64);
    svc.shutdown();
}

/// A restart that replayed no commit has nothing to checkpoint: the
/// snapshot it loaded is already this epoch's. Rewriting it would push
/// the one file recovery just proved valid through the fault injector —
/// here a plan whose every write flips a bit.
#[test]
fn restart_at_the_snapshot_tip_does_not_rewrite_its_anchor() {
    const N: u64 = 32;
    let tmp = TempDir::new("anchor-rewrite");
    let edges = edge_list(N, &seed_edges(N, 60, 0xD00D));
    let open = |fault_plan: Option<FaultPlan>| {
        let cfg = ServiceConfig { fault_plan, ..durable_config(tmp.path(), 1) };
        QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg).unwrap()
    };
    // Cadence 1: the clean shutdown leaves the snapshot at the tip.
    let (svc, _) = open(None);
    svc.apply_updates([EdgeUpdate::insert(0, 7)].into_iter().collect()).unwrap();
    svc.commit_epoch().unwrap();
    svc.shutdown();
    let first = svc.stats();
    drop(svc);
    assert_eq!(first.last_snapshot_epoch, 1);
    let anchor = snapshot_files(tmp.path()).pop().unwrap();
    let anchor_bytes = fs::read(&anchor).unwrap();

    let (svc, out) = open(Some(FaultPlan::new(0xF11B).with_bit_flip(1.0)));
    assert_eq!((out.epoch, out.wal_records_replayed, out.snapshots_corrupt), (1, 0, 0));
    svc.shutdown();
    let second = svc.stats();
    drop(svc);
    assert_eq!((second.snapshots_written, second.snapshot_bytes), (0, 0), "{second:?}");
    assert_eq!(second.last_snapshot_epoch, 1);
    assert_eq!(fs::read(&anchor).unwrap(), anchor_bytes, "the anchor was rewritten");
    assert_eq!(tmp_files(tmp.path()), Vec::<String>::new());

    let (svc, out) = open(None);
    assert_eq!((out.epoch, out.wal_records_replayed, out.snapshots_corrupt), (1, 0, 0));
    assert_eq!(svc.stats().snapshots_corrupt, 0);
    svc.shutdown();
}

/// Cuts the WAL at **every byte offset** and recovers each prefix:
/// the recovered epoch must always be a committed one, answers must
/// match the scratch rebuild at that epoch, and a restored pending
/// tail must be exactly the one logged-but-unfenced batch. This is the
/// "never read past a failed checksum" guarantee made exhaustive.
#[test]
fn every_wal_prefix_recovers_to_a_committed_epoch() {
    const N: u64 = 24;
    const ROUNDS: usize = 3;
    const BATCH: usize = 5;
    let tmp = TempDir::new("walcut");
    let base = seed_edges(N, 40, 0x7A11);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0x5EED);

    // Huge cadence: only the base snapshot exists, the WAL carries all
    // three epochs — every cut hits replayed state.
    let (svc, _) = QueryService::open_or_recover(
        &edges,
        EngineConfig::new(2),
        durable_config(tmp.path(), 1 << 32),
    )
    .unwrap();
    let batches = run_rounds(&svc, N, &mut model, &mut history, &mut rng, ROUNDS, BATCH);
    svc.shutdown();
    drop(svc);

    let wal = fs::read(tmp.path().join("wal.log")).unwrap();
    assert!(!wal.is_empty());
    let scratch = TempDir::new("walcut-scratch");
    let mut prev_epoch = 0u64;
    for cut in 0..=wal.len() {
        let dir = scratch.path().join(format!("cut-{cut}"));
        copy_dir_with_wal_prefix(tmp.path(), &dir, cut);
        let (svc, out) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(&dir, 1 << 32),
        )
        .unwrap_or_else(|e| panic!("cut at byte {cut}/{} must recover: {e}", wal.len()));
        assert!(
            (out.epoch as usize) < history.len(),
            "cut {cut}: recovered epoch {} was never committed",
            out.epoch
        );
        assert!(
            out.epoch >= prev_epoch,
            "cut {cut}: longer prefixes never recover less ({} < {prev_epoch})",
            out.epoch
        );
        prev_epoch = out.epoch;
        let src = (cut as u64) % N;
        let r = svc.query(KhopQuery::single(cut, src, 2)).unwrap();
        assert_eq!(r.epoch, out.epoch);
        check(&history, N, src, 2, &r);
        if out.pending_restored > 0 {
            // One batch per commit: a restored tail is exactly the
            // batch logged after the last surviving fence.
            let e = out.epoch as usize;
            assert!(e < batches.len(), "cut {cut}: pending beyond the last batch");
            assert_eq!(out.pending_restored, batches[e].len(), "cut {cut}");
            let ep = svc.commit_epoch().unwrap();
            assert_eq!(ep, out.epoch + 1);
            let r = svc.query(KhopQuery::single(cut, src, 2)).unwrap();
            assert_eq!(r.epoch, ep, "committing the restored tail reaches the next epoch");
            check(&history, N, src, 2, &r);
        }
        svc.shutdown();
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(prev_epoch as usize, ROUNDS, "the full WAL recovers every commit");
}

/// A corrupt or torn newest snapshot must be rejected by checksum and
/// recovery must fall back — to an older snapshot, or all the way to
/// the base graph + full WAL replay — still landing on the last
/// committed epoch.
#[test]
fn corrupt_snapshots_fall_back_without_losing_commits() {
    const N: u64 = 28;
    const ROUNDS: usize = 5;
    let tmp = TempDir::new("snapfall");
    let base = seed_edges(N, 50, 0xCAFE);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0xF00D);

    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 1))
            .unwrap();
    run_rounds(&svc, N, &mut model, &mut history, &mut rng, ROUNDS, 8);
    svc.shutdown();
    drop(svc);
    let snaps = snapshot_files(tmp.path());
    assert!(snaps.len() >= 2, "cadence 1 must retain several snapshots");

    // (a) bit flip in the newest snapshot → checksum rejects it,
    // an older snapshot + WAL tail still reach the tip.
    let scratch = TempDir::new("snapfall-flip");
    copy_dir_with_wal_prefix(tmp.path(), scratch.path(), usize::MAX);
    flip_byte(snapshot_files(scratch.path()).last().unwrap());
    let (svc, out) = QueryService::open_or_recover(
        &edges,
        EngineConfig::new(2),
        durable_config(scratch.path(), 1),
    )
    .unwrap();
    assert!(out.recovered);
    assert!(out.snapshots_corrupt >= 1, "the flipped snapshot must be counted corrupt");
    assert_eq!(out.epoch as usize, ROUNDS, "fallback still recovers the tip");
    let src = rng.below(N);
    let r = svc.query(KhopQuery::single(0, src, 3)).unwrap();
    check(&history, N, src, 3, &r);
    assert!(svc.stats().snapshots_corrupt >= 1);
    svc.shutdown();
    drop(svc);

    // (b) torn newest snapshot (no END frame) → same fallback.
    let scratch = TempDir::new("snapfall-torn");
    copy_dir_with_wal_prefix(tmp.path(), scratch.path(), usize::MAX);
    let newest = snapshot_files(scratch.path()).last().unwrap().clone();
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let (svc, out) = QueryService::open_or_recover(
        &edges,
        EngineConfig::new(2),
        durable_config(scratch.path(), 1),
    )
    .unwrap();
    assert!(out.snapshots_corrupt >= 1);
    assert_eq!(out.epoch as usize, ROUNDS);
    svc.shutdown();
    drop(svc);

    // (c) every snapshot corrupt → bootstrap from the base graph and
    // replay the whole WAL from sequence 0.
    let scratch = TempDir::new("snapfall-all");
    copy_dir_with_wal_prefix(tmp.path(), scratch.path(), usize::MAX);
    let all = snapshot_files(scratch.path());
    let total = all.len();
    for s in &all {
        flip_byte(s);
    }
    let (svc, out) = QueryService::open_or_recover(
        &edges,
        EngineConfig::new(2),
        durable_config(scratch.path(), 1),
    )
    .unwrap();
    assert_eq!(out.snapshots_corrupt, total, "every snapshot is rejected");
    assert_eq!(out.epoch as usize, ROUNDS, "full WAL replay reaches the tip");
    let src = rng.below(N);
    let r = svc.query(KhopQuery::single(1, src, 3)).unwrap();
    check(&history, N, src, 3, &r);
    svc.shutdown();
}

/// Updates applied but never committed survive a stop: they are
/// WAL-logged ahead of the buffer, surfaced by `pending_restored` on
/// reopen, and the first commit publishes exactly them.
#[test]
fn uncommitted_pending_tail_survives_restart() {
    const N: u64 = 24;
    let tmp = TempDir::new("pending");
    let base = seed_edges(N, 40, 0xBEE);
    let edges = edge_list(N, &base);
    let mut rng = Rng(0xABCD);

    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 4))
            .unwrap();
    let batch = random_batch(N, &base, &mut rng, 7);
    svc.apply_updates(batch.iter().cloned().collect()).unwrap();
    assert_eq!(svc.stats().pending_updates, 7, "buffered updates are visible in stats");
    svc.shutdown(); // syncs the WAL; the buffer itself is dropped
    drop(svc);

    let (svc, out) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 4))
            .unwrap();
    assert!(out.recovered);
    assert_eq!(out.epoch, 0, "nothing was committed");
    assert_eq!(out.pending_restored, 7, "the logged tail is back in the buffer");
    assert_eq!(svc.stats().pending_updates, 7);
    let ep = svc.commit_epoch().unwrap();
    assert_eq!(ep, 1);
    let mut model = base.clone();
    model_apply(&mut model, &batch);
    let history = vec![base, model];
    for q in 0..5 {
        let src = rng.below(N);
        let r = svc.query(KhopQuery::single(q, src, 2)).unwrap();
        assert_eq!(r.epoch, 1);
        check(&history, N, src, 2, &r);
    }
    svc.shutdown();
}

/// `try_start` must refuse a data directory that already holds durable
/// state — resuming it is `open_or_recover`'s job, and overwriting it
/// would silently discard committed updates.
#[test]
fn try_start_refuses_a_populated_data_dir() {
    const N: u64 = 16;
    let tmp = TempDir::new("refuse");
    let base = seed_edges(N, 20, 0x11);
    let edges = edge_list(N, &base);
    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(1), durable_config(tmp.path(), 1))
            .unwrap();
    svc.apply_updates(random_batch(N, &base, &mut Rng(9), 3).into_iter().collect()).unwrap();
    svc.commit_epoch().unwrap();
    svc.shutdown();
    drop(svc);

    let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(1)));
    let err = QueryService::try_start(engine, durable_config(tmp.path(), 1))
        .err()
        .expect("try_start must not adopt an existing data dir");
    match err {
        ServiceError::Durability(msg) => {
            assert!(msg.contains("open_or_recover"), "error should point at the fix: {msg}")
        }
        other => panic!("expected a durability refusal, got {other}"),
    }
}

/// Construction rejects nonsensical knobs with a typed error instead
/// of wedging later: a zero checkpoint interval, a zero commit
/// threshold, a zero snapshot cadence, zero retained snapshots — and
/// `open_or_recover` without a durability config. No directory is
/// created on the rejected paths.
#[test]
fn invalid_knobs_are_rejected_at_construction() {
    const N: u64 = 12;
    let base = seed_edges(N, 15, 0x22);
    let edges = edge_list(N, &base);
    let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(1)));
    let never = std::env::temp_dir().join(format!("cgraph-durplane-never-{}", std::process::id()));
    let _ = fs::remove_dir_all(&never);

    let cases: Vec<ServiceConfig> = vec![
        ServiceConfig {
            recovery: RecoveryConfig { checkpoint_interval: 0, max_recoveries: 3 },
            ..Default::default()
        },
        ServiceConfig {
            mutation: MutationConfig { commit_threshold: Some(0), ..Default::default() },
            ..Default::default()
        },
        ServiceConfig {
            durability: Some(DurabilityConfig::new(&never).snapshot_every(0)),
            ..Default::default()
        },
        ServiceConfig {
            durability: Some(DurabilityConfig {
                keep_snapshots: 0,
                ..DurabilityConfig::new(&never)
            }),
            ..Default::default()
        },
    ];
    for (i, cfg) in cases.into_iter().enumerate() {
        match QueryService::try_start(Arc::clone(&engine), cfg.clone()) {
            Err(ServiceError::InvalidConfig(_)) => {}
            Err(other) => panic!("case {i}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("case {i}: a zero knob was accepted"),
        }
        // The durable variants fail identically through the recovery door.
        if cfg.durability.is_some() {
            match QueryService::open_or_recover(&edges, EngineConfig::new(1), cfg) {
                Err(ServiceError::InvalidConfig(_)) => {}
                Err(other) => panic!("case {i}: open_or_recover wrong error: {other}"),
                Ok(_) => panic!("case {i}: open_or_recover accepted a zero knob"),
            }
        }
    }
    assert!(!never.exists(), "rejected configs must not touch the filesystem");
    match QueryService::open_or_recover(&edges, EngineConfig::new(1), ServiceConfig::default()) {
        Err(ServiceError::InvalidConfig(_)) => {}
        Err(other) => panic!("open_or_recover without durability: wrong error {other}"),
        Ok(_) => panic!("open_or_recover without durability must be rejected"),
    }
}

/// What one generation of the chaos loop left behind: the durability
/// counters after `shutdown()`, the snapshot files by name, and the WAL
/// length.
#[derive(Debug, PartialEq, Eq)]
struct GenerationEnd {
    counters: [u64; 8],
    snapshots: Vec<String>,
    wal_len: u64,
    wal_digest: u64,
}

/// The full kill-and-reopen loop under a disk-fault [`FaultPlan`]:
/// torn WAL writes, snapshot bit flips and lost renames. Recovery must
/// always succeed, always land on an epoch that was really committed,
/// and every answer — before and after each "crash" — must match the
/// scratch rebuild. Lost generations rewind the model exactly as the
/// truncated WAL dictates. With `settle` every commit waits for the
/// snapshot job it handed off, so no commit finds the writer busy and
/// the whole run is a function of the seeds.
fn chaos_loop(tag: &str, cadence: u64, settle: bool) -> Vec<GenerationEnd> {
    const N: u64 = 28;
    const GENERATIONS: usize = 6;
    let tmp = TempDir::new(tag);
    let base = seed_edges(N, 50, 0xC4A05);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut batches: Vec<Vec<EdgeUpdate>> = Vec::new();
    let mut rng = Rng(0xC4A05EED);
    let plan =
        FaultPlan::new(0xD15C).with_torn_write(0.12).with_bit_flip(0.08).with_rename_lost(0.25);
    let mut ends = Vec::new();

    for generation in 0..GENERATIONS {
        let cfg =
            ServiceConfig { fault_plan: Some(plan.clone()), ..durable_config(tmp.path(), cadence) };
        let (svc, out) = QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg)
            .unwrap_or_else(|e| panic!("generation {generation}: recovery must survive: {e}"));
        let mut due = settle.then_some(DueCommits { every: cadence, since: 0 });
        let r = out.epoch as usize;
        assert!(
            r < history.len(),
            "generation {generation}: epoch {r} was never committed ({} exist)",
            history.len()
        );
        // Verify the recovered epoch, then rewind the model to what the
        // damaged WAL actually preserved.
        for q in 0..3 {
            let src = rng.below(N);
            let rr = svc.query(KhopQuery::single(q, src, 2)).unwrap();
            assert_eq!(rr.epoch as usize, r, "generation {generation}");
            check(&history, N, src, 2, &rr);
        }
        if out.pending_restored > 0 {
            assert!(r < batches.len(), "generation {generation}: pending beyond known batches");
            let tail = batches[r].clone();
            assert_eq!(out.pending_restored, tail.len(), "generation {generation}");
            history.truncate(r + 1);
            batches.truncate(r + 1);
            let mut m = history[r].clone();
            model_apply(&mut m, &tail);
            let before = svc.stats();
            let ep = svc.commit_epoch().unwrap();
            assert_eq!(ep as usize, r + 1);
            history.push(m);
            if let Some(due) = &mut due {
                due.settle_commit(&svc, &before);
            }
        } else {
            history.truncate(r + 1);
            batches.truncate(r);
        }
        let mut model = history.last().unwrap().clone();
        for _ in 0..2 {
            let before = svc.stats();
            batches.extend(run_rounds(&svc, N, &mut model, &mut history, &mut rng, 1, 6));
            if let Some(due) = &mut due {
                due.settle_commit(&svc, &before);
            }
        }
        svc.shutdown();
        // shutdown() drained the writer: these are final.
        let s = svc.stats();
        let wal = fs::read(tmp.path().join("wal.log")).unwrap();
        ends.push(GenerationEnd {
            counters: [
                s.wal_records,
                s.wal_bytes,
                s.snapshots_written,
                s.snapshot_bytes,
                s.wal_replayed,
                s.snapshots_corrupt,
                s.durable_recoveries,
                s.last_snapshot_epoch,
            ],
            snapshots: snapshot_names(tmp.path()),
            wal_len: wal.len() as u64,
            wal_digest: fnv1a(&wal),
        });
    }
    ends
}

/// The chaos loop as a service runs it: commits do not wait for their
/// snapshots, so a due snapshot may find the writer busy and be
/// skipped — every path through that race must hold the oracle.
#[test]
fn disk_fault_chaos_survives_kill_and_reopen_loop() {
    chaos_loop("chaos", 1, false);
}

/// `DiskFaults` promises a schedule that replays identically as long
/// as the durability operations are issued in a deterministic order.
/// The snapshot's decisions are drawn when a commit asks the plane for
/// its job — at every commit, due or not — not when the writer thread
/// gets to them, so two runs of the same seeds must leave the same
/// counters, the same snapshot files and the same WAL — generation by
/// generation, at cadence 1 (every commit due) and at cadence 2 (which
/// commits are due depends on when the writer booked).
#[test]
fn disk_fault_schedule_replays_identically_beside_a_writer_thread() {
    for cadence in [1, 2] {
        let first = chaos_loop("chaos-replay-a", cadence, true);
        let second = chaos_loop("chaos-replay-b", cadence, true);
        assert_eq!(first, second, "cadence {cadence}");
        assert!(
            first.iter().any(|g| g.counters[2] > 1),
            "some generation must land a snapshot past its start-up checkpoint: {first:?}"
        );
        // Without the waiting, which snapshots land is a race — but the
        // WAL must not notice it: until the first reopen (whose recovery
        // point depends on the snapshots that made it) every append sees
        // the rolls it sees in the settled run, byte for byte.
        for tag in ["chaos-replay-c", "chaos-replay-d"] {
            let racy = chaos_loop(tag, cadence, false);
            assert_eq!(
                (racy[0].wal_len, racy[0].wal_digest, &racy[0].counters[..2]),
                (first[0].wal_len, first[0].wal_digest, &first[0].counters[..2]),
                "cadence {cadence}: the writer's timing reordered the fault schedule"
            );
        }
    }
}

/// The snapshot format did not move: TINY's engine value encodes to the
/// bytes the byte-at-a-time checksum and the per-row vectors produced
/// (digest recorded at the parent of the change that replaced them),
/// and decodes back to what was captured.
#[test]
fn tiny_snapshot_bytes_are_pinned() {
    use cgraph::core::durability::{engine_from_snapshot, snapshot_of};
    use cgraph::graph::snapshot::{decode_snapshot, encode_snapshot};
    let engine = DistributedEngine::new(&Dataset::Tiny.generate(), EngineConfig::new(2));
    let bytes = encode_snapshot(&snapshot_of(&engine, 0));
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (155_756, 0xdc0e_cfa8_eec0_8a53),
        "snapshot bytes moved off the parent's"
    );
    // Again with live overlay rows (inserts and a delete) behind a
    // non-zero covered sequence number.
    let (engine, folded) = engine.with_updates(
        &[EdgeUpdate::insert(1, 2), EdgeUpdate::insert(1, 0), EdgeUpdate::delete(0, 1)],
        usize::MAX,
    );
    assert!(!folded, "the overlay rows are part of what is pinned");
    let snap = snapshot_of(&engine, 7);
    let bytes = encode_snapshot(&snap);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (155_812, 0x92eb_56fc_8372_7d53),
        "snapshot bytes with an overlay moved off the parent's"
    );
    let decoded = decode_snapshot(&bytes).expect("own encoding decodes");
    assert_eq!(decoded, snap);
    let restored = engine_from_snapshot(&decoded, *engine.config());
    assert_eq!(snapshot_of(&restored, 7), snap);
}

/// The snapshot bytes of a weighted graph did not move: a scale-12
/// R-MAT with duplicate edges whose weights `(i % 97) × 0.25` mix 1.0
/// with other values inside one tile, at p = 2, with and without a live
/// overlay (a weighted insert among them). Digests recorded from the
/// shard that stored a target and a weight beside every edge.
#[test]
fn weighted_snapshot_bytes_are_pinned() {
    use cgraph::core::durability::{engine_from_snapshot, snapshot_of};
    use cgraph::graph::snapshot::{decode_snapshot, encode_snapshot};
    let mut rmat12 = cgraph::gen::graph500(12, 8, 49);
    for (i, e) in rmat12.edges_mut().iter_mut().enumerate() {
        e.weight = (i % 97) as f32 * 0.25;
    }
    let engine = DistributedEngine::new(&rmat12, EngineConfig::new(2));
    let bytes = encode_snapshot(&snapshot_of(&engine, 0));
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (423_932, 0x5b2b_fee4_d9b8_3552),
        "weighted snapshot bytes moved"
    );
    let (engine, folded) = engine.with_updates(
        &[
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::insert_weighted(3, 4000, 2.5),
            EdgeUpdate::delete(0, rmat12.edges().iter().find(|e| e.src == 0).unwrap().dst),
        ],
        usize::MAX,
    );
    assert!(!folded, "the overlay rows are part of what is pinned");
    let snap = snapshot_of(&engine, 7);
    let bytes = encode_snapshot(&snap);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (424_000, 0x663f_1497_c9f3_bd61),
        "weighted snapshot bytes with an overlay moved"
    );
    let decoded = decode_snapshot(&bytes).expect("own encoding decodes");
    assert_eq!(decoded, snap);
    let restored = engine_from_snapshot(&decoded, *engine.config());
    assert_eq!(snapshot_of(&restored, 7), snap);
}

/// The crash windows a snapshot job on its own thread opens, each left
/// on disk as the crash would leave it and recovered against the
/// scratch-rebuild model: the restart lands on the last fenced epoch
/// and pays for the missing snapshot in replayed WAL records — never
/// in epochs.
#[test]
fn detached_snapshot_crash_windows_recover_the_last_fenced_epoch() {
    const N: u64 = 30;
    const ROUNDS: usize = 5;
    const CADENCE: u64 = 2;
    let tmp = TempDir::new("windows");
    let base = seed_edges(N, 55, 0x57A1E);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0xB0A7);

    // Live run: snapshots come due at epochs 2 and 4; each is waited
    // for, so the directory ends with snapshots 0, 2 and 4 whatever the
    // disk's speed. The WAL length at the epoch-4 fence is where a
    // crash right after that hand-off would have cut it.
    let (svc, _) = QueryService::open_or_recover(
        &edges,
        EngineConfig::new(2),
        durable_config(tmp.path(), CADENCE),
    )
    .unwrap();
    let mut wal_len_at_fence = Vec::new();
    for round in 1..=ROUNDS as u64 {
        let written = svc.stats().snapshot_bytes;
        run_rounds(&svc, N, &mut model, &mut history, &mut rng, 1, 7);
        wal_len_at_fence.push(fs::metadata(tmp.path().join("wal.log")).unwrap().len() as usize);
        if round % CADENCE == 0 {
            settle_snapshot(&svc, written);
            assert_eq!(svc.stats().last_snapshot_epoch, round);
        }
    }
    svc.shutdown();
    drop(svc);
    assert_eq!(
        snapshot_names(tmp.path()),
        ["snap-0000000000000000.cgs", "snap-0000000000000002.cgs", "snap-0000000000000004.cgs"]
    );

    // Recovers a doctored copy and holds it to the model; returns the
    // records it had to replay.
    let recover = |tag: &str, wal_len: usize, doctor: &dyn Fn(&Path), expect_epoch: usize| {
        let scratch = TempDir::new(tag);
        copy_dir_with_wal_prefix(tmp.path(), scratch.path(), wal_len);
        doctor(scratch.path());
        let (svc, out) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(scratch.path(), CADENCE),
        )
        .unwrap_or_else(|e| panic!("{tag}: recovery must survive: {e}"));
        assert!(out.recovered);
        assert_eq!(out.epoch as usize, expect_epoch, "{tag}: an epoch was lost");
        assert_eq!(out.pending_restored, 0, "{tag}");
        assert_eq!(out.snapshots_corrupt, 0, "{tag}: a missing snapshot is not a corrupt one");
        for q in 0..6 {
            let src = (q * 7 + 1) as u64 % N;
            let r = svc.query(KhopQuery::single(q, src, 3)).unwrap();
            assert_eq!(r.epoch as usize, expect_epoch, "{tag}");
            check(&history[..=expect_epoch], N, src, 3, &r);
        }
        // Still writable, and the orphaned temp file is gone once a
        // snapshot lands (the start-up checkpoint prunes).
        assert_eq!(svc.commit_epoch().unwrap() as usize, expect_epoch + 1);
        svc.shutdown();
        assert!(tmp_files(scratch.path()).is_empty(), "{tag}: stale temp file survived a prune");
        out.wal_records_replayed
    };
    let remove_newest = |dir: &Path| fs::remove_file(snapshot_files(dir).pop().unwrap()).unwrap();
    let at_fence_4 = wal_len_at_fence[3];

    // Job taken at the epoch-4 commit, process killed before it ran.
    let intact = recover("win-intact-4", at_fence_4, &|_| {}, 4);
    assert_eq!(intact, 0, "with its snapshot, the epoch-4 crash replays nothing");
    let never_run = recover("win-never-run", at_fence_4, &remove_newest, 4);
    assert_eq!(never_run, 4, "epochs 3 and 4 replay over the epoch-2 snapshot");

    // Temp file written and synced, killed before the rename.
    let intact = recover("win-intact-5", usize::MAX, &|_| {}, ROUNDS);
    assert_eq!(intact, 2, "with the epoch-4 snapshot, only epoch 5 replays");
    let unrenamed = recover("win-unrenamed", usize::MAX, &unrename_newest_snapshot, ROUNDS);
    assert_eq!(unrenamed, 6);

    // The writer was busy at the epoch-4 commit, the snapshot was
    // skipped, serving went on to epoch 5: no file, no temp file.
    let skipped = recover("win-skipped", usize::MAX, &remove_newest, ROUNDS);
    assert_eq!(skipped, 6);
    assert!(never_run > 0 && unrenamed > intact && skipped > intact);
}

/// `shutdown()` waits for a snapshot the last commit handed off: the
/// directory is quiescent when it returns — the due snapshot under its
/// final name, no temp file — and the counters are final. Repeated so
/// the hand-off / join race gets several chances.
#[test]
fn shutdown_waits_for_the_snapshot_in_flight() {
    const N: u64 = 26;
    const CADENCE: u64 = 3;
    let base = seed_edges(N, 45, 0x5D07);
    let edges = edge_list(N, &base);
    for attempt in 0..8 {
        let tmp = TempDir::new("drain");
        let mut history = vec![base.clone()];
        let mut model = base.clone();
        let mut rng = Rng(0xD4A1 + attempt);
        let (svc, _) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(tmp.path(), CADENCE),
        )
        .unwrap();
        // The third commit is the first due one; the writer has run
        // nothing yet, so it takes the job — and shutdown follows at
        // once.
        for _ in 0..CADENCE {
            let batch = random_batch(N, &model, &mut rng, 6);
            model_apply(&mut model, &batch);
            svc.apply_updates(batch.into_iter().collect()).unwrap();
            svc.commit_epoch().unwrap();
            history.push(model.clone());
        }
        svc.shutdown();
        let newest = snapshot_files(tmp.path()).pop().unwrap();
        assert_eq!(
            newest.file_name().unwrap().to_string_lossy(),
            format!("snap-{CADENCE:016x}.cgs"),
            "attempt {attempt}: shutdown returned before the due snapshot landed"
        );
        assert!(tmp_files(tmp.path()).is_empty(), "attempt {attempt}");
        let s = svc.stats();
        assert_eq!((s.snapshots_written, s.last_snapshot_epoch), (2, CADENCE), "attempt {attempt}");
        drop(svc);
        // And what it left recovers without replaying anything.
        let (svc, out) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(tmp.path(), CADENCE),
        )
        .unwrap();
        assert_eq!((out.epoch, out.wal_records_replayed), (CADENCE, 0), "attempt {attempt}");
        let r = svc.query(KhopQuery::single(0, attempt % N, 2)).unwrap();
        check(&history, N, attempt % N, 2, &r);
        svc.shutdown();
    }
}

/// Strategy-driven version of the crash oracle: a random workload, a
/// random WAL cut point, random snapshot damage, and optionally a
/// disk-faulty reopen — recovery must always land on a committed epoch
/// bit-identical to the scratch rebuild. Pinned cases live in
/// `proptest-regressions/durability_plane.txt`.
#[derive(Clone, Copy, Debug)]
enum SnapDamage {
    None,
    Flip,
    Torn,
    /// Newest snapshot absent, its temp file present: the writer
    /// thread died between fsync and rename.
    Unrenamed,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_wal_prefix_and_damaged_snapshot_recover_consistently(
        seed in 0u64..u64::MAX,
        rounds in 1usize..4,
        batch_len in 1usize..8,
        cut_permille in 0u32..1001,
        damage in prop_oneof![
            Just(SnapDamage::None),
            Just(SnapDamage::Flip),
            Just(SnapDamage::Torn),
            Just(SnapDamage::Unrenamed)
        ],
        faulty_reopen in (0u8..2).prop_map(|b| b == 1),
    ) {
        const N: u64 = 20;
        let tmp = TempDir::new("prop");
        let base = seed_edges(N, 30, seed);
        let edges = edge_list(N, &base);
        let mut history = vec![base.clone()];
        let mut model = base;
        let mut rng = Rng(seed ^ 0x9E3779B97F4A7C15);

        let (svc, _) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(tmp.path(), 2),
        )
        .unwrap();
        let batches =
            run_rounds(&svc, N, &mut model, &mut history, &mut rng, rounds, batch_len);
        svc.shutdown();
        drop(svc);

        // Crash surgery: cut the WAL, damage the newest snapshot.
        let wal_path = tmp.path().join("wal.log");
        let wal = fs::read(&wal_path).unwrap();
        let cut = (wal.len() as u64 * cut_permille as u64 / 1000) as usize;
        fs::write(&wal_path, &wal[..cut]).unwrap();
        if let Some(newest) = snapshot_files(tmp.path()).last() {
            match damage {
                SnapDamage::None => {}
                SnapDamage::Flip => flip_byte(newest),
                SnapDamage::Torn => {
                    let b = fs::read(newest).unwrap();
                    fs::write(newest, &b[..b.len() / 2]).unwrap();
                }
                SnapDamage::Unrenamed => unrename_newest_snapshot(tmp.path()),
            }
        }

        let mut cfg = durable_config(tmp.path(), 2);
        if faulty_reopen {
            cfg.fault_plan = Some(
                FaultPlan::new(seed)
                    .with_torn_write(0.1)
                    .with_bit_flip(0.1)
                    .with_rename_lost(0.3),
            );
        }
        let (svc, out) = QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg)
            .unwrap_or_else(|e| panic!("recovery must survive any prefix: {e}"));
        prop_assert!(
            (out.epoch as usize) < history.len(),
            "epoch {} was never committed",
            out.epoch
        );
        for q in 0..2 {
            let src = rng.below(N);
            let r = svc.query(KhopQuery::single(q, src, 2)).unwrap();
            prop_assert_eq!(r.epoch, out.epoch);
            check(&history, N, src, 2, &r);
        }
        if out.pending_restored > 0 {
            let e = out.epoch as usize;
            prop_assert!(e < batches.len());
            prop_assert_eq!(out.pending_restored, batches[e].len());
            let ep = svc.commit_epoch().unwrap();
            prop_assert_eq!(ep, out.epoch + 1);
            let src = rng.below(N);
            let r = svc.query(KhopQuery::single(9, src, 2)).unwrap();
            prop_assert_eq!(r.epoch, ep);
            check(&history, N, src, 2, &r);
        }
        svc.shutdown();
    }
}

/// The full snapshot the snapshot file at `path` rests on — `None` for a
/// full snapshot itself (read from its header frame).
fn rests_on(path: &Path) -> Option<SnapshotRef> {
    decode_snapshot_header(&fs::read(path).unwrap()).expect("a readable header").base
}

/// A durable config with its own fold threshold and retention.
fn durable_config_with(dir: &Path, every: u64, fold: usize, keep: usize) -> ServiceConfig {
    ServiceConfig {
        mutation: MutationConfig { fold_threshold: fold, ..Default::default() },
        durability: Some(DurabilityConfig {
            keep_snapshots: keep,
            ..DurabilityConfig::new(dir).snapshot_every(every)
        }),
        ..durable_config(dir, every)
    }
}

/// Runs `rounds` commits of `batch_len` updates, waiting after each for
/// the snapshot job it made due (cadence 1), so which files exist does
/// not depend on the disk's speed.
fn settled_rounds(
    svc: &QueryService,
    n: u64,
    model: &mut BTreeSet<(u64, u64)>,
    history: &mut Vec<BTreeSet<(u64, u64)>>,
    rng: &mut Rng,
    rounds: usize,
    batch_len: usize,
) {
    for _ in 0..rounds {
        let before = svc.stats().snapshot_bytes;
        run_rounds(svc, n, model, history, rng, 1, batch_len);
        settle_snapshot(svc, before);
    }
}

/// Asks a few queries of a recovered service and holds them to the
/// model at the epoch it must have recovered.
fn check_recovered(svc: &QueryService, history: &[BTreeSet<(u64, u64)>], n: u64, epoch: usize) {
    for q in 0..4 {
        let src = (q * 5 + 2) % n;
        let r = svc.query(KhopQuery::single(q as usize, src, 3)).unwrap();
        assert_eq!(r.epoch as usize, epoch);
        check(history, n, src, 3, &r);
    }
}

/// `(start, end)` of every frame of an encoded snapshot.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        out.push((at, at + 8 + len));
        at += 8 + len;
    }
    out
}

/// Overlay snapshots rest on a full snapshot: damage that one — cut at
/// every frame boundary, or one byte flipped in each frame — and every
/// overlay snapshot over it is rejected with it. Recovery counts each
/// file once, falls back to the base graph and the whole WAL, and still
/// reaches the last fenced epoch.
#[test]
fn a_damaged_full_snapshot_rejects_the_overlays_resting_on_it() {
    const N: u64 = 28;
    const ROUNDS: usize = 5;
    let tmp = TempDir::new("base-damage");
    let base = seed_edges(N, 50, 0xBA5E);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0xD1CE);
    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), durable_config(tmp.path(), 1))
            .unwrap();
    settled_rounds(&svc, N, &mut model, &mut history, &mut rng, ROUNDS, 8);
    svc.shutdown();
    drop(svc);
    let names = snapshot_names(tmp.path());
    assert_eq!(
        names,
        [
            "snap-0000000000000000.cgs",
            "snap-0000000000000003.cgs",
            "snap-0000000000000004.cgs",
            "snap-0000000000000005.cgs"
        ],
        "three retained overlay snapshots and the full one they rest on"
    );
    let files = snapshot_files(tmp.path());
    let full = fs::read(&files[0]).unwrap();
    assert_eq!(rests_on(&files[0]), None);
    for overlay in &files[1..] {
        assert_eq!(rests_on(overlay).map(|r| r.epoch), Some(0));
    }

    let recover = |tag: String, doctored: &[u8]| {
        let scratch = TempDir::new(&tag);
        copy_dir_with_wal_prefix(tmp.path(), scratch.path(), usize::MAX);
        fs::write(scratch.path().join(&names[0]), doctored).unwrap();
        let (svc, out) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(scratch.path(), 1),
        )
        .unwrap_or_else(|e| panic!("{tag}: recovery must survive: {e}"));
        assert_eq!(out.epoch as usize, ROUNDS, "{tag}: an epoch was lost");
        assert_eq!(out.snapshots_corrupt, names.len(), "{tag}: each rejected file counts once");
        assert_eq!(out.wal_records_replayed, 2 * ROUNDS as u64, "{tag}: the whole WAL replays");
        check_recovered(&svc, &history, N, ROUNDS);
        svc.shutdown();
    };
    let bounds = frames(&full);
    assert_eq!(bounds.len(), 2 + 2, "header, two partitions, END");
    for &(start, end) in &bounds {
        recover(format!("cut-{start}"), &full[..start]);
        let mut flipped = full.clone();
        flipped[start + 8 + (end - start - 8) / 2] ^= 0x40;
        recover(format!("flip-{start}"), &flipped);
    }
}

/// A full snapshot whose rename is lost puts no base on disk: the next
/// due snapshot is full again, and no overlay snapshot ever rests on the
/// lost file. Seeds are scanned for runs in which the full snapshot
/// after the fold lost its rename; every run must recover.
#[test]
fn a_lost_full_write_makes_the_next_snapshot_full() {
    const N: u64 = 26;
    const ROUNDS: usize = 5;
    let base = seed_edges(N, 40, 0x1057);
    let edges = edge_list(N, &base);
    let mut lost_then_full = 0;
    for seed in 0..40u64 {
        let tmp = TempDir::new("lost-full");
        let mut history = vec![base.clone()];
        let mut model = base.clone();
        let mut rng = Rng(0xF011 + seed);
        // Fold threshold 4: the first commit's 8 updates fold, the
        // single-update commits after it stay overlays.
        let cfg = ServiceConfig {
            fault_plan: Some(FaultPlan::new(seed).with_rename_lost(0.5)),
            ..durable_config_with(tmp.path(), 1, 4, 8)
        };
        let (svc, _) = QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg).unwrap();
        let mut landed = Vec::new();
        for round in 0..ROUNDS {
            let before = svc.stats();
            let len = if round == 0 { 8 } else { 1 };
            settled_rounds(&svc, N, &mut model, &mut history, &mut rng, 1, len);
            landed.push(svc.stats().snapshots_written > before.snapshots_written);
        }
        assert_eq!(svc.stats().epoch_folds, 1, "seed {seed}: the first commit folds, only it");
        svc.shutdown();
        drop(svc);
        // Epoch 1 (the fold) lost its rename; the next snapshot that
        // landed must be a full one.
        let files = snapshot_files(tmp.path());
        let kind = |epoch: u64| {
            let name = format!("snap-{epoch:016x}.cgs");
            files.iter().find(|p| p.ends_with(&name)).map(|p| rests_on(p))
        };
        if !landed[0] {
            assert_eq!(kind(1), None, "seed {seed}");
            if let Some(first) = (2..=ROUNDS as u64).find(|&e| landed[e as usize - 1]) {
                assert_eq!(kind(first), Some(None), "seed {seed}: epoch {first} must be full");
                lost_then_full += 1;
            }
        }
        // No overlay snapshot rests on a file that is not on disk or is
        // not full, nor on the pre-fold base.
        for p in &files {
            if let Some(r) = rests_on(p) {
                assert!(r.epoch >= 1, "seed {seed}: {p:?} rests on the pre-fold base");
                let full = snapshot_files(tmp.path())
                    .into_iter()
                    .find(|q| q.ends_with(format!("snap-{:016x}.cgs", r.epoch)))
                    .unwrap_or_else(|| panic!("seed {seed}: {p:?} rests on a missing file"));
                assert_eq!(rests_on(&full), None, "seed {seed}");
            }
        }
        let (svc, out) = QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config_with(tmp.path(), 1, 4, 8),
        )
        .unwrap();
        assert_eq!((out.epoch as usize, out.snapshots_corrupt), (ROUNDS, 0), "seed {seed}");
        check_recovered(&svc, &history, N, ROUNDS);
        svc.shutdown();
    }
    assert!(lost_then_full >= 3, "only {lost_then_full} seeds lost the post-fold full write");
}

/// Pruning at `keep_snapshots = 1` keeps the newest snapshot — after
/// twenty commits an overlay one — and the full snapshot it rests on,
/// however old; the pair recovers the tip without replaying anything.
#[test]
fn pruning_keeps_the_full_snapshot_a_retained_overlay_rests_on() {
    const N: u64 = 24;
    const ROUNDS: usize = 20;
    let tmp = TempDir::new("prune-base");
    let base = seed_edges(N, 40, 0x9B0E);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base.clone();
    let mut rng = Rng(0x4EE9);
    let cfg = durable_config_with(tmp.path(), 1, MutationConfig::default().fold_threshold, 1);
    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg.clone()).unwrap();
    settled_rounds(&svc, N, &mut model, &mut history, &mut rng, ROUNDS, 3);
    svc.shutdown();
    assert_eq!(svc.stats().snapshots_written, 1 + ROUNDS as u64);
    drop(svc);
    assert_eq!(
        snapshot_names(tmp.path()),
        ["snap-0000000000000000.cgs", "snap-0000000000000014.cgs"]
    );
    let files = snapshot_files(tmp.path());
    assert_eq!(rests_on(&files[1]).map(|r| r.epoch), Some(0));
    let (svc, out) = QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg).unwrap();
    assert_eq!((out.epoch as usize, out.wal_records_replayed), (ROUNDS, 0));
    check_recovered(&svc, &history, N, ROUNDS);
    svc.shutdown();
    drop(svc);

    // Right after a fold the newest `keep` snapshots are the new full
    // one and overlay snapshots over the old base: that base stays too,
    // so a damaged new full snapshot falls back to the overlay before
    // it, not to the base graph.
    let tmp = TempDir::new("prune-fold");
    let mut history = vec![base.clone()];
    let mut model = base.clone();
    let cfg = durable_config_with(tmp.path(), 1, 4, 3);
    let (svc, _) =
        QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg.clone()).unwrap();
    settled_rounds(&svc, N, &mut model, &mut history, &mut rng, 2, 1);
    settled_rounds(&svc, N, &mut model, &mut history, &mut rng, 1, 8);
    svc.shutdown();
    assert_eq!(svc.stats().epoch_folds, 1, "only the third commit folds");
    drop(svc);
    let files = snapshot_files(tmp.path());
    let kinds: Vec<_> = files.iter().map(|p| rests_on(p).map(|r| r.epoch)).collect();
    assert_eq!(kinds, [None, Some(0), Some(0), None], "F0, O1, O2 over it, F3");
    flip_byte(&files[3]);
    let (svc, out) = QueryService::open_or_recover(&edges, EngineConfig::new(2), cfg).unwrap();
    assert_eq!(out.snapshots_corrupt, 1, "only the damaged full snapshot");
    assert_eq!((out.epoch, out.wal_records_replayed), (3, 2), "epoch 3 replays over O2");
    check_recovered(&svc, &history, N, 3);
    svc.shutdown();
}

/// A restart at an overlay-snapshot tip writes nothing — the pair on
/// disk is already this epoch's checkpoint. A restart that replayed
/// commits without folding checkpoints an overlay snapshot over the full
/// one recovery loaded its base from.
#[test]
fn restart_checkpoints_write_overlays_over_the_recovered_base() {
    const N: u64 = 32;
    let tmp = TempDir::new("overlay-tip");
    let base = seed_edges(N, 60, 0x0E1A);
    let edges = edge_list(N, &base);
    let mut history = vec![base.clone()];
    let mut model = base;
    let mut rng = Rng(0x7199);
    let open = |every: u64| {
        QueryService::open_or_recover(
            &edges,
            EngineConfig::new(2),
            durable_config(tmp.path(), every),
        )
        .unwrap()
    };
    // Cadence 1: the clean stop leaves an overlay snapshot at the tip.
    let (svc, _) = open(1);
    settled_rounds(&svc, N, &mut model, &mut history, &mut rng, 3, 4);
    svc.shutdown();
    drop(svc);
    let tip = snapshot_files(tmp.path()).pop().unwrap();
    assert!(tip.ends_with("snap-0000000000000003.cgs"));
    assert_eq!(rests_on(&tip).map(|r| r.epoch), Some(0));

    let (svc, out) = open(1);
    assert_eq!((out.epoch, out.wal_records_replayed, out.snapshots_corrupt), (3, 0, 0));
    svc.shutdown();
    let s = svc.stats();
    drop(svc);
    assert_eq!((s.snapshots_written, s.snapshot_bytes), (0, 0), "{s:?}");
    assert_eq!(s.last_snapshot_epoch, 3);

    // Two more commits past the cadence stay in the WAL; the restart
    // replays them (no fold) and its checkpoint rests on epoch 0 again.
    let (svc, _) = open(100);
    run_rounds(&svc, N, &mut model, &mut history, &mut rng, 2, 4);
    svc.shutdown();
    drop(svc);
    let (svc, out) = open(100);
    assert_eq!((out.epoch, out.wal_records_replayed), (5, 4));
    check_recovered(&svc, &history, N, 5);
    svc.shutdown();
    let s = svc.stats();
    drop(svc);
    assert_eq!(s.snapshots_written, 1);
    let tip = snapshot_files(tmp.path()).pop().unwrap();
    assert!(tip.ends_with("snap-0000000000000005.cgs"));
    assert_eq!(rests_on(&tip).map(|r| r.epoch), Some(0), "the checkpoint is an overlay snapshot");
    assert_eq!(s.snapshot_bytes, fs::metadata(&tip).unwrap().len());
    let (svc, out) = open(100);
    assert_eq!((out.epoch, out.wal_records_replayed), (5, 0));
    check_recovered(&svc, &history, N, 5);
    svc.shutdown();
}

/// The overlay snapshot format on TINY: the bytes an overlay snapshot
/// over the pinned full snapshot encodes to (digest recorded when the
/// format was introduced), and the engine value the pair restores.
#[test]
fn tiny_overlay_snapshot_bytes_are_pinned() {
    use cgraph::core::durability::{engine_from_snapshot, overlay_snapshot_of, snapshot_of};
    use cgraph::graph::snapshot::{
        decode_overlay_snapshot, encode_overlay_snapshot, encode_snapshot, full_snapshot_ref,
    };
    let engine = DistributedEngine::new(&Dataset::Tiny.generate(), EngineConfig::new(2));
    let full = encode_snapshot(&snapshot_of(&engine, 0));
    let base = full_snapshot_ref(&full).unwrap();
    assert_eq!((base.epoch, base.last_seq), (0, 0));
    let (engine, folded) = engine.with_updates(
        &[EdgeUpdate::insert(1, 2), EdgeUpdate::insert(1, 0), EdgeUpdate::delete(0, 1)],
        usize::MAX,
    );
    assert!(!folded);
    let overlay = overlay_snapshot_of(&engine, 7, base);
    let bytes = encode_overlay_snapshot(&overlay);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes), base.digest),
        (224, 0x9c30_29db_fc7f_829b, 0x72e0_9516),
        "overlay snapshot bytes moved"
    );
    let decoded = decode_overlay_snapshot(&bytes).expect("own encoding decodes");
    assert_eq!(decoded, overlay);
    let restored = engine_from_snapshot(&decoded.over(&full).unwrap(), *engine.config());
    assert_eq!(snapshot_of(&restored, 7), snapshot_of(&engine, 7));
}
